"""Exact simulation of linear-optical interferometers fed with partially
distinguishable single photons of arbitrary spectral structure.

The package computes exact outcome probabilities (no Monte-Carlo) for
both spectrally resolving and non-resolving detectors, and ships a
brute-force Fock-space oracle for cross-checking the engine at small
scale.
"""

from .errors import (
    BosonSpectraError,
    CapacityError,
    ConfigurationError,
    DimensionError,
    RepresentationError,
)
from .network import (
    Interferometer,
    amplitude_ideal,
    as_occupation,
    make_beamsplitter_50_50,
    make_dft,
    make_random_unitary,
    submatrix,
)
from .oracle import FockState, fock_evolve, oracle_probability, verify_against_oracle, verify_chunks
from .permanent import permanent_naive, permanent_ryser
from .sampling import (
    MixedPhotonSource,
    amplitude_resolved,
    default_input_modes,
    distribution_nonresolved,
    distribution_resolved,
    enumerate_resolved_outcomes,
    mixture_lambdas,
    mixture_terms,
    probability_chunks,
    probability_distinguishable_fast,
    probability_indistinguishable_fast,
    probability_mixed,
    probability_nonresolved,
    probability_resolved,
)
from .spectra import (
    CoefficientSpectrum,
    GaussianWavepacket,
    LambdaMatrix,
    gram_matrix,
    lambda_from_photons,
    orthonormal_decomposition,
    overlap,
)

__version__ = "0.1.0"

__all__ = [
    "BosonSpectraError",
    "CapacityError",
    "ConfigurationError",
    "DimensionError",
    "RepresentationError",
    "Interferometer",
    "amplitude_ideal",
    "as_occupation",
    "make_beamsplitter_50_50",
    "make_dft",
    "make_random_unitary",
    "submatrix",
    "FockState",
    "fock_evolve",
    "oracle_probability",
    "verify_against_oracle",
    "verify_chunks",
    "permanent_naive",
    "permanent_ryser",
    "MixedPhotonSource",
    "amplitude_resolved",
    "default_input_modes",
    "distribution_nonresolved",
    "distribution_resolved",
    "enumerate_resolved_outcomes",
    "mixture_lambdas",
    "mixture_terms",
    "probability_chunks",
    "probability_distinguishable_fast",
    "probability_indistinguishable_fast",
    "probability_mixed",
    "probability_nonresolved",
    "probability_resolved",
    "CoefficientSpectrum",
    "GaussianWavepacket",
    "LambdaMatrix",
    "gram_matrix",
    "lambda_from_photons",
    "orthonormal_decomposition",
    "overlap",
]
