"""Exact simulation of linear-optical interferometers fed with partially
distinguishable single photons of arbitrary spectral structure.

The package computes exact outcome probabilities (no Monte-Carlo) for
both spectrally resolving and non-resolving detectors, and ships a
brute-force Fock-space oracle for cross-checking the engine at small
scale.

Importing the package imports none of its submodules. _EXPORTS lists
the public names of each submodule, and __all__ is that table read in
order. A module __getattr__ (PEP 562) imports a name's submodule on
first access and keeps the name in the package's namespace, so
``from bosonspectra import X`` and ``bosonspectra.X`` load only the
submodule that defines X and what it imports; ``bosonspectra.sampling``
and the other submodules resolve the same way. A process pays for
compiling only the modules it uses: ``bosonspectra permanent`` runs
without the engine or the oracle (see ``cli``).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule's public names, in the order of __all__.
_EXPORTS = {
    "errors": ("BosonSpectraError", "CapacityError", "ConfigurationError", "DimensionError", "RepresentationError"),
    "network": ("Interferometer", "amplitude_ideal", "as_occupation", "make_beamsplitter_50_50", "make_dft",
                "make_random_unitary", "submatrix"),
    "oracle": ("FockState", "fock_evolve", "oracle_probability", "verify_against_oracle", "verify_chunks"),
    "permanent": ("permanent_naive", "permanent_ryser"),
    "sampling": ("MixedPhotonSource", "amplitude_resolved", "default_input_modes", "distribution_nonresolved",
                 "distribution_resolved", "enumerate_resolved_outcomes", "mixture_lambdas", "mixture_terms",
                 "probability_chunks", "probability_distinguishable_fast", "probability_indistinguishable_fast",
                 "probability_mixed", "probability_nonresolved", "probability_resolved"),
    "spectra": ("CoefficientSpectrum", "GaussianWavepacket", "LambdaMatrix", "gram_matrix", "lambda_from_photons",
                "orthonormal_decomposition", "overlap"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "document"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
