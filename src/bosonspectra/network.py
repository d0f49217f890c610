"""Interferometer unitaries and the submatrices that feed the permanent kernel.

Spatial occupation configurations are plain integer sequences of length m
(entry p = photon count in mode p+1). Mode numbers in user-facing lists
such as input modes are 1-based, matching the usual optics convention.
"""

import math

import numpy as np

from .errors import ConfigurationError, DimensionError, _complex_array, _integer, _Record
from .permanent import _count_rows, permanent_ryser

UNITARITY_TOL = 1e-10


class Interferometer(_Record):
    """An m-mode linear-optical network, i.e. an m x m unitary matrix.

    Columns are input modes, rows are output modes: U[b, a] is the
    single-photon transfer amplitude from mode a to mode b, so the
    permanent rule reads output configurations off the rows. Unitarity
    is checked at construction (max absolute entry of U U^dag - I below
    1e-10); the stored matrix is read-only. Two networks are equal only
    if they are the same object.
    """

    _frozen = ("matrix",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix: np.ndarray) -> None:
        u = _complex_array(matrix, "interferometer matrix")
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
            raise DimensionError(f"interferometer matrix must be square and non-empty, got {u.shape}")
        deviation = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
        if deviation > UNITARITY_TOL:
            raise DimensionError(
                f"matrix is not unitary: max |U U^dag - I| = {deviation:.3e} > {UNITARITY_TOL}"
            )
        u.setflags(write=False)
        vars(self)["matrix"] = u

    @property
    def m(self) -> int:
        """Number of spatial modes."""
        return self.matrix.shape[0]


def _as_tuple(x, what: str) -> tuple:
    """tuple(x), or ConfigurationError naming what if x is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise ConfigurationError(f"{what} must be a sequence, got {x!r}") from None


def as_occupation(counts, m: int | None = None) -> tuple[int, ...]:
    """Normalize an occupation configuration to a tuple of non-negative ints."""
    counts = _as_tuple(counts, "occupation counts")
    occ = tuple(_integer(c, "occupation count") for c in counts)
    if any(o < 0 for o in occ):
        raise ConfigurationError(f"occupation counts must be non-negative integers, got {counts!r}")
    if m is not None and len(occ) != m:
        raise ConfigurationError(f"occupation has {len(occ)} modes, expected {m}")
    return occ


def submatrix(interferometer: Interferometer, output_occ, input_occ) -> np.ndarray:
    """The k x k matrix U_{S,T} for output configuration S and input T.

    Column j of U is repeated T_j times (ascending j), then row i of the
    result is repeated S_i times (ascending i). The fixed ascending order
    is irrelevant to permanents but keeps results byte-stable.
    """
    m = interferometer.m
    s, t = as_occupation(output_occ, m), as_occupation(input_occ, m)
    if sum(s) != sum(t):
        raise ConfigurationError(
            f"photon count mismatch: output has {sum(s)}, input has {sum(t)}"
        )
    return interferometer.matrix[np.ix_(*_count_rows(np.array([s, t])))]


def amplitude_ideal(interferometer: Interferometer, output_occ, input_occ) -> complex:
    """Transition amplitude for indistinguishable photons, T -> S.

    Per(U_{S,T}) / sqrt(S_1! ... S_m! T_1! ... T_m!), the permanent rule
    with the factorial normalization required once modes can hold more
    than one photon. Empty configurations give amplitude 1.
    """
    m = interferometer.m
    s = as_occupation(output_occ, m)
    t = as_occupation(input_occ, m)
    per = permanent_ryser(submatrix(interferometer, s, t))
    norm = math.prod(math.factorial(c) for c in s) * math.prod(math.factorial(c) for c in t)
    return complex(per / math.sqrt(norm))


def make_beamsplitter_50_50() -> Interferometer:
    """The 50/50 beamsplitter (Hadamard matrix) on two modes."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    return Interferometer(h)


def make_dft(m: int) -> Interferometer:
    """Discrete-Fourier-transform network: entry (j,k) = exp(2*pi*i*j*k/m)/sqrt(m)."""
    m = _integer(m, "mode count", 1, DimensionError)
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return Interferometer(np.exp(2j * np.pi * j * k / m) / math.sqrt(m))


def make_random_unitary(m: int, seed: int) -> Interferometer:
    """Haar-like random unitary, deterministic for a fixed seed.

    QR-orthonormalizes an m x m complex Ginibre matrix and fixes the
    phases of the R diagonal (the standard recipe for Haar sampling).
    """
    m = _integer(m, "mode count", 1, DimensionError)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return Interferometer(q)
