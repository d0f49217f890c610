"""Photon spectral wavefunctions, overlaps and the coefficient matrix.

A photon's spectral wavefunction can be given either as a Gaussian
wavepacket (center, width, delay) or as an explicit coefficient row in a
caller-declared orthonormal basis. Pairwise overlaps form a Gram matrix;
its rank-revealing Cholesky factor is the coefficient matrix ("lambda
matrix") whose row j holds photon j's expansion in the induced
orthonormal basis. Basis indices are 1-based throughout, matching the
xi_1, xi_2, ... naming of the basis functions.
"""

import math

import numpy as np

from .errors import CapacityError, ConfigurationError, DimensionError, RepresentationError, _Record
from .errors import _complex_array, _real

ROW_NORM_TOL = 1e-10
GRAM_PSD_TOL = 1e-9
RANK_TOL = 1e-12


class GaussianWavepacket(_Record):
    """Normalized Gaussian spectral amplitude with a temporal delay.

    psi(w) = (2 pi sigma^2)^(-1/4) exp(-(w - mu)^2 / (4 sigma^2)) exp(i w tau),
    so |psi|^2 is a normal density with standard deviation sigma and the
    delay tau enters as a pure phase.
    """

    _fields = ("mu", "sigma", "tau")

    def __init__(self, mu: float, sigma: float, tau: float = 0.0) -> None:
        mu, sigma, tau = _real(mu, "mu"), _real(sigma, "sigma"), _real(tau, "tau")
        if not (sigma > 0):
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        vars(self).update(mu=mu, sigma=sigma, tau=tau)


class CoefficientSpectrum(_Record):
    """Explicit unit-norm coefficient row in a caller-declared orthonormal basis."""

    _frozen = ("coefficients",)

    def __init__(self, coefficients: np.ndarray) -> None:
        c = _complex_array(coefficients, "coefficient row", ConfigurationError).reshape(-1)
        if c.size == 0:
            raise ConfigurationError("coefficient row must be non-empty")
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > ROW_NORM_TOL:
            raise ConfigurationError(f"coefficient row must have unit norm, got {norm!r}")
        c.setflags(write=False)
        vars(self)["coefficients"] = c

    @property
    def basis_size(self) -> int:
        return self.coefficients.size

    def __eq__(self, other):
        if not isinstance(other, CoefficientSpectrum):
            return NotImplemented
        return self.coefficients.shape == other.coefficients.shape and bool(
            np.all(self.coefficients == other.coefficients)
        )

    def __hash__(self):
        return hash(self.coefficients.tobytes())


SpectralSpec = GaussianWavepacket | CoefficientSpectrum


def overlap(a: SpectralSpec, b: SpectralSpec) -> complex:
    """Spectral inner product integral(a(w)* b(w) dw).

    Gaussian pairs use the analytic closed form (validated against
    numerical quadrature in the test suite); explicit rows use the
    Hermitian inner product. Mixing the two kinds has no shared basis
    and raises RepresentationError. Gaussian parameters so extreme that
    the closed form overflows, divides by zero or is not finite raise
    ConfigurationError naming both photons.
    """
    if isinstance(a, GaussianWavepacket) and isinstance(b, GaussianWavepacket):
        if a == b:
            return complex(1.0)
        with np.errstate(all="ignore"):
            try:
                value = _gaussian_overlap(a, b)
            except ArithmeticError:  # overflow, or a width squared to 0
                value = math.nan
        if not np.isfinite(value):
            raise ConfigurationError(f"the overlap of {a} and {b} is out of floating-point range")
        return value
    if isinstance(a, CoefficientSpectrum) and isinstance(b, CoefficientSpectrum):
        if a.basis_size != b.basis_size:
            raise RepresentationError(
                f"coefficient rows live in different bases (N={a.basis_size} vs {b.basis_size})"
            )
        return complex(np.vdot(a.coefficients, b.coefficients))
    raise RepresentationError(
        "cannot overlap a Gaussian wavepacket with an explicit coefficient row"
    )


def _gaussian_overlap(a: GaussianWavepacket, b: GaussianWavepacket) -> complex:
    # Gaussian integral of conj(a) * b; the delay difference appears as a
    # linear imaginary term in the exponent.
    qa = 1.0 / (4.0 * a.sigma**2)
    qb = 1.0 / (4.0 * b.sigma**2)
    quad = qa + qb
    lin = 2.0 * (a.mu * qa + b.mu * qb) + 1j * (b.tau - a.tau)
    const = a.mu**2 * qa + b.mu**2 * qb
    prefactor = (2.0 * np.pi * a.sigma**2) ** -0.25 * (2.0 * np.pi * b.sigma**2) ** -0.25
    return complex(prefactor * math.sqrt(math.pi / quad) * np.exp(lin**2 / (4.0 * quad) - const))


def gram_matrix(photons) -> np.ndarray:
    """Hermitian matrix of pairwise overlaps, G[a, b] = overlap(a, b).

    The lower triangle is filled by conjugation so the result is exactly
    Hermitian; the diagonal is 1 by photon normalization.
    """
    photons = list(photons)
    n = len(photons)
    if n == 0:
        raise ConfigurationError("need at least one photon")
    g = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        g[i, i] = overlap(photons[i], photons[i])
        for j in range(i + 1, n):
            g[i, j] = overlap(photons[i], photons[j])
            g[j, i] = np.conj(g[i, j])
    return g


class LambdaMatrix(_Record):
    """n x N matrix of spectral decomposition coefficients.

    Row j is photon j's unit-norm expansion over the orthonormal basis
    functions xi_1 .. xi_N (columns). Rows are checked at construction and
    the stored matrix is read-only, as is gram, the photons' Gram matrix G
    (the matrix orthonormal_decomposition factored, else lambda lambda^dag).
    Two matrices are equal only if they are the same object.
    """

    _frozen = ("matrix", "gram")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix):
        m = _complex_array(matrix, "lambda matrix")
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise DimensionError(f"lambda matrix must be 2-D and non-empty, got shape {m.shape}")
        norms = np.linalg.norm(m, axis=1)
        bad = np.abs(norms - 1.0) > ROW_NORM_TOL
        if np.any(bad):
            raise ConfigurationError(
                f"photon rows must have unit norm; rows {np.nonzero(bad)[0].tolist()} "
                f"have norms {norms[bad].tolist()}"
            )
        g = m @ m.conj().T
        m.setflags(write=False)
        g.setflags(write=False)
        vars(self).update(matrix=m, gram=g)

    @property
    def n(self) -> int:
        """Photon count (rows)."""
        return self.matrix.shape[0]

    @property
    def basis_size(self) -> int:
        """Number of basis functions (columns)."""
        return self.matrix.shape[1]

    def rotated(self, w) -> "LambdaMatrix":
        """The same photons expressed in a rotated basis: lambda @ W."""
        w = _complex_array(w, "rotation matrix")
        if w.ndim != 2 or len(w) != self.basis_size:
            raise DimensionError(f"rotation matrix must have {self.basis_size} rows, got shape {w.shape}")
        return LambdaMatrix(self.matrix @ w)

    def __repr__(self):
        return f"LambdaMatrix(n={self.n}, basis_size={self.basis_size})"


def orthonormal_decomposition(gram) -> LambdaMatrix:
    """Coefficient matrix of the photons in their own induced basis.

    Rank-revealing Cholesky in photon order: photon 1 defines xi_1, each
    later photon adds a new direction only if its residual norm exceeds
    the rank tolerance, so identical photons collapse onto shared basis
    functions instead of failing. Satisfies lambda @ lambda^dag = G and
    is lower-triangular up to dropped directions.

    G must be finite (else DimensionError), Hermitian, unit-diagonal and
    positive semidefinite down to -GRAM_PSD_TOL (else ConfigurationError).
    The factor certifies the last check itself: with E = G - lambda
    lambda^dag and lambda lambda^dag PSD, min eig(G) >= -||E||_2 >=
    -n max|E_ij|. When n max|E_ij| is at most half of GRAM_PSD_TOL (the
    other half covers the product's own rounding) the check passes on one
    matrix product; otherwise np.linalg.eigvalsh decides against the same
    tolerance. (An eigensolver's first call pages in LAPACK, about 0.9 MB
    of a process's peak RSS.) Well-separated photons pass on the factor
    alone; slowly varying ones, whose factor drops directions of rounding
    size, reach eigvalsh (the Gaussians mu = 0.05 j, sigma = 1 + 0.01 j,
    tau = 0.02 j from n = 11 on). A Gram matrix too ill-conditioned for
    the factor at double precision leaves rows off unit norm by more than
    ROW_NORM_TOL; CapacityError then names the first one's photon
    (1-based), after the PSD check. The result's gram is a copy of G.
    """
    g = _complex_array(gram, "Gram matrix")
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
        raise DimensionError(f"Gram matrix must be square and non-empty, got {g.shape}")
    n = g.shape[0]
    if np.max(np.abs(g - g.conj().T)) > 1e-8:
        raise ConfigurationError("Gram matrix must be Hermitian")
    if np.max(np.abs(np.diag(g) - 1.0)) > 1e-8:
        raise ConfigurationError("Gram matrix must have unit diagonal (normalized photons)")

    lam = np.zeros((n, n), dtype=np.complex128)
    pivots: list[int] = []
    # A G that is not PSD can grow the factor without bound; its miss is
    # then inf or nan, and eigvalsh decides.
    with np.errstate(all="ignore"):
        for a in range(n):
            for j, p in enumerate(pivots):
                lam[a, j] = (g[a, p] - lam[a, :j] @ lam[p, :j].conj()) / lam[p, j].real
            r = len(pivots)
            # Diagonal residual of the Cholesky step. A linearly dependent
            # photon leaves cancellation noise of rounding size here, so the
            # rank cut must act on the residual itself, not its square root.
            residual = g[a, a].real - float(np.linalg.norm(lam[a, :r]) ** 2)
            if residual > RANK_TOL:
                lam[a, r] = math.sqrt(residual)
                pivots.append(a)
        lam = lam[:, : len(pivots)]
        miss = n * np.max(np.abs(lam @ lam.conj().T - g))
    if not miss <= GRAM_PSD_TOL / 2:
        least = np.min(np.linalg.eigvalsh(g))
        if least < -GRAM_PSD_TOL:
            raise ConfigurationError(f"Gram matrix is not positive semidefinite (min eigenvalue {least:.3e})")
    norms = np.linalg.norm(lam, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > ROW_NORM_TOL)
    if bad.size:
        raise CapacityError(
            "the Gram matrix is too ill-conditioned for the rank-revealing Cholesky at double precision: "
            f"photon {bad[0] + 1}'s row has norm {float(norms[bad[0]])!r}"
        )
    lam = LambdaMatrix(lam)
    g.setflags(write=False)
    vars(lam)["gram"] = g
    return lam


def lambda_from_photons(photons) -> LambdaMatrix:
    """Build the coefficient matrix for a list of spectral specs.

    Explicit coefficient rows (all in the same declared basis) are
    stacked as-is; Gaussian wavepackets go through the Gram matrix and
    its orthonormal decomposition.
    """
    photons = list(photons)
    if not photons:
        raise ConfigurationError("need at least one photon")
    if all(isinstance(p, CoefficientSpectrum) for p in photons):
        sizes = {p.basis_size for p in photons}
        if len(sizes) > 1:
            raise RepresentationError(f"coefficient rows disagree on basis size: {sorted(sizes)}")
        return LambdaMatrix(np.vstack([p.coefficients for p in photons]))
    if all(isinstance(p, GaussianWavepacket) for p in photons):
        return orthonormal_decomposition(gram_matrix(photons))
    raise RepresentationError("photons mix Gaussian and explicit-row specs; no shared basis")
