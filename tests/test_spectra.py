import math

import numpy as np
import pytest
from scipy.integrate import quad

from bosonspectra import (
    CapacityError,
    CoefficientSpectrum,
    ConfigurationError,
    DimensionError,
    GaussianWavepacket,
    LambdaMatrix,
    RepresentationError,
    gram_matrix,
    lambda_from_photons,
    orthonormal_decomposition,
    overlap,
)
from chi_reference import chi, enumerate_configurations, t_sets
from conftest import hom_lambda, random_unit_rows


def gaussian_amplitude(w, packet):
    return (
        (2.0 * np.pi * packet.sigma**2) ** -0.25
        * np.exp(-((w - packet.mu) ** 2) / (4.0 * packet.sigma**2))
        * np.exp(1j * w * packet.tau)
    )


def overlap_by_quadrature(a, b):
    lo = min(a.mu - 12 * a.sigma, b.mu - 12 * b.sigma)
    hi = max(a.mu + 12 * a.sigma, b.mu + 12 * b.sigma)
    re = quad(lambda w: (np.conj(gaussian_amplitude(w, a)) * gaussian_amplitude(w, b)).real,
              lo, hi, limit=400)[0]
    im = quad(lambda w: (np.conj(gaussian_amplitude(w, a)) * gaussian_amplitude(w, b)).imag,
              lo, hi, limit=400)[0]
    return re + 1j * im


class TestOverlap:
    def test_identical_gaussians_normalized(self):
        g = GaussianWavepacket(0.7, 1.3, -0.4)
        assert overlap(g, g) == 1.0

    def test_closed_form_matches_quadrature(self, rng):
        for _ in range(25):
            a = GaussianWavepacket(rng.uniform(-3, 3), rng.uniform(0.2, 2.5), rng.uniform(-3, 3))
            b = GaussianWavepacket(rng.uniform(-3, 3), rng.uniform(0.2, 2.5), rng.uniform(-3, 3))
            assert abs(overlap(a, b) - overlap_by_quadrature(a, b)) < 1e-8

    def test_distant_centers_nearly_orthogonal(self):
        a = GaussianWavepacket(0.0, 1.0, 0.0)
        b = GaussianWavepacket(10.0, 1.0, 0.0)
        assert abs(overlap(a, b)) < 1e-5

    def test_orthogonal_explicit_rows(self):
        e1 = CoefficientSpectrum([1.0, 0.0])
        e2 = CoefficientSpectrum([0.0, 1.0])
        assert overlap(e1, e2) == 0.0
        assert overlap(e1, e1) == pytest.approx(1.0)

    def test_explicit_row_inner_product_conjugates_first(self):
        a = CoefficientSpectrum([1j / math.sqrt(2), 1 / math.sqrt(2)])
        b = CoefficientSpectrum([1.0, 0.0])
        assert overlap(a, b) == pytest.approx(-1j / math.sqrt(2))

    def test_conjugate_symmetry(self, rng):
        for _ in range(10):
            a = GaussianWavepacket(rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(-2, 2))
            b = GaussianWavepacket(rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(-2, 2))
            assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)))

    def test_magnitude_never_exceeds_one(self, rng):
        for _ in range(200):
            a = GaussianWavepacket(rng.uniform(-5, 5), rng.uniform(0.1, 3), rng.uniform(-5, 5))
            b = GaussianWavepacket(rng.uniform(-5, 5), rng.uniform(0.1, 3), rng.uniform(-5, 5))
            assert abs(overlap(a, b)) <= 1.0 + 1e-12

    def test_mixed_kinds_rejected(self):
        with pytest.raises(RepresentationError):
            overlap(GaussianWavepacket(0, 1), CoefficientSpectrum([1.0]))

    def test_mismatched_bases_rejected(self):
        with pytest.raises(RepresentationError):
            overlap(CoefficientSpectrum([1.0]), CoefficientSpectrum([1.0, 0.0]))

    @pytest.mark.parametrize("extreme", [
        GaussianWavepacket(0.0, 1.0, 1e200), GaussianWavepacket(0.0, 1e-300), GaussianWavepacket(0.0, 1e300),
        GaussianWavepacket(1e200, 1.0), GaussianWavepacket(0.0, 1e-160),
    ])
    def test_overlap_out_of_floating_point_range_rejected(self, extreme):
        # Overflow, division by zero or an infinite value, never a traceback or inf.
        with pytest.raises(ConfigurationError, match="overlap of GaussianWavepacket"):
            overlap(GaussianWavepacket(0.0, 1.0), extreme)
        with pytest.raises(ConfigurationError):
            lambda_from_photons([extreme, GaussianWavepacket(0.0, 1.0)])

    def test_overlap_near_the_range_keeps_its_value(self):
        # Tiny but finite overlaps stay what the closed form gives.
        assert overlap(GaussianWavepacket(0.0, 1.0), GaussianWavepacket(300.0, 1.0)) == 0.0
        got = overlap(GaussianWavepacket(0.0, 1.0), GaussianWavepacket(0.0, 1e-150))
        assert got == pytest.approx(math.sqrt(2.0) * 1e-75, rel=1e-12)

    def test_bad_wavepacket_parameters(self):
        with pytest.raises(ConfigurationError):
            GaussianWavepacket(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            CoefficientSpectrum([0.5, 0.5])  # norm != 1
        # An infinite width read as orthogonal to every photon; a non-finite
        # center or delay failed later, at the overlap, as out of range.
        # An int beyond the double range escaped math.isfinite as OverflowError.
        for params in [(0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0, math.nan),
                       (0.0, 1.0, -math.inf), (0.0, math.nan), (10**400, 1.0), (0.0, 10**400), (0.0, 1.0, -(10**400))]:
            with pytest.raises(ConfigurationError, match="must be finite"):
                GaussianWavepacket(*params)


class TestGramMatrix:
    def test_identical_photons_all_ones(self):
        g = GaussianWavepacket(0.0, 1.0, 0.0)
        assert np.array_equal(gram_matrix([g, g, g]), np.ones((3, 3)))

    def test_orthogonal_photons_identity(self):
        rows = [CoefficientSpectrum(r) for r in np.eye(3)]
        assert np.allclose(gram_matrix(rows), np.eye(3))

    def test_two_photon_real_overlap(self):
        a = GaussianWavepacket(0.0, 1.0, 0.0)
        b = GaussianWavepacket(1.0, 1.0, 0.0)
        alpha = overlap(a, b).real
        assert np.allclose(gram_matrix([a, b]), [[1.0, alpha], [alpha, 1.0]])

    def test_hermitian_unit_diagonal(self, rng):
        photons = [
            GaussianWavepacket(rng.uniform(-2, 2), rng.uniform(0.3, 2), rng.uniform(-2, 2))
            for _ in range(4)
        ]
        g = gram_matrix(photons)
        assert np.max(np.abs(g - g.conj().T)) < 1e-10
        assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-10


class TestOrthonormalDecomposition:
    def test_two_photon_real_overlap_matches_textbook(self):
        alpha = 0.6
        lam = orthonormal_decomposition([[1.0, alpha], [alpha, 1.0]])
        assert np.allclose(lam.matrix, [[1.0, 0.0], [alpha, 0.8]])

    def test_identity_gram_fully_distinguishable(self):
        lam = orthonormal_decomposition(np.eye(4))
        assert np.array_equal(lam.matrix, np.eye(4))

    def test_all_ones_gram_collapses_to_one_column(self):
        lam = orthonormal_decomposition(np.ones((3, 3)))
        assert lam.basis_size == 1
        assert np.array_equal(lam.matrix, np.ones((3, 1)))

    def test_factorization_reproduces_gram(self, rng):
        for _ in range(10):
            true = random_unit_rows(rng, 4, 3)
            g = true.matrix @ true.matrix.conj().T
            lam = orthonormal_decomposition(g)
            assert lam.basis_size <= 3
            assert np.max(np.abs(lam.matrix @ lam.matrix.conj().T - g)) < 1e-9

    def test_gram_is_the_factored_matrix(self, rng):
        # The pair sum reads G itself: lambda lambda^dag misses it by rounding.
        g = gram_matrix([GaussianWavepacket(0.05 * j, 1.0 + 0.01 * j, 0.02 * j) for j in range(6)])
        lam = orthonormal_decomposition(g)
        assert np.array_equal(lam.gram, g) and not np.shares_memory(lam.gram, g)
        assert g.flags.writeable and not lam.gram.flags.writeable
        assert not np.array_equal(lam.matrix @ lam.matrix.conj().T, g)
        rows = random_unit_rows(rng, 3, 4).matrix
        assert np.array_equal(LambdaMatrix(rows).gram, rows @ rows.conj().T)

    def test_duplicated_photons_collapse_rank(self, rng):
        row = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        row /= np.linalg.norm(row)
        lam_true = LambdaMatrix(np.vstack([row, row, np.roll(row, 1)]))
        g = lam_true.matrix @ lam_true.matrix.conj().T
        lam = orthonormal_decomposition(g)
        assert lam.basis_size == 2

    def test_ill_conditioned_gram_is_a_capacity_error(self):
        # 16 slowly varying Gaussians: the rows of photons 15 and 16 come out
        # off unit norm by 3e-10 and 1.2e-9; the first is named, 1-based.
        photons = [GaussianWavepacket(0.05 * j, 1.0 + 0.01 * j, 0.02 * j) for j in range(16)]
        with pytest.raises(CapacityError, match="too ill-conditioned .* photon 15's row has norm 1.00000000029"):
            lambda_from_photons(photons)

    def test_not_psd_rejected(self):
        with pytest.raises(ConfigurationError):
            orthonormal_decomposition([[1.0, 1.2], [1.2, 1.0]])

    def test_not_hermitian_rejected(self):
        with pytest.raises(ConfigurationError):
            orthonormal_decomposition([[1.0, 0.5], [0.1, 1.0]])

    def test_not_unit_diagonal_rejected(self):
        with pytest.raises(ConfigurationError, match="must have unit diagonal"):
            orthonormal_decomposition([[1.0, 0.5], [0.5, 1.1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gram_rejected_before_any_arithmetic(self, bad):
        # The suite turns warnings into errors, so an overflow or an invalid
        # subtraction ahead of the refusal would fail here.
        with pytest.raises(DimensionError, match="Gram matrix entries must be finite"):
            orthonormal_decomposition([[1.0, bad], [bad, 1.0]])

    @pytest.mark.parametrize("g,least", [
        ([[1.0, 1.2], [1.2, 1.0]], "-2.000e-01"),
        ([[1.0, 1e200], [1e200, 1.0]], "-1.000e[+]200"),
    ])
    def test_not_psd_names_the_least_eigenvalue(self, g, least):
        # The factor's miss is large (or overflows) here, so eigvalsh decides
        # and its least eigenvalue is the message.
        with pytest.raises(ConfigurationError, match=f"not positive semidefinite [(]min eigenvalue {least}[)]"):
            orthonormal_decomposition(g)

    def test_cancelled_gaussian_overlaps_refused_as_not_psd(self):
        # At centres near 1e8 the closed-form overlap cancels to |G01| = e;
        # only the PSD check stands between that and a CapacityError.
        photons = [GaussianWavepacket(1e8 + d, 1.0) for d in (0.0, 0.3, 0.6)]
        with pytest.raises(ConfigurationError, match="not positive semidefinite"):
            lambda_from_photons(photons)

    @pytest.mark.parametrize("family", ["generic", "two-species", "identical"])
    def test_factor_certifies_psd_without_an_eigensolver(self, monkeypatch, family):
        # n max|lambda lambda^dag - G| <= GRAM_PSD_TOL / 2 bounds min eig(G)
        # from below, so these families never reach eigvalsh.
        spec = {
            "generic": lambda j: GaussianWavepacket(0.2 * j, 1.0 + 0.05 * j, 0.3 * j),
            "two-species": lambda j: GaussianWavepacket(0.5 * (j % 2), 1.0, 0.3 * (j % 2)),
            "identical": lambda j: GaussianWavepacket(0.1, 1.2, -0.4),
        }[family]
        want = {n: lambda_from_photons([spec(j) for j in range(n)]).matrix for n in range(2, 17)}
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
        for n in range(2, 17):
            assert np.array_equal(lambda_from_photons([spec(j) for j in range(n)]).matrix, want[n]), n

    def test_slowly_varying_photons_fall_back_to_eigvalsh(self, monkeypatch):
        # 12 near-identical photons: the Cholesky drops directions of rounding
        # size and misses G by more than the certificate allows, so eigvalsh
        # decides, and the basis keeps its 8 functions.
        calls = []

        def counted(a):
            calls.append(a)
            return np.linalg.eigh(a)[0]

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        lam = lambda_from_photons([GaussianWavepacket(0.05 * j, 1.0 + 0.01 * j, 0.02 * j) for j in range(12)])
        assert len(calls) == 1 and lam.basis_size == 8


def _no_eigensolver(a):
    raise AssertionError("np.linalg.eigvalsh was called")


class TestLambdaFromPhotons:
    def test_explicit_rows_stacked_verbatim(self):
        rows = [CoefficientSpectrum([1.0, 0.0]), CoefficientSpectrum([0.6, 0.8])]
        lam = lambda_from_photons(rows)
        assert np.array_equal(lam.matrix, [[1.0, 0.0], [0.6, 0.8]])

    def test_gaussians_orthonormalized(self):
        a = GaussianWavepacket(0.0, 1.0, 0.0)
        b = GaussianWavepacket(0.5, 1.0, 0.0)
        lam = lambda_from_photons([a, b])
        alpha = overlap(a, b)
        assert lam.matrix[0, 0] == pytest.approx(1.0)
        assert lam.matrix[1, 0] == pytest.approx(alpha)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(RepresentationError):
            lambda_from_photons([GaussianWavepacket(0, 1), CoefficientSpectrum([1.0])])

    def test_row_norm_enforced(self):
        with pytest.raises(ConfigurationError):
            LambdaMatrix([[0.5, 0.0], [0.0, 1.0]])


# The paper's configuration expansion lives in tests/chi_reference.py;
# these tests pin the reference to its definitions.
class TestChi:
    def test_hom_values(self):
        alpha = 0.6
        lam = hom_lambda(alpha)
        assert chi(lam, (1, 1)) == pytest.approx(alpha)
        assert chi(lam, (1, 2)) == pytest.approx(0.8)
        assert chi(lam, (2, 1)) == 0.0
        assert chi(lam, (2, 2)) == 0.0


class TestEnumerateConfigurations:
    def test_hom_support(self):
        alpha = 0.6
        got = list(enumerate_configurations(hom_lambda(alpha)))
        assert got == [((1, 1), pytest.approx(alpha)), ((1, 2), pytest.approx(0.8))]

    def test_indistinguishable_single_configuration(self):
        lam = LambdaMatrix(np.ones((4, 1)))
        assert list(enumerate_configurations(lam)) == [((1, 1, 1, 1), 1.0 + 0.0j)]

    def test_distinguishable_single_configuration(self):
        lam = LambdaMatrix(np.eye(3))
        assert list(enumerate_configurations(lam)) == [((1, 2, 3), 1.0 + 0.0j)]

    def test_weights_are_chi(self, rng):
        lam = random_unit_rows(rng, 3, 3)
        for v, w in enumerate_configurations(lam):
            assert w == pytest.approx(chi(lam, v))

    def test_total_weight_is_normalized(self, rng):
        for n, nb in [(2, 2), (3, 4), (4, 3)]:
            lam = random_unit_rows(rng, n, nb)
            total = sum(abs(w) ** 2 for _, w in enumerate_configurations(lam))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_lexicographic_order(self, rng):
        lam = random_unit_rows(rng, 3, 3)
        vs = [v for v, _ in enumerate_configurations(lam)]
        assert vs == sorted(vs)


class TestTSets:
    def test_hom_configuration_one(self):
        got = t_sets((1, 1), (1, 2), m=2, basis_size=2)
        assert got == {1: (1, 1), 2: (0, 0)}

    def test_hom_configuration_two(self):
        got = t_sets((1, 2), (1, 2), m=2, basis_size=2)
        assert got == {1: (1, 0), 2: (0, 1)}

    def test_single_photon_far_mode(self):
        got = t_sets((3,), (5,), m=6, basis_size=3)
        assert got[3] == (0, 0, 0, 0, 1, 0)
        assert got[1] == (0, 0, 0, 0, 0, 0)
        assert got[2] == (0, 0, 0, 0, 0, 0)

    def test_union_reproduces_input_configuration(self, rng):
        v = tuple(int(x) for x in rng.integers(1, 4, size=4))
        modes = (2, 4, 5, 7)
        got = t_sets(v, modes, m=8, basis_size=3)
        union = np.sum([got[i] for i in got], axis=0)
        expected = np.zeros(8, dtype=int)
        for x in modes:
            expected[x - 1] += 1
        assert np.array_equal(union, expected)
