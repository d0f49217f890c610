import itertools
import math

import numpy as np
import pytest

from bosonspectra import (
    ConfigurationError,
    DimensionError,
    Interferometer,
    amplitude_ideal,
    as_occupation,
    fock_evolve,
    LambdaMatrix,
    make_beamsplitter_50_50,
    make_dft,
    make_random_unitary,
    probability_nonresolved,
    submatrix,
)
from conftest import hom_lambda


def all_outputs(n, m):
    for combo in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for c in combo:
            occ[c] += 1
        yield tuple(occ)


class TestConstructors:
    def test_beamsplitter_matrix(self):
        bs = make_beamsplitter_50_50()
        assert bs.m == 2
        assert bs.matrix[1, 1] == pytest.approx(-1.0 / math.sqrt(2.0))
        assert np.allclose(bs.matrix @ bs.matrix.conj().T, np.eye(2), atol=1e-12)

    def test_dft_trivial_sizes(self):
        assert np.allclose(make_dft(1).matrix, [[1.0]])
        assert np.allclose(make_dft(2).matrix, make_beamsplitter_50_50().matrix, atol=1e-15)

    def test_dft_unitarity_m7(self):
        u = make_dft(7).matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(7))) < 1e-12

    def test_dft_rejects_zero_modes(self):
        with pytest.raises(DimensionError):
            make_dft(0)

    def test_random_unitary_is_unitary(self):
        u = make_random_unitary(6, 123).matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-10

    def test_random_unitary_deterministic(self):
        a = make_random_unitary(5, 42).matrix
        b = make_random_unitary(5, 42).matrix
        assert np.array_equal(a, b)

    def test_random_unitary_seed_sensitivity(self):
        a = make_random_unitary(5, 1).matrix
        b = make_random_unitary(5, 2).matrix
        assert np.max(np.abs(a - b)) > 0.01

    def test_non_unitary_rejected(self):
        with pytest.raises(DimensionError):
            Interferometer(np.ones((2, 2)))

    def test_matrix_is_read_only(self):
        u = make_beamsplitter_50_50()
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 0.0


class TestSubmatrix:
    def test_full_coincidence_is_whole_matrix(self):
        bs = make_beamsplitter_50_50()
        assert np.array_equal(submatrix(bs, (1, 1), (1, 1)), bs.matrix)

    def test_bunched_output_repeats_row(self):
        bs = make_beamsplitter_50_50()
        got = submatrix(bs, (2, 0), (1, 1))
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(got, [[r, r], [r, r]])

    def test_single_entry(self):
        u = make_random_unitary(4, 9)
        got = submatrix(u, (1, 0, 0, 0), (0, 1, 0, 0))
        assert got.shape == (1, 1)
        assert got[0, 0] == u.matrix[0, 1]

    def test_shape_matches_photon_numbers(self):
        u = make_random_unitary(4, 9)
        got = submatrix(u, (2, 1, 0, 0), (0, 1, 1, 1))
        assert got.shape == (3, 3)

    def test_photon_count_mismatch_rejected(self):
        u = make_random_unitary(3, 0)
        with pytest.raises(ConfigurationError):
            submatrix(u, (1, 0, 0), (1, 1, 0))

    def test_negative_counts_rejected(self):
        u = make_random_unitary(3, 0)
        with pytest.raises(ConfigurationError):
            submatrix(u, (1, -1, 1), (1, 0, 0))


class TestAsOccupation:
    @pytest.mark.parametrize(
        "counts",
        [(True, True), (np.True_, 1), (1.7, 0.3), ("1", 1), (float("inf"), 0), (float("nan"), 1)],
    )
    def test_inexact_counts_rejected(self, counts):
        # int(c) == c let booleans through, so (True, True) ran as (1, 1).
        with pytest.raises(ConfigurationError):
            as_occupation(counts)
        with pytest.raises(ConfigurationError):
            probability_nonresolved(make_beamsplitter_50_50(), hom_lambda(0.5), (1, 2), counts)

    def test_integer_like_counts_accepted(self):
        assert as_occupation((np.int64(1), 2.0, np.int32(0))) == (1, 2, 0)
        assert all(type(c) is int for c in as_occupation((np.int64(1), 2.0)))


class TestAmplitude:
    def test_hom_antibunching(self):
        bs = make_beamsplitter_50_50()
        assert abs(amplitude_ideal(bs, (1, 1), (1, 1))) < 1e-15

    def test_hom_bunching_matches_fock_oracle(self):
        # Two identical photons through the beamsplitter: the oracle
        # integrates the same evolution without any permanent.
        bs = make_beamsplitter_50_50()
        lam = LambdaMatrix([[1.0], [1.0]])
        state = fock_evolve(bs, lam, (1, 2))
        for outcome in [(2, 0), (0, 2), (1, 1)]:
            key = outcome  # single basis function: joint key == spatial occupation
            oracle_amp = state.amplitudes.get(key, 0.0)
            assert amplitude_ideal(bs, outcome, (1, 1)) == pytest.approx(oracle_amp, abs=1e-12)
        assert abs(amplitude_ideal(bs, (2, 0), (1, 1))) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_identity_network_is_transparent(self):
        u = Interferometer(np.eye(4))
        for occ in [(1, 0, 2, 1), (0, 3, 0, 0), (1, 1, 1, 1)]:
            assert amplitude_ideal(u, occ, occ) == pytest.approx(1.0)

    def test_single_photon_transfer_entry(self):
        u = make_random_unitary(4, 5)
        for a in range(1, 5):
            for b in range(1, 5):
                t = tuple(1 if k == a - 1 else 0 for k in range(4))
                s = tuple(1 if k == b - 1 else 0 for k in range(4))
                assert amplitude_ideal(u, s, t) == pytest.approx(u.matrix[b - 1, a - 1])

    @pytest.mark.parametrize("n,m,seed", [(1, 3, 0), (2, 4, 1), (3, 5, 2)])
    def test_output_probabilities_complete(self, n, m, seed):
        u = make_random_unitary(m, seed)
        t = tuple(1 if k < n else 0 for k in range(m))
        total = sum(abs(amplitude_ideal(u, s, t)) ** 2 for s in all_outputs(n, m))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_photon_count_mismatch_rejected(self):
        u = make_random_unitary(3, 0)
        with pytest.raises(ConfigurationError):
            amplitude_ideal(u, (1, 0, 0), (1, 1, 0))

    def test_collision_input_completeness(self):
        # Factorial normalization is what keeps collision inputs normalized.
        u = make_random_unitary(3, 7)
        t = (2, 1, 0)
        total = sum(abs(amplitude_ideal(u, s, t)) ** 2 for s in all_outputs(3, 3))
        assert total == pytest.approx(1.0, abs=1e-10)
