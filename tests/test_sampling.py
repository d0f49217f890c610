import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bosonspectra import (
    CapacityError,
    ConfigurationError,
    GaussianWavepacket,
    Interferometer,
    LambdaMatrix,
    MixedPhotonSource,
    amplitude_ideal,
    amplitude_resolved,
    distribution_nonresolved,
    distribution_resolved,
    enumerate_resolved_outcomes,
    fock_evolve,
    lambda_from_photons,
    make_beamsplitter_50_50,
    make_random_unitary,
    oracle_probability,
    probability_distinguishable_fast,
    probability_indistinguishable_fast,
    probability_mixed,
    probability_nonresolved,
    probability_resolved,
)
import bosonspectra.pairsum
import bosonspectra.sampling
from bosonspectra.pairsum import _pair_sums
from bosonspectra.sampling import (
    PAIR_SUM_KAPPA,
    STACK_SIZE,
    _costs,
    _joint_matrix,
    _occupations,
    _resolved_amplitudes,
    _resolved_counts,
    _splits,
)
import chi_reference
from conftest import hom_lambda, random_unit_rows


def haar_like(rng, size):
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestAmplitudeResolved:
    def test_hom_antibunched_in_first_basis_mode(self):
        bs = make_beamsplitter_50_50()
        amp = amplitude_resolved(bs, hom_lambda(0.6), None, ((1, 1), (0, 0)))
        assert amp == 0.0

    def test_hom_bunched_in_first_basis_mode(self):
        alpha = 0.6
        bs = make_beamsplitter_50_50()
        amp = amplitude_resolved(bs, hom_lambda(alpha), None, ((2, 0), (0, 0)))
        assert amp == pytest.approx(alpha / math.sqrt(2.0))

    def test_indistinguishable_photons_reduce_to_permanent_rule(self, rng):
        u = make_random_unitary(4, 17)
        lam = LambdaMatrix(np.ones((3, 1)))
        t = (1, 1, 1, 0)
        for s in [(3, 0, 0, 0), (1, 1, 1, 0), (0, 1, 2, 0)]:
            got = amplitude_resolved(u, lam, None, (s,))
            assert got == amplitude_ideal(u, s, t)

    def test_norm_exact_past_int64(self):
        # prod S! = 21! > 2^63: the norm must not wrap as a fixed-width integer would.
        n, k = 21, 4
        u = make_random_unitary(n, 41)
        phase = np.exp(0.3j)
        lam = LambdaMatrix(np.full((n, 1), phase))
        outcome = (tuple(n if p == k else 0 for p in range(n)),)
        got = amplitude_resolved(u, lam, None, outcome)
        expected = math.sqrt(math.factorial(n)) * np.prod(u.matrix[k, :n] * phase)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_single_photon_transfer(self):
        u = make_random_unitary(3, 23)
        lam = LambdaMatrix([[1.0, 0.0]])
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                s = tuple(1 if k == b - 1 else 0 for k in range(3))
                amp = amplitude_resolved(u, lam, (a,), (s, (0, 0, 0)))
                assert amp == pytest.approx(u.matrix[b - 1, a - 1])

    def test_wrong_photon_total_rejected(self):
        bs = make_beamsplitter_50_50()
        with pytest.raises(ConfigurationError):
            amplitude_resolved(bs, hom_lambda(0.5), None, ((1, 0), (0, 0)))

    def test_wrong_spectral_part_count_rejected(self):
        bs = make_beamsplitter_50_50()
        with pytest.raises(ConfigurationError):
            amplitude_resolved(bs, hom_lambda(0.5), None, ((1, 1),))

    def test_duplicate_input_modes_rejected(self):
        bs = make_beamsplitter_50_50()
        with pytest.raises(ConfigurationError):
            amplitude_resolved(bs, hom_lambda(0.5), (1, 1), ((1, 1), (0, 0)))

    @pytest.mark.parametrize("inputs", [(1.7, 2.2), (True, 2), (1, 2.5), ("1", 2), (1, float("inf"))])
    def test_inexact_input_modes_rejected(self, inputs):
        # int() truncation used to run (1.7, 2.2) silently as (1, 2).
        u = make_random_unitary(3, 5)
        lam = hom_lambda(0.5)
        with pytest.raises(ConfigurationError):
            probability_nonresolved(u, lam, inputs, (1, 1, 0))
        with pytest.raises(ConfigurationError):
            fock_evolve(u, lam, inputs)

    def test_integer_like_input_modes_accepted(self):
        u = make_random_unitary(3, 5)
        lam = hom_lambda(0.5)
        expected = probability_nonresolved(u, lam, (1, 3), (1, 1, 0))
        for inputs in [(np.int64(1), np.int32(3)), np.array([1, 3]), (1.0, 3.0)]:
            assert probability_nonresolved(u, lam, inputs, (1, 1, 0)) == expected

    def test_resolved_probabilities_within_unit_interval(self, rng):
        u = make_random_unitary(4, 31)
        lam = random_unit_rows(rng, 2, 2)
        for outcome, p in distribution_resolved(u, lam).items():
            assert -1e-12 <= p <= 1.0 + 1e-12


def expansion_instances():
    """Seeded (interferometer, lambda, inputs) with n <= 4 for the closed-form checks."""
    rng = np.random.default_rng(4_669_201)
    rank_deficient = random_unit_rows(rng, 2, 3).matrix
    return [
        (make_random_unitary(3, 61), random_unit_rows(rng, 2, 4), (3, 1)),  # basis_size > n
        (make_random_unitary(4, 62), random_unit_rows(rng, 3, 3), (1, 2, 4)),
        (make_random_unitary(4, 63), LambdaMatrix(rank_deficient[[0, 1, 0]]), (2, 3, 4)),
        (make_random_unitary(4, 64), random_unit_rows(rng, 4, 2), (4, 2, 1, 3)),
        (make_random_unitary(3, 65), hom_lambda(0.6), None),
    ]


class TestPaperExpansion:
    """The closed forms against the paper's sum over spectral configurations."""

    def test_resolved_amplitudes_match_configuration_sum(self):
        for u, lam, inputs in expansion_instances():
            modes = inputs or tuple(range(1, lam.n + 1))
            outcomes = enumerate_resolved_outcomes(lam.n, u.m, lam.basis_size)
            for outcome in itertools.islice(outcomes, 0, None, 7):
                got = amplitude_resolved(u, lam, inputs, outcome)
                expected = chi_reference.amplitude_resolved(u, lam, modes, outcome)
                assert abs(got - expected) <= 1e-12

    def test_nonresolved_probabilities_match_configuration_sum(self):
        for u, lam, inputs in expansion_instances():
            modes = inputs or tuple(range(1, lam.n + 1))
            for sig in _occupations(lam.n, u.m):
                got = probability_nonresolved(u, lam, inputs, sig)
                expected = chi_reference.probability_nonresolved(u, lam, modes, sig)
                assert abs(got - expected) <= 1e-12

    def test_pair_sum_equals_split_sum(self):
        for u, lam, inputs in expansion_instances():
            modes = inputs or tuple(range(1, lam.n + 1))
            for sig in _occupations(lam.n, u.m):
                assert abs(pair_sum(u, lam, modes, sig)[0] - split_sum(u, lam, modes, sig)) <= 1e-12


def pair_sum(u, lam, inputs, sig):
    """sig's pair-sum probability, unguarded, and the kappa of its terms."""
    totals, abs_sums = _pair_sums(_joint_matrix(u, lam, inputs), lam.basis_size, np.array([sig]))
    value = totals[0] * 0.25 ** (lam.n - 1) / math.prod(map(math.factorial, sig))
    return float(value), abs_sums[0] / abs(totals[0]) if totals[0] else math.inf


def split_sum(u, lam, inputs, sig):
    """sig's split-sum probability: the math.fsum of |amp|^2 over its splits."""
    counts, norms = _splits(sig, lam.basis_size)
    return math.fsum(abs(amp) ** 2 for amp in _resolved_amplitudes(_joint_matrix(u, lam, inputs), counts, norms))


def fallbacks(u, lam, inputs, sigs) -> int:
    """How many of sigs the cost rule gives to the pair sum and the kappa guard then to the split sum."""
    return sum(_takes_pair_sum(lam.n, lam.basis_size, sig) and not pair_sum(u, lam, inputs, sig)[1] <= PAIR_SUM_KAPPA
               for sig in sigs)


def _takes_pair_sum(n, r, sig) -> bool:
    pair, split = _costs(n, r, sig)
    return pair < split


def rank_two_rows(rng, n: int, nb: int) -> LambdaMatrix:
    """n unit rows over nb basis functions that span only two of them."""
    plane = np.linalg.qr(rng.standard_normal((nb, 2)) + 1j * rng.standard_normal((nb, 2)))[0].T
    return random_unit_rows(rng, n, 2).matrix @ plane


class TestBlindSweep:
    """A blind sweep gives every signature what a single query gives, whichever sum takes it."""

    @pytest.mark.parametrize("case", ["generic", "two species", "rank deficient", "permuted inputs"])
    def test_sweep_equals_single_queries_bit_for_bit(self, rng, case):
        # 330 signatures, more than a chunk. r = 4 takes the pair sum but for
        # the kappa fallbacks; two species (r = 2) take the split sum.
        u, inputs = make_random_unitary(8, 37), None
        if case == "two species":
            lam = LambdaMatrix(random_unit_rows(rng, 2, 2).matrix[[0, 1, 0, 1]])
        elif case == "rank deficient":
            lam = LambdaMatrix(rank_two_rows(rng, 4, 4))
        else:
            lam = random_unit_rows(rng, 4, 4)
            if case == "permuted inputs":
                inputs = (5, 2, 8, 3)
        dist = distribution_nonresolved(u, lam, inputs)
        assert len(dist) == 330 > STACK_SIZE
        for sig, p in dist.items():
            assert p == probability_nonresolved(u, lam, inputs, sig), sig
        takes_pair = [_takes_pair_sum(4, lam.basis_size, sig) for sig in dist]
        if case == "two species":
            assert not any(takes_pair)
        else:
            assert all(takes_pair)
            assert fallbacks(u, lam, inputs or (1, 2, 3, 4), dist) >= 1

    def test_split_sum_is_the_fsum_of_the_resolved_stream(self):
        # Each split is one resolved outcome, so a split-summed signature is
        # the math.fsum of the resolved sweep's values over its outcomes.
        species = [GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.3, 0.8, 0.9)]
        u, lam = make_random_unitary(5, 61), lambda_from_photons([species[j % 2] for j in range(4)])
        by_signature = {}
        for outcome, p in distribution_resolved(u, lam).items():
            by_signature.setdefault(tuple(map(sum, zip(*outcome))), []).append(p)
        assert lam.basis_size == 2 and len(by_signature) == 70
        for sig, ps in by_signature.items():
            assert not _takes_pair_sum(4, 2, sig)
            assert probability_nonresolved(u, lam, None, sig) == math.fsum(ps), sig

    def test_split_sum_does_not_depend_on_the_order_of_its_splits(self, rng, monkeypatch):
        # Shuffled splits change a left-to-right sum's last bits, not the split sum's.
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (1, 0))
        u, lam = make_random_unitary(6, 59), random_unit_rows(rng, 4, 4)
        joint = _joint_matrix(u, lam, (1, 2, 3, 4))
        for sig in [(2, 1, 1, 0, 0, 0), (1, 1, 1, 1, 0, 0), (0, 2, 0, 0, 2, 0)]:
            value = probability_nonresolved(u, lam, None, sig)
            counts, norms = _splits(sig, 4)
            sequential = set()
            for _ in range(5):
                order = rng.permutation(len(norms))
                squares = [abs(amp) ** 2 for amp in _resolved_amplitudes(joint, counts[order], [norms[k] for k in order])]
                assert math.fsum(squares) == value, sig
                sequential.add(sum(squares))
            assert len(sequential) > 1, sig

    def test_fallback_split_sums_are_grouped(self, monkeypatch):
        # Every signature of a generic n = 4, m = 8 sweep falls back: 52360
        # splits over two chunks, about 25 MB if a chunk's were stacked at once.
        monkeypatch.setattr(bosonspectra.sampling, "PAIR_SUM_KAPPA", -1.0)
        photons = [GaussianWavepacket(0.2 * j, 1 + 0.05 * j, 0.3 * j) for j in range(4)]
        u, lam = make_random_unitary(8, 1), lambda_from_photons(photons)
        tracemalloc.start()
        try:
            dist = distribution_nonresolved(u, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dist) == 330 and all(_takes_pair_sum(4, 4, sig) for sig in dist)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert peak < 4e6

    def test_pair_sums_of_a_row_do_not_depend_on_the_others(self, rng):
        # n = 8, r = 8: four blocks of delta, and 43 signatures in passes of 16.
        u, lam = make_random_unitary(9, 41), random_unit_rows(rng, 8, 8)
        sigs = np.array(list(itertools.islice(_occupations(8, 9), 0, None, 300)))
        assert len(sigs) == 43
        joint = _joint_matrix(u, lam, tuple(range(1, 9)))
        totals, abs_sums = _pair_sums(joint, 8, sigs)
        for k, sig in enumerate(sigs):
            alone = _pair_sums(joint, 8, sig[None])
            assert (totals[k], abs_sums[k]) == (alone[0][0], alone[1][0]), sig

    @pytest.mark.parametrize("n,r,sig,pair", [
        (8, 2, (1,) * 8 + (0,) * 4, False),  # two species, the perfbench block: a tie
        (16, 1, (2,) + (1,) * 14 + (0,) * 5, False),  # identical photons
        (4, 2, (1, 1, 1, 1, 0), False),
        (4, 4, (1, 1, 1, 1, 0), True),
        (5, 5, (2, 1, 1, 1, 0, 0, 0, 0, 0), True),
        (2, 2, (1, 1), False),  # HOM
    ])
    def test_routing(self, n, r, sig, pair):
        assert _takes_pair_sum(n, r, sig) == pair

    def test_bigperm_shapes_take_the_split_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair sum called")

        monkeypatch.setattr(bosonspectra.pairsum, "_pair_sums", refuse)
        assert _costs(8, 2, (1,) * 8 + (0,) * 4) == (262144, 262144)
        species = [GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.3, 0.8, 0.9)]
        lam = lambda_from_photons([species[j % 2] for j in range(8)])
        p = probability_nonresolved(make_random_unitary(12, 43), lam, None, (1,) * 8 + (0,) * 4)
        assert 0.0 < p < 1.0
        lam = LambdaMatrix(np.ones((16, 1)))
        p = probability_nonresolved(make_random_unitary(20, 47), lam, None, (2,) + (1,) * 14 + (0,) * 5)
        assert 0.0 < p < 1.0

    def test_pair_sum_memory_is_blocked(self, rng):
        # One generic n = 10 signature: 4^9 pairs per mode, taken in blocks
        # of 6 x 512. Unblocked, its table of D_k alone would hold 42 MB.
        u, lam = make_random_unitary(12, 53), random_unit_rows(rng, 10, 10)
        tracemalloc.start()
        try:
            p = probability_nonresolved(u, lam, None, (1,) * 10 + (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < p < 1.0
        assert peak < 6e6

    def test_fallback_over_the_split_cap_is_refused(self, monkeypatch):
        # HOM at alpha = 1 forced onto the pair sum falls back, and its 4
        # splits exceed a cap of 3.
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (0, 1))
        monkeypatch.setattr(bosonspectra.sampling, "DISTRIBUTION_OUTCOME_CAP", 3)
        with pytest.raises(CapacityError, match="4 splits"):
            probability_nonresolved(make_beamsplitter_50_50(), hom_lambda(1.0), None, (1, 1))

    def test_hom_zero_falls_back_to_the_split_sum(self, monkeypatch):
        # At alpha = 1 the coincidence cancels exactly; forced onto the pair
        # sum, its kappa is past the guard and the split sum answers 0.
        bs, lam = make_beamsplitter_50_50(), hom_lambda(1.0)
        assert not pair_sum(bs, lam, (1, 2), (1, 1))[1] <= PAIR_SUM_KAPPA
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (0, 1))
        assert probability_nonresolved(bs, lam, None, (1, 1)) == 0.0
        assert distribution_nonresolved(bs, lam)[(1, 1)] == 0.0


class TestResolvedSweep:
    """A sweep gives every outcome what a single query gives, in a fixed order."""

    @pytest.mark.parametrize(
        "case", ["generic", "identical", "rank deficient", "permuted inputs", "n = 4", "n = 5"]
    )
    def test_sweep_equals_single_queries_bit_for_bit(self, rng, case):
        # n = 3 takes the kernel's closed forms; n = 4 and 5 Glynn's sum,
        # which reduces a lone outcome as it does one among many.
        u = make_random_unitary(4, 23)
        inputs = None
        if case == "identical":
            u = make_random_unitary(11, 23)
            lam = LambdaMatrix(np.ones((3, 1)))
        elif case == "rank deficient":
            lam = LambdaMatrix(rank_two_rows(rng, 3, 4))
        elif case == "n = 4":
            lam, inputs = random_unit_rows(rng, 4, 3), (2, 4, 1, 3)
        elif case == "n = 5":
            u, lam = make_random_unitary(5, 29), random_unit_rows(rng, 5, 2)
        else:
            lam = random_unit_rows(rng, 3, 3)
            if case == "permuted inputs":
                inputs = (3, 1, 4)
        dist = distribution_resolved(u, lam, inputs)
        assert len(dist) > STACK_SIZE
        for outcome, p in dist.items():
            assert p == probability_resolved(u, lam, inputs, outcome), outcome

    def test_sweep_matches_single_queries_on_glynn_stacks(self, rng):
        # Four generic photons in stacks of 256: every outcome's value is the
        # one it has alone, whichever chunk and position it sits in.
        u = make_random_unitary(4, 23)
        lam = random_unit_rows(rng, 4, 4)
        dist = distribution_resolved(u, lam, (3, 1, 4, 2))
        assert len(dist) == 3876
        for outcome, p in dist.items():
            assert p == probability_resolved(u, lam, (3, 1, 4, 2), outcome), outcome

    # 3876 outcomes in stacks of 256 (a short last one), of 17 (an exact
    # multiple) and of 31 (a lone last outcome); 21 outcomes, fewer than a stack.
    @pytest.mark.parametrize("n,m,nb,stack", [(4, 4, 4, 256), (4, 4, 4, 17), (4, 4, 4, 31), (2, 3, 2, 256)])
    def test_chunks_are_the_whole_sweep_cut_into_stacks(self, monkeypatch, n, m, nb, stack):
        monkeypatch.setattr(bosonspectra.sampling, "STACK_SIZE", stack)
        outcomes = list(enumerate_resolved_outcomes(n, m, nb))
        chunks = list(_resolved_counts(n, m, nb))
        assert [len(chunk) for chunk, _, _ in chunks[:-1]] == [stack] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1][0]) <= stack
        assert [o for chunk, _, _ in chunks for o in chunk] == outcomes
        counts = np.vstack([c for _, c, _ in chunks])
        assert counts.tolist() == [list(sum(o, ())) for o in outcomes]
        norms = [norm for _, _, chunk_norms in chunks for norm in chunk_norms]
        assert norms == [math.prod(map(math.factorial, sum(o, ()))) for o in outcomes]
        assert {type(norm) for norm in norms} == {int}

    @pytest.mark.parametrize("stack", [256, 17, 31])
    def test_sweep_stacks_are_those_of_the_whole_count_matrix(self, rng, monkeypatch, stack):
        # The kernel gets the stacks it got when the whole sweep's count matrix
        # was made first and cut from its start, so every value keeps its bits.
        monkeypatch.setattr(bosonspectra.sampling, "STACK_SIZE", stack)
        u = make_random_unitary(4, 23)
        lam = random_unit_rows(rng, 4, 4)
        outcomes = list(enumerate_resolved_outcomes(4, 4, 4))
        counts = np.array([sum(o, ()) for o in outcomes])
        joint = _joint_matrix(u, lam, (1, 2, 3, 4))
        norms = [math.prod(map(math.factorial, row)) for row in counts.tolist()]
        whole = _resolved_amplitudes(joint, counts, norms)
        dist = distribution_resolved(u, lam)
        assert list(dist) == outcomes
        assert list(dist.values()) == [abs(amp) ** 2 for amp in whole]
        if len(outcomes) % stack == 1:
            # A lone last outcome goes to the kernel as a single query's does.
            assert dist[outcomes[-1]] == probability_resolved(u, lam, None, outcomes[-1])

    @pytest.mark.parametrize("n,m,nb", [(4, 4, 4), (3, 2, 3), (2, 5, 1), (1, 3, 2), (3, 1, 2)])
    def test_enumeration_order(self, n, m, nb):
        def pool(k):
            return [occ for occ in itertools.product(range(k + 1), repeat=m) if sum(occ) == k]

        profiles = [p for p in itertools.product(range(n + 1), repeat=nb) if sum(p) == n]
        reference = [
            parts for profile in profiles for parts in itertools.product(*map(pool, profile))
        ]
        assert list(enumerate_resolved_outcomes(n, m, nb)) == reference


class TestEnumeratePartitions:
    """Small splits written out, picked from `_splits` by photons per basis function."""

    @staticmethod
    def _with_profile(sig, profile):
        counts, norms = _splits(sig, len(profile))
        m = len(sig)
        return [
            ([tuple(row[i * m : (i + 1) * m]) for i in range(len(profile))], norm)
            for row, norm in zip(counts.tolist(), norms)
            if [sum(row[i * m : (i + 1) * m]) for i in range(len(profile))] == list(profile)
        ]

    def test_all_photons_in_first_spectral_mode(self):
        assert self._with_profile((1, 1), (2, 0)) == [([(1, 1), (0, 0)], 1)]
        assert self._with_profile((2, 0), (2, 0)) == [([(2, 0), (0, 0)], 2)]

    def test_split_photons(self):
        assert self._with_profile((1, 1), (1, 1)) == [([(0, 1), (1, 0)], 1), ([(1, 0), (0, 1)], 1)]
        counts, norms = _splits((1, 1), 2)
        assert counts.tolist() == [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]]
        assert norms == [1, 1, 1, 1]

    def test_bunched_signature_forces_same_mode(self):
        assert self._with_profile((2, 0), (1, 1)) == [([(1, 0), (1, 0)], 1)]
        counts, norms = _splits((2, 0), 2)
        assert counts.tolist() == [[0, 0, 2, 0], [1, 0, 1, 0], [2, 0, 0, 0]]
        assert norms == [2, 1, 2]


class TestSplits:
    """A signature's splits between basis functions, built mode by mode."""

    @pytest.mark.parametrize(
        "n,m,r", [(3, 3, 2), (4, 3, 3), (4, 4, 2), (3, 4, 4), (5, 3, 2), (4, 3, 1), (2, 5, 1)]
    )
    def test_splits_are_the_signatures_outcomes_in_sweep_order(self, n, m, r):
        # Restricted to one signature, the resolved stream lists its splits,
        # each once and with its norm. Only the multisets must agree: a split
        # sum is a math.fsum, so _splits keeps no order, and both sides are
        # sorted before they are compared.
        by_signature = {}
        for outcomes, counts, norms in _resolved_counts(n, m, r):
            for outcome, row, norm in zip(outcomes, counts.tolist(), norms):
                by_signature.setdefault(tuple(map(sum, zip(*outcome))), []).append((row, norm))
        for sig in _occupations(n, m):
            counts, norms = _splits(sig, r)
            assert sorted(zip(counts.tolist(), norms)) == sorted(by_signature.pop(sig)), sig
        assert by_signature == {}

    def test_large_signature_single_split(self):
        # One basis function must take the whole signature: exactly one split.
        sig = (1,) * 16 + (0,) * 4
        counts, norms = _splits(sig, 1)
        assert counts.tolist() == [list(sig)]
        assert norms == [1]

    @pytest.mark.parametrize("sig", [(2, 1, 0), (1, 1, 1, 1), (3, 0, 2), (0, 4), (1, 2, 0, 1)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_split_count_is_the_routing_count(self, sig, r):
        # The splits factorize into independent splits of each mode's photons.
        counts, norms = _splits(sig, r)
        assert len(counts) == len(norms) == math.prod(math.comb(c + r - 1, r - 1) for c in sig)
        assert len({tuple(row) for row in counts.tolist()}) == len(counts)
        for row in counts.tolist():
            parts = [row[i * len(sig) : (i + 1) * len(sig)] for i in range(r)]
            assert tuple(map(sum, zip(*parts))) == sig

    def test_norms_exact_past_int64(self):
        # prod S_vec! = 21! > 2^63: norms stay exact Python ints.
        counts, norms = _splits((21, 0), 1)
        assert counts.tolist() == [[21, 0]]
        assert norms == [math.factorial(21)] and type(norms[0]) is int
        counts, norms = _splits((0, 21), 2)
        assert norms[0] == norms[-1] == math.factorial(21)
        assert norms == [math.factorial(k) * math.factorial(21 - k) for k in range(22)]


def filtered_product(total, caps):
    """Every tuple below caps, elementwise, that sums to total, in lex order."""
    return [occ for occ in itertools.product(*(range(c + 1) for c in caps)) if sum(occ) == total]


class TestOccupations:
    # Every cap equals total, so the filtered product bounds nothing but the sum.
    @pytest.mark.parametrize(
        "total,caps",
        [(t, (t,) * parts) for t, parts in
         [(0, 1), (1, 1), (0, 3), (2, 2), (3, 3), (4, 2), (4, 6), (5, 5), (3, 6), (2, 4)]],
    )
    def test_matches_filtered_product_in_order(self, total, caps):
        assert list(_occupations(total, len(caps))) == filtered_product(total, caps)

    def test_every_small_total_and_part_count(self):
        for total in range(8):
            for parts in range(1, 7):
                assert list(_occupations(total, parts)) == filtered_product(total, (total,) * parts)


class TestProbabilityNonresolved:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1 / math.sqrt(2), 1.0])
    def test_hom_coincidence_closed_form(self, alpha):
        bs = make_beamsplitter_50_50()
        p = probability_nonresolved(bs, hom_lambda(alpha), None, (1, 1))
        assert p == pytest.approx((1.0 - alpha**2) / 2.0, abs=1e-14)

    def test_hom_full_distribution_alpha_one(self):
        bs = make_beamsplitter_50_50()
        dist = distribution_nonresolved(bs, hom_lambda(1.0))
        assert dist[(1, 1)] == pytest.approx(0.0, abs=1e-15)
        assert dist[(2, 0)] == pytest.approx(0.5)
        assert dist[(0, 2)] == pytest.approx(0.5)

    def test_single_photon_distribution_is_matrix_column(self):
        u = make_random_unitary(4, 3)
        lam = LambdaMatrix([[1.0]])
        a = 2
        dist = distribution_nonresolved(u, lam, (a,))
        for b in range(4):
            sig = tuple(1 if k == b else 0 for k in range(4))
            assert dist[sig] == pytest.approx(abs(u.matrix[b, a - 1]) ** 2)

    def test_distribution_normalized_random_instance(self, rng):
        u = make_random_unitary(5, 13)
        lam = random_unit_rows(rng, 3, 3)
        dist = distribution_nonresolved(u, lam)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= -1e-12 for p in dist.values())

    def test_resolved_distribution_normalized(self, rng):
        u = make_random_unitary(4, 29)
        lam = random_unit_rows(rng, 2, 2)
        dist = distribution_resolved(u, lam)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_wrong_photon_count_rejected(self):
        bs = make_beamsplitter_50_50()
        with pytest.raises(ConfigurationError):
            probability_nonresolved(bs, hom_lambda(0.5), None, (1, 0))

    def test_distribution_capacity_guard(self):
        u = Interferometer(np.eye(30))
        lam = LambdaMatrix(np.ones((30, 1)))
        with pytest.raises(CapacityError):
            distribution_nonresolved(u, lam)


class TestLimitFastPaths:
    def test_hom_fast_paths(self):
        bs = make_beamsplitter_50_50()
        assert probability_indistinguishable_fast(bs, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-15)
        assert probability_indistinguishable_fast(bs, (2, 0), (1, 1)) == pytest.approx(0.5)
        assert probability_distinguishable_fast(bs, (1, 1), (1, 1)) == pytest.approx(0.5)

    def test_identity_network(self):
        u = Interferometer(np.eye(3))
        assert probability_indistinguishable_fast(u, (1, 1, 1), (1, 1, 1)) == pytest.approx(1.0)
        assert probability_distinguishable_fast(u, (1, 1, 1), (1, 1, 1)) == pytest.approx(1.0)

    def test_indistinguishable_limit_shares_engine_arithmetic(self, rng):
        u = make_random_unitary(5, 7)
        lam = LambdaMatrix(np.ones((3, 1)))
        t = (1, 1, 1, 0, 0)
        for sig in [(1, 1, 1, 0, 0), (2, 0, 1, 0, 0), (0, 3, 0, 0, 0)]:
            engine = probability_nonresolved(u, lam, (1, 2, 3), sig)
            fast = probability_indistinguishable_fast(u, sig, t)
            assert abs(engine - fast) <= 1e-12

    def test_distinguishable_limit_matches_fast_path(self, rng):
        for seed in range(5):
            u = make_random_unitary(4, seed)
            lam = LambdaMatrix(np.eye(3))
            t = (1, 1, 1, 0)
            for sig in [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)]:
                engine = probability_nonresolved(u, lam, (1, 2, 3), sig)
                fast = probability_distinguishable_fast(u, sig, t)
                assert abs(engine - fast) <= 1e-10

    def test_distinguishable_fast_path_needs_collision_free(self):
        bs = make_beamsplitter_50_50()
        with pytest.raises(ConfigurationError):
            probability_distinguishable_fast(bs, (2, 0), (1, 1))
        with pytest.raises(ConfigurationError):
            probability_distinguishable_fast(bs, (1, 1), (2, 0))


class TestInvariants:
    def test_basis_rotation_leaves_nonresolved_unchanged(self, rng):
        for trial in range(5):
            u = make_random_unitary(4, 100 + trial)
            lam = random_unit_rows(rng, 3, 3)
            w = haar_like(rng, 3)
            base = distribution_nonresolved(u, lam)
            rotated = distribution_nonresolved(u, lam.rotated(w))
            worst = max(abs(base[k] - rotated[k]) for k in base)
            assert worst <= 1e-9

    def test_resolved_probabilities_do_depend_on_basis(self, rng):
        # Sanity counterpoint: the resolved distribution is basis-dependent.
        bs = make_beamsplitter_50_50()
        lam = hom_lambda(0.5)
        w = haar_like(rng, 2)
        base = probability_resolved(bs, lam, None, ((2, 0), (0, 0)))
        rotated = probability_resolved(bs, lam.rotated(w), None, ((2, 0), (0, 0)))
        assert abs(base - rotated) > 1e-3

    def test_hom_dip_monotone_and_exact(self):
        bs = make_beamsplitter_50_50()
        previous = None
        for alpha in np.linspace(0.0, 1.0, 21):
            p = probability_nonresolved(bs, hom_lambda(float(alpha)), None, (1, 1))
            assert abs(p - (1.0 - alpha**2) / 2.0) <= 1e-12
            if previous is not None:
                assert p < previous
            previous = p


class TestProbabilityMixed:
    def test_pure_photons_reduce_to_pure_probability(self):
        bs = make_beamsplitter_50_50()
        a = GaussianWavepacket(0.0, 1.0, 0.0)
        b = GaussianWavepacket(0.8, 1.0, 0.0)
        lam = lambda_from_photons([a, b])
        pure = probability_nonresolved(bs, lam, None, (1, 1))
        mixed = probability_mixed(bs, [a, b], None, (1, 1))
        assert mixed == pure  # bit-for-bit: a single unit-weight term

    def test_single_component_mixture_bit_for_bit(self):
        bs = make_beamsplitter_50_50()
        a = GaussianWavepacket(0.0, 1.0, 0.0)
        b = GaussianWavepacket(0.8, 1.0, 0.0)
        lam = lambda_from_photons([a, b])
        pure = probability_nonresolved(bs, lam, None, (1, 1))
        mixed = probability_mixed(
            bs,
            [MixedPhotonSource(((1.0, a),)), MixedPhotonSource(((1.0, b),))],
            None,
            (1, 1),
        )
        assert mixed == pure

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_hom_two_component_mixture(self, p):
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        orth = GaussianWavepacket(60.0, 1.0, 0.0)  # overlap ~ 1e-196
        photon2 = MixedPhotonSource(((p, psi), (1.0 - p, orth)))
        got = probability_mixed(bs, [psi, photon2], None, (1, 1))
        assert got == pytest.approx((1.0 - p) / 2.0, abs=1e-12)

    def test_mixture_is_convex_combination(self):
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        near = GaussianWavepacket(0.5, 1.0, 0.0)
        far = GaussianWavepacket(3.0, 1.0, 0.0)
        components = [psi, near, far]
        pures = [probability_mixed(bs, [psi, c], None, (1, 1)) for c in components]
        mixture = MixedPhotonSource(tuple((1.0 / 3.0, c) for c in components))
        mixed = probability_mixed(bs, [psi, mixture], None, (1, 1))
        assert min(pures) - 1e-12 <= mixed <= max(pures) + 1e-12

    def test_identical_components_equal_pure(self):
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        other = GaussianWavepacket(1.0, 1.0, 0.0)
        lam = lambda_from_photons([psi, other])
        pure = probability_nonresolved(bs, lam, None, (1, 1))
        mixture = MixedPhotonSource(((0.5, other), (0.5, other)))
        mixed = probability_mixed(bs, [psi, mixture], None, (1, 1))
        assert mixed == pytest.approx(pure, abs=1e-15)

    def test_resolved_mixture_parts_match_common_basis(self):
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        orth = GaussianWavepacket(60.0, 1.0, 0.0)
        photon2 = MixedPhotonSource(((0.5, psi), (0.5, orth)))
        # Components psi, psi, orth span xi_1 = psi and xi_2 = orth.
        # Anti-bunching in xi_1 never happens in either combination.
        got = probability_mixed(bs, [psi, photon2], None, ((1, 1), (0, 0)), "resolved")
        assert got == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(ConfigurationError):
            probability_mixed(bs, [psi, photon2], None, ((1, 1), (0, 0), (0, 0)), "resolved")

    def test_resolved_labels_name_one_basis(self):
        # Orthonormalized per combination, xi_1 would be whichever
        # component photon 1 carries; in the common basis of all three
        # components it is the same function in both combinations.
        u = make_random_unitary(2, 3)
        g = [GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.5, 1.0, 0.3),
             GaussianWavepacket(-0.3, 0.9, 1.0)]
        photons = [MixedPhotonSource(((0.5, g[0]), (0.5, g[1]))), g[2]]
        common = lambda_from_photons(g)
        states = [(0.5, fock_evolve(u, LambdaMatrix(common.matrix[rows])))
                  for rows in ([0, 2], [1, 2])]
        outcomes = list(enumerate_resolved_outcomes(2, 2, 3))
        for outcome in outcomes:
            want = sum(w * oracle_probability(state, outcome, "resolved") for w, state in states)
            got = probability_mixed(u, photons, None, outcome, "resolved")
            assert got == pytest.approx(want, abs=1e-12), outcome
        assert sum(probability_mixed(u, photons, None, o, "resolved") for o in outcomes) == (
            pytest.approx(1.0, abs=1e-12))

    def test_invalid_weights_rejected(self):
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            MixedPhotonSource(((0.5, psi), (0.6, psi)))
        with pytest.raises(ConfigurationError):
            MixedPhotonSource(((-0.1, psi), (1.1, psi)))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, weight):
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            MixedPhotonSource(((weight, psi), (1.0, psi)))

    def test_combination_capacity_guard(self):
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        wide = MixedPhotonSource(tuple((1.0 / 400.0, GaussianWavepacket(float(k), 1.0, 0.0))
                                       for k in range(400)))
        with pytest.raises(CapacityError):
            probability_mixed(bs, [wide, wide], None, (1, 1))

    def test_unknown_detector_rejected(self):
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            probability_mixed(bs, [psi, psi], None, (1, 1), "heterodyne")

    @pytest.mark.parametrize("case", ["detector", "mixture cap", "inputs", "outcome", "sweep cap"])
    def test_probability_chunks_checks_at_the_call(self, case):
        # No chunk is taken: every check runs when the stream is made.
        u = Interferometer(np.eye(30))
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        wide = MixedPhotonSource(tuple((1.0 / 400.0, GaussianWavepacket(float(k), 1.0, 0.0)) for k in range(400)))
        args, error = {
            "detector": (([psi, psi], None, "heterodyne"), "unknown detector"),
            "mixture cap": (([wide, wide],), "160000 mixture combinations"),
            "inputs": (([psi, psi], (1, 1)), "distinct"),
            "outcome": (([psi, psi], None, "nonresolved", (1,) + (0,) * 29), "signature holds 1 photons"),
            "sweep cap": (([psi] * 30,), "exceed the sweep cap"),
        }[case]
        with pytest.raises((ConfigurationError, CapacityError), match=error):
            bosonspectra.sampling.probability_chunks(u, *args)

    def test_outcome_required(self):
        # Without an outcome the stream would be the whole sweep, not one probability.
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError, match="needs an outcome"):
            probability_mixed(bs, [psi, psi])
