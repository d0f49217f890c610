import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from bosonspectra import (
    CapacityError,
    CoefficientSpectrum,
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
    make_dft,
    make_random_unitary,
    mixture_lambdas,
    oracle_probability,
    probability_distinguishable_fast,
    probability_indistinguishable_fast,
    probability_mixed,
    probability_nonresolved,
    probability_resolved,
)
import bosonspectra.pairsum
import bosonspectra.sampling
import bosonspectra.spectra
from bosonspectra.pairsum import _pair_sums
from bosonspectra.permanent import _count_rows
from bosonspectra.sampling import (
    PAIR_SUM_KAPPA,
    STACK_SIZE,
    _WORK_BUDGET,
    _chunks,
    _costs,
    _count_blocks,
    _joint_matrix,
    _occupations,
    _price,
    _resolved_amplitudes,
    _split_count,
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
    (value,), (kappa,) = _pair_sums(columns(u, inputs), lam.gram, np.array([sig]))
    return value, kappa


def columns(u, inputs):
    """U[:, T], the input columns of the unitary for 1-based input modes."""
    return u.matrix[:, [x - 1 for x in inputs]]


def split_sum(u, lam, inputs, sig):
    """sig's split-sum probability: the math.fsum of |amp|^2 over its splits."""
    joint = _joint_matrix(columns(u, inputs), lam)
    blocks = _count_blocks(lam.n, u.m, lam.basis_size, [sig])
    return math.fsum(abs(amp) ** 2 for counts, norms in blocks
                     for amp in _resolved_amplitudes(joint, _count_rows(counts), norms, lam))


def splits(sig, r):
    """sig's splits from the enumerator: its count rows, as lists, and their prod S_vec!."""
    blocks = list(_count_blocks(sum(sig), len(sig), r, [sig]))
    return [row for counts, _ in blocks for row in counts.tolist()], [norm for _, norms in blocks for norm in norms]


def generic(n: int) -> list:
    """n distinct Gaussians, mu 0.2 j, sigma 1 + 0.05 j, tau 0.3 j: a basis of n functions."""
    return [GaussianWavepacket(0.2 * j, 1 + 0.05 * j, 0.3 * j) for j in range(n)]


def large_fallback():
    """Six distinct Gaussians on eight modes and a collision-free signature of 6^6 splits."""
    return make_random_unitary(8, 1), lambda_from_photons(generic(6)), (1, 1, 1, 1, 1, 1, 0, 0)


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
        # the kappa fallbacks; two species (r = 2) take the split sum where
        # a signature has at most 2^3 splits, as (3, 1, 0, ..), and the pair
        # sum elsewhere.
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
            assert any(takes_pair) and not all(takes_pair)
        else:
            assert all(takes_pair)
            assert fallbacks(u, lam, inputs or (1, 2, 3, 4), dist) >= 1

    def test_split_sum_is_the_fsum_of_the_resolved_stream(self, monkeypatch):
        # Each split is one resolved outcome, so a split-summed signature is
        # the math.fsum of the resolved sweep's values over its outcomes.
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (1, 0))
        species = [GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.3, 0.8, 0.9)]
        u, lam = make_random_unitary(5, 61), lambda_from_photons([species[j % 2] for j in range(4)])
        by_signature = {}
        for outcome, p in distribution_resolved(u, lam).items():
            by_signature.setdefault(tuple(map(sum, zip(*outcome))), []).append(p)
        assert lam.basis_size == 2 and len(by_signature) == 70
        for sig, ps in by_signature.items():
            assert probability_nonresolved(u, lam, None, sig) == math.fsum(ps), sig

    def test_split_sum_does_not_depend_on_the_order_of_its_splits(self, rng, monkeypatch):
        # Shuffled splits change a left-to-right sum's last bits, not the split sum's.
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (1, 0))
        u, lam = make_random_unitary(6, 59), random_unit_rows(rng, 4, 4)
        joint = _joint_matrix(columns(u, (1, 2, 3, 4)), lam)
        for sig in [(2, 1, 1, 0, 0, 0), (1, 1, 1, 1, 0, 0), (0, 2, 0, 0, 2, 0)]:
            value = probability_nonresolved(u, lam, None, sig)
            rows, norms = splits(sig, 4)
            picks = _count_rows(np.array(rows))
            sequential = set()
            for _ in range(5):
                order = rng.permutation(len(norms))
                amplitudes = _resolved_amplitudes(joint, picks[order], [norms[k] for k in order], lam)
                squares = [abs(amp) ** 2 for amp in amplitudes]
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

    def test_large_fallback_holds_one_block(self, monkeypatch):
        # Six distinct photons in six of eight modes: forced off the pair
        # sum, 46656 splits. Stacked at once, they and their kernel rows
        # take 9 MB.
        monkeypatch.setattr(bosonspectra.sampling, "PAIR_SUM_KAPPA", -1.0)
        u, lam, sig = large_fallback()
        assert _split_count(sig, lam.basis_size) == 46656
        tracemalloc.start()
        try:
            p = probability_nonresolved(u, lam, None, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < p < 1.0
        assert peak < 2e6

    @pytest.mark.parametrize("case", ["resolved sweep", "two species sweep", "fallback sweep", "large fallback",
                                      "pair sum"])
    def test_kernel_calls_take_at_most_a_stack(self, rng, monkeypatch, case):
        # Resolved outcomes and split sums reach the kernel through one
        # stream of count blocks, full but for the last, and pair sums
        # through blocks of (signature, eps) rows. A block's kernel call
        # leaves out its structural zeros, so only the blocks need be full.
        sizes, blocks = [], []
        kernel, reachable = bosonspectra.sampling._permanents, bosonspectra.sampling._reachable

        def counted(rows, joint, **moduli):
            sizes.append(len(rows))
            return kernel(rows, joint, **moduli)

        def counted_block(lam, rows, m):
            blocks.append(len(rows))
            return reachable(lam, rows, m)

        monkeypatch.setattr(bosonspectra.sampling, "_permanents", counted)
        monkeypatch.setattr(bosonspectra.sampling, "_reachable", counted_block)
        monkeypatch.setattr(bosonspectra.pairsum, "_permanents", counted)
        if case == "pair sum":
            # One generic n = 10 signature: 512 sign vectors.
            probability_nonresolved(make_random_unitary(12, 53), random_unit_rows(rng, 10, 10), None,
                                    (1,) * 10 + (0, 0))
        elif case == "resolved sweep":
            distribution_resolved(make_random_unitary(4, 23), random_unit_rows(rng, 4, 4))
        elif case == "two species sweep":
            lam = LambdaMatrix(random_unit_rows(rng, 2, 2).matrix[[0, 1, 0, 1]])
            distribution_nonresolved(make_random_unitary(8, 37), lam)
        else:
            monkeypatch.setattr(bosonspectra.sampling, "PAIR_SUM_KAPPA", -1.0)
            if case == "fallback sweep":
                photons = [GaussianWavepacket(0.2 * j, 1 + 0.05 * j, 0.3 * j) for j in range(4)]
                distribution_nonresolved(make_random_unitary(8, 1), lambda_from_photons(photons))
            else:
                u, lam, sig = large_fallback()
                probability_nonresolved(u, lam, None, sig)
        assert max(sizes) <= STACK_SIZE and max(blocks or sizes) == STACK_SIZE

    def test_pair_sums_of_a_row_do_not_depend_on_the_others(self, rng):
        # n = 8, r = 8: 43 signatures of 128 sign vectors each, 22 kernel
        # calls, over the rows of up to nine modes.
        u, lam = make_random_unitary(9, 41), random_unit_rows(rng, 8, 8)
        sigs = np.array(list(itertools.islice(_occupations(8, 9), 0, None, 300)))
        assert len(sigs) == 43
        cols = columns(u, range(1, 9))
        values, kappas = _pair_sums(cols, lam.gram, sigs)
        for k, sig in enumerate(sigs):
            alone = _pair_sums(cols, lam.gram, sig[None])
            assert (values[k], kappas[k]) == (alone[0][0], alone[1][0]), sig

    @pytest.mark.parametrize("n,r,sig,pair", [
        (8, 2, (1,) * 8 + (0,) * 4, True),  # two species, the perfbench block: 2^8 splits, 2^7 sign vectors
        (16, 1, (2,) + (1,) * 14 + (0,) * 5, False),  # identical photons
        (4, 2, (1, 1, 1, 1, 0), True),
        (4, 4, (1, 1, 1, 1, 0), True),
        (5, 5, (2, 1, 1, 1, 0, 0, 0, 0, 0), True),
        (2, 2, (1, 1), True),  # HOM: 4 splits, 2 sign vectors
        (4, 2, (3, 1, 0, 0, 0), False),  # a tie: 2^3 splits
    ])
    def test_routing(self, n, r, sig, pair):
        assert _takes_pair_sum(n, r, sig) == pair

    def test_bigperm_shapes_take_the_split_sum(self, monkeypatch):
        # The two-species block costs its pair sum half its split sum. Its
        # split sum, forced, gives what the unguarded pair sum does (kappa
        # 35.6 here, so the guard sends it to the split sum anyway).
        sig = (1,) * 8 + (0,) * 4
        assert _costs(8, 2, sig) == (131072, 262144)
        species = [GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.3, 0.8, 0.9)]
        u, lam = make_random_unitary(12, 43), lambda_from_photons([species[j % 2] for j in range(8)])
        pair = pair_sum(u, lam, tuple(range(1, 9)), sig)[0]

        def refuse(*args):
            raise AssertionError("pair sum called")

        monkeypatch.setattr(bosonspectra.pairsum, "_pair_sums", refuse)
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (1, 0))
        p = probability_nonresolved(u, lam, None, sig)
        assert 0.0 < p < 1.0 and pair == pytest.approx(p, rel=1e-13)
        # Identical photons take the split sum by cost.
        monkeypatch.setattr(bosonspectra.sampling, "_costs", _costs)
        lam = LambdaMatrix(np.ones((16, 1)))
        p = probability_nonresolved(make_random_unitary(20, 47), lam, None, (2,) + (1,) * 14 + (0,) * 5)
        assert 0.0 < p < 1.0

    def test_pair_sum_memory_is_blocked(self, rng):
        # One generic n = 10 signature: 512 permanents of size 10 over the
        # rows A_eps[k, :] of 256 sign vectors at a time. Its old pair sum's
        # table of 4^9 pairs per mode, unblocked, would hold 42 MB.
        u, lam = make_random_unitary(12, 53), random_unit_rows(rng, 10, 10)
        tracemalloc.start()
        try:
            p = probability_nonresolved(u, lam, None, (1,) * 10 + (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < p < 1.0
        assert peak < 6e6

    def test_fallback_over_the_budget_is_refused(self, monkeypatch):
        # HOM at alpha = 1 forced onto the pair sum falls back, and its
        # split sum, 4 splits of 4 multiply-adds, exceeds a budget of 15.
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (0, _costs(n, r, sig)[1]))
        monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 15)
        with pytest.raises(CapacityError, match=r"the pair sum cancels \(kappa inf > 32.0\) and its split sum's 16 "):
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
        # Glynn's sum reduces a lone outcome as it does one among many, at
        # n = 3 as at n = 4 and 5.
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

    @pytest.mark.parametrize("n,m,seed", [(3, 6, 1), (4, 4, 2)])
    def test_structurally_impossible_outcomes_are_exact_zeros(self, n, m, seed):
        # Generic Gaussians: lambda, their Cholesky factor, is zero above its
        # diagonal. An outcome whose profile no assignment of the photons to
        # basis functions reaches along non-zero entries of lambda has only
        # zero terms; the kernel's sum of them used to leave up to 1e-34.
        photons = [GaussianWavepacket(0.2 * j, 1 + 0.05 * j, 0.3 * j) for j in range(n)]
        u, lam = make_random_unitary(m, seed), lambda_from_photons(photons)
        r, support = lam.basis_size, lam.matrix != 0
        reachable = {tuple(v.count(i) for i in range(r)) for v in itertools.product(range(r), repeat=n)
                     if all(support[j, i] for j, i in enumerate(v))}
        state, impossible = fock_evolve(u, lam), 0
        for outcome, p in distribution_resolved(u, lam).items():
            assert p == probability_resolved(u, lam, None, outcome) == probability_mixed(
                u, photons, None, outcome, "resolved"), outcome
            if tuple(map(sum, outcome)) not in reachable:
                impossible += 1
                assert p == 0.0 == oracle_probability(state, outcome, "resolved"), outcome
                assert amplitude_resolved(u, lam, None, outcome) == 0j
            else:
                assert p > 0.0, outcome
        assert impossible > 0

    def test_each_profile_is_decided_once_per_lambda(self, monkeypatch):
        # Which profiles lambda reaches depends on lambda alone. A resolved
        # sweep decides all ten of three generic photons; later queries on
        # the same lambda, split sums on another network too, decide none
        # again, while a fresh lambda of the same photons does.
        calls, assignable = [], bosonspectra.sampling._assignable
        monkeypatch.setattr(bosonspectra.sampling, "_assignable",
                            lambda options, profile: calls.append(profile) or assignable(options, profile))
        u, lam = make_random_unitary(4, 23), lambda_from_photons(generic(3))
        dist = distribution_resolved(u, lam)
        assert len(calls) == len({tuple(map(sum, outcome)) for outcome in dist}) == math.comb(3 + 2, 3)
        calls.clear()
        outcome = next(o for o, p in dist.items() if p > 0.0)
        assert probability_resolved(u, lam, None, outcome) == dist[outcome]
        monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (1, 0))
        assert probability_nonresolved(make_random_unitary(5, 3), lam, None, (1, 1, 1, 0, 0)) > 0.0
        assert calls == []
        assert probability_resolved(u, lambda_from_photons(generic(3)), None, outcome) == dist[outcome]
        assert calls == [list(map(sum, outcome))]

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
    # multiple) and of 31 (a lone last outcome); 21 outcomes, fewer than a
    # stack. Split into every signature's splits, the same rows are cut alike.
    @pytest.mark.parametrize("n,m,nb,stack", [(4, 4, 4, 256), (4, 4, 4, 17), (4, 4, 4, 31), (2, 3, 2, 256)])
    def test_chunks_are_the_whole_sweep_cut_into_stacks(self, monkeypatch, n, m, nb, stack):
        monkeypatch.setattr(bosonspectra.sampling, "STACK_SIZE", stack)
        outcomes = list(enumerate_resolved_outcomes(n, m, nb))
        for sigs in (None, list(_occupations(n, m))):
            blocks = list(_count_blocks(n, m, nb, sigs))
            assert [len(counts) for counts, _ in blocks[:-1]] == [stack] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1][0]) <= stack
            assert [len(norms) for _, norms in blocks] == [len(counts) for counts, _ in blocks]
            rows = [row for counts, _ in blocks for row in counts.tolist()]
            if sigs is None:
                assert [len(chunk) for chunk in _chunks(outcomes)] == [len(counts) for counts, _ in blocks]
                assert rows == [list(sum(o, ())) for o in outcomes]
            assert len(rows) == len(outcomes)
            norms = [norm for _, block_norms in blocks for norm in block_norms]
            assert norms == [math.prod(map(math.factorial, row)) for row in rows]
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
        joint = _joint_matrix(columns(u, (1, 2, 3, 4)), lam)
        norms = [math.prod(map(math.factorial, row)) for row in counts.tolist()]
        whole = _resolved_amplitudes(joint, _count_rows(counts), norms, lam)
        dist = distribution_resolved(u, lam)
        assert list(dist) == outcomes
        assert list(dist.values()) == [abs(amp) ** 2 for amp in whole]
        if len(outcomes) % stack == 1:
            # A lone last outcome goes to the kernel as a single query's does.
            assert dist[outcomes[-1]] == probability_resolved(u, lam, None, outcomes[-1])

    def test_more_basis_functions_than_numpy_has_dimensions(self):
        # Two photons declared over 65 basis functions, more than numpy's 64
        # array dimensions: 8515 outcomes, every 17th checked alone.
        rows = np.zeros((2, 65))
        rows[0, 0], rows[1, [0, 64]] = 1.0, (0.6, 0.8)
        u, lam = make_beamsplitter_50_50(), lambda_from_photons([CoefficientSpectrum(row) for row in rows])
        dist = distribution_resolved(u, lam)
        assert len(dist) == math.comb(131, 2)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for outcome, p in itertools.islice(dist.items(), 0, None, 17):
            assert p == probability_resolved(u, lam, None, outcome), outcome

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
    """Small splits written out, picked from the enumerator's by photons per basis function."""

    @staticmethod
    def _with_profile(sig, profile):
        rows, norms = splits(sig, len(profile))
        m = len(sig)
        return [
            ([tuple(row[i * m : (i + 1) * m]) for i in range(len(profile))], norm)
            for row, norm in zip(rows, norms)
            if [sum(row[i * m : (i + 1) * m]) for i in range(len(profile))] == list(profile)
        ]

    def test_all_photons_in_first_spectral_mode(self):
        assert self._with_profile((1, 1), (2, 0)) == [([(1, 1), (0, 0)], 1)]
        assert self._with_profile((2, 0), (2, 0)) == [([(2, 0), (0, 0)], 2)]

    def test_split_photons(self):
        assert self._with_profile((1, 1), (1, 1)) == [([(0, 1), (1, 0)], 1), ([(1, 0), (0, 1)], 1)]
        assert splits((1, 1), 2) == ([[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]], [1, 1, 1, 1])

    def test_bunched_signature_forces_same_mode(self):
        assert self._with_profile((2, 0), (1, 1)) == [([(1, 0), (1, 0)], 1)]
        assert splits((2, 0), 2) == ([[0, 0, 2, 0], [1, 0, 1, 0], [2, 0, 0, 0]], [2, 1, 2])


class TestSplits:
    """A signature's splits between basis functions, built mode by mode."""

    @pytest.mark.parametrize(
        "n,m,r", [(3, 3, 2), (4, 3, 3), (4, 4, 2), (3, 4, 4), (5, 3, 2), (4, 3, 1), (2, 5, 1)]
    )
    def test_splits_are_the_signatures_outcomes_in_sweep_order(self, n, m, r):
        # Restricted to one signature, the resolved stream lists its splits,
        # each once and with its norm. The split stream of every signature
        # lists each one's splits in turn, _split_count rows each. Only the
        # multisets must agree: a split sum is a math.fsum, so its splits
        # keep no order, and both sides are sorted before they are compared.
        by_signature = {}
        resolved = (pair for counts, norms in _count_blocks(n, m, r) for pair in zip(counts.tolist(), norms))
        for outcome, pair in zip(enumerate_resolved_outcomes(n, m, r), resolved, strict=True):
            by_signature.setdefault(tuple(map(sum, zip(*outcome))), []).append(pair)
        sigs = list(_occupations(n, m))
        split = iter([pair for counts, norms in _count_blocks(n, m, r, sigs) for pair in zip(counts.tolist(), norms)])
        for sig in sigs:
            assert sorted(itertools.islice(split, _split_count(sig, r))) == sorted(by_signature.pop(sig)), sig
        assert by_signature == {} and next(split, None) is None

    def test_large_signature_single_split(self):
        # One basis function must take the whole signature: exactly one split.
        sig = (1,) * 16 + (0,) * 4
        assert splits(sig, 1) == ([list(sig)], [1])

    @pytest.mark.parametrize("sig", [(2, 1, 0), (1, 1, 1, 1), (3, 0, 2), (0, 4), (1, 2, 0, 1)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_split_count_is_the_routing_count(self, sig, r):
        # The splits factorize into independent splits of each mode's photons.
        rows, norms = splits(sig, r)
        assert len(rows) == len(norms) == math.prod(math.comb(c + r - 1, r - 1) for c in sig)
        assert len({tuple(row) for row in rows}) == len(rows)
        for row in rows:
            parts = [row[i * len(sig) : (i + 1) * len(sig)] for i in range(r)]
            assert tuple(map(sum, zip(*parts))) == sig

    @pytest.mark.parametrize("case", ["identical", "two species"])
    def test_more_modes_than_numpy_has_dimensions(self, case):
        # numpy arrays have at most 64 dimensions: no array may take one per
        # mode. 65 photons in 65 modes (2^65 splits for two species) cost
        # more than the work budget on either sum, and are refused.
        sig = (1, 1) + (0,) * 63
        species = [GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.3, 0.8, 0.9)]
        if case == "identical":
            u = make_dft(65)
            expected = probability_indistinguishable_fast(u, sig, sig)
            lam, crowd = LambdaMatrix(np.ones((2, 1))), LambdaMatrix(np.ones((65, 1)))
        else:
            matrix = np.eye(65, dtype=complex)
            matrix[:2, :2] = make_beamsplitter_50_50().matrix
            u = Interferometer(matrix)
            lam, crowd = lambda_from_photons(species), lambda_from_photons([species[j % 2] for j in range(65)])
            expected = probability_nonresolved(make_beamsplitter_50_50(), lam, None, (1, 1))
        assert probability_nonresolved(u, lam, None, sig) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(CapacityError, match="exceed the work budget"):
            probability_nonresolved(u, crowd, None, (1,) * 65)

    def test_norms_exact_past_int64(self):
        # prod S_vec! = 21! > 2^63: norms stay exact Python ints.
        rows, norms = splits((21, 0), 1)
        assert rows == [[21, 0]]
        assert norms == [math.factorial(21)] and type(norms[0]) is int
        rows, norms = splits((0, 21), 2)
        assert norms[0] == norms[-1] == math.factorial(21)
        assert norms == [math.factorial(k) * math.factorial(21 - k) for k in range(22)]


class TestWorkBudget:
    """Every stream is priced by _costs when made, and refused over the budget before any work."""

    @pytest.mark.parametrize("n,m,r,sig", [
        (2, 2, 2, (1, 1)),  # HOM
        (4, 5, 4, (1, 1, 1, 1, 0)),
        (5, 9, 5, (2, 1, 1, 1, 0, 0, 0, 0, 0)),
        (8, 12, 2, (1,) * 8 + (0,) * 4),
        (3, 4, 1, None),
        (3, 4, 2, None),
        (4, 5, 4, None),
        (4, 8, 2, None),
    ])
    def test_price_is_the_routed_work(self, n, m, r, sig):
        # A signature costs the sum it is routed to; a sweep at least what
        # its signatures' routed sums add up to, and exactly that at r = 1.
        work = _price(n, m, r, "nonresolved", sig)
        if sig is not None:
            assert work == min(_costs(n, r, sig))
        else:
            routed = sum(min(_costs(n, r, s)) for s in _occupations(n, m))
            assert work >= routed
            assert work == routed or r > 1

    def test_budget_is_the_largest_permanent(self):
        assert _WORK_BUDGET == 30 * 2**29

    def test_thirty_one_distinct_photons_refused_at_the_call(self):
        # Routed to the pair sum at 3.57e19 multiply-adds, whose sign table
        # alone would take about 500 GiB.
        u, lam = make_dft(31), lambda_from_photons(generic(31))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(CapacityError, match="the query's 3.57e[+]19 multiply-adds exceed the work budget"):
                probability_nonresolved(u, lam, None, (1,) * 31)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 5e6

    def test_work_past_float_range_is_reported(self):
        # 1000 identical photons in one mode: 1000 2^999 multiply-adds, past
        # what a float can format.
        u, lam = Interferometer(np.eye(1000)), LambdaMatrix(np.ones((1000, 1)))
        with pytest.raises(CapacityError, match="the query's over 1e300 multiply-adds"):
            probability_nonresolved(u, lam, None, (1000,) + (0,) * 999)

    def test_generic_fourteen_photons_are_admitted(self):
        # 9.40e8 multiply-adds, under the budget: the stream is made, not read.
        u, photons, sig = Interferometer(np.eye(30)), generic(14), (1,) * 14 + (0,) * 16
        work = _price(14, 30, lambda_from_photons(photons).basis_size, "nonresolved", sig)
        assert work == 14 * 4**13 < _WORK_BUDGET
        bosonspectra.sampling.probability_chunks(u, photons, None, "nonresolved", sig)


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
        # It does not: Per(|U_{M,T}|^2) / prod M! holds for bunched signatures
        # and for photons that share an input port.
        for seed in range(5):
            u = make_random_unitary(4, seed)
            lam = LambdaMatrix(np.eye(3))
            for picks in itertools.combinations_with_replacement(range(4), 3):
                sig = tuple(picks.count(k) for k in range(4))
                engine = probability_nonresolved(u, lam, (1, 2, 3), sig)
                assert abs(engine - probability_distinguishable_fast(u, sig, (1, 1, 1, 0))) <= 1e-15, sig
        bs = make_beamsplitter_50_50()
        got = [probability_distinguishable_fast(bs, sig, (2, 0)) for sig in [(2, 0), (1, 1), (0, 2)]]
        assert got == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


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

    def test_blind_mixture_computes_each_overlap_once(self, monkeypatch):
        # One gram_matrix over every component, photon order then component
        # order; each combination decomposes its rows and columns of it, and
        # gets the lambda and G its own photons give, bit for bit.
        g = [GaussianWavepacket(0.1 * j, 1.0 + 0.05 * j, 0.3 * j) for j in range(6)]
        pools = [g[2 * j : 2 * j + 2] for j in range(3)]
        own = [lambda_from_photons(combo) for combo in itertools.product(*pools)]
        calls, overlap = [], bosonspectra.spectra.overlap
        monkeypatch.setattr(bosonspectra.spectra, "overlap", lambda a, b: calls.append((a, b)) or overlap(a, b))
        combinations = list(mixture_lambdas([MixedPhotonSource(((0.5, a), (0.5, b))) for a, b in pools], "nonresolved"))
        assert calls == [(g[a], g[b]) for a in range(6) for b in range(a, 6)]
        assert [w for w, _ in combinations] == [0.125] * 8
        for (_, lam), want in zip(combinations, own, strict=True):
            assert np.array_equal(lam.matrix, want.matrix) and np.array_equal(lam.gram, want.gram)

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

    # An int beyond the double range used to escape float() as OverflowError.
    @pytest.mark.parametrize("weight", [math.nan, math.inf, pytest.param(10**400, id="huge_int"),
                                        pytest.param(-(10**400), id="huge_negative_int")])
    def test_non_finite_weights_rejected(self, weight):
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError, match="must be finite"):
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

    @pytest.mark.parametrize("case", ["detector", "mixture cap", "inputs", "outcome", "sweep cap", "work budget",
                                      "mixture budget"])
    def test_probability_chunks_checks_at_the_call(self, monkeypatch, case):
        # No chunk is taken: every check runs when the stream is made.
        u = Interferometer(np.eye(30))
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        wide = MixedPhotonSource(tuple((1.0 / 400.0, GaussianWavepacket(float(k), 1.0, 0.0)) for k in range(400)))
        # Two combinations, psi twice (4 multiply-adds) and psi with an
        # orthogonal photon (8, its pair sum): each fits a budget of 11, not both.
        half = MixedPhotonSource(((0.5, psi), (0.5, GaussianWavepacket(40.0, 1.0, 0.0))))
        if case == "mixture budget":
            monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 11)
        args, error = {
            "detector": (([psi, psi], None, "heterodyne"), "unknown detector"),
            "mixture cap": (([wide, wide],), "160000 mixture combinations"),
            "inputs": (([psi, psi], (1, 1)), "distinct"),
            "outcome": (([psi, psi], None, "nonresolved", (1,) + (0,) * 29), "signature holds 1 photons"),
            "sweep cap": (([psi] * 30,), "exceed the sweep cap"),
            # A generic single signature at n = 16 costs 1.72e10, its pair sum.
            "work budget": ((generic(16), None, "nonresolved", (1,) * 16 + (0,) * 14),
                            "the query's 1.72e[+]10 multiply-adds exceed the work budget 1.61e[+]10"),
            "mixture budget": (([psi, half], None, "nonresolved", (1, 1) + (0,) * 28), "the query's 12 multiply-adds"),
        }[case]
        with pytest.raises((ConfigurationError, CapacityError), match=error):
            bosonspectra.sampling.probability_chunks(u, *args)

    def test_outcome_required(self):
        # Without an outcome the stream would be the whole sweep, not one probability.
        bs = make_beamsplitter_50_50()
        psi = GaussianWavepacket(0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError, match="needs an outcome"):
            probability_mixed(bs, [psi, psi])

    @pytest.mark.parametrize("m", [1, 2])
    def test_single_outcome_calls_need_an_outcome(self, m):
        # A one-mode sweep has one signature, which used to come back as the
        # answer; on more modes the sweep failed to unpack into one value.
        u, lam = Interferometer(np.eye(m)), LambdaMatrix(np.ones((m, 1)))
        with pytest.raises(ConfigurationError, match="needs a signature"):
            probability_nonresolved(u, lam)
        for call in (amplitude_resolved, probability_resolved):
            with pytest.raises(ConfigurationError, match="needs an outcome"):
                call(u, lam)
        with pytest.raises(ConfigurationError, match="needs an outcome"):
            oracle_probability(fock_evolve(u, lam), None)

    def test_non_iterable_outcomes_refused(self):
        # A bare count where a sequence belongs used to escape as TypeError.
        bs, lam = make_beamsplitter_50_50(), hom_lambda(0.6)
        for call, outcome, what in ((probability_nonresolved, 2, "occupation counts"),
                                    (probability_resolved, 2, "a resolved outcome"),
                                    (probability_resolved, [2], "occupation counts")):
            with pytest.raises(ConfigurationError, match=f"{what} must be a sequence, got 2"):
                call(bs, lam, None, outcome)

    @pytest.mark.parametrize("call", [
        lambda bs, lam: probability_nonresolved(bs, lam, 1, (1, 1)),
        lambda bs, lam: distribution_resolved(bs, lam, 1),
        lambda bs, lam: fock_evolve(bs, lam, 1),
    ])
    def test_non_iterable_input_modes_refused(self, call):
        # A bare mode number used to escape as TypeError.
        with pytest.raises(ConfigurationError, match="input modes must be a sequence, got 1"):
            call(make_beamsplitter_50_50(), LambdaMatrix([[1.0], [1.0]]))

    @pytest.mark.parametrize("components,error", [
        (5, "mixture components must be a sequence, got 5"),
        (((0.5,),), "pair, got [(]0.5,[)]"),
        ((("a", GaussianWavepacket(0.0, 1.0)),), "mixture weight must be a real number, got 'a'"),
        (((None, GaussianWavepacket(0.0, 1.0)),), "mixture weight must be a real number, got None"),
        (((True, GaussianWavepacket(0.0, 1.0)),), "mixture weight must be a real number, got True"),
        (((1.0, GaussianWavepacket(0.0, 1.0), 3),), "pair, got [(]1.0, .*, 3[)]"),
    ])
    def test_malformed_mixture_components_refused(self, components, error):
        # Each used to escape the constructor as TypeError or ValueError, or
        # (True) to pass as probability 1.0.
        with pytest.raises(ConfigurationError, match=error):
            MixedPhotonSource(components)
