"""Engine, oracle and mixtures against the exact rational reference.

Inputs are exact rationals (exact_reference), rounded once to doubles
for the package, so every error below includes that rounding; a Haar
sweep is judged against the exact value of its double inputs instead.
Each bound is set from the worst error measured over its cases (2-core
Xeon VM, numpy 2.4), with headroom under 2x; a later engine change must
meet it, not widen it.
"""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

import exact_reference as ex
import bosonspectra.sampling
from bosonspectra import (
    CoefficientSpectrum,
    GaussianWavepacket,
    Interferometer,
    LambdaMatrix,
    MixedPhotonSource,
    distribution_nonresolved,
    fock_evolve,
    gram_matrix,
    lambda_from_photons,
    make_random_unitary,
    oracle_probability,
    probability_mixed,
    probability_nonresolved,
    probability_resolved,
)
from bosonspectra.pairsum import _pair_sums
from bosonspectra.sampling import PAIR_SUM_KAPPA, _costs

CASES = [(n, r) for n in (3, 4) for r in (2, 4)]  # m = n
CASES_5 = [(5, r) for r in (2, 3, 5)]
# Worst relative errors measured: 1.8e-15 (engine, blind; 2.5e-15 with
# the tau-sum), 1.8e-15 (engine, resolved), 1.9e-15 (two-component
# mixture; 2.6e-15), 5.5e-16 and 1.1e-15 (oracle, blind and resolved).
ENGINE_RTOL = 4e-15
ORACLE_RTOL = 2e-15
# n = 5, blind: the engine measured 8.8e-15 on the fully bunched signature
# at r = 5, which the kappa guard gives to the split sum, and at most
# 7.1e-16 elsewhere; the oracle 8.1e-16.
ENGINE_RTOL_5 = 1.2e-14
# Bunched signatures of seeded Haar sweeps (n = 4, m = 5, r = 4) against
# the exact value of their double inputs: worst 4.9e-15. An n! tau-sum,
# which cancels without a guard, measured up to 4.3e-13 here.
DOUBLE_INPUT_RTOL = 8e-15
# Where the exact value is 0 the engine measured at most 5.1e-34 (blind)
# and 3.9e-34 (resolved), and the oracle exactly 0.
ZERO_ATOL = 1e-33


def as_network(u):
    return Interferometer(np.array([[ex.to_complex(z) for z in row] for row in u]))


def as_lambda(lam):
    return LambdaMatrix(np.array([[ex.to_complex(z) for z in row] for row in lam]))


def relative_error(got: float, want: Fraction) -> float:
    assert want > 0
    return float(abs(Fraction(got) - want) / want)


def exact_case(n, r):
    u = ex.cayley_unitary(n, 10 * n + r)
    lam = [ex.unit_row(r, j) for j in range(n)]
    return u, lam, as_network(u), as_lambda(lam), tuple(range(1, n + 1))


def signatures(n):
    """Fully bunched, two-fold and collision-free signatures over m = n modes."""
    return [(n,) + (0,) * (n - 1), (2,) + (1,) * (n - 2) + (0,), (1,) * n]


def resolved_outcomes(n, r):
    """Every photon in mode 1 and xi_1, and one photon per mode, mode k in xi_(k mod r)."""
    bunched = [[0] * n for _ in range(r)]
    bunched[0][0] = n
    spread = [[0] * n for _ in range(r)]
    for k in range(n):
        spread[k % r][k] = 1
    return [tuple(map(tuple, parts)) for parts in (bunched, spread)]


@pytest.mark.parametrize("n,r", CASES + CASES_5)
def test_blind_probabilities(n, r):
    u, lam, network, lam_f, inputs = exact_case(n, r)
    state = fock_evolve(network, lam_f, inputs)
    bound = ENGINE_RTOL if n < 5 else ENGINE_RTOL_5
    for sig in signatures(n):
        want = ex.probability_nonresolved(u, lam, inputs, sig)
        assert relative_error(probability_nonresolved(network, lam_f, inputs, sig), want) <= bound
        assert relative_error(oracle_probability(state, sig), want) <= ORACLE_RTOL


@pytest.mark.parametrize("n,r", CASES)
def test_gram_fed_tau_sum_is_the_sum_of_the_splits(n, r):
    # The tau-sum fed G itself agrees with the one fed lambda, and both give
    # each signature exactly the sum of its splits' resolved probabilities,
    # which read lambda and never form G.
    u, lam, _, _, inputs = exact_case(n, r)
    g = ex.gram(lam)
    for sig in signatures(n):
        want = ex.probability_nonresolved_gram(u, g, inputs, sig)
        assert ex.probability_nonresolved(u, lam, inputs, sig) == want
        per_mode = [[t for t in itertools.product(range(c + 1), repeat=r) if sum(t) == c] for c in sig]
        splits = [tuple(zip(*split)) for split in itertools.product(*per_mode)]
        assert sum(ex.probability_resolved(u, lam, inputs, outcome) for outcome in splits) == want


def haar_sweep_case(seed):
    """A Haar unitary on 5 modes and four generic Gaussian photons (r = 4), drawn from seed."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    network = Interferometer(q * (np.diag(r) / np.abs(np.diag(r))))
    photons = [GaussianWavepacket(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.3), rng.uniform(-2.0, 2.0))
               for _ in range(4)]
    return network, lambda_from_photons(photons)


def exact_of_doubles(matrix):
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in matrix.tolist()]


@pytest.mark.parametrize("seed", range(6))
def test_bunched_signatures_of_a_haar_sweep(seed):
    network, lam = haar_sweep_case(seed)
    u, lam_exact = exact_of_doubles(network.matrix), exact_of_doubles(lam.matrix)
    assert lam.basis_size == 4
    for sig, p in distribution_nonresolved(network, lam).items():
        if max(sig) >= 2:
            want = ex.probability_nonresolved(u, lam_exact, (1, 2, 3, 4), sig)
            assert relative_error(p, want) <= DOUBLE_INPUT_RTOL, sig


# Gaussian photon j of a family has mu, sigma - 1 and tau each j times the
# family's step.
FAMILIES = {"generic": (0.2, 0.05, 0.3), "near-identical": (0.05, 0.01, 0.02)}


def family_shapes(n):
    """Collision-free in modes 1..n and 3..n+2, one pair, (.., n - 1, 1) and fully bunched, over n + 2 modes."""
    return [(1,) * n + (0, 0), (0, 0) + (1,) * n, (2,) + (1,) * (n - 2) + (0, 0, 0), (0,) * n + (n - 1, 1),
            (n,) + (0,) * (n + 1)]


@pytest.mark.parametrize("family,n,m,seed,sigs", [
    *((family, n, n + 2, seed, None) for family in FAMILIES for n in (3, 4, 5) for seed in (1, 2)),
    # Bunched signatures on which the engine errs by 4.9e-15 and 5.9e-15.
    ("generic", 3, 6, 11, [(0, 0, 0, 0, 3, 0)]),
    ("near-identical", 3, 6, 18, [(1, 0, 0, 2, 0, 0)]),
    # The pair sum fed lambda lambda^dag, which misses G by 2.5e-13 here,
    # erred by 3.7e-13; fed G, by 2.2e-16.
    ("near-identical", 6, 8, 1, [(0, 0, 1, 1, 1, 1, 1, 1)]),
])
def test_gaussian_families_against_their_double_gram(family, n, m, seed, sigs):
    # The exact value of the double G, so the decomposition's error shows.
    mu, sigma, tau = FAMILIES[family]
    photons = [GaussianWavepacket(mu * j, 1.0 + sigma * j, tau * j) for j in range(n)]
    network, lam, inputs = make_random_unitary(m, seed), lambda_from_photons(photons), tuple(range(1, n + 1))
    u, g = exact_of_doubles(network.matrix), exact_of_doubles(gram_matrix(photons))
    for sig in sigs or family_shapes(n):
        want = ex.probability_nonresolved_gram(u, g, inputs, sig)
        assert relative_error(probability_nonresolved(network, lam, inputs, sig), want) <= DOUBLE_INPUT_RTOL, sig


@pytest.mark.parametrize("n,r", CASES + CASES_5)
def test_eps_sum_is_the_tau_sum(n, r):
    # The two exact references of a blind probability agree on every signature.
    u, lam, _, _, inputs = exact_case(n, r)
    g = ex.gram(lam)
    for sig in itertools.product(range(n + 1), repeat=n):
        if sum(sig) == n:
            want = ex.probability_nonresolved_gram(u, g, inputs, sig)
            assert ex.probability_nonresolved_eps(u, g, inputs, sig) == want, sig


@pytest.mark.parametrize("n,r", CASES)
def test_resolved_probabilities(n, r):
    u, lam, network, lam_f, inputs = exact_case(n, r)
    state = fock_evolve(network, lam_f, inputs)
    for outcome in resolved_outcomes(n, r):
        want = ex.probability_resolved(u, lam, inputs, outcome)
        assert relative_error(probability_resolved(network, lam_f, inputs, outcome), want) <= ENGINE_RTOL
        assert relative_error(oracle_probability(state, outcome, "resolved"), want) <= ORACLE_RTOL


@pytest.mark.parametrize("n,r", CASES)
def test_two_component_mixture_is_the_exact_weighted_sum(n, r):
    # probability_mixed is the one-outcome case of probability_chunks.
    u, lam, network, _, inputs = exact_case(n, r)
    other = [lam[0], ex.unit_row(r, 4)] + lam[2:]
    specs = [CoefficientSpectrum(np.array([ex.to_complex(z) for z in row])) for row in lam + [other[1]]]
    photons = [specs[0], MixedPhotonSource(((0.25, specs[1]), (0.75, specs[n])))] + specs[2:n]
    for sig in signatures(n):
        want = (Fraction(1, 4) * ex.probability_nonresolved(u, lam, inputs, sig)
                + Fraction(3, 4) * ex.probability_nonresolved(u, other, inputs, sig))
        assert relative_error(probability_mixed(network, photons, inputs, sig), want) <= ENGINE_RTOL


def sylvester_4():
    """H (x) H with H = [[1 + i, 1 - i], [1 - i, 1 + i]] / 2: a rational unitary with suppressed outcomes."""
    h = [[(Fraction(1, 2), Fraction(s, 2)) for s in signs] for signs in ((1, -1), (-1, 1))]
    return [[ex.mul(h[a][c], h[b][d]) for c, d in itertools.product(range(2), repeat=2)]
            for a, b in itertools.product(range(2), repeat=2)]


@pytest.mark.parametrize("r,outcome", [
    (2, ((0, 1, 1, 0), (0, 0, 2, 0))),
    (4, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 2))),
])
def test_exactly_zero_outcomes(r, outcome):
    # Four identical photons into a 4-mode Sylvester network: these
    # signatures, and every split of them between basis functions, are
    # suppressed exactly. The engine's values here are 0 or up to 5.1e-34.
    u = sylvester_4()
    lam = [ex.unit_row(r, 0)] * 4
    network, lam_f, inputs = as_network(u), as_lambda(lam), (1, 2, 3, 4)
    state = fock_evolve(network, lam_f, inputs)
    for sig in [(0, 1, 3, 0), (1, 0, 0, 3), (1, 1, 2, 0)]:
        assert ex.probability_nonresolved(u, lam, inputs, sig) == 0
        assert abs(probability_nonresolved(network, lam_f, inputs, sig)) <= ZERO_ATOL
        assert oracle_probability(state, sig) <= ZERO_ATOL
    assert ex.probability_resolved(u, lam, inputs, outcome) == 0
    assert probability_resolved(network, lam_f, inputs, outcome) <= ZERO_ATOL
    assert oracle_probability(state, outcome, "resolved") <= ZERO_ATOL


def test_sylvester_zeros_fall_back_to_the_split_sum():
    # The cost rule gives these r = 4 signatures to the pair sum, whose terms
    # cancel to (nearly) nothing: kappa is past the guard, and the split sum
    # answers (test_exactly_zero_outcomes).
    lam = as_lambda([ex.unit_row(4, 0)] * 4)
    cols = as_network(sylvester_4()).matrix
    for sig in [(0, 1, 3, 0), (1, 0, 0, 3)]:
        pair, split = _costs(4, 4, sig)
        assert pair < split
        _, kappas = _pair_sums(cols, lam.gram, np.array([sig]))
        assert kappas[0] > PAIR_SUM_KAPPA


def test_kappa_counts_each_permanents_own_terms(monkeypatch):
    # The cost rule gives these signatures of Haar seed 1 to the pair sum.
    # Over its 8 outer eps terms kappa is 5.2 and 4.2, which a guard on them
    # would pass, and the pair sum errs by 1.3e-14 (over DOUBLE_INPUT_RTOL)
    # and 7.3e-15 against the same sum in long double; over every (delta,
    # eps) term, as the guard counts, kappa is 686 and 207. So both take the
    # split sum.
    network, lam = haar_sweep_case(1)
    sigs = [(0, 0, 0, 0, 4), (0, 0, 1, 0, 3)]
    assert all(operator.lt(*_costs(4, 4, sig)) for sig in sigs)
    routed = [probability_nonresolved(network, lam, None, sig) for sig in sigs]
    monkeypatch.setattr(bosonspectra.sampling, "_costs", lambda n, r, sig: (1, 0))
    assert routed == [probability_nonresolved(network, lam, None, sig) for sig in sigs]
