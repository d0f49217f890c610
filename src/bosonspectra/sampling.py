"""Exact output statistics for partially distinguishable photons.

Photon j enters spatial mode T_j with the unit-norm coefficient row
lambda[j] over orthonormal basis functions xi_1 .. xi_r. Every
probability is a sum of permanents in one of two closed forms:

* Spectrally resolving detectors see a full outcome S_vec, one
  occupation configuration per basis function. Its amplitude is one
  permanent of an n x n joint-mode matrix,

      amp(S_vec) = Per(A_S) / sqrt(prod S_vec!),
      A[(i, k), j] = U[k, T_j] * lambda[j, i],

  with row (i, k) repeated S_vec[i][k] times. Expanding Per(A_S) by the
  row blocks of each basis function gives back the paper's sum over
  spectral configurations v (photon j in basis function v_j), each
  weighted by prod_j lambda[j, v_j] and carrying one permanent of U per
  basis function.
* Non-resolving detectors see only the spatial signature M, a sum over
  every split S_vec of M between the basis functions. Either the split
  sum P(M) = sum_{S_vec |- M} |amp(S_vec)|^2, its splits a product over
  modes of each M_k's splits, summed by math.fsum;
  or the pair sum (pairsum), Glynn's formula for both permutations of
  |Per(A_S)|^2 with the splits summed in closed form, from U[:, T] and
  the photons' Gram matrix G (LambdaMatrix.gram), not lambda: one
  permanent of size n for each of its 2^(n-1) sign vectors. The pair sum
  costs n 4^(n-1) multiply-adds, the split sum n 2^(n-1) for each of its
  prod_k C(M_k + r - 1, r - 1) splits; each signature takes the cheaper,
  the split sum on a tie (_costs). A pair sum whose (delta, eps) terms
  cancel, with kappa = sum |terms| / |sum of terms| above
  PAIR_SUM_KAPPA, falls back to the split sum.

_costs is the one price list. _price prices a query from it, from n, m,
r and the outcome alone, and the query is refused with CapacityError if
its multiply-adds exceed the work budget: the work of the largest
permanent the kernel admits, RYSER_DIMENSION_CAP 2^(RYSER_DIMENSION_CAP - 1),
about 1.61e10. A mixture's combinations are priced together, before
anything is built; a kappa fallback's split sum is checked against the
same budget when it happens.

Mixed photons average over every combination of mixture components
(mixture_lambdas). Resolved outcomes name basis functions, so there all
combinations share the basis of every component of every photon, photon
order then component order. Blind probabilities do not depend on the
basis, so each combination of Gaussian photons keeps its own, narrower
one, decomposed from its part of one Gram matrix over every component.

Every query is one stream, _weighted_chunks: checked and priced at the
call, its outcomes enumerated once, each chunk's values computed by every
combination and added as weight * value as the stream is read.
probability_chunks is an experiment's stream and probability_mixed its
one-outcome case; distribution_*, probability_nonresolved and
oracle.verify_chunks read the same stream for one pure combination or
a whole experiment.

Permanents go to the kernel at most STACK_SIZE at a time, each as a
row of indices into one matrix: the joint matrix, built only for
resolved amplitudes and split sums, or A_eps. One stream,
_count_blocks, makes every count row in blocks of STACK_SIZE: a
resolved sweep's outcomes, and split-sum signatures' splits, run
across signatures. A sweep is a stream of chunks of STACK_SIZE
outcomes in sweep order, so nothing held grows with the sweep or with
a signature's splits. A blind chunk's pair sums share the rows of
A_eps for its occupied modes, each (signature, eps) pair one index row
into them (pairsum._pair_sums). Only Per / sqrt(prod S_vec!) and its
squared modulus run per outcome, on Python scalars: numpy's complex
division and its ** 2 round differently. An outcome or split that
lambda cannot reach, one whose profile no assignment of the photons to
basis functions along non-zero entries of lambda fills, is a
structural zero: it reads 0.0 without a kernel call (_reachable). A
split sum or a pair sum is correctly rounded whatever its terms' order
or block, so a single query's value is the sweep's bit for bit.
distribution_resolved and distribution_nonresolved gather one pure
combination's stream into one dict.

Resolved outcomes are sequences of basis_size occupation tuples;
measurement signatures are single occupation tuples. Input modes are
1-based and must be distinct (one photon per input port).
"""

import itertools
import math
import operator

import numpy as np

from .errors import CapacityError, ConfigurationError, _integer, _real, _Record
from .network import (
    Interferometer,
    _as_tuple,
    amplitude_ideal,
    as_occupation,
    submatrix,
)
from .permanent import RYSER_DIMENSION_CAP, STACK_SIZE, _count_rows, _permanents, permanent_ryser
from .spectra import GaussianWavepacket, LambdaMatrix, gram_matrix, lambda_from_photons, orthonormal_decomposition

DISTRIBUTION_OUTCOME_CAP = 10**6
MIXTURE_TERM_CAP = 10**5
MIXTURE_WEIGHT_TOL = 1e-10
# The pair sum's accuracy guard: a signature whose (delta, eps) terms have a
# summation condition number kappa = sum |terms| / |sum of terms| above it
# takes the split sum; an exact zero has kappa = inf. Fed the double G, the
# pair sum erred by at most 3.6e-15 at kappa <= 32 against the same sum in
# long double (8928 of 11456 signatures: whole sweeps of the generic and
# near-identical Gaussian families, n = 3..6, m = n + 2, Haar seeds 1-2,
# of six Haar sweeps n = 4, m = 5 and of perfbench's blind sweeps); above
# it the error grows as about kappa 2e-16, to 1.8e-13 (kappa 1e3 - 1e4). A
# kappa over the eps terms alone misses each permanent's own cancellation:
# it is 4.2 on a Haar signature whose pair sum errs by 7.3e-15 (kappa 207).
PAIR_SUM_KAPPA = 32.0


class MixedPhotonSource(_Record):
    """A photon prepared as a classical mixture of pure spectral states.

    components holds (probability, spec) pairs; probabilities must be
    real, non-negative and sum to 1.
    """

    _fields = ("components",)

    def __init__(self, components: tuple) -> None:
        comps = tuple(_as_tuple(c, "a mixture component") for c in _as_tuple(components, "mixture components"))
        for c in comps:
            if len(c) != 2:
                raise ConfigurationError(f"a mixture component must be a (real probability, spec) pair, got {c!r}")
        if not comps:
            raise ConfigurationError("mixture needs at least one component")
        comps = tuple((_real(p, "mixture weight"), spec) for p, spec in comps)
        if any(p < 0 for p, _ in comps):
            raise ConfigurationError(f"mixture weights must be non-negative, got {[p for p, _ in comps]}")
        total = sum(p for p, _ in comps)
        if abs(total - 1.0) > MIXTURE_WEIGHT_TOL:
            raise ConfigurationError(f"mixture weights must sum to 1, got {total!r}")
        vars(self)["components"] = comps


def default_input_modes(n: int) -> tuple[int, ...]:
    """Photon i in spatial mode i, the conventional input arrangement."""
    return tuple(range(1, _integer(n, "photon count", 0) + 1))


def _validated_inputs(input_modes, n: int, m: int) -> tuple[int, ...]:
    if input_modes is None:
        input_modes = default_input_modes(n)
    modes = tuple(_integer(x, "input mode") for x in _as_tuple(input_modes, "input modes"))
    if len(modes) != n:
        raise ConfigurationError(f"{len(modes)} input modes for {n} photons")
    if any(x < 1 or x > m for x in modes):
        raise ConfigurationError(f"input modes must lie in 1..{m}, got {modes}")
    if len(set(modes)) != len(modes):
        raise ConfigurationError(f"input modes must be distinct (one photon per port), got {modes}")
    return modes


def _checked_detector(detector: str) -> str:
    if detector not in ("resolved", "nonresolved"):
        raise ConfigurationError(f"unknown detector model {detector!r}")
    return detector


def _checked_outcome(outcome, detector: str, n: int, m: int, basis_size: int):
    """outcome normalized and holding n photons: for "resolved" basis_size occupation tuples, else a signature."""
    if outcome is None:
        raise ConfigurationError("a single-outcome query needs an outcome, got None")
    resolved = detector == "resolved"
    if resolved:
        outcome = tuple(as_occupation(part, m) for part in _as_tuple(outcome, "a resolved outcome"))
    else:
        outcome = as_occupation(outcome, m)
    if resolved and len(outcome) != basis_size:
        raise ConfigurationError(f"resolved outcome has {len(outcome)} spectral parts, expected {basis_size}")
    total = sum(map(sum, outcome)) if resolved else sum(outcome)
    if total != n:
        raise ConfigurationError(f"{'resolved outcome' if resolved else 'signature'} holds {total} photons, expected {n}")
    return outcome


def _chunks(items):
    items = iter(items)
    while chunk := list(itertools.islice(items, STACK_SIZE)):
        yield chunk


def _joint_matrix(cols: np.ndarray, lam: LambdaMatrix) -> np.ndarray:
    """The (basis_size * m) x n matrix with row i * m + k equal to U[k, T_j] * lambda[j, i]; cols is U[:, T]."""
    return (lam.matrix.T[:, None, :] * cols[None, :, :]).reshape(-1, cols.shape[1])


def _resolved_amplitudes(joint: np.ndarray, rows: np.ndarray, norms: list[int], lam: LambdaMatrix,
                         decided: dict) -> list[complex]:
    """Per(A_S) / sqrt(prod S_vec!) for each count row S_vec, given as its kernel index row.

    rows is _count_rows of an (outcomes x basis_size * m) count matrix,
    made once for every joint matrix that reads the same block; joint is
    lam's. norms holds each row's prod S_vec! as a Python int; rows holds
    at most STACK_SIZE rows, one kernel call for those lam can reach. A
    structural zero (_reachable, its profile's answer kept in decided)
    reads 0j. The division runs on Python scalars: numpy's complex /
    float multiplies by the reciprocal and rounds differently.
    """
    keep = _reachable(lam, rows, len(joint) // lam.basis_size, decided)
    amplitudes = [0j] * len(norms)
    for i, per in zip(np.flatnonzero(keep).tolist(), _permanents(rows[keep], joint).tolist()):
        amplitudes[i] = per / math.sqrt(norms[i])
    return amplitudes


def _reachable(lam: LambdaMatrix, rows: np.ndarray, m: int, decided: dict) -> np.ndarray:
    """Which resolved outcomes or splits, given as kernel index rows into a joint matrix of m modes, lam reaches.

    Every term of Per(A_S) takes lambda[j, i] for each photon j and the
    basis function i of the row it is given. So if no assignment of the
    photons to basis functions, c_i of them to xi_i, uses only non-zero
    entries of lambda, every term is zero and the outcome is a structural
    zero: exactly 0.0, where the kernel would leave rounding noise. That
    depends only on the outcome's profile c, here its rows' basis
    functions i = row // m in ascending order; decided keeps each
    profile's answer, one bipartite matching, for the rest of a stream.
    """
    basis = rows // m
    # Each row's basis functions as one bytes key: equal keys, equal profiles.
    keys = basis.view(np.dtype((np.void, basis.itemsize * basis.shape[1]))).ravel().tolist()
    if new := set(keys) - decided.keys():
        options = [np.flatnonzero(row).tolist() for row in lam.matrix]
        for key in new:
            profile = [0] * lam.basis_size
            for i in np.frombuffer(key, basis.dtype).tolist():
                profile[i] += 1
            decided[key] = _assignable(options, profile)
    return np.fromiter(map(decided.__getitem__, keys), bool, len(keys))


def _assignable(options: list[list[int]], profile: list[int]) -> bool:
    """Whether each photon j can take a basis function i of options[j], profile[i] photons each (augmenting paths)."""
    taken = [[] for _ in profile]

    def place(j, seen):
        for i in options[j]:
            if i not in seen:
                seen.add(i)
                if len(taken[i]) < profile[i]:
                    taken[i].append(j)
                    return True
                for k, other in enumerate(taken[i]):
                    if place(other, seen):
                        taken[i][k] = j
                        return True
        return False

    return all(place(j, set()) for j in range(len(options)))


def _count_blocks(n: int, m: int, r: int, sigs=None):
    """Count rows S_vec over r basis functions and m modes, and their prod S_vec!, STACK_SIZE rows a block.

    The rows are every resolved outcome of n photons in sweep order or,
    given sigs, each signature's splits in turn: one product per profile
    of basis function i's pool _occupations(k, m), in columns i * m to
    i * m + m - 1, or one per signature of mode k's pool
    _occupations(M_k, r), in columns k, m + k, .. (r - 1) * m + k. A row
    takes one entry per pool, in itertools.product order; its norm, a
    Python int, is theirs multiplied. Pools of no photons add nothing,
    and a row's picks come by divmod over the pools of more than one
    entry, so no array has a dimension per pool. Blocks run across
    products; only the last may be shorter.
    """
    # The smallest integer type that holds a count of n keeps blocks small.
    dtype, parts = np.min_scalar_type(n), m if sigs is None else r
    if sigs is None:
        products = ([(slice(i * m, i * m + m), k) for i, k in enumerate(prof) if k] for prof in _occupations(n, r))
    else:
        products = ([(slice(k, None, m), c) for k, c in enumerate(sig) if c] for sig in sigs)
    tables = {}
    block, norms = np.zeros((STACK_SIZE, r * m), dtype), []
    for factors in products:
        fixed, varying, base = [], [], 1
        for cols, total in factors:
            if total not in tables:
                pool = tuple(_occupations(total, parts))
                tables[total] = np.array(pool, dtype), np.array([math.prod(map(math.factorial, o)) for o in pool], object)
            table, table_norms = tables[total]
            if len(table) > 1:
                varying.append((cols, table, table_norms))
            else:
                fixed.append((cols, table[0]))
                base *= table_norms[0]
        start, size = 0, math.prod(len(table) for _, table, _ in varying)
        while start < size:
            stop = min(size, start + STACK_SIZE - len(norms))
            rows = block[len(norms) : len(norms) + stop - start]
            for cols, entry in fixed:
                rows[:, cols] = entry
            index, product = np.arange(start, stop), np.full(stop - start, base, dtype=object)
            for cols, table, table_norms in reversed(varying):
                index, pick = np.divmod(index, len(table))
                rows[:, cols] = table[pick]
                product *= table_norms[pick]
            norms += product.tolist()
            start = stop
            if len(norms) == STACK_SIZE:
                yield block, norms
                block, norms = np.zeros((STACK_SIZE, r * m), dtype), []
    if norms:
        yield block[: len(norms)], norms


def _probabilities_nonresolved(cols: np.ndarray, lam: LambdaMatrix, sigs, decided: dict) -> list[float]:
    """P(M) for each signature M of sigs, by the pair sum or the split sum; cols is U[:, T].

    A signature takes the pair sum, fed lam.gram, if its _costs say it
    costs fewer multiply-adds, and keeps the value _pair_sums gives if its
    kappa is at most PAIR_SUM_KAPPA. The rest, fallbacks included, take the
    split sum over lam's joint matrix, built only for them: each the
    math.fsum of its rows of one _count_blocks stream, so a call holds one
    block of splits; decided keeps their profiles' _reachable answers. A
    fallback whose split sum costs more than the work budget raises
    CapacityError first.
    """
    n, r = lam.n, lam.basis_size
    costs = [_costs(n, r, sig) for sig in sigs]
    values = [None] * len(sigs)
    pair = [i for i, cost in enumerate(costs) if operator.lt(*cost)]
    if pair:
        # Imported here: resolved sweeps and split-sum queries never compile it.
        from .pairsum import _pair_sums

        for i, value, kappa in zip(pair, *_pair_sums(cols, lam.gram, np.array([sigs[i] for i in pair]))):
            if kappa <= PAIR_SUM_KAPPA:
                values[i] = value
            else:
                _check_work(costs[i][1], f"signature {sigs[i]}: the pair sum cancels (kappa {kappa:.3g} > "
                                         f"{PAIR_SUM_KAPPA}) and its split sum's")
    split = [i for i, value in enumerate(values) if value is None]
    if split:
        joint, blocks = _joint_matrix(cols, lam), _count_blocks(n, len(cols), r, [sigs[i] for i in split])
        amplitudes = (_resolved_amplitudes(joint, _count_rows(counts), norms, lam, decided) for counts, norms in blocks)
        squares = (abs(amp) ** 2 for block in amplitudes for amp in block)
        for i in split:
            values[i] = math.fsum(itertools.islice(squares, _split_count(sigs[i], r)))
    return values


def _split_count(sig, r: int) -> int:
    return math.prod(math.comb(c + r - 1, r - 1) for c in sig)


def _costs(n: int, r: int, sig) -> tuple[int, int]:
    """Multiply-adds of sig's pair sum, n 4^(n-1), and of its split sum, n 2^(n-1) per split.

    The pair sum is 2^(n-1) permanents of size n whatever r is; it takes
    sig only if it costs less, that is if sig has more than 2^(n-1)
    splits. The empty signature has one split: _costs(n, r, ()) prices a
    pair sum and one permanent of size n, a resolved outcome.
    """
    return n * 4 ** (n - 1), n * 2 ** (n - 1) * _split_count(sig, r)


# Multiply-adds a stream may cost: the work of the largest permanent the
# kernel admits. On a 2-core Xeon VM the kernel, and so the pair sum, runs
# about 1.8e8 of them a second (90 s for this budget; a generic n = 14 pair
# sum, 9.4e8, took 4.9 s).
_WORK_BUDGET = _costs(RYSER_DIMENSION_CAP, 1, ())[1]


def _check_work(work: int, what: str = "the query's") -> None:
    if work > _WORK_BUDGET:
        amount = f"{work:.3g}" if work < 1e300 else "over 1e300"
        raise CapacityError(f"{what} {amount} multiply-adds exceed the work budget {_WORK_BUDGET:.3g}, "
                            f"that of one {RYSER_DIMENSION_CAP} x {RYSER_DIMENSION_CAP} permanent")


def _price(n: int, m: int, r: int, detector: str, outcome=None) -> int:
    """One combination's multiply-adds from _costs; outcome is checked, or None for the sweep.

    An outcome costs its routed sum: one permanent if resolved, else the
    cheaper of its two sums. A resolved sweep costs its R outcomes'
    permanents; a blind sweep of N signatures the cheaper of N pair sums
    and R permanents, at least its routed sums and equal to them at r = 1.
    """
    pair, permanent = _costs(n, r, ())
    if outcome is not None:
        return permanent if detector == "resolved" else min(_costs(n, r, outcome))
    outcomes = math.comb(m * r + n - 1, n) * permanent
    return outcomes if detector == "resolved" else min(math.comb(m + n - 1, n) * pair, outcomes)


def _occupations(total: int, parts: int):
    """All occupation tuples of parts counts summing to total, in lex order.

    Each is read off one choice of parts - 1 cut points in 0..total, in
    order and repeats allowed: the counts are the gaps between the cuts.
    """
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def amplitude_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, outcome=None
) -> complex:
    """Amplitude of a spectrally resolved outcome.

    outcome is a sequence of basis_size occupation configurations, one
    per basis function xi_i.
    """
    m = interferometer.m
    inputs = _validated_inputs(input_modes, lam.n, m)
    row = sum(_checked_outcome(outcome, "resolved", lam.n, m, lam.basis_size), ())
    joint = _joint_matrix(interferometer.matrix[:, [x - 1 for x in inputs]], lam)
    return _resolved_amplitudes(joint, _count_rows(np.array([row])), [math.prod(map(math.factorial, row))], lam, {})[0]


def probability_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, outcome=None
) -> float:
    """Probability of a spectrally resolved outcome."""
    return abs(amplitude_resolved(interferometer, lam, input_modes, outcome)) ** 2


def probability_nonresolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, signature=None
) -> float:
    """Probability that non-resolving detectors report the signature M.

    A signature whose cheaper sum costs more than the work budget raises
    CapacityError before any work.
    """
    if signature is None:
        raise ConfigurationError("probability_nonresolved needs a signature")
    ((_, totals),) = _weighted_chunks(interferometer, [(1.0, lam)], input_modes, "nonresolved", signature)
    return float(totals[0])


def probability_indistinguishable_fast(interferometer: Interferometer, signature, input_occ) -> float:
    """|Per(U_{M,T})|^2 / (prod M! prod T!): the fast path when all photons are identical."""
    return float(abs(amplitude_ideal(interferometer, signature, input_occ)) ** 2)


def probability_distinguishable_fast(interferometer: Interferometer, signature, input_occ) -> float:
    """Per(|U_{M,T}|^2) / prod M!: the fast path when all photons are fully distinguishable.

    Each term of the permanent sends every photon to one output row, a
    product of single-photon probabilities; the M_k! orders of the rows
    of mode k name the same event, so prod M! divides. Photons sharing an
    input port stay distinct columns.
    """
    sig = as_occupation(signature, interferometer.m)
    block = np.abs(submatrix(interferometer, sig, input_occ)) ** 2
    return float(permanent_ryser(block).real) / math.prod(map(math.factorial, sig))


def enumerate_resolved_outcomes(n: int, m: int, basis_size: int):
    """Every resolved outcome of n photons over m modes and basis_size basis functions.

    The order of every resolved sweep: profiles (per-basis photon counts)
    ascend lexicographically, then outcomes within a profile,
    itertools.product over pools[k], every tuple of k photons over m
    modes in lex order.
    """
    n, m = _integer(n, "photon count", 0), _integer(m, "mode count", 1)
    basis_size = _integer(basis_size, "basis size", 1)
    pools = [tuple(_occupations(k, m)) for k in range(n + 1)]
    for profile in _occupations(n, basis_size):
        yield from itertools.product(*[pools[k] for k in profile])


def _gathered(chunks) -> dict:
    """One dict of every (outcomes, totals) chunk's outcome -> value, in stream order."""
    return {outcome: value for outcomes, totals in chunks for outcome, value in zip(outcomes, totals.tolist())}


def distribution_nonresolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None
) -> dict[tuple[int, ...], float]:
    """Probability of every signature M with sum(M) = n, in lexicographic order."""
    return _gathered(_weighted_chunks(interferometer, [(1.0, lam)], input_modes, "nonresolved"))


def distribution_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None
) -> dict[tuple[tuple[int, ...], ...], float]:
    """Probability of every spectrally resolved outcome, in enumerate_resolved_outcomes order."""
    return _gathered(_weighted_chunks(interferometer, [(1.0, lam)], input_modes, "resolved"))


def _as_mixture(photon) -> MixedPhotonSource:
    if isinstance(photon, MixedPhotonSource):
        return photon
    return MixedPhotonSource(((1.0, photon),))


def mixture_terms(photons) -> int:
    """The number of pure-photon combinations: the product of the photons' component counts."""
    return math.prod(len(_as_mixture(p).components) for p in photons)


def mixture_lambdas(photons, detector: str):
    """Yield (weight, LambdaMatrix) for every combination of mixture components.

    Pure photons are single-component mixtures: one combination, weight
    1.0. MIXTURE_TERM_CAP is checked before any work. For "resolved",
    part i of an outcome must name the same xi_i in every combination,
    so each takes its rows from one lambda_from_photons over every
    component of every photon, photon order then component order, as
    explicit rows do for "nonresolved". Blind probabilities do not depend
    on the basis, so there a combination of Gaussian photons keeps its
    own, narrower one: the orthonormal_decomposition of its rows and
    columns of one gram_matrix over every component, in the same order.
    """
    _checked_detector(detector)
    sources = [_as_mixture(p) for p in photons]
    terms = mixture_terms(sources)
    if terms > MIXTURE_TERM_CAP:
        raise CapacityError(f"{terms} mixture combinations exceed cap {MIXTURE_TERM_CAP}")
    specs = [spec for s in sources for _, spec in s.components]
    blind = detector == "nonresolved" and all(isinstance(spec, GaussianWavepacket) for spec in specs)
    common = gram_matrix(specs) if blind else lambda_from_photons(specs).matrix
    offsets = itertools.accumulate((len(s.components) for s in sources), initial=0)
    # Each choice is (row of the common matrix, (probability, spec)).
    choices = [enumerate(s.components, offset) for s, offset in zip(sources, offsets)]
    for combo in itertools.product(*choices):
        rows = [row for row, _ in combo]
        lam = orthonormal_decomposition(common[np.ix_(rows, rows)]) if blind else LambdaMatrix(common[rows])
        yield math.prod(p for _, (p, _) in combo), lam


def _weighted_chunks(interferometer: Interferometer, combinations, input_modes, detector: str, outcome=None):
    """Per outcome, the weighted sum of its probability over (weight, lam) combinations, in chunks.

    The combinations share n and, for "resolved", their basis. The inputs,
    then the outcome or the sweep cap, then the summed _price against the
    work budget are checked once, at the call. The outcomes are enumerated
    once: outcome alone as one chunk, or the sweep in sweep order in
    chunks of at most STACK_SIZE; U[:, T] is taken once, and a resolved
    chunk's kernel index rows are made once and shared. Per chunk, each
    combination makes its values: a resolved chunk from its joint matrix
    in one kernel call, a blind one in one _probabilities_nonresolved
    call. Totals start at 0.0 and add weight * value in combination order,
    in float64 as Python floats would, so weight 1.0 keeps a value's bits.
    Yields (outcomes, float64 totals).
    """
    combinations = list(combinations)
    n, m, r = combinations[0][1].n, interferometer.m, combinations[0][1].basis_size
    inputs = _validated_inputs(input_modes, n, m)
    resolved, cols = detector == "resolved", interferometer.matrix[:, [x - 1 for x in inputs]]
    if outcome is not None:
        checked = _checked_outcome(outcome, detector, n, m, r)
    else:
        checked, count = None, math.comb(m * r + n - 1 if resolved else m + n - 1, n)
        if count > DISTRIBUTION_OUTCOME_CAP:
            what = "resolved outcomes" if resolved else "output signatures"
            raise CapacityError(f"{count} {what} exceed the sweep cap {DISTRIBUTION_OUTCOME_CAP}")
    _check_work(sum(_price(n, m, lam.basis_size, detector, checked) for _, lam in combinations))
    if checked is not None:
        row = sum(checked, ()) if resolved else checked
        chunks = [([outcome], (_count_rows(np.array([row])), [math.prod(map(math.factorial, row))]) if resolved
                   else [row])]
    elif resolved:
        blocks = ((_count_rows(counts), norms) for counts, norms in _count_blocks(n, m, r))
        chunks = zip(_chunks(enumerate_resolved_outcomes(n, m, r)), blocks)
    else:
        chunks = ((sigs, sigs) for sigs in _chunks(_occupations(n, m)))

    # Per combination, each profile's _reachable answer.
    decided = [{} for _ in combinations]

    def totals():
        for outcomes, rows in chunks:
            total = 0.0
            for (weight, lam), profiles in zip(combinations, decided):
                if resolved:
                    amplitudes = _resolved_amplitudes(_joint_matrix(cols, lam), *rows, lam, profiles)
                    values = [abs(amp) ** 2 for amp in amplitudes]
                else:
                    values = _probabilities_nonresolved(cols, lam, rows, profiles)
                total = total + weight * np.array(values, dtype=float)
            yield outcomes, total

    return totals()


def probability_chunks(
    interferometer: Interferometer, photons, input_modes=None, detector: str = "nonresolved", outcome=None
):
    """A whole experiment's probabilities as a stream of (outcomes, totals) chunks.

    photons may mix bare SpectralSpec and MixedPhotonSource entries. The
    stream is the detector's whole sweep in chunks of at most STACK_SIZE,
    or one chunk holding outcome alone; totals, a float64 array, weights
    each probability over every combination from mixture_lambdas. The
    detector, MIXTURE_TERM_CAP, the inputs and the outcome or sweep cap,
    then the combinations' total work against the work budget are checked
    at the call, before any joint matrix is built.
    """
    return _weighted_chunks(interferometer, mixture_lambdas(photons, detector), input_modes, detector, outcome)


def probability_mixed(
    interferometer: Interferometer, photons, input_modes=None, outcome=None, detector: str = "nonresolved"
) -> float:
    """Outcome probability for spectrally mixed photons: probability_chunks for one outcome.

    A resolved outcome needs one part per function of the common basis
    that spans every component (photon order, then component order), or
    ConfigurationError is raised.
    """
    if outcome is None:
        raise ConfigurationError("probability_mixed needs an outcome")
    ((_, totals),) = probability_chunks(interferometer, photons, input_modes, detector, outcome)
    return float(totals[0])
