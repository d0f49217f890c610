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
* Non-resolving detectors see only the spatial signature M. Either the
  tau-sum (Shchesnovich, PRA 91, 013844; Tichy, PRA 91, 022316)

      P(M) = (1 / prod M!) sum_tau prod_j G[j, tau(j)] Per(B o conj(B[:, tau])),

  with G = lambda lambda^dag, B = U_{M,T} and o the entrywise product,
  skipping tau whose product of G entries is zero; or the split sum
  P(M) = sum_{S_vec |- M} |amp(S_vec)|^2 over every split of M between
  the basis functions, a product over modes of each M_k's splits, summed
  in resolved sweep order (_splits). The tau-sum has n! terms, the split
  sum prod_k C(M_k + r - 1, r - 1); each signature takes the one with
  fewer, the tau-sum on a tie.

Mixed photons average over every combination of mixture components
(mixture_lambdas). Resolved outcomes name basis functions, so there all
combinations share the basis of every component of every photon, photon
order then component order. Blind probabilities do not depend on the
basis, so each combination keeps its own, narrower one.

An experiment's probabilities are one stream, probability_chunks: the
combinations' chunks walked in lockstep by _weighted_chunks, the one
loop that adds weight * value. probability_mixed is its one-outcome
case; oracle.verify_chunks feeds the same loop (engine, oracle) pairs.
Every stream is checked when made and does its work as it is read.

Permanents go to the kernel at most STACK_SIZE at a time, each as a
row of indices into one joint matrix: A for resolved outcomes, and for
the tau-sum a block holding row i of B o conj(B[:, tau]) for every tau
of a chunk. A sweep is a stream of chunks of STACK_SIZE outcomes in
sweep order (see _resolved_counts), so nothing held grows with the
sweep; a resolved chunk's count rows give its outcomes' row indices
into A. Only Per / sqrt(prod S_vec!) and its squared modulus run per
outcome, on Python scalars: numpy's complex division and its ** 2 round
differently. A single query's value is the sweep's bit for bit.
distribution_resolved and distribution_nonresolved gather one pure
combination's stream into one dict.

Resolved outcomes are sequences of basis_size occupation tuples;
measurement signatures are single occupation tuples. Input modes are
1-based and must be distinct (one photon per input port).
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError
from .network import (
    Interferometer,
    _exact_int,
    _repeat_indices,
    amplitude_ideal,
    as_occupation,
    submatrix,
)
from .permanent import _permanents, permanent_ryser
from .spectra import LambdaMatrix, lambda_from_photons

DISTRIBUTION_OUTCOME_CAP = 10**6
MIXTURE_TERM_CAP = 10**5
MIXTURE_WEIGHT_TOL = 1e-10
# Permanents per kernel call: bounds working memory on n! tau terms and on
# sweeps over thousands of resolved outcomes.
STACK_SIZE = 256


@dataclass(frozen=True)
class MixedPhotonSource:
    """A photon prepared as a classical mixture of pure spectral states.

    components holds (probability, spec) pairs; probabilities must be
    non-negative and sum to 1.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(p), spec) for p, spec in self.components)
        if not comps:
            raise ConfigurationError("mixture needs at least one component")
        if not all(math.isfinite(p) and p >= 0 for p, _ in comps):
            raise ConfigurationError("mixture weights must be finite and non-negative")
        total = sum(p for p, _ in comps)
        if abs(total - 1.0) > MIXTURE_WEIGHT_TOL:
            raise ConfigurationError(f"mixture weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)


def default_input_modes(n: int) -> tuple[int, ...]:
    """Photon i in spatial mode i, the conventional input arrangement."""
    return tuple(range(1, n + 1))


def _validated_inputs(input_modes, n: int, m: int) -> tuple[int, ...]:
    if input_modes is None:
        input_modes = default_input_modes(n)
    modes = tuple(_exact_int(x, "input modes") for x in input_modes)
    if len(modes) != n:
        raise ConfigurationError(f"{len(modes)} input modes for {n} photons")
    if any(x < 1 or x > m for x in modes):
        raise ConfigurationError(f"input modes must lie in 1..{m}, got {modes}")
    if len(set(modes)) != len(modes):
        raise ConfigurationError(f"input modes must be distinct (one photon per port), got {modes}")
    return modes


def as_resolved_outcome(outcome, m: int, basis_size: int) -> tuple[tuple[int, ...], ...]:
    """Normalize a resolved outcome to basis_size occupation tuples of length m."""
    parts = tuple(as_occupation(part, m) for part in outcome)
    if len(parts) != basis_size:
        raise ConfigurationError(
            f"resolved outcome has {len(parts)} spectral parts, expected {basis_size}"
        )
    return parts


def _checked_outcome(outcome, detector: str, n: int, m: int, basis_size: int):
    """outcome normalized and holding n photons: a resolved outcome for "resolved", else a signature."""
    resolved = detector == "resolved"
    outcome = as_resolved_outcome(outcome, m, basis_size) if resolved else as_occupation(outcome, m)
    total = sum(map(sum, outcome)) if resolved else sum(outcome)
    if total != n:
        raise ConfigurationError(f"{'resolved outcome' if resolved else 'signature'} holds {total} photons, expected {n}")
    return outcome


def _chunks(items):
    items = iter(items)
    while chunk := list(itertools.islice(items, STACK_SIZE)):
        yield chunk


def _joint_matrix(interferometer: Interferometer, lam: LambdaMatrix, inputs) -> np.ndarray:
    """The (basis_size * m) x n matrix with row i * m + k equal to U[k, T_j] * lambda[j, i]."""
    cols = interferometer.matrix[:, [x - 1 for x in inputs]]
    return (lam.matrix.T[:, None, :] * cols[None, :, :]).reshape(-1, len(inputs))


def _resolved_amplitudes(joint: np.ndarray, counts: np.ndarray, norms: list[int]) -> list[complex]:
    """Per(A_S) / sqrt(prod S_vec!) for each row S_vec of an (outcomes x basis_size * m) count matrix.

    norms holds each row's prod S_vec! as a Python int. The permanents
    go to the kernel STACK_SIZE outcomes at a time. The division runs on
    Python scalars: numpy's complex / float multiplies by the reciprocal
    and rounds differently.
    """
    batch, width = counts.shape
    rows = np.repeat(np.arange(counts.size) % width, counts.ravel()).reshape(batch, -1)
    pers = []
    for start in range(0, batch, STACK_SIZE):
        pers += _permanents(rows[start : start + STACK_SIZE], joint).tolist()
    return [per / math.sqrt(norm) for per, norm in zip(pers, norms)]


def _tau_sum(interferometer: Interferometer, lam: LambdaMatrix, inputs, sig) -> float:
    """P(M) = (1/prod M!) sum_tau prod_j G[j, tau(j)] Per(B o conj(B[:, tau]))."""
    n = lam.n
    gram = lam.matrix @ lam.matrix.conj().T
    b = interferometer.matrix[np.ix_(_repeat_indices(sig), [x - 1 for x in inputs])]
    total = 0.0 + 0.0j
    for chunk in _chunks(itertools.permutations(range(n))):
        taus = np.array(chunk)
        weights = np.prod(gram[np.arange(n), taus], axis=1)
        keep = weights != 0.0
        if keep.any():
            # Row t * n + i is row i of B o conj(B[:, tau_t]); np.multiply, as *
            # may multiply in place into the temporary and round another way.
            block = np.multiply(b, b.conj()[np.arange(n)[:, None], taus[keep][:, None, :]]).reshape(-1, n)
            total += weights[keep] @ _permanents(np.arange(len(block)).reshape(-1, n), block)
    return float(total.real) / math.prod(math.factorial(c) for c in sig)


def _splits(sig, r: int):
    """sig's splits S_vec between r basis functions and their prod S_vec!, as _resolved_counts yields them.

    Each mode's M_k photons split on their own, so the splits are the
    product over modes of _occupations(M_k, r), and prod S_vec!
    the product of per-mode norms, as Python ints. Rows are sorted profile
    first, then by count row: sig's outcomes in enumerate_resolved_outcomes order.
    """
    occs = {c: tuple(_occupations(c, r)) for c in set(sig)}
    starts = dict(zip(occs, itertools.accumulate(map(len, occs.values()), initial=0)))
    table = sum(occs.values(), ())
    sizes = [len(occs[c]) for c in sig]
    # picks[k, s]: the row of table that split s takes for mode k.
    picks = np.array(np.unravel_index(np.arange(math.prod(sizes)), sizes)) + [[starts[c]] for c in sig]
    splits = np.array(table, dtype=np.min_scalar_type(sum(sig))).T[:, picks]
    # Column s: split s's profile, then its count row.
    keys = np.concatenate([splits.sum(axis=1, dtype=splits.dtype), splits.reshape(-1, picks.shape[1])])
    order = np.lexsort(keys[::-1])
    norms = np.array([math.prod(map(math.factorial, occ)) for occ in table], dtype=object)
    return keys[r:, order].T, norms[picks].prod(axis=0)[order].tolist()


def _split_sum(interferometer: Interferometer, lam: LambdaMatrix, inputs, sig) -> float:
    """P(M) = sum of |amp(S_vec)|^2 over every split S_vec of M between basis functions."""
    counts, norms = _splits(sig, lam.basis_size)
    amps = _resolved_amplitudes(_joint_matrix(interferometer, lam, inputs), counts, norms)
    return float(sum(abs(amp) ** 2 for amp in amps))


def _probability_nonresolved(interferometer, lam, inputs, sig) -> float:
    r = lam.basis_size
    if math.factorial(lam.n) <= math.prod(math.comb(c + r - 1, r - 1) for c in sig):
        return _tau_sum(interferometer, lam, inputs, sig)
    return _split_sum(interferometer, lam, inputs, sig)


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
    joint = _joint_matrix(interferometer, lam, inputs)
    return _resolved_amplitudes(joint, np.array([row]), [math.prod(map(math.factorial, row))])[0]


def probability_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, outcome=None
) -> float:
    """Probability of a spectrally resolved outcome."""
    return abs(amplitude_resolved(interferometer, lam, input_modes, outcome)) ** 2


def probability_nonresolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, signature=None
) -> float:
    """Probability that non-resolving detectors report the signature M."""
    inputs = _validated_inputs(input_modes, lam.n, interferometer.m)
    sig = _checked_outcome(signature, "nonresolved", lam.n, interferometer.m, lam.basis_size)
    return _probability_nonresolved(interferometer, lam, inputs, sig)


def probability_indistinguishable_fast(interferometer: Interferometer, signature, input_occ) -> float:
    """|Per(U_{M,T})|^2: the fast path when all photons are identical."""
    return float(abs(amplitude_ideal(interferometer, signature, input_occ)) ** 2)


def probability_distinguishable_fast(interferometer: Interferometer, signature, input_occ) -> float:
    """Per(|U_{M,T}|^2): the fast path when all photons are fully distinguishable.

    Restricted to collision-free signatures and inputs; with multiply
    occupied modes the permanent of the squared-magnitude submatrix
    overcounts by the occupation factorials, so the general engine must
    be used instead.
    """
    m = interferometer.m
    sig = as_occupation(signature, m)
    t = as_occupation(input_occ, m)
    if max(sig, default=0) > 1 or max(t, default=0) > 1:
        raise ConfigurationError(
            "distinguishable fast path needs collision-free configurations"
        )
    block = np.abs(submatrix(interferometer, sig, t)) ** 2
    return float(permanent_ryser(block).real)


def _resolved_counts(n: int, m: int, basis_size: int):
    """Every resolved outcome in chunks of STACK_SIZE, each with its count matrix and norms.

    Profiles (per-basis photon counts) ascend lexicographically, then
    outcomes within a profile, itertools.product over pools[k], every
    tuple of k photons over m modes in lex order. Yields (outcomes,
    counts, norms): row i of counts is outcome i flattened and norms[i]
    its prod S_vec! as a Python int. Chunks run across profile
    boundaries; only the last may be shorter. A profile's rows are the
    product of its outcomes taken over pool indices, in numpy, and its
    norms the product of its pool entries'.
    """
    pools = [tuple(_occupations(k, m)) for k in range(n + 1)]
    # The smallest integer type that holds a count of n keeps chunks small.
    tables = [np.array(pool, dtype=np.min_scalar_type(n)).reshape(len(pool), m) for pool in pools]
    pool_norms = [
        np.array([math.prod(map(math.factorial, occ)) for occ in pool], dtype=object) for pool in pools
    ]
    outcomes, blocks, norms = [], [], []
    for profile in _occupations(n, basis_size):
        sizes = [len(pools[k]) for k in profile]
        product = itertools.product(*[pools[k] for k in profile])
        start, total = 0, math.prod(sizes)
        while start < total:
            stop = min(total, start + STACK_SIZE - len(outcomes))
            picks = np.unravel_index(np.arange(start, stop), sizes)
            outcomes += itertools.islice(product, stop - start)
            blocks.append(np.hstack([tables[k][pick] for k, pick in zip(profile, picks)]))
            norms += math.prod(pool_norms[k][pick] for k, pick in zip(profile, picks)).tolist()
            start = stop
            if len(outcomes) == STACK_SIZE:
                yield outcomes, np.vstack(blocks), norms
                outcomes, blocks, norms = [], [], []
    if outcomes:
        yield outcomes, np.vstack(blocks), norms


def enumerate_resolved_outcomes(n: int, m: int, basis_size: int):
    """Every resolved outcome of n photons over m modes and basis_size basis functions.

    The order of every resolved sweep: see _resolved_counts.
    """
    for outcomes, _, _ in _resolved_counts(n, m, basis_size):
        yield from outcomes


def _pure_chunks(interferometer: Interferometer, lam: LambdaMatrix, input_modes, detector: str, outcome=None):
    """One pure combination's (outcomes, probabilities) chunks: outcome alone, or the whole sweep.

    The inputs, then the outcome (computed then too) or the sweep cap,
    are checked at the call. A sweep runs as it is read, in sweep order,
    in chunks of at most STACK_SIZE (a resolved chunk is one kernel call).
    """
    if outcome is not None:
        probability = probability_resolved if detector == "resolved" else probability_nonresolved
        return iter([([outcome], [probability(interferometer, lam, input_modes, outcome)])])
    n, m, nb = lam.n, interferometer.m, lam.basis_size
    inputs = _validated_inputs(input_modes, n, m)
    resolved = detector == "resolved"
    count = math.comb((m * nb if resolved else m) + n - 1, n)
    if count > DISTRIBUTION_OUTCOME_CAP:
        what = "resolved outcomes" if resolved else "output signatures"
        raise CapacityError(f"{count} {what} exceed the sweep cap {DISTRIBUTION_OUTCOME_CAP}")
    if resolved:
        joint = _joint_matrix(interferometer, lam, inputs)
        return ((outcomes, [abs(amp) ** 2 for amp in _resolved_amplitudes(joint, counts, norms)])
                for outcomes, counts, norms in _resolved_counts(n, m, nb))
    return ((sigs, [_probability_nonresolved(interferometer, lam, inputs, sig) for sig in sigs])
            for sigs in _chunks(_occupations(n, m)))


def _gathered(chunks) -> dict:
    """One dict of every (outcomes, values) chunk's outcome -> value, in stream order."""
    return {outcome: value for outcomes, values in chunks for outcome, value in zip(outcomes, values)}


def distribution_nonresolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None
) -> dict[tuple[int, ...], float]:
    """Probability of every signature M with sum(M) = n, in lexicographic order."""
    return _gathered(_pure_chunks(interferometer, lam, input_modes, "nonresolved"))


def distribution_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None
) -> dict[tuple[tuple[int, ...], ...], float]:
    """Probability of every spectrally resolved outcome, in enumerate_resolved_outcomes order."""
    return _gathered(_pure_chunks(interferometer, lam, input_modes, "resolved"))


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
    component of every photon, photon order then component order. Blind
    probabilities do not depend on the basis, so for "nonresolved" each
    combination keeps its own, narrower one.
    """
    if detector not in ("resolved", "nonresolved"):
        raise ConfigurationError(f"unknown detector model {detector!r}")
    sources = [_as_mixture(p) for p in photons]
    terms = mixture_terms(sources)
    if terms > MIXTURE_TERM_CAP:
        raise CapacityError(f"{terms} mixture combinations exceed cap {MIXTURE_TERM_CAP}")
    if detector == "resolved":
        common = lambda_from_photons([spec for s in sources for _, spec in s.components]).matrix
    offsets = itertools.accumulate((len(s.components) for s in sources), initial=0)
    # Each choice is (row of the common matrix, (probability, spec)).
    choices = [enumerate(s.components, offset) for s, offset in zip(sources, offsets)]
    for combo in itertools.product(*choices):
        weight = math.prod(p for _, (p, _) in combo)
        if detector == "resolved":
            yield weight, LambdaMatrix(common[[row for row, _ in combo]])
        else:
            yield weight, lambda_from_photons([spec for _, (_, spec) in combo])


def _weighted_chunks(photons, detector: str, chunks_of):
    """Per outcome, the weighted sum over every mixture combination of its value or values.

    chunks_of(lam) returns one combination's (outcomes, values) chunks,
    each value a number or a tuple of them. All are made at the call, so
    every check runs first, and read in lockstep; every chunk must list
    the outcomes of the first combination's, or RuntimeError is raised.
    Totals start at 0.0 and add weight * value in combination order, in
    float64 as Python floats would, so pure photons keep their values
    exactly. Yields (outcomes, totals) per chunk, totals a float64 array.
    """
    weights, streams = zip(*[(weight, chunks_of(lam)) for weight, lam in mixture_lambdas(photons, detector)])

    def totals():
        for chunks in itertools.zip_longest(*streams, fillvalue=(None, None)):
            outcomes, total = chunks[0][0], 0.0
            for weight, (chunk_outcomes, values) in zip(weights, chunks):
                if chunk_outcomes != outcomes:
                    raise RuntimeError("mixture combinations list different outcomes")
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
    detector, MIXTURE_TERM_CAP, the inputs and the outcome or the sweep
    cap are checked at the call.
    """
    return _weighted_chunks(
        photons, detector, lambda lam: _pure_chunks(interferometer, lam, input_modes, detector, outcome)
    )


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
