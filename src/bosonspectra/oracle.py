"""Brute-force Fock-space simulator over joint (spatial x spectral) modes.

Ground truth for the sampling engine at small scale: photons are
expanded one at a time over their basis coefficients and the unitary's
columns, so no permanent is ever computed here. Joint modes are ordered
spatial-major (mode 1 basis 1, mode 1 basis 2, ..., mode 2 basis 1, ...).

The expansion runs on arrays: each photon's terms are listed in the
order a term-by-term loop visits them, summed per occupation by
np.bincount in that order, and the states kept in order of first
appearance. Products on real parts and np.hypot round as Python's
complex scalars do. Brute force and bounded by its work (STATE_BUDGET);
anything bigger belongs to the engine. The spatial marginals are
tabulated once per state.
"""

import math
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, _Record
from .network import Interferometer
from .sampling import _checked_detector, _checked_outcome, _validated_inputs, _weighted_chunks, mixture_lambdas
from .spectra import LambdaMatrix

AMPLITUDE_PRUNE = 1e-15
# Candidate terms in one photon step. Peak RSS ran to 250-290 B per
# candidate where the bound is tight (distinguishable photons: 243 MB at
# 10^6), so at most about 300 MB; far less where it is loose (33 B per
# candidate for distinct Gaussians).
STATE_BUDGET = 2**20
# Per photon in a key: a joint mode index is below m * N <= 2**_BITS, and a
# key's n fields fit in a positive int64 while n * _BITS <= 63.
_BITS = 6


def _product(ar, ai, br, bi):
    """(ar + i ai)(br + i bi), each real product and sum rounded alone as in Python's complex product."""
    return np.multiply(ar, br) - np.multiply(ai, bi), np.multiply(ar, bi) + np.multiply(ai, br)


def _groups(keys: np.ndarray):
    """Group ids numbered in order of first appearance, and each group's first index."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # A group's id counts the first appearances before its own; no second sort.
    firsts = np.zeros(len(keys), dtype=bool)
    firsts[first] = True
    return (np.cumsum(firsts) - 1)[first][inverse.ravel()], np.flatnonzero(firsts)


class FockState(_Record):
    """Joint occupation states of n photons and their amplitudes, in expansion order.

    occupations holds the states as int8 rows over the m * basis_size
    joint modes; keys, int64, the joint modes of each in ascending order,
    _BITS bits each, the first highest; values the complex128 amplitudes.
    Two states are equal only if they are the same object.
    """

    _fields = ("m", "basis_size", "n")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, m: int, basis_size: int, n: int, occupations: np.ndarray, keys: np.ndarray,
                 values: np.ndarray) -> None:
        vars(self).update(m=m, basis_size=basis_size, n=n, occupations=occupations, keys=keys, values=values)

    @cached_property
    def amplitudes(self) -> MappingProxyType:
        """Read-only {occupation tuple: amplitude} view, in state order."""
        return MappingProxyType(dict(zip(map(tuple, self.occupations.tolist()), self.values)))

    @cached_property
    def _probabilities(self) -> np.ndarray:
        """|amp|^2 per state, squared on Python floats as abs(amp) ** 2 is."""
        return np.array([a**2 for a in np.hypot(self.values.real, self.values.imag).tolist()])

    def norm_squared(self) -> float:
        return float(sum(self._probabilities.tolist()))

    @cached_property
    def _marginals(self) -> dict[tuple[int, ...], float]:
        """Summed |amp|^2 per spatial signature, added in state order."""
        # A signature's key: its states' keys with each joint mode k * N + i read
        # as k, still sorted. (A base-(n + 1) number over 64 modes overflows int64.)
        shifts = _BITS * np.arange(self.n)
        spatial = ((self.keys[:, None] >> shifts) & (2**_BITS - 1)) // self.basis_size
        group, first = _groups((spatial << shifts).sum(axis=1))
        sums = np.bincount(group, weights=self._probabilities, minlength=len(first))
        sigs = self.occupations[first].reshape(-1, self.m, self.basis_size).sum(axis=2, dtype=np.int64)
        return dict(zip(map(tuple, sigs.tolist()), sums.tolist()))

    def _readouts(self, outcomes, detector: str) -> list[float]:
        """Each signature's marginal, or each resolved outcome's |amp|^2 (basis_size parts); 0.0 if no state has it."""
        if detector != "resolved":
            return [self._marginals.get(tuple(o), 0.0) for o in outcomes]
        rows = np.array(outcomes, dtype=np.int64).reshape(-1, self.basis_size, self.m).transpose(0, 2, 1)
        modes = np.repeat(np.tile(np.arange(rows[0].size), len(rows)), rows.ravel()).reshape(len(rows), self.n)
        wanted = (modes << (_BITS * np.arange(self.n - 1, -1, -1))).sum(axis=1)
        order = self._key_order
        found = order[np.minimum(np.searchsorted(self.keys, wanted, sorter=order), len(order) - 1)]
        return np.where(self.keys[found] == wanted, self._probabilities[found], 0.0).tolist()

    @cached_property
    def _key_order(self) -> np.ndarray:
        return np.argsort(self.keys)


def _largest_step(m: int, lam: LambdaMatrix) -> int:
    """An upper bound on the candidate terms of fock_evolve's largest photon step.

    Photon j makes a term per state, mode and basis function of its
    row's support; the states it leaves are at most those terms and at
    most the C(m u + j, j + 1) occupations of j + 1 photons over the m u
    joint modes of the u basis functions that rows 0..j use.
    """
    states, largest = 1, 0
    for j, row in enumerate(lam.matrix):
        terms = states * m * int(np.count_nonzero(row))
        largest = max(largest, terms)
        used = int(np.count_nonzero(lam.matrix[: j + 1].any(axis=0)))
        states = min(terms, math.comb(m * used + j, j + 1))
    return largest


def _checked_inputs(interferometer: Interferometer, lam: LambdaMatrix, input_modes) -> tuple[int, ...]:
    """The validated input modes of an expansion that the key format and STATE_BUDGET admit.

    Raises CapacityError for n > 10 photons, m N > 64 joint modes (the
    key format) or a photon step that may make over STATE_BUDGET terms.
    """
    m, n, nb = interferometer.m, lam.n, lam.basis_size
    inputs = _validated_inputs(input_modes, n, m)
    if n * _BITS > 63 or m * nb > 2**_BITS:
        raise CapacityError(
            f"the oracle's keys hold n <= {63 // _BITS} photons over m * N <= {2**_BITS} joint modes, "
            f"got n={n} over m * N = {m * nb}"
        )
    largest = _largest_step(m, lam)
    if largest > STATE_BUDGET:
        raise CapacityError(f"the oracle's largest photon step makes up to {largest} terms, over {STATE_BUDGET}")
    return inputs


def fock_evolve(interferometer: Interferometer, lam: LambdaMatrix, input_modes=None) -> FockState:
    """Evolve n spectrally structured photons through the network exactly.

    Photon j enters spatial mode input_modes[j] carrying its coefficient
    row; each creation operator is substituted by its image under the
    unitary (spectral index untouched) and the product of sums is
    expanded term by term. Amplitudes land on normalized occupation
    states, including the sqrt(occupation!) bosonic factors.

    Columns of the unitary are input modes and rows are output modes
    (U[b, a] is the a -> b transfer amplitude), the orientation under
    which the permanent rule reads Per(U_{S,T}) with output rows.

    After the inputs are validated and before any term is made,
    CapacityError refuses n > 10 photons, m N > 64 joint modes (the key
    format) and a photon step that may make over STATE_BUDGET terms.
    """
    m = interferometer.m
    n = lam.n
    nb = lam.basis_size
    inputs = _checked_inputs(interferometer, lam, input_modes)

    # State s is the operator monomial prod_w (a_w^dag)^{rows[s, w]} |0>
    # with coefficient re[s] + i im[s] and prod_w rows[s, w]! in facts[s];
    # the sqrt(occ!) conversion to normalized states happens at the end.
    rows = np.zeros((1, m * nb), dtype=np.int8)
    keys, facts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    re, im = np.ones(1), np.zeros(1)
    for j in range(n):
        li = lam.matrix[j]
        basis = np.flatnonzero(li != 0.0)
        col = interferometer.matrix[:, inputs[j] - 1]
        # Terms (s, i, k): coeff[s] * li[i] * U[k, port] in the loop's order, zero terms skipped.
        tr, ti = _product(re[:, None], im[:, None], li.real[basis], li.imag[basis])
        ar, ai = _product(tr[:, :, None], ti[:, :, None], col.real, col.imag)
        live = (ar != 0.0) | (ai != 0.0)
        ar, ai = ar[live], ai[live]
        src, mode = np.nonzero(live.reshape(len(rows), -1))
        src = src.astype(np.int32)
        mode = (np.arange(m, dtype=np.int8) * nb + basis[:, None].astype(np.int8)).ravel()[mode]
        # The new mode takes its slot among the key's ascending modes: with
        # weight the slot's 2^bits and low the key below it, K -> 2^_BITS (K - low) + mode weight + low.
        weight = np.left_shift(1, _BITS * (j - rows.cumsum(axis=1, dtype=np.int8)[src, mode]), dtype=np.int64)
        low = keys[src] & (weight - 1)
        target = ((keys[src] - low) << _BITS) + low + weight * mode
        del weight, low  # few candidate-sized arrays at once
        group, first = _groups(target)
        re = np.bincount(group, weights=ar, minlength=len(first))
        im = np.bincount(group, weights=ai, minlength=len(first))
        src, mode, keys = src[first], mode[first], target[first]
        rows = rows[src]
        rows[np.arange(len(first)), mode] += 1
        facts = facts[src] * rows[np.arange(len(first)), mode]

    norms = np.sqrt(facts.astype(float))
    # coeff * norm as numpy takes a complex times a real: norm + 0i.
    re, im = _product(re, im, norms, 0.0)
    keep = np.hypot(re, im) > AMPLITUDE_PRUNE
    values = np.empty(int(keep.sum()), dtype=np.complex128)
    values.real, values.imag = re[keep], im[keep]
    return FockState(m=m, basis_size=nb, n=n, occupations=rows[keep], keys=keys[keep], values=values)


def oracle_probability(state: FockState, outcome, detector: str = "nonresolved") -> float:
    """Probability of an outcome read directly from the Fock state.

    detector="resolved": outcome is a resolved outcome (one occupation
    configuration per basis function); the probability is the squared
    amplitude of the single matching joint state.
    detector="nonresolved": outcome is a spatial signature M; squared
    amplitudes are summed over all joint states with that marginal. The
    sums for every signature are tabulated on the state's first such
    query, term by term in amplitude order, and later queries look them
    up. An outcome that does not hold the state's n photons raises
    ConfigurationError.
    """
    outcome = _checked_outcome(outcome, _checked_detector(detector), state.n, state.m, state.basis_size)
    return state._readouts([outcome], detector)[0]


def _compared_chunks(interferometer: Interferometer, combinations, input_modes, detector: str, outcome=None):
    """sampling._weighted_chunks' chunks with the oracle's totals, weighted alike, as a second column.

    The detector and each combination's oracle bound are checked at the
    call, before the engine's stream is made with its own checks. The
    first read runs that whole stream; then each combination in turn
    expands its Fock state, reads every chunk's outcomes unvalidated and
    drops it, so one state is held at a time.
    """
    _checked_detector(detector)
    combinations = list(combinations)
    for _, lam in combinations:
        _checked_inputs(interferometer, lam, input_modes)
    engine = _weighted_chunks(interferometer, combinations, input_modes, detector, outcome)

    def compared():
        chunks = list(engine)
        columns = [0.0] * len(chunks)
        for weight, lam in combinations:
            state = fock_evolve(interferometer, lam, input_modes)
            columns = [column + weight * np.array(state._readouts(outcomes, detector), dtype=float)
                       for column, (outcomes, _) in zip(columns, chunks)]
            del state
        for (outcomes, totals), column in zip(chunks, columns):
            yield outcomes, np.column_stack((totals, column))

    return compared()


def verify_against_oracle(
    interferometer: Interferometer,
    lam: LambdaMatrix,
    input_modes=None,
    detector: str = "nonresolved",
):
    """Compare the engine against the Fock oracle on every outcome.

    Returns (rows, max_deviation) where each row is
    (outcome, engine_probability, oracle_probability), in sweep order.
    Every check, the engine's work budget included, runs before the Fock
    expansion, in verify_chunks' stream at weight 1.0, which keeps the bits.
    """
    rows = [
        (outcome, engine_p, oracle_p)
        for outcomes, totals in _compared_chunks(interferometer, [(1.0, lam)], input_modes, detector)
        for outcome, (engine_p, oracle_p) in zip(outcomes, totals.tolist())
    ]
    return rows, max([0.0] + [abs(engine_p - oracle_p) for _, engine_p, oracle_p in rows])


def verify_chunks(
    interferometer: Interferometer, photons, input_modes=None, detector: str = "nonresolved", outcome=None
):
    """Engine and oracle for a whole experiment, as a stream of (outcomes, totals) chunks.

    The chunks are sampling.probability_chunks': the detector's whole
    sweep, or one chunk holding outcome alone. totals is an (outcomes x 2)
    float64 array, probability_chunks' totals and the oracle's, weighted
    alike over every mixture combination. The detector, the mixture cap,
    each combination's STATE_BUDGET, then the engine's checks and summed
    work are checked at the call, before the first expansion.
    """
    return _compared_chunks(interferometer, mixture_lambdas(photons, detector), input_modes, detector, outcome)
