"""Brute-force Fock-space simulator over joint (spatial x spectral) modes.

Ground truth for the sampling engine at small scale: photons are
expanded one at a time over their basis coefficients and the unitary's
columns, so no permanent is ever computed here. Joint modes are ordered
spatial-major (mode 1 basis 1, mode 1 basis 2, ..., mode 2 basis 1, ...)
and occupation keys are tuples over all m * N joint modes.

The expansion stays brute force and capped; anything bigger belongs to
the engine. What blind detectors see, the spatial marginals, is
tabulated once per state, so reading every signature costs one pass
over the amplitudes rather than one pass per signature.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapacityError, ConfigurationError
from .network import Interferometer, as_occupation
from .sampling import _pure_chunks, _validated_inputs, _weighted_chunks, as_resolved_outcome
from .spectra import LambdaMatrix

MAX_PHOTONS = 6
MAX_MODES = 8
MAX_BASIS = 6
AMPLITUDE_PRUNE = 1e-15


@dataclass(frozen=True, eq=False)
class FockState:
    """Sparse state over joint (spatial, spectral) occupation configurations."""

    m: int
    basis_size: int
    amplitudes: dict = field(repr=False)

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    @cached_property
    def _marginals(self) -> dict[tuple[int, ...], float]:
        """Summed |amp|^2 per spatial signature, added in amplitude order."""
        nb = self.basis_size
        table: dict[tuple[int, ...], float] = {}
        for occ, amp in self.amplitudes.items():
            marginal = tuple(sum(occ[k * nb : (k + 1) * nb]) for k in range(self.m))
            table[marginal] = table.get(marginal, 0.0) + abs(amp) ** 2
        return table


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
    """
    m = interferometer.m
    n = lam.n
    nb = lam.basis_size
    if n > MAX_PHOTONS or m > MAX_MODES or nb > MAX_BASIS:
        raise CapacityError(
            f"oracle caps exceeded (n={n} <= {MAX_PHOTONS}, m={m} <= {MAX_MODES}, "
            f"N={nb} <= {MAX_BASIS})"
        )
    inputs = _validated_inputs(input_modes, n, m)

    u = interferometer.matrix
    vacuum = (0,) * (m * nb)
    # Coefficients of operator monomials prod_w (a_w^dag)^{occ_w} |0>;
    # the sqrt(occ!) conversion to normalized states happens at the end.
    raw: dict[tuple[int, ...], complex] = {vacuum: 1.0 + 0.0j}
    for j in range(n):
        row = lam.matrix[j]
        port = inputs[j] - 1
        new: dict[tuple[int, ...], complex] = {}
        for occ, coeff in raw.items():
            for i in range(nb):
                li = row[i]
                if li == 0.0:
                    continue
                for k in range(m):
                    amp = coeff * li * u[k, port]
                    if amp == 0.0:
                        continue
                    pos = k * nb + i
                    key = occ[:pos] + (occ[pos] + 1,) + occ[pos + 1 :]
                    new[key] = new.get(key, 0.0 + 0.0j) + amp
        raw = new

    amplitudes = {}
    for occ, coeff in raw.items():
        amp = coeff * math.sqrt(math.prod(math.factorial(c) for c in occ))
        if abs(amp) > AMPLITUDE_PRUNE:
            amplitudes[occ] = amp
    return FockState(m=m, basis_size=nb, amplitudes=amplitudes)


def _joint_key(outcome_parts) -> tuple[int, ...]:
    """The joint-mode occupation key of a resolved outcome: mode 1's parts, then mode 2's, ..."""
    return tuple(itertools.chain.from_iterable(zip(*outcome_parts)))


def oracle_probability(state: FockState, outcome, detector: str = "nonresolved") -> float:
    """Probability of an outcome read directly from the Fock state.

    detector="resolved": outcome is a resolved outcome (one occupation
    configuration per basis function); the probability is the squared
    amplitude of the single matching joint state.
    detector="nonresolved": outcome is a spatial signature M; squared
    amplitudes are summed over all joint states with that marginal. The
    sums for every signature are tabulated on the state's first such
    query, term by term in amplitude order, and later queries look them
    up.
    """
    if detector == "resolved":
        parts = as_resolved_outcome(outcome, state.m, state.basis_size)
        amp = state.amplitudes.get(_joint_key(parts), 0.0)
        return float(abs(amp) ** 2)
    if detector == "nonresolved":
        sig = as_occupation(outcome, state.m)
        return float(state._marginals.get(sig, 0.0))
    raise ConfigurationError(f"unknown detector model {detector!r}")


def _compared_chunks(interferometer: Interferometer, lam: LambdaMatrix, input_modes, detector: str):
    """One combination's sweep as (outcomes, (engine, oracle) pairs) chunks.

    The engine column is the engine's own sweep, chunk by chunk, and the
    oracle reads the same outcomes off the Fock state without the
    validation oracle_probability gives outside input.
    """
    if detector not in ("resolved", "nonresolved"):
        raise ConfigurationError(f"unknown detector model {detector!r}")
    state = fock_evolve(interferometer, lam, input_modes)
    for outcomes, values in _pure_chunks(interferometer, lam, input_modes, detector):
        if detector == "resolved":
            oracle = [float(abs(state.amplitudes.get(_joint_key(o), 0.0)) ** 2) for o in outcomes]
        else:
            oracle = [float(state._marginals.get(o, 0.0)) for o in outcomes]
        yield outcomes, list(zip(values, oracle))


def verify_against_oracle(
    interferometer: Interferometer,
    lam: LambdaMatrix,
    input_modes=None,
    detector: str = "nonresolved",
):
    """Compare the engine against the Fock oracle on every outcome.

    Returns (rows, max_deviation) where each row is
    (outcome, engine_probability, oracle_probability), in sweep order.
    """
    rows = [
        (outcome, engine_p, oracle_p)
        for outcomes, pairs in _compared_chunks(interferometer, lam, input_modes, detector)
        for outcome, (engine_p, oracle_p) in zip(outcomes, pairs)
    ]
    return rows, max([0.0] + [abs(engine_p - oracle_p) for _, engine_p, oracle_p in rows])


def verify_chunks(interferometer: Interferometer, photons, input_modes=None, detector: str = "nonresolved"):
    """Engine and oracle for a whole experiment, as a stream of (outcomes, totals) chunks.

    totals is an (outcomes x 2) float64 array of the engine's and the
    oracle's probabilities, each weighted over every mixture combination
    by the loop behind sampling.probability_chunks.
    """
    # Whole per combination, so each Fock state is freed before the next is made.
    yield from _weighted_chunks(
        photons, detector, lambda lam: list(_compared_chunks(interferometer, lam, input_modes, detector))
    )
