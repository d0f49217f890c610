"""Exact output statistics for partially distinguishable photons.

The engine expands the input over spectral configurations v (weights
chi(v)), feeds each basis function's share of the photons through the
permanent rule, and recombines:

* spectrally resolving detectors see a full outcome S_vec, one
  occupation configuration per basis function, with amplitude
  sum_v chi(v) * prod_i amp(S^(i) <- T(v, i));
* non-resolving detectors see only the spatial signature M, whose
  probability sums |amplitude|^2 over all partitions of M into
  per-basis configurations.

Configurations v are bucketed by their per-basis photon-count profile:
terms whose profile differs from the outcome's contribute zero
permanents and are skipped.

Resolved outcomes are sequences of basis_size occupation tuples;
measurement signatures are single occupation tuples. Input modes are
1-based and must be distinct (one photon per input port).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError
from .network import Interferometer, amplitude_ideal, as_occupation, submatrix
from .permanent import permanent_ryser
from .spectra import (
    LambdaMatrix,
    enumerate_configurations,
    lambda_from_photons,
    t_sets,
)

DISTRIBUTION_OUTCOME_CAP = 10**6
MIXTURE_TERM_CAP = 10**5
MIXTURE_WEIGHT_TOL = 1e-10


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
        if any(p < 0 for p, _ in comps):
            raise ConfigurationError("mixture weights must be non-negative")
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
    modes = tuple(int(x) for x in input_modes)
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


def _profile_of_configuration(v: tuple[int, ...], basis_size: int) -> tuple[int, ...]:
    counts = [0] * basis_size
    for i in v:
        counts[i - 1] += 1
    return tuple(counts)


class _Engine:
    """Shared state for one (interferometer, lambda, inputs) instance.

    Groups spectral configurations by profile once and memoizes the
    per-spectral-mode amplitudes, which repeat heavily across outcomes
    in distribution sweeps.
    """

    def __init__(self, interferometer: Interferometer, lam: LambdaMatrix, input_modes, eps: float):
        self.interferometer = interferometer
        self.lam = lam
        self.m = interferometer.m
        self.n = lam.n
        self.basis_size = lam.basis_size
        self.inputs = _validated_inputs(input_modes, self.n, self.m)
        self.eps = float(eps)

        self.groups: dict[tuple[int, ...], list] = {}
        for v, weight in enumerate_configurations(lam, self.eps):
            tmap = t_sets(v, self.inputs, self.m, self.basis_size)
            profile = _profile_of_configuration(v, self.basis_size)
            self.groups.setdefault(profile, []).append((v, weight, tmap))
        self._amp_cache: dict = {}

    def _amp(self, s_occ: tuple[int, ...], t_occ: tuple[int, ...]) -> complex:
        key = (s_occ, t_occ)
        try:
            return self._amp_cache[key]
        except KeyError:
            amp = amplitude_ideal(self.interferometer, s_occ, t_occ)
            self._amp_cache[key] = amp
            return amp

    def amplitude_resolved(self, outcome) -> complex:
        parts = as_resolved_outcome(outcome, self.m, self.basis_size)
        total_photons = sum(sum(p) for p in parts)
        if total_photons != self.n:
            raise ConfigurationError(
                f"resolved outcome holds {total_photons} photons, expected {self.n}"
            )
        profile = tuple(sum(p) for p in parts)
        total = 0.0 + 0.0j
        for _, weight, tmap in self.groups.get(profile, ()):
            term = weight
            for i in range(1, self.basis_size + 1):
                term *= self._amp(parts[i - 1], tmap[i])
                if term == 0.0:
                    break
            total += term
        return complex(total)

    def probability_nonresolved(self, signature) -> float:
        sig = as_occupation(signature, self.m)
        if sum(sig) != self.n:
            raise ConfigurationError(f"signature holds {sum(sig)} photons, expected {self.n}")
        total = 0.0
        for profile, terms in self.groups.items():
            for parts in enumerate_partitions(sig, profile):
                amp = 0.0 + 0.0j
                for _, weight, tmap in terms:
                    term = weight
                    for i in range(1, self.basis_size + 1):
                        term *= self._amp(parts[i - 1], tmap[i])
                        if term == 0.0:
                            break
                    amp += term
                total += abs(amp) ** 2
        return float(total)


def _occupations(total: int, caps: tuple[int, ...]):
    """All occupation tuples with the given sum, elementwise below caps, lex order."""
    if len(caps) == 0:
        if total == 0:
            yield ()
        return
    rest_caps = caps[1:]
    # Counts below total - sum(rest_caps) leave more than the rest can hold.
    for c in range(max(0, total - sum(rest_caps)), min(caps[0], total) + 1):
        for rest in _occupations(total - c, rest_caps):
            yield (c,) + rest


def enumerate_partitions(signature, profile):
    """All resolved outcomes S_vec with sum_i S^(i) = signature and sum(S^(i)) = profile_i.

    Yields tuples of occupation tuples in lexicographic order of the
    flattened outcome; an infeasible profile yields nothing.
    """
    sig = as_occupation(signature)
    profile = tuple(int(k) for k in profile)
    if any(k < 0 for k in profile):
        raise ConfigurationError(f"profile counts must be non-negative, got {profile}")
    if sum(profile) != sum(sig):
        return

    def split(remaining: tuple[int, ...], ks: tuple[int, ...]):
        if not ks:
            if all(c == 0 for c in remaining):
                yield ()
            return
        for part in _occupations(ks[0], remaining):
            rest_remaining = tuple(r - p for r, p in zip(remaining, part))
            for rest in split(rest_remaining, ks[1:]):
                yield (part,) + rest

    yield from split(sig, profile)


def amplitude_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, outcome=None, eps: float = 0.0
) -> complex:
    """Amplitude of a spectrally resolved outcome.

    outcome is a sequence of basis_size occupation configurations, one
    per basis function xi_i.
    """
    return _Engine(interferometer, lam, input_modes, eps).amplitude_resolved(outcome)


def probability_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, outcome=None, eps: float = 0.0
) -> float:
    """Probability of a spectrally resolved outcome."""
    return abs(amplitude_resolved(interferometer, lam, input_modes, outcome, eps)) ** 2


def probability_nonresolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, signature=None, eps: float = 0.0
) -> float:
    """Probability that non-resolving detectors report the signature M."""
    return _Engine(interferometer, lam, input_modes, eps).probability_nonresolved(signature)


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


def distribution_nonresolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, eps: float = 0.0
) -> dict[tuple[int, ...], float]:
    """Probability of every signature M with sum(M) = n, in lexicographic order."""
    engine = _Engine(interferometer, lam, input_modes, eps)
    n, m = engine.n, engine.m
    count = math.comb(n + m - 1, n)
    if count > DISTRIBUTION_OUTCOME_CAP:
        raise CapacityError(
            f"{count} output signatures exceed the sweep cap {DISTRIBUTION_OUTCOME_CAP}"
        )
    return {sig: engine.probability_nonresolved(sig) for sig in _occupations(n, (n,) * m)}


def enumerate_resolved_outcomes(n: int, m: int, basis_size: int):
    """Every resolved outcome of n photons over m modes and basis_size basis functions.

    Profiles (per-basis photon counts) ascend lexicographically, then
    outcomes within a profile.
    """
    for profile in _occupations(n, (n,) * basis_size):
        pools = [_occupations(k, (k,) * m) for k in profile]
        yield from (tuple(parts) for parts in itertools.product(*pools))


def distribution_resolved(
    interferometer: Interferometer, lam: LambdaMatrix, input_modes=None, eps: float = 0.0
) -> dict[tuple[tuple[int, ...], ...], float]:
    """Probability of every spectrally resolved outcome."""
    engine = _Engine(interferometer, lam, input_modes, eps)
    n, m, nb = engine.n, engine.m, engine.basis_size
    count = math.comb(m * nb + n - 1, n)
    if count > DISTRIBUTION_OUTCOME_CAP:
        raise CapacityError(
            f"{count} resolved outcomes exceed the sweep cap {DISTRIBUTION_OUTCOME_CAP}"
        )
    return {
        outcome: float(abs(engine.amplitude_resolved(outcome)) ** 2)
        for outcome in enumerate_resolved_outcomes(n, m, nb)
    }


def _as_mixture(photon) -> MixedPhotonSource:
    if isinstance(photon, MixedPhotonSource):
        return photon
    return MixedPhotonSource(((1.0, photon),))


def mixture_tuples(photons):
    """Yield (weight, pure spec list) for every combination of mixture components.

    Pure photons count as single-component mixtures. Guards the total
    number of combinations at MIXTURE_TERM_CAP.
    """
    sources = [_as_mixture(p) for p in photons]
    terms = math.prod(len(s.components) for s in sources)
    if terms > MIXTURE_TERM_CAP:
        raise CapacityError(f"{terms} mixture combinations exceed cap {MIXTURE_TERM_CAP}")
    for combo in itertools.product(*(s.components for s in sources)):
        weight = math.prod(p for p, _ in combo)
        yield weight, [spec for _, spec in combo]


def probability_mixed(
    interferometer: Interferometer,
    photons,
    input_modes=None,
    outcome=None,
    detector: str = "nonresolved",
    eps: float = 0.0,
) -> float:
    """Outcome probability for spectrally mixed photons.

    Every combination of mixture components is a pure-photon experiment;
    its probability is weighted by the product of component
    probabilities and accumulated. photons may mix bare SpectralSpec
    entries (pure) and MixedPhotonSource entries.

    For detector="resolved" the outcome's basis functions are the ones
    induced by each combination in photon order; combinations spanning
    fewer directions than the outcome lists contribute only if the extra
    spectral parts are empty.
    """
    if detector not in ("resolved", "nonresolved"):
        raise ConfigurationError(f"unknown detector model {detector!r}")
    total = 0.0
    for weight, specs in mixture_tuples(photons):
        lam = lambda_from_photons(specs)
        if detector == "nonresolved":
            p = probability_nonresolved(interferometer, lam, input_modes, outcome, eps)
        else:
            p = _resolved_probability_padded(interferometer, lam, input_modes, outcome, eps)
        total += weight * p
    return float(total)


def _resolved_probability_padded(interferometer, lam, input_modes, outcome, eps) -> float:
    parts = tuple(as_occupation(part, interferometer.m) for part in outcome)
    if len(parts) < lam.basis_size:
        raise ConfigurationError(
            f"resolved outcome has {len(parts)} spectral parts but the photons span "
            f"{lam.basis_size} basis functions"
        )
    if any(sum(extra) != 0 for extra in parts[lam.basis_size :]):
        return 0.0
    return probability_resolved(interferometer, lam, input_modes, parts[: lam.basis_size], eps)
