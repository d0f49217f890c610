"""Seeded job mixes for the four workloads, and the checks on their outputs.

A workload is a fixed list of job shapes, one round. Every shape gets
its own inputs drawn from the run's seed; the round is repeated
unchanged until the run's time is up, so the set of job times is the
same multiset from run to run, only longer or shorter. Inputs are
written as strict JSON: integers as ints, only documented config keys,
explicit unitaries as [re, im] pairs and no ``eps``.

Why each workload exists, and which layer it should load, is written
beside its shape list below and in README.md.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference

PROBABILITY_TOL = 1e-9
RANGE_SLACK = 1e-12
PERMANENT_RTOL = 1e-9
SAMPLED_REFERENCES = 4

# Shapes are (kind, n or k, m, variant). A round is at most two light
# jobs, a block of eight jobs of one shape, and on `resolved` and
# `bigperm` one heavier job. Sorted by time over the three rounds of a
# run, the 50th percentile then falls at least eight samples inside the
# block and the 65th at least seven below its top. On a shared host one
# shape's jobs vary by 1.5x or more within a run, so a light job slowed
# down can pass a block job sped up; a third light job per round put the
# 50th percentile among them and doubled its spread from run to run. The
# block holds jobs where computing, not process start-up, takes most of
# the time. One round takes four to six seconds on a 2-core Xeon VM, so
# that a whole run, calibrations and set-up probes included, takes 18 to
# 27 s.
WORKLOADS = {
    # Generic Gaussian photons, blind detectors: the partition and
    # configuration enumeration in `sampling` does most of the work.
    "blind": [
        ("signature", 5, 9, "free"),
        ("sweep", 4, 5, "generic"),
        ("sweep", 4, 5, "generic"),
        ("sweep", 4, 5, "generic"),
        ("sweep", 4, 5, "generic"),
        ("signature", 5, 9, "bunched"),
        ("sweep", 4, 5, "generic"),
        ("sweep", 4, 5, "generic"),
        ("sweep", 4, 5, "generic"),
        ("sweep", 4, 5, "generic"),
    ],
    # Resolving detectors: the only workload with documents of megabytes,
    # so the `cli` serializer and the resolved engine path carry it. The
    # one n = 4, m = 5 sweep per round (8855 outcomes) is the largest
    # document and sets peak_rss_mb.
    "resolved": [
        ("resolved", 3, 6, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 5, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 4, None),
        ("resolved", 4, 4, None),
    ],
    # Large permanents: identical photons need one k = n permanent and
    # two-species photons a few dozen, so `permanent` does nearly all the
    # work; a raw `permanent` job runs the kernel alone. The block is
    # collision-free two-species queries at n = 8.
    "bigperm": [
        ("permanent", 13, None, None),
        ("twospecies", 8, 12, "free"),
        ("twospecies", 8, 12, "free"),
        ("twospecies", 8, 12, "free"),
        ("twospecies", 8, 12, "free"),
        ("identical", 16, 20, "bunched"),
        ("twospecies", 8, 12, "free"),
        ("twospecies", 8, 12, "free"),
        ("twospecies", 8, 12, "free"),
        ("twospecies", 8, 12, "free"),
    ],
    # `verify` sweeps: the Fock oracle rescans its whole state for every
    # outcome, and mixed photons multiply the states it evolves. The mixed
    # config, heavy on allocation, varies more from run to run on a shared
    # host than pure ones, so it is a light job here.
    "verify": [
        ("verify", 3, 4, "mixed"),
        ("verify", 4, 4, "pure"),
        ("verify", 4, 4, "pure"),
        ("verify", 4, 4, "pure"),
        ("verify", 4, 4, "pure"),
        ("verify", 3, 5, "pure"),
        ("verify", 4, 4, "pure"),
        ("verify", 4, 4, "pure"),
        ("verify", 4, 4, "pure"),
        ("verify", 4, 4, "pure"),
    ],
}

# The smallest instance of every shape kind, for the self-test.
SMOKE = {
    "blind": [("signature", 3, 5, "free"), ("signature", 3, 5, "bunched"), ("sweep", 2, 3, "generic")],
    "resolved": [("resolved", 2, 3, None)],
    "bigperm": [
        ("permanent", 4, None, None),
        ("identical", 4, 6, "bunched"),
        ("twospecies", 4, 6, "free"),
    ],
    "verify": [("verify", 2, 3, "pure"), ("verify", 2, 3, "mixed")],
}


class CheckError(Exception):
    """An output document failed a correctness check."""


@dataclass
class Job:
    label: str
    command: str
    payload: object
    check: Callable[[object], int] = field(repr=False)


def _haar(rng, m: int) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _gaussian(rng) -> tuple[float, float, float]:
    return (
        round(float(rng.uniform(-0.5, 0.5)), 6),
        round(float(rng.uniform(0.7, 1.3)), 6),
        round(float(rng.uniform(-2.0, 2.0)), 6),
    )


def _full_rank(photons) -> bool:
    # Far from singular, so that the induced basis has one function per
    # photon and every spectral configuration is live.
    return np.min(np.linalg.eigvalsh(reference.gram(photons))) > 1e-3


def _generic_photons(rng, n: int) -> list:
    while True:
        photons = [_gaussian(rng) for _ in range(n)]
        if _full_rank(photons):
            return photons


def _mixed_photons(rng, n: int) -> list:
    """n photons, the first two of them two-component mixtures."""
    while True:
        pure = [_gaussian(rng) for _ in range(n + 2)]
        combos = [[a, b, *pure[2:n]] for a in (pure[0], pure[n]) for b in (pure[1], pure[n + 1])]
        if all(_full_rank(c) for c in combos):
            break
    photons = pure[:n]
    for j in range(2):
        w = round(float(rng.uniform(0.2, 0.8)), 6)
        photons[j] = [(w, pure[j]), (1.0 - w, pure[n + j])]
    return photons


def _two_species(rng, n: int) -> list:
    while True:
        a, b = _gaussian(rng), _gaussian(rng)
        if 0.3 <= abs(reference.gaussian_overlap(a, b)) <= 0.9:
            return [a if j % 2 == 0 else b for j in range(n)]


def _gaussian_json(spec) -> dict:
    mu, sigma, tau = spec
    return {"gaussian": {"mu": mu, "sigma": sigma, "tau": tau}}


def _photon_json(photon) -> dict:
    if isinstance(photon, list):
        return {"mixture": [{"probability": w, **_gaussian_json(s)} for w, s in photon]}
    return _gaussian_json(photon)


def _signature(rng, n: int, m: int, variant: str) -> tuple[int, ...]:
    # "bunched" doubles up one output mode; the rest stay single.
    counts = [2] + [1] * (n - 2) if variant == "bunched" else [1] * n
    modes = rng.choice(m, size=len(counts), replace=False)
    sig = [0] * m
    for mode, c in zip(modes, counts):
        sig[int(mode)] = c
    return tuple(sig)


def _config(u, photons, inputs, detector: str, query) -> dict:
    return {
        "network": {"unitary": [[[float(z.real), float(z.imag)] for z in row] for row in u]},
        "photons": [_photon_json(p) for p in photons],
        "input_modes": list(inputs),
        "detector": detector,
        "query": query,
    }


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= PROBABILITY_TOL:
        raise CheckError(f"{what}: got {got!r}, reference {want!r}")


def _in_range(p, what: str) -> None:
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise CheckError(f"{what}: probability {p!r} is not a number")
    if not -RANGE_SLACK <= p <= 1.0 + RANGE_SLACK:
        raise CheckError(f"{what}: probability {p!r} outside [0, 1]")


def _probabilities(values, what: str) -> None:
    for p in values:
        _in_range(p, what)
    _close(math.fsum(values), 1.0, f"{what}: probabilities sum")


def _outcome_list(doc, count: int) -> list:
    if not isinstance(doc, dict) or not isinstance(doc.get("outcomes"), list):
        raise CheckError("document has no 'outcomes' list")
    outcomes = doc["outcomes"]
    if len(outcomes) != count:
        raise CheckError(f"{len(outcomes)} outcomes, expected {count}")
    return outcomes


def _keyed(outcomes, valid: Callable[[object], bool]) -> dict:
    keyed = {}
    for row in outcomes:
        key = row.get("outcome") if isinstance(row, dict) else None
        if not valid(key):
            raise CheckError(f"malformed outcome {key!r}")
        key = tuple(tuple(p) for p in key) if key and isinstance(key[0], list) else tuple(key)
        if key in keyed:
            raise CheckError(f"outcome {key!r} listed twice")
        keyed[key] = row
    return keyed


def _sample(rng, keyed: dict, column: str) -> list:
    # The most likely outcomes are never trivially zero; add random ones.
    ranked = sorted(keyed, key=lambda k: -keyed[k][column])
    picks = ranked[: SAMPLED_REFERENCES // 2]
    rest = ranked[SAMPLED_REFERENCES // 2 :]
    for i in rng.choice(len(rest), size=min(len(rest), SAMPLED_REFERENCES // 2), replace=False):
        picks.append(rest[int(i)])
    return picks


def _signature_valid(n: int, m: int):
    def valid(key) -> bool:
        return (
            isinstance(key, list)
            and len(key) == m
            and all(isinstance(c, int) and c >= 0 for c in key)
            and sum(key) == n
        )

    return valid


def _resolved_valid(n: int, m: int):
    def valid(key) -> bool:
        return (
            isinstance(key, list)
            and len(key) == n
            and all(isinstance(p, list) and len(p) == m for p in key)
            and all(isinstance(c, int) and c >= 0 for p in key for c in p)
            and sum(map(sum, key)) == n
        )

    return valid


def _sweep_job(rng, n: int, m: int) -> Job:
    u = _haar(rng, m)
    photons = _generic_photons(rng, n)
    inputs = tuple(range(1, n + 1))
    check_rng = np.random.default_rng(rng.integers(2**63))

    def check(doc) -> int:
        outcomes = _outcome_list(doc, math.comb(n + m - 1, n))
        keyed = _keyed(outcomes, _signature_valid(n, m))
        _probabilities([row["probability"] for row in outcomes], "sweep")
        for sig in _sample(check_rng, keyed, "probability"):
            want = reference.probability_nonresolved(u, photons, inputs, sig)
            _close(keyed[sig]["probability"], want, f"P{list(sig)}")
        return len(outcomes)

    payload = _config(u, photons, inputs, "nonresolved", "distribution")
    return Job(f"sweep{n}m{m}", "distribution", payload, check)


def _signature_job(rng, label: str, n: int, m: int, variant: str, photons) -> Job:
    u = _haar(rng, m)
    inputs = tuple(sorted(int(x) + 1 for x in rng.choice(m, size=n, replace=False)))
    sig = _signature(rng, n, m, variant)
    want = []

    def check(doc) -> int:
        (row,) = _outcome_list(doc, 1)
        if row.get("outcome") != list(sig):
            raise CheckError(f"answered {row.get('outcome')!r}, asked {list(sig)}")
        got = row.get("probability")
        _in_range(got, "signature")
        if not want:
            want.append(reference.probability_nonresolved(u, photons, inputs, sig))
        _close(got, want[0], f"P{list(sig)}")
        return 1

    payload = _config(u, photons, inputs, "nonresolved", {"signature": list(sig)})
    return Job(f"{label}{n}{variant}", "distribution", payload, check)


def _resolved_job(rng, n: int, m: int) -> Job:
    u = _haar(rng, m)
    photons = _generic_photons(rng, n)
    inputs = tuple(range(1, n + 1))
    check_rng = np.random.default_rng(rng.integers(2**63))

    def check(doc) -> int:
        # Generic photons span n basis functions, one part per function.
        outcomes = _outcome_list(doc, math.comb(m * n + n - 1, n))
        keyed = _keyed(outcomes, _resolved_valid(n, m))
        _probabilities([row["probability"] for row in outcomes], "resolved")
        for outcome in _sample(check_rng, keyed, "probability"):
            want = reference.probability_resolved(u, photons, inputs, outcome)
            _close(keyed[outcome]["probability"], want, f"P{outcome}")
        return len(outcomes)

    payload = _config(u, photons, inputs, "resolved", "distribution")
    return Job(f"resolved{n}m{m}", "distribution", payload, check)


def _permanent_job(rng, k: int) -> Job:
    a = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    want = []

    def check(doc) -> int:
        if not (isinstance(doc, list) and len(doc) == 2 and all(isinstance(x, float) for x in doc)):
            raise CheckError(f"permanent document {doc!r} is not an [re, im] pair")
        if not want:
            want.append(reference.permanent(a))
        got = complex(doc[0], doc[1])
        if not abs(got - want[0]) <= PERMANENT_RTOL * abs(want[0]):
            raise CheckError(f"Per (k={k}): got {got!r}, reference {want[0]!r}")
        return 1

    payload = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    return Job(f"permanent{k}", "permanent", payload, check)


def _verify_job(rng, n: int, m: int, variant: str) -> Job:
    u = _haar(rng, m)
    photons = _mixed_photons(rng, n) if variant == "mixed" else _generic_photons(rng, n)
    components = [p if isinstance(p, list) else [(1.0, p)] for p in photons]
    inputs = tuple(range(1, n + 1))
    check_rng = np.random.default_rng(rng.integers(2**63))

    def check(doc) -> int:
        if not isinstance(doc, dict) or doc.get("passed") is not True:
            raise CheckError("verify document does not report passed")
        if not doc.get("max_deviation", math.inf) <= doc.get("tolerance", 0.0) <= PROBABILITY_TOL:
            raise CheckError(f"max_deviation {doc.get('max_deviation')!r} above tolerance")
        outcomes = _outcome_list(doc, math.comb(n + m - 1, n))
        keyed = _keyed(outcomes, _signature_valid(n, m))
        for column in ("engine", "oracle"):
            _probabilities([row[column] for row in outcomes], f"verify {column}")
        for sig in _sample(check_rng, keyed, "engine"):
            want = reference.probability_mixed(u, components, inputs, sig)
            _close(keyed[sig]["engine"], want, f"engine P{list(sig)}")
            _close(keyed[sig]["oracle"], want, f"oracle P{list(sig)}")
        return len(outcomes)

    payload = _config(u, photons, inputs, "nonresolved", "distribution")
    return Job(f"verify{n}m{m}{variant}", "verify", payload, check)


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """One round of the workload's jobs, with inputs drawn from the seed."""
    shapes = (SMOKE if smoke else WORKLOADS)[workload]
    root = np.random.SeedSequence([seed % 2**64, sorted(WORKLOADS).index(workload)])
    jobs = []
    for (kind, size, m, variant), child in zip(shapes, root.spawn(len(shapes))):
        rng = np.random.default_rng(child)
        if kind == "sweep":
            jobs.append(_sweep_job(rng, size, m))
        elif kind == "signature":
            jobs.append(_signature_job(rng, "generic", size, m, variant, _generic_photons(rng, size)))
        elif kind == "identical":
            jobs.append(_signature_job(rng, "identical", size, m, variant, [_gaussian(rng)] * size))
        elif kind == "twospecies":
            jobs.append(_signature_job(rng, "twospecies", size, m, variant, _two_species(rng, size)))
        elif kind == "resolved":
            jobs.append(_resolved_job(rng, size, m))
        elif kind == "permanent":
            jobs.append(_permanent_job(rng, size))
        elif kind == "verify":
            jobs.append(_verify_job(rng, size, m, variant))
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    return jobs
