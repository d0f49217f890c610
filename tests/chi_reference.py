"""The paper's expansion over spectral configurations, kept as a test reference.

A configuration v gives photon j the basis function xi_{v_j} and has the
weight chi(v) = prod_j lambda[j, v_j]. Under v, the photons carrying xi_i
occupy the input configuration T(v, i), and a resolved outcome S_vec has
the amplitude

    sum_v chi(v) prod_i Per(U_{S^(i), T(v, i)}) / sqrt(S^(i)! T(v, i)!).

Non-resolving detectors add |amplitude|^2 over every split of the
signature M between the basis functions. Permanents come from
permanent_naive, so nothing here shares the engine's joint-mode matrix,
its pair sum or the Glynn kernel.
"""

import itertools
import math

from bosonspectra import permanent_naive, submatrix


def chi(lam, v) -> complex:
    """Weight prod_j lambda[j, v_j] of configuration v (1-based basis indices)."""
    return complex(math.prod(lam.matrix[j, i - 1] for j, i in enumerate(v)))


def enumerate_configurations(lam):
    """Yield (v, chi(v)) for every configuration with chi(v) != 0, v in lexicographic order."""
    for v in itertools.product(range(1, lam.basis_size + 1), repeat=lam.n):
        weight = chi(lam, v)
        if weight != 0:
            yield v, weight


def t_sets(v, input_modes, m: int, basis_size: int) -> dict[int, tuple[int, ...]]:
    """Map each basis index i to T(v, i), the occupation of the photons carrying xi_i."""
    counts = {i: [0] * m for i in range(1, basis_size + 1)}
    for mode, i in zip(input_modes, v):
        counts[i][mode - 1] += 1
    return {i: tuple(c) for i, c in counts.items()}


def _factorials(occ) -> int:
    return math.prod(math.factorial(c) for c in occ)


def amplitude_resolved(interferometer, lam, input_modes, outcome) -> complex:
    total = 0.0 + 0.0j
    for v, weight in enumerate_configurations(lam):
        tmap = t_sets(v, input_modes, interferometer.m, lam.basis_size)
        term = weight
        for i, part in enumerate(outcome, start=1):
            if sum(part) != sum(tmap[i]):
                term = 0.0
                break
            per = permanent_naive(submatrix(interferometer, part, tmap[i]))
            term *= per / math.sqrt(_factorials(part) * _factorials(tmap[i]))
        total += term
    return complex(total)


def probability_nonresolved(interferometer, lam, input_modes, signature) -> float:
    r = lam.basis_size
    per_mode = [
        [c for c in itertools.product(range(s + 1), repeat=r) if sum(c) == s] for s in signature
    ]
    total = 0.0
    for choice in itertools.product(*per_mode):
        outcome = tuple(tuple(c[i] for c in choice) for i in range(r))
        total += abs(amplitude_resolved(interferometer, lam, input_modes, outcome)) ** 2
    return total
