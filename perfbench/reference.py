"""Reference values that do not come from the package under test.

Everything here is written against numpy only and uses different
formulas from the package, so agreement between the two is a check:

* permanents by Glynn's formula (the package uses Ryser's);
* Gaussian overlaps and Gram matrices in closed form;
* non-resolved probabilities either by the tau-sum over input
  permutations (Shchesnovich, PRA 91, 013844; Tichy, PRA 91, 022316)
  or by summing squared joint-mode permanents over every spectral
  split of the signature, whichever has fewer terms;
* resolved probabilities as one joint-mode permanent in the basis of
  the Cholesky factor of the Gram matrix, which is the basis the
  package's rank-revealing decomposition induces for full-rank photons.
"""

import itertools
import math

import numpy as np

_BLOCK = 1 << 14


def _glynn_signs(k: int, start: int, stop: int) -> np.ndarray:
    # Rows are delta vectors with delta_0 = +1 and delta_j = -1 where bit j-1 of t is set.
    t = np.arange(start, stop, dtype=np.int64)[:, None]
    bits = (t >> np.arange(k - 1, dtype=np.int64)[None, :]) & 1
    return np.hstack([np.ones((stop - start, 1)), 1.0 - 2.0 * bits])


def permanent(a) -> complex:
    """Per(a) by Glynn's formula, summed in blocks of delta vectors."""
    a = np.asarray(a, dtype=np.complex128)
    k = a.shape[0]
    if k == 0:
        return complex(1.0)
    total = 0.0 + 0.0j
    count = 1 << (k - 1)
    for start in range(0, count, _BLOCK):
        deltas = _glynn_signs(k, start, min(count, start + _BLOCK))
        terms = np.prod(deltas @ a.T, axis=1) * np.prod(deltas, axis=1)
        total += terms.sum()
    return complex(total / count)


def permanents(stack) -> np.ndarray:
    """Per of each matrix in a (batch, k, k) stack, k small."""
    stack = np.asarray(stack, dtype=np.complex128)
    batch, k = stack.shape[0], stack.shape[1]
    if k == 0:
        return np.ones(batch, dtype=np.complex128)
    deltas = _glynn_signs(k, 0, 1 << (k - 1))
    signs = np.prod(deltas, axis=1)
    out = np.empty(batch, dtype=np.complex128)
    step = max(1, _BLOCK * 8 // deltas.shape[0])
    for s in range(0, batch, step):
        sums = np.einsum("dj,bij->bdi", deltas, stack[s : s + step])
        out[s : s + step] = np.prod(sums, axis=2) @ signs
    return out / deltas.shape[0]


def gaussian_overlap(a, b) -> complex:
    """<a|b> for Gaussian spectral amplitudes given as (mu, sigma, tau).

    psi(w) = (2 pi sigma^2)^(-1/4) exp(-(w - mu)^2 / (4 sigma^2) + i w tau).
    """
    (mu_a, s_a, t_a), (mu_b, s_b, t_b) = a, b
    var = s_a**2 + s_b**2
    envelope = math.sqrt(2.0 * s_a * s_b / var) * math.exp(-((mu_a - mu_b) ** 2) / (4.0 * var))
    center = (mu_a * s_b**2 + mu_b * s_a**2) / var
    dt = t_b - t_a
    return complex(envelope * np.exp(1j * dt * center - dt**2 * s_a**2 * s_b**2 / var))


def gram(photons) -> np.ndarray:
    """Gram matrix of pure Gaussian photons, G[j, k] = <photon j | photon k>."""
    n = len(photons)
    g = np.eye(n, dtype=np.complex128)
    for j in range(n):
        for k in range(j + 1, n):
            g[j, k] = gaussian_overlap(photons[j], photons[k])
            g[k, j] = np.conj(g[j, k])
    return g


def low_rank_factor(g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Some n x r matrix L with L L^dag = g, r = numerical rank of g."""
    w, v = np.linalg.eigh(g)
    keep = w > tol
    return v[:, keep] * np.sqrt(w[keep])


def _rows(counts) -> list[int]:
    return [p for p, c in enumerate(counts) for _ in range(c)]


def _factorials(counts) -> int:
    return math.prod(math.factorial(c) for c in counts)


def _tau_sum(u, g, inputs, signature) -> float:
    n = len(inputs)
    b = u[np.ix_(_rows(signature), [x - 1 for x in inputs])]
    perms = np.array(list(itertools.permutations(range(n))))
    weights = np.prod(g[np.arange(n)[None, :], perms], axis=1)
    keep = weights != 0
    stack = b[None, :, :] * np.conj(b[:, perms[keep]]).transpose(1, 0, 2)
    total = np.sum(weights[keep] * permanents(stack))
    return float(total.real) / _factorials(signature)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _splits(signature, parts: int):
    per_mode = [list(_compositions(c, parts)) for c in signature]
    for choice in itertools.product(*per_mode):
        yield tuple(tuple(choice[k][i] for k in range(len(signature))) for i in range(parts))


def _joint_rows(u, lam, inputs, outcome) -> np.ndarray:
    cols = u[:, [x - 1 for x in inputs]]
    rows = [cols[k] * lam[:, i] for i, part in enumerate(outcome) for k in _rows(part)]
    return np.array(rows, dtype=np.complex128)


def _split_sum(u, lam, inputs, signature) -> float:
    outcomes = list(_splits(signature, lam.shape[1]))
    stack = np.array([_joint_rows(u, lam, inputs, o) for o in outcomes])
    norms = np.array([_factorials(c for part in o for c in part) for o in outcomes], dtype=float)
    return float(np.sum(np.abs(permanents(stack)) ** 2 / norms))


def probability_nonresolved(u, photons, inputs, signature) -> float:
    """P(signature) for pure Gaussian photons entering the given 1-based modes."""
    g = gram(photons)
    lam = low_rank_factor(g)
    n, rank = lam.shape
    splits = math.prod(math.comb(c + rank - 1, rank - 1) for c in signature)
    if math.factorial(n) <= splits:
        return _tau_sum(u, g, inputs, signature)
    return _split_sum(u, lam, inputs, signature)


def probability_mixed(u, photons, inputs, signature) -> float:
    """P(signature) when photons are lists of (weight, (mu, sigma, tau)) components."""
    total = 0.0
    for combo in itertools.product(*photons):
        weight = math.prod(w for w, _ in combo)
        total += weight * probability_nonresolved(u, [spec for _, spec in combo], inputs, signature)
    return total


def probability_resolved(u, photons, inputs, outcome) -> float:
    """P(resolved outcome) in the Cholesky basis of full-rank pure photons."""
    lam = np.linalg.cholesky(gram(photons))
    rows = _joint_rows(u, lam, inputs, outcome)
    norm = _factorials(c for part in outcome for c in part)
    return abs(permanent(rows)) ** 2 / norm
