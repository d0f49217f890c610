"""Blind-detector probabilities by the pair sum, one Glynn permanent per sign vector.

Non-resolving detectors see P(M), the sum of |Per(A_S)|^2 / prod S_vec!
over every split S_vec of the signature M between the basis functions
(sampling). Glynn's formula for both permutations of |Per(A_S)|^2, with
the splits summed by the multinomial theorem, is the pair sum over
Glynn's sign vectors (delta_0 = eps_0 = +1), the tensor permanent of
Shchesnovich (PRA 91, 013844) and Tichy (PRA 91, 022316). It reads the
photons only through their Gram matrix G, never a basis. For fixed eps
its delta sum is Glynn's formula for one permanent, so

    P(M) = 2^(1-n) / prod M! sum_eps (prod eps) Per(A_eps(M)),
    A_eps[k, j] = sum_l eps_l G_k[j, l],
    G_k[j, l] = U[k, T_j] conj(U[k, T_l]) G[j, l],

with row k of A_eps repeated M_k times: 2^(n-1) permanents of size n,
n 4^(n-1) multiply-adds whatever the basis size r.

The rows A_eps[k, :] of a call's occupied modes are built STACK_SIZE
sign vectors at a time, and every (signature, eps) pair is one index
row into them for the shared kernel (permanent._permanents), at most
STACK_SIZE rows a call. A signature's terms and their moduli are summed
by math.fsum, so its P(M) and kappa do not depend on the other
signatures of the call, and a single query equals its sweep value bit
for bit.
"""

import math

import numpy as np

from .permanent import STACK_SIZE, _count_rows, _permanents, _sign_block


def _pair_sums(cols: np.ndarray, gram: np.ndarray, sigs: np.ndarray) -> tuple[list[float], list[float]]:
    """P(M) by the pair sum and its kappa, for each row M of an (outcomes x m) signature array.

    cols is U[:, T], the m x n input columns of the unitary, and gram the
    photons' n x n Gram matrix G. The terms are Glynn's (delta, eps)
    terms: 2^(n-1) (prod eps) Per(A_eps(M)) sums them over delta, and
    2^(n-1) times the kernel's moduli sums their moduli. kappa is the sum
    of their moduli over |their sum|, inf for an exact zero.
    """
    n = cols.shape[1]
    half = 1 << (n - 1)
    size = min(half, STACK_SIZE)
    eps, signs = _sign_block(n - 1)
    modes = np.flatnonzero(sigs.any(axis=0))
    count = len(modes)
    # Row s: signature s's modes, as positions in modes, each repeated M_k times.
    picks = _count_rows(sigs[:, modes])
    u = cols[modes]
    gk = u[:, :, None] * u.conj()[:, None, :] * gram
    terms, moduli = np.empty((len(sigs), half)), np.empty((len(sigs), half))
    # A kernel call takes group whole signatures, size rows each.
    group, offsets = STACK_SIZE // size, count * np.arange(size)[:, None]
    for first in range(0, half, size):
        block = slice(first, first + size)
        # Row e * count + k is A_eps[k, :] for the block's sign vector e.
        a = (gk[:, :, :1] + gk[:, :, 1:] @ eps[:, block]).transpose(2, 0, 1).reshape(-1, n)
        for start in range(0, len(sigs), group):
            part = slice(start, start + group)
            per, modulus = _permanents((picks[part, None] + offsets).reshape(-1, n), a, moduli=True)
            terms[part, block], moduli[part, block] = per.real.reshape(-1, size), modulus.reshape(-1, size)
    terms *= signs.real
    totals = [math.fsum(row) for row in terms.tolist()]
    return ([math.ldexp(t, 1 - n) / math.prod(map(math.factorial, sig)) for t, sig in zip(totals, sigs.tolist())],
            [math.fsum(row) / abs(t) if t else math.inf for t, row in zip(totals, moduli.tolist())])
