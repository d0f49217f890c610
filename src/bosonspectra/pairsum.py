"""Blind-detector probabilities by the pair sum over per-mode tables.

Non-resolving detectors see P(M), the sum of |Per(A_S)|^2 / prod S_vec!
over every split S_vec of the signature M between the basis functions
(sampling). Glynn's formula for both permutations of |Per(A_S)|^2, with
the splits summed by the multinomial theorem, gives

    P(M) = 4^(1-n) / prod M! sum_{delta, eps} (prod delta)(prod eps) prod_k D_k[delta, eps]^M_k,
    D_k[delta, eps] = sum_i x_k(delta)_i conj(x_k(eps)_i),
    x_k(delta)_i = sum_j delta_j U[k, T_j] lambda[j, i],

over Glynn's 2^(n-1) sign vectors (delta_0 = +1): the tensor permanent
of Shchesnovich (PRA 91, 013844) and Tichy (PRA 91, 022316) in
n r 4^(n-1) multiply-adds.

The tables D_k do not depend on the signature, so the signatures of one
call share them and their powers. They are built a block of delta at a
time, one complex matmul per mode of at most 2^15 multiply-adds (below
OpenBLAS's threading size), and a block holds at most _PAIR_BLOCK pairs
(delta, eps), so memory stays bounded whatever n is. Each signature then
gathers one power per mode, multiplies them in mode order on real and
imaginary parts (np.multiply and np.subtract round as Python's complex
product does, numpy's complex * may not), and sums its terms along its
own row. A signature's sums thus do not depend on the other signatures
of the call, so a single query equals its sweep value bit for bit.
"""

import numpy as np

from .permanent import _sign_block

# Pairs (delta, eps) per block of the tables, and table entries per product
# pass over a batch of signatures: temporaries stay near 1 MB whatever n is.
_PAIR_BLOCK = 1 << 12
_PAIR_PASS = 1 << 16


def _pair_sums(joint: np.ndarray, r: int, sigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sum of the pair sum's terms and the sum of their moduli, for each row of an (outcomes x m) signature array.

    joint is sampling's joint matrix, row i * m + k equal to
    U[k, T_j] lambda[j, i] in column j; term (delta, eps) is
    (prod delta)(prod eps) prod_k D_k[delta, eps]^M_k.
    """
    n = joint.shape[1]
    half = 1 << (n - 1)
    deltas, signs = _sign_block(n - 1)
    modes = np.flatnonzero(sigs.any(axis=0))
    counts = sigs[:, modes]
    powers = counts.max() + 1
    # Row j * powers + p of a block's power tables is D_(modes[j]) ** p.
    picks = counts + np.arange(len(modes)) * powers
    # x[j, i, delta] = x_k(delta)_i for k = modes[j].
    cols = joint.reshape(r, -1, n)[:, modes].transpose(1, 0, 2)
    x = np.repeat(cols[:, :, :1], half, axis=2)
    for a in range(1, n):
        x += cols[:, :, a : a + 1] * deltas[a - 1]
    xt, xc = x.transpose(0, 2, 1).copy(), x.conj()
    block = max(1, min(_PAIR_BLOCK, (1 << 15) // r) // half)
    batch = max(1, _PAIR_PASS // (block * half))
    totals, abs_sums = np.zeros(len(sigs)), np.zeros(len(sigs))
    for start in range(0, half, block):
        rows = slice(start, min(start + block, half))
        size = (rows.stop - start) * half
        table = np.matmul(xt[:, rows], xc).reshape(-1, size)
        pr = np.empty((len(modes), powers, size))
        pi = np.empty((len(modes), powers, size))
        pr[:, 0], pi[:, 0] = 1.0, 0.0
        pr[:, 1], pi[:, 1] = table.real, table.imag
        for p in range(2, powers):
            pr[:, p] = np.subtract(np.multiply(pr[:, p - 1], pr[:, 1]), np.multiply(pi[:, p - 1], pi[:, 1]))
            pi[:, p] = np.add(np.multiply(pr[:, p - 1], pi[:, 1]), np.multiply(pi[:, p - 1], pr[:, 1]))
        pr, pi = pr.reshape(-1, size), pi.reshape(-1, size)
        # Each term starts as its sign, (prod delta)(prod eps), an exact +-1.
        sign_row = np.multiply(signs.real[rows, None], signs.real[None, :]).reshape(1, size)
        for first in range(0, len(sigs), batch):
            picked = picks[first : first + batch]
            tr, ti = np.repeat(sign_row, len(picked), axis=0), np.zeros((len(picked), size))
            for j in np.flatnonzero(counts[first : first + batch].any(axis=0)):
                gr, gi = pr.take(picked[:, j], axis=0), pi.take(picked[:, j], axis=0)
                tr, ti = (np.subtract(np.multiply(tr, gr), np.multiply(ti, gi)),
                          np.add(np.multiply(tr, gi), np.multiply(ti, gr)))
            # Row sums, not a product with a ones vector: BLAS may thread a
            # GEMV over a few thousand entries, and round by row count.
            totals[first : first + batch] += tr.sum(axis=1)
            abs_sums[first : first + batch] += np.hypot(tr, ti).sum(axis=1)
    return totals, abs_sums
