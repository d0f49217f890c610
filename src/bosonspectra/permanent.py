"""Exact permanents of complex square matrices.

The permanent is the numerical kernel behind every interferometer
amplitude in this package. Two independent routes are provided:

* :func:`permanent_stack` and :func:`permanent_ryser` -- the production
  path, for a (batch, k, k) stack of matrices and for one matrix (a
  stack of one). Despite its historical name, permanent_ryser evaluates
  Glynn's formula (Glynn, Eur. J. Combin. 31 (2010) 1887), which
  cancels less than Ryser's, in numpy:

      Per(A) = 2^(1-k) sum_{delta in {+1,-1}^k, delta_0 = +1}
               (prod_j delta_j) prod_i sum_j delta_j A[i, j].

  The 2^b sign patterns over the low b <= BLOCK_BITS free columns are a
  cached table, so one matmul gives a whole block of row sums for every
  matrix of a chunk of the stack. A Python loop walks the 2^(k-1-b)
  patterns of the high columns in Gray-code order; each adds one shift
  column to the block, then takes the row products and their signed
  sum. A chunk holds at most STACK_ELEMENTS block entries, so working
  memory is bounded whatever the batch and k (two k x 2^b blocks, 80 kB
  each, at k = 20). k <= 3 uses closed forms in Python scalars, one
  matrix at a time, so a stack gives bit for bit what its matrices give
  alone. Measured on a 2-core Xeon VM (Python 3.11, numpy 2.4), one
  matrix per call takes 7-9 us for k <= 3, 45-60 us for k = 4..8, 0.5 ms
  at k = 13, 3.2 ms at k = 16, 14 ms at k = 18 and 60 ms at k = 20; in a
  stack of 256 a matrix takes 1.5 us at k = 3, 0.7 us at k = 4, 3 us at
  k = 6 and 13 us at k = 8.
* :func:`permanent_naive` -- direct sum over all k! permutations. Kept
  deliberately simple so it can serve as an oracle for the fast path.

Both define the permanent of the empty (0x0) matrix as 1, which makes
products over empty spectral modes well-defined downstream.
"""

from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import CapacityError, DimensionError

# 2^29 sign vectors is the practical desk-scale ceiling; refuse anything larger.
RYSER_DIMENSION_CAP = 30
NAIVE_DIMENSION_CAP = 10

# Sign vectors per block: 2^8 keep peak memory flat. Larger blocks save
# loop turns but cost resident memory: on a 16-photon job, peak RSS grows
# by 0.6 % with 2^8, 1.7 % with 2^10, 11 % with 2^12 and 40 % with 2^14.
BLOCK_BITS = 8

# Block entries per chunk of a stack. A chunk's first matmul then needs at
# most 2^13 * BLOCK_BITS = 2^16 multiply-adds, the size up to which
# OpenBLAS stays on one thread: on a 2-core VM, threaded complex matmuls
# just above it took 16 ms instead of 20 us in about half the calls.
STACK_ELEMENTS = 1 << 13


def _as_square(matrix, ndim: int = 2) -> np.ndarray:
    """matrix as complex128 with ndim axes, the last two of equal length."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        shape = "a square matrix" if ndim == 2 else "a (batch, k, k) stack"
        raise DimensionError(f"permanent needs {shape}, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite (no NaN/Inf)")
    return a


@lru_cache(maxsize=None)
def _sign_block(b: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^b sign vectors over b columns, as the columns of a b x 2^b
    matrix, and the product of each vector's signs."""
    bits = (np.arange(1 << b) >> np.arange(b)[:, None]) & 1
    deltas = (1.0 - 2.0 * bits).astype(np.complex128)
    signs = np.prod(deltas, axis=0)
    deltas.setflags(write=False)
    signs.setflags(write=False)
    return deltas, signs


def _stack_chunk(k: int) -> int:
    """Matrices per Glynn pass, so that a k x 2^b block per matrix stays
    within STACK_ELEMENTS entries."""
    b = min(BLOCK_BITS, k - 1)
    return max(1, STACK_ELEMENTS // (k << b))


def _small_permanent(a):
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        (p, q), (r, s) = a
        return p * s + q * r
    (p, q, r), (s, t, u), (v, w, x) = a
    return p * (t * x + u * w) + q * (s * x + u * v) + r * (s * w + t * v)


def _glynn(a: np.ndarray) -> np.ndarray:
    batch, k = a.shape[0], a.shape[1]
    b = min(BLOCK_BITS, k - 1)
    deltas, signs = _sign_block(b)
    high = a[:, :, b + 1 :]
    # Row sums of the block's sign vectors, column 0 and every high column
    # at +1, as one (batch * k) x 2^b matrix product: numpy's batched matmul
    # of many small matrices is far slower than one flat GEMM.
    base = (a[:, :, 1 : b + 1].reshape(batch * k, b) @ deltas).reshape(batch, k, 1 << b)
    base += (a[:, :, 0] + high.sum(axis=2))[:, :, None]
    flips = -2.0 * high  # adding column j turns the sign of high column j to -1
    shift = np.zeros((batch, k, 1), dtype=np.complex128)
    rows = np.empty_like(base)
    prods = np.empty((batch, 1 << b), dtype=np.complex128)
    total = np.zeros(batch, dtype=np.complex128)
    gray = 0
    for t in range(1 << (k - 1 - b)):
        if t:
            new_gray = t ^ (t >> 1)
            j = (new_gray ^ gray).bit_length() - 1
            if new_gray > gray:
                shift[:, :, 0] += flips[:, :, j]
            else:
                shift[:, :, 0] -= flips[:, :, j]
            gray = new_gray
        np.add(base, shift, out=rows)
        term = np.prod(rows, axis=1, out=prods) @ signs
        # One high sign flips per Gray-code step, so their product is (-1)^t.
        if t & 1:
            total -= term
        else:
            total += term
    return total / (1 << (k - 1))


def _permanents(a: np.ndarray, cap: int) -> np.ndarray:
    batch, k = a.shape[0], a.shape[1]
    if k > cap:
        raise CapacityError(f"permanent dimension {k} exceeds cap {cap} (2^{k - 1} sign vectors)")
    if k == 0:
        return np.ones(batch, dtype=np.complex128)
    if k <= 3:
        # One matrix at a time in Python scalars: cheaper than a numpy pass
        # for a single matrix, and a stack gives its matrices' values bit for bit.
        return np.array([_small_permanent(m) for m in a.tolist()], dtype=np.complex128)
    out = np.empty(batch, dtype=np.complex128)
    step = _stack_chunk(k)
    for start in range(0, batch, step):
        out[start : start + step] = _glynn(a[start : start + step])
    return out


def permanent_stack(stack) -> np.ndarray:
    """Permanents of a stack of same-size complex square matrices.

    Args:
        stack: array-like of shape (batch, k, k) with finite entries;
            k is capped at RYSER_DIMENSION_CAP, as for permanent_ryser.

    Returns:
        complex128 array of length batch; entry i is Per(stack[i]).
    """
    return _permanents(_as_square(stack, ndim=3), RYSER_DIMENSION_CAP)


def permanent_ryser(matrix, cap: int = RYSER_DIMENSION_CAP) -> complex:
    """Permanent of a complex square matrix via Glynn's formula.

    The name predates the switch from Ryser's formula and is kept for
    callers. Work is 2^(k-1) sign vectors in blocks of at most 2^BLOCK_BITS
    vectors, so memory stays bounded for every k up to the cap.

    Args:
        matrix: square array-like with finite complex entries.
        cap: hard dimension limit; above it a CapacityError is raised
            rather than silently starting a multi-hour sum.

    Returns:
        Per(matrix) as a Python complex. The 0x0 permanent is 1.
    """
    a = _as_square(matrix)
    if 0 < len(a) <= min(3, cap):
        return complex(_small_permanent(a.tolist()))  # skips the stack's array overhead
    return complex(_permanents(a[None], cap)[0])


def permanent_naive(matrix, cap: int = NAIVE_DIMENSION_CAP) -> complex:
    """Permanent by brute-force summation over all k! permutations.

    Oracle implementation: independent of the Glynn path, so agreement
    between the two is a meaningful check.
    """
    a = _as_square(matrix)
    k = a.shape[0]
    if k == 0:
        return complex(1.0)
    if k > cap:
        raise CapacityError(f"naive permanent dimension {k} exceeds cap {cap} ({k}! terms)")

    rows = range(k)
    total = 0.0 + 0.0j
    for perm in permutations(range(k)):
        term = 1.0 + 0.0j
        for i in rows:
            term *= a[i, perm[i]]
        total += term
    return complex(total)
