"""Exact permanents of complex square matrices.

The permanent is the numerical kernel behind every interferometer
amplitude in this package. Two independent routes are provided:

* :func:`permanent_ryser` -- the production path. It and every other
  permanent of the package go through the private kernel _permanents:
  Per(joint[rows[o]]) for each row o of an (outcomes x k) index array
  into one joint matrix. Despite its historical name, permanent_ryser
  evaluates Glynn's formula (Glynn, Eur. J. Combin. 31 (2010) 1887),
  which cancels less than Ryser's:

      Per(A) = 2^(1-k) sum_{delta in {+1,-1}^k, delta_0 = +1}
               (prod_j delta_j) prod_i sum_j delta_j A[i, j].

  The 2^b sign patterns over the low b <= BLOCK_BITS free columns are a
  cached table. A chunk of outcomes gathers its rows from the joint
  matrix once, and one matmul gives their row sums against the table. A
  Python loop walks the 2^(k-1-b) patterns of the high columns in
  Gray-code order; each adds one shift column to the block, then takes
  the row products and their signed sum, and, for the pair sum's
  accuracy guard on request, the sum of their moduli. A chunk holds at most
  STACK_ELEMENTS block entries, so memory is bounded whatever the
  outcome count and k (two k x 2^b blocks, 80 kB each, at k = 20).
  Every k >= 1 takes this one path; at k = 1 the block is empty.
  Measured on a 2-core Xeon VM (Python 3.11, numpy 2.4 with its OpenBLAS
  0.3.31; best of 7, the VM swings by up to 2x), one matrix per call
  takes 40-80 us for k = 1..8, 0.5 ms at k = 13, 4 ms at k = 16 and
  70 ms at k = 20; among 256 outcomes one takes 0.2 us at k = 1,
  0.5 us at k = 3, 1.5 us at k = 4 and 13 us at k = 8. An outcome gets
  the same bits alone as anywhere in a chunk: no BLAS call sees a single
  row (numpy hands a one-row product to a dot routine, which rounds
  apart; k = 1's row-sum product has inner dimension 0 and is all
  zeros), and that BLAS rounds each output row of a matrix product
  whatever the row count and position.
  Another BLAS build or CPU kernel may not, and then last bits move.
* :func:`permanent_naive` -- direct sum over all k! permutations. Kept
  deliberately simple so it can serve as an oracle for the fast path.

Both define the permanent of the empty (0x0) matrix as 1, which makes
products over empty spectral modes well-defined downstream.
"""

from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import CapacityError, DimensionError, _complex_array

# 2^29 sign vectors is the practical desk-scale ceiling; refuse anything larger.
RYSER_DIMENSION_CAP = 30
NAIVE_DIMENSION_CAP = 10

# Sign vectors per block: 2^8 keep peak memory flat. Larger blocks save
# loop turns but cost resident memory: on a 16-photon job, peak RSS grows
# by 0.6 % with 2^8, 1.7 % with 2^10, 11 % with 2^12 and 40 % with 2^14.
BLOCK_BITS = 8

# Block entries per chunk of outcomes. A chunk's first matmul then needs at
# most 2^13 * BLOCK_BITS = 2^16 multiply-adds, the size up to which
# OpenBLAS stays on one thread: on a 2-core VM, threaded complex matmuls
# just above it took 16 ms instead of 20 us in about half the calls.
STACK_ELEMENTS = 1 << 13

# Index rows per engine call of _permanents, and outcomes per sweep chunk:
# bounds working memory on sweeps over thousands of outcomes.
STACK_SIZE = 256


def _as_square(matrix) -> np.ndarray:
    """matrix as a finite complex128 square matrix."""
    a = _complex_array(matrix, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"permanent needs a square matrix, got shape {a.shape}")
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


def _count_rows(counts: np.ndarray) -> np.ndarray:
    """Index rows of an (outcomes x width) count matrix: column c repeated counts[o, c] times, ascending.

    Every row must hold the same total, the k of the kernel's index rows.
    """
    return np.repeat(np.arange(counts.size) % counts.shape[1], counts.ravel()).reshape(len(counts), -1)


def _stack_chunk(k: int) -> int:
    """Outcomes per Glynn pass: a k x 2^b block each, STACK_ELEMENTS entries at most."""
    b = min(BLOCK_BITS, k - 1)
    return max(1, STACK_ELEMENTS // (k << b))


def _glynn(rows: np.ndarray, joint: np.ndarray, moduli: bool) -> tuple[np.ndarray, np.ndarray]:
    batch, k = rows.shape
    b = min(BLOCK_BITS, k - 1)
    deltas, signs = _sign_block(b)
    # The chunk's rows, gathered once, and their row sums, column 0 and every
    # high column at +1: at most STACK_ELEMENTS * b multiply-adds, and k >= 2
    # rows an outcome wherever b > 0.
    a = joint.take(rows.ravel(), axis=0)
    high = a[:, b + 1 :]
    base = a[:, 1 : b + 1] @ deltas
    base += (a[:, 0] + high.sum(axis=1))[:, None]
    base, high = base.reshape(batch, k, -1), high.reshape(batch, k, -1)
    flips = -2.0 * high  # adding column j turns the sign of high column j to -1
    shift = np.zeros((batch, k, 1), dtype=np.complex128)
    prod_rows = np.empty_like(base)
    # Likewise a lone outcome's signed sum is reduced beside a zero row.
    prods = np.zeros((max(batch, 2), 1 << b), dtype=np.complex128)
    outcome_prods, modulus = prods[:batch], np.zeros(batch)
    total = np.zeros(len(prods), dtype=np.complex128)
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
        np.add(base, shift, out=prod_rows)
        np.prod(prod_rows, axis=1, out=outcome_prods)
        term = prods @ signs
        # One high sign flips per Gray-code step, so their product is (-1)^t.
        if t & 1:
            total -= term
        else:
            total += term
        if moduli:
            modulus += np.abs(outcome_prods).sum(axis=1)
    return total[:batch] / (1 << (k - 1)), modulus / (1 << (k - 1))


def _permanents(rows: np.ndarray, joint: np.ndarray, moduli: bool = False):
    """Per(joint[rows[o]]) for each row o of an (outcomes x k) index array.

    joint is a finite complex128 matrix with k columns; an outcome may
    take a row more than once, and outcomes may share rows. Outcomes go
    through Glynn's sum _stack_chunk(k) at a time, whatever k >= 1 is.
    With moduli, the pair (permanents, each one's sum of its terms'
    moduli) is returned: sum_delta 2^(1-k) |prod of row sums|, the terms
    the sum adds, so a caller's condition number is that of the sum it
    gets. An outcome's values do not depend on its chunk (given the BLAS
    property the module docstring names). rows comes first, at most
    STACK_SIZE long: perfbench's tracer adds 2^len(first
    argument) per call.
    """
    batch, k = rows.shape
    if k > RYSER_DIMENSION_CAP:
        raise CapacityError(f"permanent dimension {k} exceeds cap {RYSER_DIMENSION_CAP} (2^{k - 1} sign vectors)")
    out, sums = np.ones(batch, dtype=np.complex128), np.ones(batch)
    if k:
        step = _stack_chunk(k)
        # Entries near the float64 limit overflow inside the sum; the caller
        # sees the non-finite result, so numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, batch, step):
                chunk = slice(start, start + step)
                out[chunk], sums[chunk] = _glynn(rows[chunk], joint, moduli)
    return (out, sums) if moduli else out


def permanent_ryser(matrix) -> complex:
    """Per(matrix) of a square matrix with finite complex entries, as a Python complex.

    The name predates the switch from Ryser's formula to Glynn's and is
    kept for callers. The 0x0 permanent is 1. Above RYSER_DIMENSION_CAP a
    CapacityError is raised rather than silently starting a multi-hour sum.
    """
    a = _as_square(matrix)
    return complex(_permanents(np.arange(len(a))[None], a)[0])


def permanent_naive(matrix) -> complex:
    """Permanent by brute-force summation over all k! permutations.

    Oracle implementation: independent of the Glynn path, so agreement
    between the two is a meaningful check.
    """
    a = _as_square(matrix)
    k = a.shape[0]
    if k == 0:
        return complex(1.0)
    if k > NAIVE_DIMENSION_CAP:
        raise CapacityError(f"naive permanent dimension {k} exceeds cap {NAIVE_DIMENSION_CAP} ({k}! terms)")

    rows = range(k)
    total = 0.0 + 0.0j
    for perm in permutations(range(k)):
        term = 1.0 + 0.0j
        for i in rows:
            term *= a[i, perm[i]]
        total += term
    return complex(total)
