import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import exact_reference as ex
from bosonspectra import (
    CapacityError,
    DimensionError,
    permanent_naive,
    permanent_ryser,
)
from bosonspectra.permanent import BLOCK_BITS, _permanents, _sign_block, _stack_chunk


def test_1x1_is_the_entry():
    z = 0.3 - 1.7j
    assert permanent_ryser([[z]]) == pytest.approx(z)
    assert permanent_naive([[z]]) == pytest.approx(z)


def test_2x2_definition():
    a, b, c, d = 1 + 1j, 2.0, -0.5j, 3 - 2j
    assert permanent_naive([[a, b], [c, d]]) == pytest.approx(a * d + b * c)
    assert permanent_ryser([[a, b], [c, d]]) == pytest.approx(a * d + b * c)


def test_hadamard_permanent_is_zero():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert abs(permanent_ryser(h)) < 1e-15


def test_identity_3x3():
    assert permanent_ryser(np.eye(3)) == pytest.approx(1.0)


def test_all_ones_3x3_counts_permutations():
    # 3! = 6 permutations, each contributing 1.
    assert permanent_ryser(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent_naive(np.ones((3, 3))) == pytest.approx(6.0)


def test_empty_matrix_is_one():
    assert permanent_ryser(np.zeros((0, 0))) == 1.0
    assert permanent_naive(np.zeros((0, 0))) == 1.0


def test_ryser_matches_naive_on_random_6x6(rng):
    for _ in range(100):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = permanent_ryser(a)
        n = permanent_naive(a)
        assert abs(r - n) <= 1e-10 * abs(n)


@pytest.mark.parametrize("k", range(1, 9))
def test_ryser_matches_naive_all_sizes(rng, k):
    for _ in range(10):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        r = permanent_ryser(a)
        n = permanent_naive(a)
        assert abs(r - n) <= 1e-10 * (1.0 + abs(n))


def test_permutation_invariance(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p = np.eye(5)[rng.permutation(5)]
    q = np.eye(5)[rng.permutation(5)]
    assert permanent_ryser(p @ a @ q) == pytest.approx(permanent_ryser(a))


def test_scaling_law(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = 2.0 + 1.0j
    assert permanent_ryser(c * a) == pytest.approx(c**4 * permanent_ryser(a))


def test_zero_row_gives_zero(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[2, :] = 0.0
    assert permanent_ryser(a) == 0.0
    assert permanent_naive(a) == 0.0


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        permanent_ryser(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        permanent_naive(np.ones((3, 1)))


def test_non_finite_rejected():
    with pytest.raises(DimensionError):
        permanent_ryser([[np.nan, 0.0], [0.0, 1.0]])


def test_dimension_caps():
    with pytest.raises(CapacityError):
        permanent_ryser(np.eye(31))
    with pytest.raises(CapacityError):
        permanent_naive(np.eye(11))


@pytest.mark.parametrize("k", range(1, 11))
def test_all_ones_is_factorial_exactly(k):
    assert permanent_ryser(np.ones((k, k))) == math.factorial(k)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("k", [BLOCK_BITS + 1, BLOCK_BITS + 2, 16])
def test_rank_one_closed_form(rng, k):
    # Per(u v^T) = k! prod(u) prod(v): every permutation contributes the same term.
    u = _random_complex(rng, k)
    v = _random_complex(rng, k)
    expected = math.factorial(k) * np.prod(u) * np.prod(v)
    assert abs(permanent_ryser(np.outer(u, v)) - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("k", [BLOCK_BITS + 1, BLOCK_BITS + 2, 16])
def test_block_diagonal_is_product_of_blocks(rng, k):
    sizes = [k // 2, k - k // 2]
    blocks = [_random_complex(rng, d, d) for d in sizes]
    expected = np.prod([permanent_naive(b) for b in blocks])
    a = np.zeros((k, k), dtype=np.complex128)
    a[: sizes[0], : sizes[0]] = blocks[0]
    a[sizes[0] :, sizes[0] :] = blocks[1]
    # Mix rows and columns so the blocks straddle the low and high sign columns.
    a = a[rng.permutation(k)][:, rng.permutation(k)]
    assert abs(permanent_ryser(a) - expected) <= 1e-10 * abs(expected)


def test_block_memory_is_bounded(rng):
    a = _random_complex(rng, 18, 18)
    tracemalloc.start()
    try:
        permanent_ryser(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def _distinct_rows(rng, batch, k):
    """A joint of batch * k random rows and the index array giving outcome o rows o*k .. o*k + k - 1."""
    return np.arange(batch * k).reshape(batch, k), _random_complex(rng, batch * k, k)


@pytest.mark.parametrize("k", range(1, 10))
def test_stack_across_chunk_boundary(rng, k):
    # One more outcome than a chunk holds, so the last one lands in a second chunk.
    batch = _stack_chunk(k) + 1 if k > 3 else 5
    rows, joint = _distinct_rows(rng, batch, k)
    got = _permanents(rows, joint)
    assert got.shape == (batch,)
    naive = permanent_naive(joint[rows[-1]])
    assert abs(got[-1] - naive) <= 1e-10 * abs(naive)
    assert got.tolist() == [permanent_ryser(joint[r]) for r in rows]


@pytest.mark.parametrize("k", range(1, 9))
def test_rows_shared_between_and_repeated_within_outcomes(rng, k):
    # Five joint rows for 2 * chunk + 1 outcomes: outcomes share rows and
    # repeat them, and the last one sits alone in a third chunk.
    joint = _random_complex(rng, 5, k)
    rows = rng.integers(0, 5, size=(2 * _stack_chunk(k) + 1, k))
    got = _permanents(rows, joint)
    for pos in (0, -1):
        naive = permanent_naive(joint[rows[pos]])
        assert abs(got[pos] - naive) <= 1e-10 * (1.0 + abs(naive))
    assert got.tolist() == [permanent_ryser(joint[r]) for r in rows]


@pytest.mark.parametrize("k", range(1, 13))
def test_outcome_keeps_its_bits_anywhere_in_a_chunk(rng, k):
    # The same outcome alone, and first, in the middle or last among other
    # outcomes of one chunk, over a joint of k // 2 rows (rows repeat; one
    # row at k = 1) and one of 3 k, its permanent and its moduli. Equality
    # rests on the BLAS property that the permanent module docstring names:
    # each output row rounded on its own.
    step = _stack_chunk(k)
    for width in (max(1, k // 2), 3 * k):
        joint = _random_complex(rng, width, k)
        rows = rng.integers(0, width, size=(step, k))
        target = rows[0].copy()
        alone = tuple(out[0] for out in _permanents(target[None], joint, moduli=True))
        assert alone[0] == permanent_ryser(joint[target])
        for pos in {0, step // 2, step - 1}:
            rows[pos] = target
            assert tuple(out[pos] for out in _permanents(rows, joint, moduli=True)) == alone, (width, pos)
            rows[pos] = rng.integers(0, width, size=k)


@pytest.mark.parametrize("k", range(1, 9))
def test_moduli_are_the_sum_of_the_terms_moduli(rng, k):
    # Glynn's terms 2^(1-k) |prod_i sum_j delta_j a[i, j]|, over outcomes
    # that share and repeat rows.
    joint = _random_complex(rng, 5, k)
    rows = rng.integers(0, 5, size=(2 * _stack_chunk(k) + 1, k))
    values, moduli = _permanents(rows, joint, moduli=True)
    assert np.array_equal(values, _permanents(rows, joint))
    deltas = [np.array((1,) + d) for d in itertools.product((1, -1), repeat=k - 1)]
    for pos in (0, len(rows) // 2, -1):
        a = joint[rows[pos]]
        terms = [abs(np.prod(a @ d)) / 2 ** (k - 1) for d in deltas]
        assert moduli[pos] == pytest.approx(math.fsum(terms), rel=1e-13), pos


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy only prints its config
        return "numpy's BLAS"
    return f"numpy's BLAS ({blas.get('name')} {blas.get('version')})"


@pytest.mark.parametrize("k", [4, 6, 8, 13])
def test_blas_rounds_each_product_row_on_its_own(rng, k):
    # The property the bit-for-bit tests above rest on, checked on the
    # kernel's own two products and shapes: the chunk's rows against the
    # b x 2^b sign block, and the row products against the signs, a lone
    # outcome beside a zero row. A row must round the same whatever the row
    # count and its position. If not, the BLAS build is at fault, not the kernel.
    b = min(BLOCK_BITS, k - 1)
    deltas, signs = _sign_block(b)
    step = _stack_chunk(k)
    rows = _random_complex(rng, step * k, k)[:, 1 : b + 1]
    sums = rows @ deltas
    prods = np.zeros((max(step, 2), 1 << b), dtype=np.complex128)
    prods[:step] = _random_complex(rng, step, 1 << b)
    totals = prods @ signs
    for batch in sorted({1, 2, 3, step // 2, step} & set(range(1, step + 1))):
        for start in range(step - batch + 1):
            part = slice(start * k, (start + batch) * k)
            assert np.array_equal(rows[part] @ deltas, sums[part]), (
                f"{_blas()} rounds rows of a {batch * k} x {b} by {b} x {1 << b} product apart from the "
                f"same rows among {step * k} (offset {start * k}); the kernel's chunk-independence needs it not to")
            padded = np.zeros((max(batch, 2), 1 << b), dtype=np.complex128)
            padded[:batch] = prods[start : start + batch]
            assert np.array_equal((padded @ signs)[:batch], totals[start : start + batch]), (
                f"{_blas()} rounds rows of a {len(padded)} x {1 << b} by {1 << b} product apart from the "
                f"same rows among {len(prods)} (offset {start}); the kernel's chunk-independence needs it not to")


def _rational_rows(rnd, count, k):
    return [
        [(Fraction(rnd.randint(-9, 9), rnd.randint(1, 8)), Fraction(rnd.randint(-9, 9), rnd.randint(1, 8)))
         for _ in range(k)]
        for _ in range(count)
    ]


def _as_floats(rows):
    return np.array([[ex.to_complex(z) for z in row] for row in rows])


def _relative_error(got: complex, want) -> float:
    diff = (Fraction(got.real) - want[0]) ** 2 + (Fraction(got.imag) - want[1]) ** 2
    return math.sqrt(diff / ex.abs2(want))


# Worst relative errors measured against the exact Ryser sum over the cases
# below: 1.04e-14 for dense matrices, 5.2e-15 for shared, repeated rows.
EXACT_RTOL = 1.5e-14


@pytest.mark.parametrize("k", [10, 11, 12])
def test_gray_walk_matches_exact_ryser(k):
    # k >= 10 runs the Gray-code walk over the high sign columns. Entries
    # are rationals, so every error includes rounding them to doubles.
    rnd = random.Random(k)
    for _ in range(2):
        dense = _rational_rows(rnd, k, k)
        assert _relative_error(permanent_ryser(_as_floats(dense)), ex.ryser_permanent(dense)) <= EXACT_RTOL
    # k - 3 joint rows for three outcomes: rows shared and repeated.
    joint = _rational_rows(rnd, k - 3, k)
    rows = np.array([[rnd.randrange(k - 3) for _ in range(k)] for _ in range(3)])
    got = _permanents(rows, _as_floats(joint))
    for value, r in zip(got.tolist(), rows.tolist()):
        assert _relative_error(value, ex.ryser_permanent([joint[i] for i in r])) <= EXACT_RTOL


def test_stack_edge_shapes():
    assert _permanents(np.zeros((0, 4), dtype=int), np.ones((4, 4))).shape == (0,)
    assert np.array_equal(_permanents(np.zeros((3, 0), dtype=int), np.zeros((0, 0))), np.ones(3))
    assert np.array_equal(_permanents(np.tile(np.arange(4), (2, 1)), np.ones((4, 4))), [24.0, 24.0])
    # Glynn's terms for ones(4): |sum delta|^4 / 8 over the eight delta, 320 / 8.
    assert np.array_equal(_permanents(np.tile(np.arange(4), (2, 1)), np.ones((4, 4)), moduli=True),
                          [[24.0, 24.0], [40.0, 40.0]])
    with pytest.raises(DimensionError):
        permanent_ryser([[np.inf]])
    with pytest.raises(CapacityError):
        _permanents(np.zeros((1, 31), dtype=int), np.ones((1, 31)))


def test_stack_does_not_alias_input(rng):
    for k in (1, 4):  # an empty and a three-column sign block
        rows, joint = _distinct_rows(rng, 3, k)
        got = _permanents(rows, joint, moduli=True)
        joint[:] = 0.0
        assert all(np.all(out != 0.0) for out in got)
