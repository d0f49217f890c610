import math
import tracemalloc

import numpy as np
import pytest

from bosonspectra import (
    CapacityError,
    DimensionError,
    permanent_naive,
    permanent_ryser,
    permanent_stack,
)
from bosonspectra.permanent import BLOCK_BITS, _stack_chunk


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
    # cap is configurable
    assert permanent_ryser(np.eye(4), cap=4) == pytest.approx(1.0)
    with pytest.raises(CapacityError):
        permanent_ryser(np.eye(5), cap=4)


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


@pytest.mark.parametrize("k", range(1, 10))
def test_stack_across_chunk_boundary(rng, k):
    # One more matrix than a chunk holds, so the last one lands in a second chunk.
    batch = _stack_chunk(k) + 1 if k > 3 else 5
    stack = _random_complex(rng, batch, k, k)
    got = permanent_stack(stack)
    assert got.shape == (batch,)
    naive = permanent_naive(stack[-1])
    assert abs(got[-1] - naive) <= 1e-10 * abs(naive)
    singles = np.array([permanent_ryser(a) for a in stack])
    assert np.max(np.abs(got - singles) / np.abs(singles)) <= 1e-12


def test_stack_edge_shapes():
    assert permanent_stack(np.zeros((0, 4, 4))).shape == (0,)
    assert np.array_equal(permanent_stack(np.zeros((3, 0, 0))), np.ones(3))
    assert np.array_equal(permanent_stack([np.ones((4, 4))] * 2), [24.0, 24.0])
    with pytest.raises(DimensionError):
        permanent_stack(np.ones((4, 4)))
    with pytest.raises(DimensionError):
        permanent_stack(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        permanent_stack([[[np.inf]]])
    with pytest.raises(CapacityError):
        permanent_stack(np.ones((1, 31, 31)))


def test_stack_does_not_alias_input(rng):
    stack = _random_complex(rng, 3, 1, 1)
    got = permanent_stack(stack)
    stack[:] = 0.0
    assert np.all(got != 0.0)
