"""Property tests over small random experiments (n <= 4 photons, m <= 5 modes), and the writer's 15-digit column.

Examples come from the derandomized profile registered in conftest.py,
so every run checks the same experiments.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from bosonspectra import (
    LambdaMatrix,
    distribution_nonresolved,
    distribution_resolved,
    make_random_unitary,
    probability_distinguishable_fast,
    probability_indistinguishable_fast,
    verify_against_oracle,
)
from bosonspectra.document import _sig15, _sig15_column
from conftest import SIG15_EDGES


@st.composite
def experiments(draw):
    """(network, lambda, inputs) with generic, partly identical or orthogonal photons."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, 5))
    kind = draw(st.sampled_from(["generic", "repeated", "orthogonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "orthogonal":
        lam = np.eye(n)
    else:
        r = draw(st.integers(1, 3))
        lam = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        if kind == "repeated":
            # each photon may copy its predecessor: rank below n, zero-free Gram blocks
            for j in range(1, n):
                if draw(st.booleans()):
                    lam[j] = lam[j - 1]
        lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    inputs = tuple(draw(st.permutations(range(1, m + 1)))[:n])
    return make_random_unitary(m, draw(st.integers(0, 2**32 - 1))), LambdaMatrix(lam), inputs


@given(experiments(), st.sampled_from(["nonresolved", "resolved"]))
def test_engine_agrees_with_oracle(experiment, detector):
    u, lam, inputs = experiment
    _, max_dev = verify_against_oracle(u, lam, inputs, detector)
    assert max_dev <= 1e-9


@given(experiments())
def test_distributions_normalized(experiment):
    u, lam, inputs = experiment
    assert abs(sum(distribution_nonresolved(u, lam, inputs).values()) - 1.0) <= 1e-9
    assert abs(sum(distribution_resolved(u, lam, inputs).values()) - 1.0) <= 1e-9


@given(experiments(), st.data())
def test_relabelling_photons_leaves_blind_distribution(experiment, data):
    u, lam, inputs = experiment
    order = data.draw(st.permutations(range(lam.n)))
    relabelled = LambdaMatrix(lam.matrix[list(order)])
    permuted_inputs = tuple(inputs[j] for j in order)
    before = distribution_nonresolved(u, lam, inputs)
    after = distribution_nonresolved(u, relabelled, permuted_inputs)
    assert list(after) == list(before)
    assert max(abs(after[sig] - before[sig]) for sig in before) <= 1e-12


def input_occupation(u, inputs) -> tuple[int, ...]:
    return tuple(int(mode in inputs) for mode in range(1, u.m + 1))


@given(experiments())
def test_orthogonal_photons_give_distinguishable_limit(experiment):
    # G = I; the drawn lambda is replaced, only the network and inputs are used.
    u, lam, inputs = experiment
    blind = distribution_nonresolved(u, LambdaMatrix(np.eye(lam.n)), inputs)
    for sig, p in blind.items():
        if max(sig) <= 1:
            expected = probability_distinguishable_fast(u, sig, input_occupation(u, inputs))
            assert abs(p - expected) <= 1e-12


@given(experiments())
def test_identical_photons_give_indistinguishable_limit(experiment):
    # G = all-ones; the drawn lambda is replaced, only the network and inputs are used.
    u, lam, inputs = experiment
    blind = distribution_nonresolved(u, LambdaMatrix(np.ones((lam.n, 1))), inputs)
    for sig, p in blind.items():
        expected = probability_indistinguishable_fast(u, sig, input_occupation(u, inputs))
        assert abs(p - expected) <= 1e-12


@given(st.lists(st.one_of(
    st.floats(-1e308, 1e308),
    st.floats(0.0, 1.0),
    st.sampled_from([x for x in SIG15_EDGES if math.isfinite(_sig15(x))]),
), min_size=1))
def test_sig15_column_is_repr_of_sig15(values):
    assert _sig15_column(values) == (["", ""], [[float.__repr__(_sig15(x)) for x in values]])
