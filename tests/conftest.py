import math

import numpy as np
import pytest

from bosonspectra import LambdaMatrix

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run, no per-example deadline (the first call
    # of a size warms caches), and a bounded count to keep tier-1 fast.
    settings.register_profile(
        "bosonspectra", derandomize=True, deadline=None, max_examples=40, database=None
    )
    settings.load_profile("bosonspectra")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def hom_lambda(alpha: float) -> LambdaMatrix:
    """The two-photon coefficient matrix [[1, 0], [alpha, sqrt(1 - alpha^2)]]."""
    return LambdaMatrix([[1.0, 0.0], [alpha, math.sqrt(max(1.0 - alpha**2, 0.0))]])


def random_unit_rows(rng, n: int, nb: int) -> LambdaMatrix:
    """Random coefficient matrix with unit-norm rows (generic dense photons)."""
    m = rng.standard_normal((n, nb)) + 1j * rng.standard_normal((n, nb))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    return LambdaMatrix(m)
