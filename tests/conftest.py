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


# Values whose 15 digits need care: the spelling boundaries of repr and
# %.15g (1e-4, 1e15, 1e16), rounding across them, subnormals, and values
# that round to infinity.
SIG15_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 2 / 3, 1e-4, 9.99999999999999e-5, 0.99999999999999994,
    1e-5, 1.5e-7, 123456.789, 999999999999999.4, 999999999999999.6, 1e15, 1234567890123456.0,
    9999999999999998.0, 1e16, 1.5e20, 1e22, 1e99, 1e100, 1e-99, 1e-100, 2.2250738585072014e-308,
    2.225073858507201e-308, 5e-324, 1e-320, 1.7976931348623157e308, 1.79769313486231e308,
    -1.2e-17, 0.30000000000000004, 1e-16, 3.0000000000000004e-20,
]


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e-300, float("nan"), float("inf"), -float("inf")]


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
