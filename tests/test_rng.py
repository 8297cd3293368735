import numpy as np
import pytest

from ttwsusy._rng import UniformStream
from ttwsusy.special_cases import random_polygauss

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 20260809, (1 << 101) + 977, 2**160 + 3)
# successive calls on one generator: int and tuple sizes, the suite's ranges
CALLS = (
    (0.5, 2.0, 40),
    (0.1, 0.9, 40),
    (-1.0, 1.0, (4, 4, 4)),
    (0.0, 2 * np.pi, 64),
    (-1.5, 1.5, 1),
    (-1.0, 1.0, (2, 3)),
    (0.4, 2.2, 0),
    (3, 7, (3,)),
)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_numpy_default_rng(seed):
    ours, ref = UniformStream(seed), np.random.default_rng(seed)
    for low, high, size in CALLS:
        got, want = ours.uniform(low, high, size), ref.uniform(low, high, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (seed, low, high, size)


def test_random_polygauss_takes_either_generator():
    ours = random_polygauss(UniformStream(11))
    ref = random_polygauss(np.random.default_rng(11))
    assert np.array_equal(ours.coeffs, ref.coeffs)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.0, TypeError)])
def test_rejects_a_seed_that_is_not_a_nonnegative_int(seed, error):
    with pytest.raises(error):
        UniformStream(seed)
