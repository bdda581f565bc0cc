import numpy as np
import pytest

from permharmonic.counting import CountedScalar, OpCounter
from permharmonic.transform import (
    build_plan,
    transform,
    transform_counted,
    transform_counted_scalarwise,
)


def test_counter_tallies_each_operation():
    counter = OpCounter()
    a, b = counter.wrap(3.0), counter.wrap(4.0)
    assert float(a + b) == 7.0
    assert float(a - b) == -1.0
    assert float(a * b) == 12.0
    assert (counter.mult, counter.add) == (1, 2)


def test_wrapping_is_free_and_unbilled_arithmetic_raises():
    # The kernels neither divide nor negate, so a counted scalar cannot: such
    # an operation slipped into a counted kernel raises instead of being billed.
    counter = OpCounter()
    a, b = counter.wrap(5.0), counter.wrap(2.0)
    counter.wrap(-a.value)
    for op in (lambda: -a, lambda: a / b):
        with pytest.raises(TypeError):
            op()
    assert (counter.mult, counter.add) == (0, 0)


def test_plain_numbers_are_rejected():
    counter = OpCounter()
    a = counter.wrap(1.0)
    for op in (lambda: a + 1.0, lambda: a - 1, lambda: a * 2.0, lambda: a / 2.0):
        with pytest.raises(TypeError):
            op()
    for op in (lambda: 1.0 + a, lambda: 1 - a, lambda: 2.0 * a, lambda: 2.0 / a):
        with pytest.raises(TypeError):
            op()


def test_foreign_counters_are_rejected():
    a = OpCounter().wrap(1.0)
    b = OpCounter().wrap(2.0)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_counts_are_exactly_2n_minus_2():
    for n in (2, 3, 5, 17, 256, 1024):
        x = np.arange(1.0, n + 1.0)
        _, mult, add = transform_counted(x)
        assert (mult, add) == (2 * n - 2, 2 * n - 2)
        _, mult, add = transform_counted_scalarwise(x)
        assert (mult, add) == (2 * n - 2, 2 * n - 2)


HARD_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308])


def test_counted_routes_agree_exactly():
    # The declared tally and the kernel run over counted scalars must agree on
    # both counts and bits, also on signed zeros, infinities, NaN, subnormals
    # and overflow; this keeps the declared counts honest.
    rng = np.random.default_rng(0)
    hard = [rng.choice(HARD_VALUES, n) for n in (2, 3, 5, 8) for _ in range(10)]
    for x in [rng.uniform(-5, 5, n) for n in (2, 3, 4, 9, 40)] + hard:
        n = x.shape[0]
        plan = build_plan(n)
        with np.errstate(invalid="ignore", over="ignore"):
            fast, mult_fast, add_fast = transform_counted(x, plan)
            slow, mult_slow, add_slow = transform_counted_scalarwise(x, plan)
            plain = transform(x, plan)
        assert (mult_fast, add_fast) == (mult_slow, add_slow) == (2 * n - 2, 2 * n - 2)
        number = ~np.isnan(plain)
        for other in (fast, slow):
            assert np.array_equal(other, plain, equal_nan=True)
            assert np.array_equal(np.signbit(other[number]), np.signbit(plain[number]))


def test_counted_values_match_plain_transform():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 33)
    counted, _, _ = transform_counted(x)
    assert np.array_equal(counted, transform(x))


def test_counted_rejects_complex():
    z = np.ones(4) + 1j
    with pytest.raises(TypeError):
        transform_counted(z)
    with pytest.raises(TypeError):
        transform_counted_scalarwise(z)
