import numpy as np
import pytest

from permharmonic.counting import CountedArray
from permharmonic.transform import (
    build_plan,
    transform,
    transform_counted,
    transform_counted_scalarwise,
)


def test_counter_tallies_each_operation():
    tally = [0, 0]
    a, b = CountedArray(3.0, tally), CountedArray(4.0, tally)
    assert float(a + b) == 7.0
    assert float(a - b) == -1.0
    assert float(a * b) == 12.0
    assert tally == [1, 2]


def test_wrapping_is_free_and_unbilled_arithmetic_raises():
    # The kernels neither divide nor negate, so a counted array cannot: such
    # an operation slipped into a counted kernel raises instead of being billed.
    tally = [0, 0]
    a, b = CountedArray(5.0, tally), CountedArray(2.0, tally)
    row = CountedArray([1.0, 2.0, 3.0], tally)
    CountedArray(row[1:], tally)  # wrapping and slicing bill nothing
    unbilled = (
        lambda: -a,
        lambda: a / b,
        lambda: np.add(a, b, where=True),
        lambda: np.add(a, b, out=np.empty(())),
        lambda: np.multiply.accumulate(row),
        lambda: np.add.reduce(row),
    )
    for op in unbilled:
        with pytest.raises(TypeError):
            op()
    assert tally == [0, 0]


def test_accumulate_bills_n_minus_1_per_row():
    tally = [0, 0]
    batch = CountedArray(np.ones((3, 7)), tally)
    assert np.array_equal(np.add.accumulate(batch, axis=-1)[:, -1], [7.0, 7.0, 7.0])
    assert tally == [0, 3 * 6]


def test_plain_numbers_are_rejected():
    a = CountedArray(1.0, [0, 0])
    for op in (lambda: a + 1.0, lambda: a - 1, lambda: a * 2.0, lambda: a / 2.0):
        with pytest.raises(TypeError):
            op()
    for op in (lambda: 1.0 + a, lambda: 1 - a, lambda: 2.0 * a, lambda: 2.0 / a):
        with pytest.raises(TypeError):
            op()


def test_foreign_counters_are_rejected():
    a = CountedArray(1.0, [0, 0])
    b = CountedArray(2.0, [0, 0])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_counts_are_exactly_2n_minus_2():
    for n in (2, 3, 5, 17, 256, 1024, 2**16):
        x = np.arange(1.0, n + 1.0)
        _, mult, add = transform_counted(x)
        assert (mult, add) == (2 * n - 2, 2 * n - 2)
        if n <= 1024:
            _, mult, add = transform_counted_scalarwise(x)
            assert (mult, add) == (2 * n - 2, 2 * n - 2)


HARD_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308])


def test_counted_routes_agree_exactly():
    # The array-billed and scalar-billed runs of the kernel must agree on
    # both counts and bits, also on signed zeros, infinities, NaN, subnormals
    # and overflow.
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
