import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permharmonic.permutations import (
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    identity,
    random_permutation,
)
from permharmonic.transform import (
    build_plan,
    contrast_matrix,
    dense_transform,
    inverse_transform,
    spectral_shift,
    transform,
)
from permharmonic.yor import standard_irrep

vectors = st.integers(2, 40).flatmap(
    lambda n: st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
        min_size=n,
        max_size=n,
    ).map(np.array)
)


def test_plan_alpha_values():
    assert np.allclose(
        build_plan(4).alpha,
        [0.5, 1 / math.sqrt(12), 1 / math.sqrt(6), 1 / math.sqrt(2)],
        atol=1e-16,
    )
    assert np.allclose(build_plan(2).alpha, [1 / math.sqrt(2)] * 2, atol=1e-16)
    for n in (3, 5, 33, 1024):
        alpha = build_plan(n).alpha
        assert alpha[-1] == 1 / math.sqrt(2)
        assert np.all(alpha > 0) and np.all(np.isfinite(alpha))
    with pytest.raises(ValueError):
        build_plan(1)


def test_plan_alpha_read_only():
    plan = build_plan(5)
    with pytest.raises(ValueError):
        plan.alpha[0] = 0.0


def test_contrast_matrix_small():
    assert np.array_equal(
        contrast_matrix(3), [[1, 1, 1], [-1, -1, 2], [-1, 1, 0]]
    )
    for n in (2, 4, 9, 16):
        u = contrast_matrix(n)
        assert np.array_equal(u[0], np.ones(n))
        assert np.array_equal(u[1:].sum(axis=1), np.zeros(n - 1))
        # row m squared norm is (n-m+1)(n-m+2); row scaling makes them unit
        for m in range(2, n + 1):
            assert np.dot(u[m - 1], u[m - 1]) == (n - m + 1) * (n - m + 2)


def test_dense_transform_orthogonal():
    for n in range(2, 65):
        t = dense_transform(build_plan(n))
        assert np.max(np.abs(t @ t.T - np.eye(n))) <= 1e-12


def test_transform_worked_example():
    got = transform(np.array([1.0, 2.0, 3.0]))
    want = [6 / math.sqrt(3), 3 / math.sqrt(6), 1 / math.sqrt(2)]
    assert np.max(np.abs(got - want)) < 1e-15


def test_transform_zero_and_ones():
    for n in (2, 5, 100):
        assert np.array_equal(transform(np.zeros(n)), np.zeros(n))
        spectrum = transform(np.ones(n))
        assert abs(spectrum[0] - math.sqrt(n)) < 1e-12
        assert np.max(np.abs(spectrum[1:])) < 1e-12


def test_transform_matches_dense():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 7, 17, 100, 512, 1024):
        plan = build_plan(n)
        dense = dense_transform(plan)
        x = rng.uniform(-10, 10, n)
        dev = np.max(np.abs(transform(x, plan) - dense @ x))
        assert dev <= 1e-12 * max(1.0, float(np.max(np.abs(x))))


def test_parseval():
    rng = np.random.default_rng(1)
    for n in (2, 17, 257):
        x = rng.uniform(-1, 1, n)
        assert abs(np.linalg.norm(transform(x)) - np.linalg.norm(x)) <= 1e-12


def test_round_trip_and_inverse_dense():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5, 64, 1024):
        plan = build_plan(n)
        x = rng.uniform(-1, 1, n)
        assert np.max(np.abs(inverse_transform(transform(x, plan), plan) - x)) <= 1e-10
        spectrum = rng.uniform(-1, 1, n)
        dense_inverse = dense_transform(plan).T @ spectrum
        assert np.max(np.abs(inverse_transform(spectrum, plan) - dense_inverse)) <= 1e-12


def test_inverse_special_points():
    for n in (2, 6, 31):
        plan = build_plan(n)
        spike = np.zeros(n)
        spike[0] = math.sqrt(n)
        assert np.max(np.abs(inverse_transform(spike, plan) - np.ones(n))) <= 1e-12
        assert np.array_equal(inverse_transform(np.zeros(n), plan), np.zeros(n))


def test_spectral_shift_examples():
    plan = build_plan(3)
    spectrum = np.array([0.3, -1.2, 0.7])
    assert np.array_equal(spectral_shift(identity(3), spectrum, plan), spectrum)
    shifted = spectral_shift(adjacent_transposition(3, 1), spectrum, plan)
    assert np.allclose(shifted, [0.3, -1.2, -0.7], atol=1e-15)


def test_shift_rule_worked_example():
    x = np.array([1.0, 2.0, 3.0])
    tau1 = adjacent_transposition(3, 1)
    want = [6 / math.sqrt(3), 3 / math.sqrt(6), -1 / math.sqrt(2)]
    lhs = transform(tau1.apply_to_vector(x))
    rhs = spectral_shift(tau1, transform(x))
    assert np.max(np.abs(lhs - np.array(want))) < 1e-15
    assert np.max(np.abs(rhs - np.array(want))) < 1e-15


def test_equivariance_exhaustive_small_n():
    rng = np.random.default_rng(3)
    for n in range(2, 6):
        plan = build_plan(n)
        for sigma in enumerate_group(n):
            x = rng.uniform(-1, 1, n)
            lhs = transform(sigma.apply_to_vector(x), plan)
            rhs = spectral_shift(sigma, transform(x, plan), plan)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_equivariance_random_larger_n():
    rng = np.random.default_rng(4)
    for n in range(6, 13):
        plan = build_plan(n)
        for _ in range(50):
            sigma = random_permutation(n, rng)
            x = rng.uniform(-1, 1, n)
            lhs = transform(sigma.apply_to_vector(x), plan)
            rhs = spectral_shift(sigma, transform(x, plan), plan)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_shift_matches_young_word_product():
    # the O(n) shift goes through the transform; D(sigma) comes from generator words
    rng = np.random.default_rng(8)

    def deviation(sigma, n):
        spectrum = rng.uniform(-1, 1, n)
        shifted = spectral_shift(sigma, spectrum)
        assert shifted[0] == spectrum[0]
        return np.max(np.abs(shifted[1:] - standard_irrep(n, sigma).T @ spectrum[1:]))

    for n in range(2, 6):
        for sigma in enumerate_group(n):
            assert deviation(sigma, n) <= 1e-10, (n, sigma)
    for n in range(6, 13):
        for _ in range(50):
            sigma = random_permutation(n, rng)
            assert deviation(sigma, n) <= 1e-10, (n, sigma)


def test_shift_composition_convention():
    # shifting by sigma then delta equals one shift by compose(sigma, delta)
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        plan = build_plan(n)
        sigma, delta = random_permutation(n, rng), random_permutation(n, rng)
        spectrum = transform(rng.uniform(-1, 1, n), plan)
        twice = spectral_shift(delta, spectral_shift(sigma, spectrum, plan), plan)
        once = spectral_shift(compose(sigma, delta), spectrum, plan)
        assert np.max(np.abs(twice - once)) <= 1e-10


def test_shift_norm_preserving():
    rng = np.random.default_rng(6)
    spectrum = rng.uniform(-1, 1, 9)
    shifted = spectral_shift(random_permutation(9, rng), spectrum)
    assert abs(np.linalg.norm(shifted) - np.linalg.norm(spectrum)) <= 1e-12


def test_complex_input_componentwise():
    rng = np.random.default_rng(7)
    n = 11
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    spectrum = transform(z)
    assert np.max(np.abs(spectrum - (transform(z.real) + 1j * transform(z.imag)))) <= 1e-14
    assert np.max(np.abs(inverse_transform(spectrum) - z)) <= 1e-12
    sigma = random_permutation(n, rng)
    lhs = transform(sigma.apply_to_vector(z))
    rhs = spectral_shift(sigma, spectrum)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_input_validation():
    plan = build_plan(4)
    with pytest.raises(ValueError):
        transform(np.zeros(5), plan)
    with pytest.raises(ValueError):
        transform(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        spectral_shift(Permutation((1, 2, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        inverse_transform(np.zeros(3), plan)


@given(vectors)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(x):
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(inverse_transform(transform(x)) - x)) <= 1e-10 * scale


@given(vectors, st.floats(-100, 100, allow_nan=False), st.data())
@settings(max_examples=60, deadline=None)
def test_linearity_property(x, c, data):
    y = np.array(
        data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
                min_size=len(x),
                max_size=len(x),
            )
        )
    )
    plan = build_plan(len(x))
    lhs = transform(c * x + y, plan)
    rhs = c * transform(x, plan) + transform(y, plan)
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale
