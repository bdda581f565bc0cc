import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permharmonic
from permharmonic.oracle import fourier_standard_block, lift, verify_bandlimit
from permharmonic.permutations import (
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    random_permutation,
)
from permharmonic.transform import (
    DENSE_MAX_N,
    TransformPlan,
    build_plan,
    contrast_matrix,
    dense_transform,
    inverse_transform,
    spectral_shift,
    transform,
    transform_counted,
    transform_counted_scalarwise,
)
from permharmonic.verify import shift_check
from permharmonic.yor import standard_irrep, standard_irrep_transpose_apply
from references import identity, inverse


def vectors_of_length(n):
    return st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
        min_size=n,
        max_size=n,
    ).map(np.array)


vectors = st.integers(2, 40).flatmap(vectors_of_length)
vector_pairs = st.integers(2, 40).flatmap(
    lambda n: st.tuples(vectors_of_length(n), vectors_of_length(n))
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


def test_plan_is_derived_from_n_alone():
    plan = build_plan(5)
    assert np.array_equal(plan.coef, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        plan.coef[0] = 0.0
    # arrays that disagree with n cannot be passed in
    with pytest.raises(TypeError):
        TransformPlan(4, np.ones(4), np.arange(1.0, 4))
    with pytest.raises(TypeError):
        TransformPlan(4.0)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=rf"^need a vector of length >= 2, got {n}$"):
            TransformPlan(n)
    plan = TransformPlan(np.int64(6))
    assert type(plan.n) is int and plan.n == 6
    assert plan.alpha.tobytes() == build_plan(6).alpha.tobytes()
    assert plan.coef.tobytes() == build_plan(6).coef.tobytes()


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
    for n in (1, DENSE_MAX_N + 1):
        with pytest.raises(ValueError):
            contrast_matrix(n)


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


@pytest.mark.parametrize("n", [2, 3, 1024])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_inverse_and_shift_leave_a_read_only_input_untouched(n, kind, batch):
    # The inverse scales its own temporary in place; X must stay unwritten.
    rng = np.random.default_rng([n, len(batch)])
    X = rng.standard_normal(batch + (n,))
    if kind == "complex":
        X = X + 1j * rng.standard_normal(batch + (n,))
    before = X.tobytes()
    X.setflags(write=False)
    reversal = Permutation(tuple(range(n, 0, -1)))
    for out in (inverse_transform(X), spectral_shift(reversal, X), spectral_shift(random_permutation(n, rng), X)):
        assert out.shape == X.shape and out.dtype == X.dtype
        assert out.flags.c_contiguous and out.flags.writeable and not np.shares_memory(out, X)
    assert X.tobytes() == before


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
    assert shift_check(sigma, spectrum, rhs).passed
    assert not shift_check(sigma, spectrum, spectral_shift(inverse(sigma), spectrum)).passed


def test_input_validation():
    plan = build_plan(4)
    with pytest.raises(ValueError):
        transform(np.zeros(5), plan)
    with pytest.raises(ValueError):
        transform(np.zeros(()))
    batch = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert np.array_equal(transform(batch), np.stack([transform(row) for row in batch]))
    with pytest.raises(ValueError):
        spectral_shift(Permutation((1, 2, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        inverse_transform(np.zeros(3), plan)


def rowwise(call, batch):
    """call on each 1-D row of batch, stacked back into batch's shape."""
    rows = batch.reshape(-1, batch.shape[-1])
    return np.array([call(row) for row in rows]).reshape(batch.shape)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("n", [2, 3, 8, 64, 1024])
@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_batched_calls_equal_one_dimensional_calls_bitwise(n, batch, kind):
    rng = np.random.default_rng([n, len(batch)])
    x = rng.standard_normal(batch + (n,))
    if kind == "complex":
        x = x + 1j * rng.standard_normal(batch + (n,))
    x.flat[::7] = -0.0
    plan = build_plan(n)
    for call in (transform, inverse_transform):
        assert_bitwise(call(x, plan), rowwise(lambda row: call(row, plan), x))
        assert_bitwise(call(x), rowwise(call, x))
    sigma = random_permutation(n, rng)
    expected = rowwise(lambda row: spectral_shift(sigma, row, plan), x)
    assert_bitwise(spectral_shift(sigma, x, plan), expected)
    rows = [random_permutation(n, rng) for _ in range(max(1, x[..., 0].size))]
    images = np.reshape([row.images for row in rows], batch + (n,))
    expected = np.array(
        [spectral_shift(row, X, plan) for row, X in zip(rows, x.reshape(-1, n))]
    ).reshape(x.shape)
    assert_bitwise(spectral_shift(images, x, plan), expected)


def test_batched_shift_matches_the_word_product_row_by_row():
    rng = np.random.default_rng(21)
    for n in (2, 3, 8, 64):
        images = np.array([rng.permutation(n) + 1 for _ in range(6)])
        images[2] = np.arange(1, n + 1)  # one identity row
        spectra = rng.uniform(-1, 1, (6, n))
        shifted = spectral_shift(images, spectra)
        for row, spectrum, out in zip(images, spectra, shifted):
            sigma = Permutation(tuple(row))
            assert out[0] == spectrum[0]
            assert shift_check(sigma, spectrum, out).passed
            word = standard_irrep_transpose_apply(n, sigma, spectrum[1:])
            assert np.max(np.abs(out[1:] - word)) <= 1e-12
        assert_bitwise(shifted[2], spectra[2])
        # leading axes broadcast: many permutations of one spectrum, one of many spectra
        one_spectrum = spectral_shift(images, spectra[0])
        assert_bitwise(one_spectrum, spectral_shift(images, np.tile(spectra[0], (6, 1))))
        sigma = Permutation(tuple(images[0]))
        one_sigma = spectral_shift(sigma, spectra)
        assert_bitwise(one_sigma, spectral_shift(np.tile(images[0], (6, 1)), spectra))
        crossed = spectral_shift(images[:, np.newaxis], spectra[:4])  # (6, 1, n) against (4, n)
        assert crossed.shape == (6, 4, n)
        for i, j in np.ndindex(6, 4):
            assert_bitwise(crossed[i, j], spectral_shift(Permutation(tuple(images[i])), spectra[j]))
        # and (4, n) rows against (6, 1, n) spectra: X has more leading axes than the rows
        crossed = spectral_shift(images[:4], spectra[:, np.newaxis])
        assert crossed.shape == (6, 4, n)
        for i, j in np.ndindex(6, 4):
            assert_bitwise(crossed[i, j], spectral_shift(images[j], spectra[i]))


def test_identity_rows_are_exact_copies():
    rng = np.random.default_rng(22)
    spectra = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
    identity_rows = np.tile(np.arange(1, 6), (2, 3, 1))
    out = spectral_shift(identity_rows, spectra)
    assert out is not spectra and out.tobytes() == spectra.tobytes()
    out[...] = 0.0
    assert np.all(spectra != 0.0)
    assert spectral_shift(identity(5), spectra[0, 0]).tobytes() == spectra[0, 0].tobytes()


def test_identity_permutation_of_the_wrong_degree_is_refused():
    # The identity shortcut must come after the degree check.
    for m, n in ((3, 4), (5, 4), (1, 2)):
        with pytest.raises(ValueError, match=f"permutation has degree {m}, expected {n}"):
            spectral_shift(identity(m), np.zeros(n))
        with pytest.raises(ValueError, match=f"permutation has degree {m}, expected {n}"):
            spectral_shift(identity(m), np.zeros((3, n)))


@pytest.mark.parametrize("n", [2, 3, 64])
def test_identity_permutation_on_a_batch_returns_a_fresh_copy(n):
    rng = np.random.default_rng(n)
    spectra = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    spectra.flat[::4] = -0.0
    before = spectra.tobytes()
    spectra.setflags(write=False)
    sigma = identity(n)
    out = spectral_shift(sigma, spectra)
    assert out.shape == spectra.shape and out.dtype == spectra.dtype and out.tobytes() == before
    assert out.flags.writeable and not np.shares_memory(out, spectra)
    out[...] = 0.0
    assert spectra.tobytes() == before
    # the stored identity test is no field: equality, hash and repr are the images' alone
    assert sigma == identity(n) and hash(sigma) == hash(identity(n)) and repr(sigma) == repr(identity(n))


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_permutation_path_equals_the_one_row_image_path_bitwise(n, kind, batch):
    rng = np.random.default_rng([n, len(batch), kind == "complex"])
    X = rng.standard_normal(batch + (n,))
    if kind == "complex":
        X = X + 1j * rng.standard_normal(batch + (n,))
    X.flat[::7] = -0.0
    plan = build_plan(n)
    for sigma in (random_permutation(n, rng), reversal(n), adjacent_transposition(n, n - 1), identity(n)):
        row = np.array(sigma.images)
        assert_bitwise(spectral_shift(sigma, X, plan), spectral_shift(row, X, plan))
        assert_bitwise(spectral_shift(sigma, X), spectral_shift(np.broadcast_to(row, X.shape), X))


@pytest.mark.parametrize("n", [2, 3, 1024])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_image_rows_against_one_spectrum_invert_it_once(n, kind, monkeypatch):
    transform_module = sys.modules[spectral_shift.__module__]  # the package exports a transform function
    rng = np.random.default_rng([n, 5])
    X = rng.standard_normal(n)
    if kind == "complex":
        X = X + 1j * rng.standard_normal(n)
    rows = np.array([rng.permutation(n) + 1 for _ in range(7)])
    rows[3] = np.arange(1, n + 1)  # one identity row
    expected = np.array([spectral_shift(row, X) for row in rows])
    inverted = []
    kernel = transform_module._inverse

    def counted_inverse(spectrum, *arrays):
        inverted.append(spectrum.shape)
        return kernel(spectrum, *arrays)

    monkeypatch.setattr(transform_module, "_inverse", counted_inverse)
    assert_bitwise(spectral_shift(rows, X), expected)
    assert inverted == [(n,)]  # one call on the one spectrum, not one row per image row


def test_shift_rejects_invalid_image_rows():
    spectra = np.zeros((2, 4))
    good = np.array([[1, 2, 3, 4], [2, 1, 4, 3]])
    assert spectral_shift(good, spectra).shape == (2, 4)
    duplicate, zero, past_n = [2, 2, 4, 3], [0, 1, 2, 3], [2, 3, 4, 5]
    for bad in ([[1, 2, 3, 4], duplicate], [[1, 2, 3, 4], zero], [[1, 2, 3, 4], past_n], [1, 2, 3]):
        with pytest.raises(ValueError):
            spectral_shift(np.array(bad), spectra)
    for bad in (good.astype(float), good.astype(bool), np.array([["1", "2", "3", "4"]])):
        with pytest.raises(TypeError):
            spectral_shift(bad, spectra)
    with pytest.raises(ValueError):
        spectral_shift(np.array(3), spectra)


def reversal(n):
    return Permutation(tuple(range(n, 0, -1)))


def lifted_values(x):
    return np.array([lift(x)(sigma) for sigma in enumerate_group(len(x))])


def bandlimit_values(x):
    report = verify_bandlimit(x)
    return np.array(
        [report.bound, report.off_band_max, report.tail_max, *report.block_norms.values()]
    )


def shift_check_values(x):
    check = shift_check(reversal(len(x)), x, x)
    return np.array([check.deviation, check.tolerance])


# Each entry point and the dtype its result has for complex input; None: complex raises TypeError.
@pytest.mark.parametrize(
    "call, complex_out",
    [
        (transform, np.complex128),
        (inverse_transform, np.complex128),
        (lambda x: spectral_shift(reversal(len(x)), x), np.complex128),
        (lambda x: transform_counted(x)[0], None),
        (lambda x: transform_counted_scalarwise(x)[0], None),
        (lifted_values, None),
        (bandlimit_values, None),
        (fourier_standard_block, None),
        (
            lambda v: standard_irrep_transpose_apply(len(v) + 1, reversal(len(v) + 1), v),
            np.complex128,
        ),
        (shift_check_values, np.float64),
    ],
    ids=[
        "transform",
        "inverse_transform",
        "spectral_shift",
        "transform_counted",
        "transform_counted_scalarwise",
        "lift",
        "verify_bandlimit",
        "fourier_standard_block",
        "standard_irrep_transpose_apply",
        "shift_check",
    ],
)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(st.integers(0, 100), min_size=n, max_size=n)))
@settings(max_examples=25, deadline=None)
def test_dtype_rules(call, complex_out, values):
    n = len(values)
    expected = call(np.array(values, dtype=np.float64))
    assert expected.dtype == np.float64
    for dtype in (bool, np.int8, np.int64, np.uint16, np.float16, np.float32):
        x = np.array(values, dtype=dtype)
        out = call(x)
        assert out.dtype == np.float64, dtype
        assert out.tobytes() == call(x.astype(np.float64)).tobytes(), dtype
    assert call(values).tobytes() == expected.tobytes()
    for bad in (
        np.array([str(v) for v in values]),
        np.array([str(v).encode() for v in values]),
        np.array(values, dtype=object),
        np.zeros(n, dtype=[("a", float)]),
    ):
        with pytest.raises(TypeError):
            call(bad)
    z = (np.array(values) + 1j * np.arange(-1, n - 1)).astype(np.complex64)
    if complex_out is not None:
        out = call(z)
        assert out.dtype == complex_out
        assert out.tobytes() == call(z.astype(np.complex128)).tobytes()
    else:
        with pytest.raises(TypeError):
            call(z)


def test_counted_transforms_take_one_vector():
    x = np.array([1.0, 2.0, 4.0])
    for call in (transform_counted, transform_counted_scalarwise):
        X, mult, add = call(x)
        assert (mult, add) == (4, 4)
        for bad in (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros(())):
            with pytest.raises(ValueError):
                call(bad)
        with pytest.raises(TypeError):
            call(x + 1j)


@given(vectors)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(x):
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(inverse_transform(transform(x)) - x)) <= 1e-10 * scale


@given(vector_pairs, st.floats(-100, 100, allow_nan=False))
@example((np.array([0.0, 970459.0]), np.array([0.0, 970468.0])), -1.0)
@settings(max_examples=60, deadline=None)
def test_linearity_property(xy, c):
    x, y = xy
    n = len(x)
    plan = build_plan(n)
    lhs = transform(c * x + y, plan)
    rhs = c * transform(x, plan) + transform(y, plan)
    # First-order bound from the inputs' scale S, where the rounding comes
    # from: c * x + y is off by <= 2uS per entry, each length-n cumulative
    # sum by <= n^2 u times its input's scale, and the rows' l1 norms are
    # <= sqrt(n); in all <= (4n^2 + 4 sqrt(n)) uS <= 8 n^2 uS.  The smallest
    # subnormal per rounding covers underflow.
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    scale = abs(c) * float(np.max(np.abs(x))) + float(np.max(np.abs(y)))
    assert np.max(np.abs(lhs - rhs)) <= 8 * n * n * (u * scale + eta)


def test_public_names_are_the_listed_ones():
    # An export added or removed shows up here.
    assert permharmonic.__all__ == [
        "BandlimitReport",
        "Check",
        "CountedArray",
        "DEFAULT_ORACLE_CAP",
        "ORACLE_CAP_ENV",
        "OracleCapExceeded",
        "Permutation",
        "SchurReport",
        "SuiteReport",
        "TransformPlan",
        "TranslationReport",
        "adjacent_transposition",
        "build_plan",
        "compose",
        "contrast_matrix",
        "dense_transform",
        "derive_schur_constants",
        "enumerate_group",
        "enumerate_partitions",
        "fourier_full",
        "fourier_standard_block",
        "from_one_line",
        "inverse_transform",
        "lift",
        "oracle_cap",
        "random_permutation",
        "run_suite",
        "spectral_shift",
        "stabilizer_projection",
        "standard_irrep",
        "standard_irrep_generator",
        "standard_irrep_transpose_apply",
        "transform",
        "transform_counted",
        "transform_counted_scalarwise",
        "verify_bandlimit",
        "verify_coxeter",
        "verify_translation",
        "yor_generator",
        "yor_matrix",
    ]
    # Permutation keeps no algebra that only the tests used; tests/references.py has it
    sigma = permharmonic.Permutation((2, 1))
    for attr in ("inverse", "sign", "one_line", "__call__", "__mul__"):
        assert not hasattr(sigma, attr), attr
