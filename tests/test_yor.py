import math

import numpy as np
import pytest

from permharmonic.oracle import yor_matrix
from permharmonic.permutations import (
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    random_permutation,
)
from permharmonic.yor import (
    standard_irrep,
    standard_irrep_generator,
    standard_irrep_transpose_apply,
    verify_coxeter,
)
from references import sign, word_product


def paper_entries(k):
    """(c, s) of tau_k's 2x2 block [[-c, s], [s, c]] by the paper's formula, as Python floats.

    c = 1/k and s = sqrt(1 - c^2), where k >= 2 is the axial distance of the
    swapped symbols.  The tests' own copy: no reference here reads yor's arithmetic.
    """
    c = 1.0 / k
    return c, math.sqrt(1.0 - c * c)


def paper_block(k):
    c, s = paper_entries(k)
    return np.array([[-c, s], [s, c]])


def test_generator_first_is_sign_corner():
    assert np.array_equal(standard_irrep_generator(3, 1), np.diag([1.0, -1.0]))
    g = standard_irrep_generator(7, 1)
    assert np.array_equal(g, np.diag([1.0] * 5 + [-1.0]))


def test_generator_block_placement():
    assert np.array_equal(standard_irrep_generator(3, 2), paper_block(2))
    # the closed forms: s_2 = sqrt(3)/2 and s_3 = sqrt(8)/3
    s2, s3 = math.sqrt(3) / 2, math.sqrt(8) / 3
    assert np.allclose(standard_irrep_generator(3, 2), [[-1 / 2, s2], [s2, 1 / 2]], atol=1e-15)
    assert np.allclose(standard_irrep_generator(4, 3)[:2, :2], [[-1 / 3, s3], [s3, 1 / 3]], atol=1e-15)
    # k=3 at n=5 frames the 2x2 block with identities on either side.
    g = standard_irrep_generator(5, 3)
    want = np.eye(4)
    want[1:3, 1:3] = paper_block(3)
    assert np.array_equal(g, want)
    # general placement: rows n-k, n-k+1 (1-based)
    for n in (4, 6, 9):
        for k in range(2, n):
            g = standard_irrep_generator(n, k)
            r = n - k - 1
            want = np.eye(n - 1)
            want[r : r + 2, r : r + 2] = paper_block(k)
            assert np.array_equal(g, want), (n, k)


def test_generator_symmetric_orthogonal():
    for n in (2, 3, 5, 8):
        for k in range(1, n):
            g = standard_irrep_generator(n, k)
            assert np.array_equal(g, g.T)
            assert np.max(np.abs(g @ g - np.eye(n - 1))) < 1e-15
            assert abs(np.linalg.det(g) + 1.0) < 1e-14


def test_generator_rejects_bad_indices():
    with pytest.raises(ValueError):
        standard_irrep_generator(4, 0)
    with pytest.raises(ValueError):
        standard_irrep_generator(4, 4)
    with pytest.raises(ValueError):
        standard_irrep_generator(1, 1)


def test_irrep_identity_and_generators():
    assert np.array_equal(standard_irrep(4, Permutation((1, 2, 3, 4))), np.eye(3))
    assert np.array_equal(
        standard_irrep(3, adjacent_transposition(3, 1)), np.diag([1.0, -1.0])
    )
    for n in (3, 5, 7):
        for k in range(1, n):
            got = standard_irrep(n, adjacent_transposition(n, k))
            assert np.array_equal(got, standard_irrep_generator(n, k))


def test_irrep_well_defined_across_words():
    # images (3,2,1) factors as both tau_1 tau_2 tau_1 and tau_2 tau_1 tau_2.
    assert word_product(3, (1, 2, 1)) == Permutation((3, 2, 1))
    assert word_product(3, (2, 1, 2)) == Permutation((3, 2, 1))
    g1, g2 = standard_irrep_generator(3, 1), standard_irrep_generator(3, 2)
    assert np.max(np.abs(g1 @ g2 @ g1 - g2 @ g1 @ g2)) < 1e-12
    assert np.max(np.abs(standard_irrep(3, Permutation((3, 2, 1))) - g1 @ g2 @ g1)) < 1e-12


def test_irrep_homomorphism_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 11))
        a, b = random_permutation(n, rng), random_permutation(n, rng)
        lhs = standard_irrep(n, compose(a, b))
        rhs = standard_irrep(n, a) @ standard_irrep(n, b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_irrep_orthogonality_and_sign_determinant():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        sigma = random_permutation(n, rng)
        mat = standard_irrep(n, sigma)
        assert np.max(np.abs(mat @ mat.T - np.eye(n - 1))) <= 1e-12
        assert abs(np.linalg.det(mat) - sign(sigma)) < 1e-8


def test_irrep_subgroup_reduction():
    # sigma fixing n acts as 1 (+) (something): first row and column are e_1.
    for n in range(2, 7):
        for rest in enumerate_group(n - 1):
            sigma = Permutation(rest.images + (n,))
            mat = standard_irrep(n, sigma)
            e1 = np.zeros(n - 1)
            e1[0] = 1.0
            assert np.max(np.abs(mat[0] - e1)) <= 1e-12
            assert np.max(np.abs(mat[:, 0] - e1)) <= 1e-12


def letter_loop(n, sigma, v):
    """D(sigma)^t v one letter at a time over Python numbers, along decompose_adjacent().

    Each letter applies its generator from paper_entries, never from yor's arithmetic.
    """
    values = v.tolist()
    for k in sigma.decompose_adjacent():
        if k == 1:
            values[n - 2] = -values[n - 2]
            continue
        r = n - k - 1
        c, s = paper_entries(k)
        top = -c * values[r] + s * values[r + 1]
        values[r + 1] = s * values[r] + c * values[r + 1]
        values[r] = top
    return np.array(values, dtype=v.dtype)


def assert_bitwise(got, want):
    """Equal values and NaN positions, and equal signs wherever the value is not NaN.

    IEEE 754 leaves the sign of a NaN result unspecified, and numpy's loops
    and CPython pick different operands' NaNs when both are NaN.
    """
    got, want = (np.asarray(a)[..., np.newaxis].view(np.float64) for a in (got, want))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got) & ~np.isnan(got), np.signbit(want) & ~np.isnan(want))


NON_FINITE = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -0.5])


def uniform(rng, shape):
    return rng.uniform(-1, 1, shape)


def non_finite(rng, shape):
    return rng.choice(NON_FINITE, shape)


def transpose_cases(case, rng):
    """(n, permutations, draw of their vectors' parts, batched): one vector per permutation."""
    if case == "random":
        for n in range(2, 13):
            yield n, [random_permutation(n, rng) for _ in range(5)], uniform, False
    elif case == "reversed64":
        yield 64, [Permutation(tuple(range(64, 0, -1)))], uniform, False
    elif case == "batch5":
        for n in (2, 3, 9, 16):
            yield n, [random_permutation(n, rng) for _ in range(5)], uniform, True
    else:
        yield 3, [Permutation((3, 2, 1))], lambda rng, shape: np.array([[1.0, np.inf]]), False
        for n in (2, 3, 5, 8, 12):
            yield n, [random_permutation(n, rng) for _ in range(5)], non_finite, True


def check_transpose_case(case, dtype, seed):
    rng = np.random.default_rng(seed)
    for n, sigmas, draw, batched in transpose_cases(case, rng):
        v = np.empty((len(sigmas), n - 1), dtype)
        v.real = draw(rng, v.shape)
        if dtype == np.complex128:
            v.imag = draw(rng, v.shape)
        if batched:
            got = standard_irrep_transpose_apply(n, np.array([s.images for s in sigmas]), v)
        else:
            got = np.array([standard_irrep_transpose_apply(n, s, row) for s, row in zip(sigmas, v)])
        assert got.dtype == dtype and got.shape == v.shape
        for sigma, row, out in zip(sigmas, v, got):
            assert_bitwise(out, letter_loop(n, sigma, row))
            if np.all(np.isfinite(row)):
                assert np.max(np.abs(out - yor_matrix((n - 1, 1), sigma).T @ row)) <= 1e-12, n


CASES = ("random", "reversed64", "batch5", "non_finite")


@pytest.mark.parametrize("case", CASES)
def test_transpose_apply_matches_matrix(case):
    check_transpose_case(case, np.float64, 3)


@pytest.mark.parametrize("case", CASES)
def test_transpose_apply_complex(case):
    check_transpose_case(case, np.complex128, 4)


def test_transpose_apply_longest_word():
    # the reversed permutation has the longest word, n(n-1)/2 letters
    n = 64
    sigma = Permutation(tuple(range(n, 0, -1)))
    assert len(sigma.decompose_adjacent()) == n * (n - 1) // 2
    v = np.random.default_rng(5).uniform(-1, 1, n - 1)
    got = standard_irrep_transpose_apply(n, sigma, v)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - yor_matrix((n - 1, 1), sigma).T @ v)) <= 1e-12


def test_dimension_checks():
    with pytest.raises(ValueError):
        standard_irrep(4, Permutation((1, 2, 3)))
    with pytest.raises(ValueError, match="n >= 2"):
        standard_irrep(1, Permutation((1,)))
    # image rows would pair each identity row with its own permutation
    with pytest.raises(TypeError):
        standard_irrep(3, np.array([[2, 1, 3], [1, 3, 2]]))
    with pytest.raises(ValueError):
        standard_irrep_transpose_apply(4, Permutation((1, 2, 3, 4)), np.zeros(4))


def test_verify_coxeter_range():
    assert verify_coxeter(2) == 0.0
    assert verify_coxeter(3) <= 1e-12
    assert verify_coxeter(10) <= 1e-12
    assert verify_coxeter(64) <= 1e-12
    with pytest.raises(ValueError):
        verify_coxeter(1)
    with pytest.raises(ValueError):
        verify_coxeter(65)
