import math

import numpy as np
import pytest

from permharmonic.permutations import (
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    evaluate_word,
    random_permutation,
)
from permharmonic.yor import (
    standard_irrep,
    standard_irrep_generator,
    standard_irrep_transpose_apply,
    transposition_block,
    verify_coxeter,
)


def test_transposition_block_values():
    b2 = transposition_block(2)
    assert np.allclose(b2, [[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]], atol=1e-15)
    b3 = transposition_block(3)
    root8 = math.sqrt(8)
    assert np.allclose(b3, [[-1 / 3, root8 / 3], [root8 / 3, 1 / 3]], atol=1e-15)


def test_transposition_block_involution_and_determinant():
    for k in range(2, 11):
        b = transposition_block(k)
        assert np.max(np.abs(b @ b - np.eye(2))) < 1e-15
        assert abs(np.linalg.det(b) + 1.0) < 1e-14
        assert np.array_equal(b, b.T)


def test_transposition_block_rejects_small_k():
    with pytest.raises(ValueError):
        transposition_block(1)


def test_generator_first_is_sign_corner():
    assert np.array_equal(standard_irrep_generator(3, 1), np.diag([1.0, -1.0]))
    g = standard_irrep_generator(7, 1)
    assert np.array_equal(g, np.diag([1.0] * 5 + [-1.0]))


def test_generator_block_placement():
    assert np.array_equal(standard_irrep_generator(3, 2), transposition_block(2))
    # k=3 at n=5 frames the 2x2 block with identities on either side.
    g = standard_irrep_generator(5, 3)
    want = np.eye(4)
    want[1:3, 1:3] = transposition_block(3)
    assert np.array_equal(g, want)
    # general placement: rows n-k, n-k+1 (1-based)
    for n in (4, 6, 9):
        for k in range(2, n):
            g = standard_irrep_generator(n, k)
            r = n - k - 1
            want = np.eye(n - 1)
            want[r : r + 2, r : r + 2] = transposition_block(k)
            assert np.array_equal(g, want), (n, k)


def test_generator_symmetric_orthogonal():
    for n in (2, 3, 5, 8):
        for k in range(1, n):
            g = standard_irrep_generator(n, k)
            assert np.array_equal(g, g.T)
            assert np.max(np.abs(g @ g - np.eye(n - 1))) < 1e-15


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
    assert evaluate_word(3, (1, 2, 1)) == Permutation((3, 2, 1))
    assert evaluate_word(3, (2, 1, 2)) == Permutation((3, 2, 1))
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
        assert abs(np.linalg.det(mat) - sigma.sign()) < 1e-8


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


def test_transpose_apply_matches_matrix():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        sigma = random_permutation(n, rng)
        v = rng.uniform(-1, 1, n - 1)
        fast = standard_irrep_transpose_apply(n, sigma, v)
        dense = standard_irrep(n, sigma).T @ v
        assert np.max(np.abs(fast - dense)) <= 1e-12


def test_transpose_apply_complex():
    rng = np.random.default_rng(4)
    for n in range(2, 13):
        sigma = random_permutation(n, rng)
        v = rng.uniform(-1, 1, n - 1) + 1j * rng.uniform(-1, 1, n - 1)
        got = standard_irrep_transpose_apply(n, sigma, v)
        assert got.dtype == np.complex128
        want = standard_irrep(n, sigma).T @ v
        assert np.max(np.abs(got - want)) <= 1e-12, n


def test_transpose_apply_longest_word():
    # the reversed permutation has the longest word, n(n-1)/2 letters
    n = 64
    sigma = Permutation(tuple(range(n, 0, -1)))
    assert len(sigma.decompose_adjacent()) == n * (n - 1) // 2
    v = np.random.default_rng(5).uniform(-1, 1, n - 1)
    got = standard_irrep_transpose_apply(n, sigma, v)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - standard_irrep(n, sigma).T @ v)) <= 1e-12


def test_dimension_checks():
    with pytest.raises(ValueError):
        standard_irrep(4, Permutation((1, 2, 3)))
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
