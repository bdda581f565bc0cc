import gc
import math
import time

import numpy as np
import pytest

from permharmonic import oracle
from permharmonic.oracle import (
    derive_schur_constants,
    enumerate_partitions,
    fourier_full,
    fourier_standard_block,
    lift,
    stabilizer_projection,
    standard_tableaux,
    tableau_count,
    validate_partition,
    verify_bandlimit,
    verify_translation,
    yor_generator,
    yor_matrix,
)
from permharmonic.permutations import (
    ORACLE_CAP_ENV,
    OracleCapExceeded,
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    identity,
    random_permutation,
)
from permharmonic.transform import transform
from permharmonic.yor import standard_irrep, standard_irrep_generator

# lambda2 has no closed form given in advance; these values were produced by
# derive_schur_constants and frozen as regression constants.  They coincide
# with (n-1)! * sqrt(n/(n-1)) to machine precision.
LAMBDA2_FROZEN = {
    3: 2.449489742783178,
    4: 6.928203230275509,
    5: 26.832815729997478,
    6: 131.45341380123986,
}


def test_enumerate_partitions_order_and_counts():
    assert enumerate_partitions(1) == [(1,)]
    assert enumerate_partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(5)) == 7
    for shape in enumerate_partitions(6):
        assert validate_partition(shape) == 6


def test_partition_validation():
    with pytest.raises(ValueError):
        validate_partition(())
    with pytest.raises(ValueError):
        validate_partition((1, 2))
    with pytest.raises(ValueError):
        validate_partition((2, 0))


def test_oracle_cap_guards(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    with pytest.raises(OracleCapExceeded):
        enumerate_partitions(9)
    monkeypatch.setenv(ORACLE_CAP_ENV, "4")
    with pytest.raises(OracleCapExceeded):
        fourier_full(lambda sigma: 0.0, 5)
    with pytest.raises(OracleCapExceeded):
        verify_bandlimit(np.ones(5))
    with pytest.raises(OracleCapExceeded):
        stabilizer_projection((4, 1))
    with pytest.raises(OracleCapExceeded):
        derive_schur_constants(5)


def test_standard_tableaux_counts():
    assert len(standard_tableaux((4,))) == 1
    assert len(standard_tableaux((2, 2))) == 2 == tableau_count((2, 2))
    for n in range(2, 8):
        assert len(standard_tableaux((n - 1, 1))) == n - 1


def test_standard_tableaux_are_standard():
    for shape in enumerate_partitions(5):
        seen = set()
        for t in standard_tableaux(shape):
            assert tuple(len(row) for row in t) == shape
            values = [v for row in t for v in row]
            assert sorted(values) == list(range(1, 6))
            for row in t:
                assert list(row) == sorted(row)
            for r in range(len(t) - 1):
                for c in range(len(t[r + 1])):
                    assert t[r][c] < t[r + 1][c]
            seen.add(t)
        assert len(seen) == tableau_count(shape)


def test_plancherel_dimension_sum():
    # sum over shapes of (tableau count)^2 recovers the group order.
    for n in range(1, 9):
        shapes = enumerate_partitions(n)
        counted = sum(tableau_count(shape) ** 2 for shape in shapes)
        enumerated = sum(len(standard_tableaux(shape)) ** 2 for shape in shapes)
        assert counted == enumerated == math.factorial(n)


def test_yor_generator_matches_explicit_basis_bitwise():
    # The tableau enumeration order was chosen so the general construction at
    # (n-1,1) lands exactly on the explicit generator matrices; the oracle's
    # explicit-basis results rely on it.
    for n in range(2, 13):
        for k in range(1, n):
            assert np.array_equal(
                yor_generator((n - 1, 1), k), standard_irrep_generator(n, k)
            ), (n, k)


def _corner_removals(shape):
    # lowest row first, written out here independently of the oracle
    out = []
    for r in range(len(shape) - 1, -1, -1):
        if r == len(shape) - 1 or shape[r] > shape[r + 1]:
            reduced = list(shape)
            reduced[r] -= 1
            out.append(tuple(part for part in reduced if part))
    return out


def test_yor_generators_are_block_diagonal_over_corner_removals():
    # the premise of the oracle's group-sum recursion: restricted to S_{n-1},
    # the tableau basis splits into the corner removals' bases, in this order
    for n in range(2, 9):
        for shape in enumerate_partitions(n):
            for k in range(1, n - 1):
                gen = yor_generator(shape, k)
                want = np.zeros_like(gen)
                start = 0
                for mu in _corner_removals(shape):
                    block = yor_generator(mu, k)
                    stop = start + len(block)
                    want[start:stop, start:stop] = block
                    start = stop
                assert start == len(gen) and np.array_equal(gen, want), (shape, k)


def test_yor_character_match_on_standard_shape():
    # basis-independent cross-check: equal traces on all of S_4
    for sigma in enumerate_group(4):
        general = np.trace(yor_matrix((3, 1), sigma))
        explicit = np.trace(standard_irrep(4, sigma))
        assert abs(general - explicit) <= 1e-10


def test_yor_trivial_and_sign_shapes():
    for n in (2, 3, 4):
        for sigma in enumerate_group(n):
            assert yor_matrix((n,), sigma).shape == (1, 1)
            assert yor_matrix((n,), sigma)[0, 0] == 1.0
            assert abs(yor_matrix((1,) * n, sigma)[0, 0] - sigma.sign()) <= 1e-12


def test_yor_generators_coxeter_and_orthogonal_all_shapes():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            gens = [yor_generator(shape, k) for k in range(1, n)]
            d = len(standard_tableaux(shape))
            eye = np.eye(d)
            for g in gens:
                assert np.max(np.abs(g @ g - eye)) <= 1e-10
                assert np.max(np.abs(g @ g.T - eye)) <= 1e-10
            for i in range(len(gens) - 1):
                a, b = gens[i], gens[i + 1]
                assert np.max(np.abs(a @ b @ a - b @ a @ b)) <= 1e-10
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert np.max(np.abs(gens[i] @ gens[j] - gens[j] @ gens[i])) <= 1e-10


def test_yor_matrix_homomorphism():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        for shape in enumerate_partitions(n):
            for _ in range(5):
                a, b = random_permutation(n, rng), random_permutation(n, rng)
                lhs = yor_matrix(shape, compose(a, b))
                rhs = yor_matrix(shape, a) @ yor_matrix(shape, b)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_lift_examples():
    constant = lift(np.full(4, 2.5))
    assert all(constant(sigma) == 2.5 for sigma in enumerate_group(4))
    f = lift(np.array([10.0, 20.0, 30.0]))
    assert f(Permutation((2, 3, 1))) == 10.0  # sigma(3) = 1


def test_lift_constant_on_stabilizer_cosets():
    rng = np.random.default_rng(1)
    f = lift(rng.uniform(-1, 1, 4))
    stabilizer = [d for d in enumerate_group(4) if d(4) == 4]
    for sigma in enumerate_group(4):
        base = f(sigma)
        for delta in stabilizer:
            assert f(compose(sigma, delta)) == base


def test_fourier_full_trivial_inputs():
    n = 4
    zeros = fourier_full(lambda sigma: 0.0, n)
    for block in zeros.values():
        assert np.array_equal(block, np.zeros_like(block))

    ones = fourier_full(lambda sigma: 1.0, n)
    assert np.allclose(ones[(n,)], [[math.factorial(n)]], atol=1e-9)
    for shape, block in ones.items():
        if shape != (n,):
            assert np.max(np.abs(block)) <= 1e-10

    e = identity(n)
    delta_at_e = fourier_full(lambda sigma: 1.0 if sigma == e else 0.0, n)
    for shape, block in delta_at_e.items():
        assert np.max(np.abs(block - np.eye(block.shape[0]))) <= 1e-12


def test_fourier_full_matches_elementwise_sum():
    # dual route: coset recursion vs a direct sum over lexicographic elements
    rng = np.random.default_rng(2)
    for n in (3, 4, 5, 6):
        values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
        func = values.__getitem__
        streamed = fourier_full(func, n)
        for shape in enumerate_partitions(n):
            direct = sum(values[s] * yor_matrix(shape, s) for s in enumerate_group(n))
            assert np.max(np.abs(streamed[shape] - direct)) <= 1e-12


def test_lifted_sums_match_elementwise_sums():
    # the coset sums behind every lifted computation, against direct sums of
    # yor_matrix over the lexicographic enumeration
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        f = rng.uniform(-1, 1, n)
        band = verify_bandlimit(f)
        for shape in enumerate_partitions(n):
            mats = {sigma: yor_matrix(shape, sigma) for sigma in enumerate_group(n)}
            lifted = sum(f[sigma(n) - 1] * mat for sigma, mat in mats.items())
            assert np.max(np.abs(np.tensordot(f, oracle._coset_sums(shape), 1) - lifted)) <= 1e-12
            assert abs(band.block_norms[shape] - np.max(np.abs(lifted))) <= 1e-12
            if shape == (n - 1, 1):
                assert np.max(np.abs(fourier_standard_block(f) - lifted)) <= 1e-12
            fixing_n = [mat.T for sigma, mat in mats.items() if sigma(n) == n]
            projection = sum(fixing_n) / math.factorial(n - 1)
            assert np.max(np.abs(stabilizer_projection(shape) - projection)) <= 1e-14


def test_oracle_retains_no_group_elements(monkeypatch):
    # group sums at the default cap leave no n!-sized table behind
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    verify_bandlimit(np.random.default_rng(13).uniform(-1, 1, 8))
    derive_schur_constants(8)
    gc.collect()
    live = sum(isinstance(obj, Permutation) for obj in gc.get_objects())
    assert live < 100, live


def test_fourier_standard_block_matches_general_basis():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        f = rng.uniform(-1, 1, n)
        explicit = fourier_standard_block(f)
        general = fourier_full(lift(f), n)[(n - 1, 1)]
        assert np.max(np.abs(explicit - general)) <= 1e-11


def test_bandlimit_random_vectors():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        for _ in range(5):
            report = verify_bandlimit(rng.uniform(-1, 1, n))
            assert report.passed
            assert report.off_band_max <= report.bound
            assert report.tail_max <= report.bound


def test_bandlimit_constant_vector_kills_standard_block():
    report = verify_bandlimit(np.full(4, 3.25))
    assert report.passed
    assert report.block_norms[(3, 1)] <= report.bound


def test_bandlimit_indicator_vector():
    f = np.zeros(4)
    f[0] = 1.0
    report = verify_bandlimit(f)
    assert report.passed
    assert report.block_norms[(4,)] > 1.0
    assert report.block_norms[(3, 1)] > 1.0
    assert report.tail_max <= report.bound  # nonzero only in the leftmost column


def test_fixed_point_identity_for_lifted_functions():
    # lifted functions satisfy F = F Z blockwise (Z averaged in the same basis)
    rng = np.random.default_rng(5)
    n = 5
    coeffs = fourier_full(lift(rng.uniform(-1, 1, n)), n)
    for shape, block in coeffs.items():
        if shape == (n - 1, 1):
            projector = sum(
                yor_matrix(shape, d).T
                for d in enumerate_group(n)
                if d(n) == n
            ) / math.factorial(n - 1)
        else:
            projector = stabilizer_projection(shape)
        assert np.max(np.abs(block - block @ projector)) <= 1e-9


def test_stabilizer_projection_structure():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            z = stabilizer_projection(shape)
            assert np.max(np.abs(z @ z - z)) <= 1e-10
            if shape == (n,):
                assert np.array_equal(z, np.eye(1))
            elif shape == (n - 1, 1):
                want = np.zeros((n - 1, n - 1))
                want[0, 0] = 1.0
                assert np.max(np.abs(z - want)) <= 1e-12
            else:
                assert np.max(np.abs(z)) <= 1e-12


def test_stabilizer_projection_spec_example():
    assert np.max(np.abs(stabilizer_projection((2, 1, 1)))) <= 1e-12


def test_translation_identity_shift_is_exact():
    rng = np.random.default_rng(6)
    n = 4
    values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
    report = verify_translation(values.__getitem__, identity(n), n)
    assert report.passed
    assert report.max_deviation == 0.0


def test_translation_generator_shift():
    rng = np.random.default_rng(7)
    n = 4
    values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
    report = verify_translation(values.__getitem__, adjacent_transposition(n, 2), n)
    assert report.passed
    assert report.max_deviation <= 1e-10


def test_translation_at_the_cap_runs_within_budget(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    rng = np.random.default_rng(14)
    func = lift(rng.uniform(-1, 1, 8))
    delta = random_permutation(8, rng)
    started = time.perf_counter()
    report = verify_translation(func, delta, 8)
    elapsed = time.perf_counter() - started
    assert report.passed
    assert elapsed < 1.5, f"verify_translation took {elapsed:.3f}s at n=8, budget 1.5s"


def test_translation_composition_convention():
    # shifting by d1 then d2 equals one shift by compose(d1, d2)
    rng = np.random.default_rng(8)
    n = 4
    values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
    func = values.__getitem__
    d1, d2 = random_permutation(n, rng), random_permutation(n, rng)
    after_d1 = lambda sigma: func(compose(d1, sigma))
    twice = fourier_full(lambda sigma: after_d1(compose(d2, sigma)), n)
    once = fourier_full(lambda sigma: func(compose(compose(d1, d2), sigma)), n)
    for shape in twice:
        assert np.max(np.abs(twice[shape] - once[shape])) <= 1e-12


def test_schur_constants_values():
    for n in (3, 4, 5, 6):
        report = derive_schur_constants(n)
        lam1 = math.factorial(n - 1) * math.sqrt(n)
        assert abs(report.lambda1 - lam1) / lam1 <= 1e-12
        assert abs(report.lambda2 - LAMBDA2_FROZEN[n]) / LAMBDA2_FROZEN[n] <= 1e-12
        assert report.off_structure_max <= 1e-10
        assert report.block_split == (1, n - 1)
    with pytest.raises(ValueError):
        derive_schur_constants(2)


def test_schur_spec_example_n3():
    assert abs(derive_schur_constants(3).lambda1 - 2 * math.sqrt(3)) <= 1e-12


def test_bridge_standard_column_is_lambda2_times_spectrum():
    # ties the oracle to the fast path: the surviving column of the standard
    # block is the transform's tail scaled by lambda2
    rng = np.random.default_rng(9)
    for n in (3, 4, 5, 6):
        f = rng.uniform(-1, 1, n)
        column = fourier_standard_block(f)[:, 0]
        lam2 = derive_schur_constants(n).lambda2
        assert np.max(np.abs(column - lam2 * transform(f)[1:])) <= 1e-9


def test_input_validation():
    with pytest.raises(ValueError):
        lift(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fourier_standard_block(np.zeros(1))
    with pytest.raises(ValueError):
        yor_matrix((3, 1), Permutation((1, 2, 3)))
    with pytest.raises(ValueError):
        yor_generator((3, 1), 4)
    with pytest.raises(ValueError):
        verify_translation(lambda s: 0.0, identity(3), 4)
