import functools
import gc
import itertools
import math
import sys
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
    random_permutation,
)
from permharmonic.transform import transform
from permharmonic.verify import run_prop1
from permharmonic.yor import standard_irrep, standard_irrep_generator
from references import identity, sign


def hook_length_count(shape):
    """Number of standard tableaux of shape by the hook length formula: n! / prod of hooks."""
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    hooks = 1
    for r, part in enumerate(shape):
        for c in range(part):
            hooks *= (part - c) + (heights[c] - r) - 1
    return math.factorial(sum(shape)) // hooks


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
    assert len(oracle._tableaux((4,))) == 1
    assert len(oracle._tableaux((2, 2))) == 2 == hook_length_count((2, 2))
    for n in range(2, 8):
        assert len(oracle._tableaux((n - 1, 1))) == n - 1


def test_standard_tableaux_are_standard():
    for shape in enumerate_partitions(5):
        seen = set()
        for t in oracle._tableaux(shape):
            assert tuple(len(row) for row in t) == shape
            values = [v for row in t for v in row]
            assert sorted(values) == list(range(1, 6))
            for row in t:
                assert list(row) == sorted(row)
            for r in range(len(t) - 1):
                for c in range(len(t[r + 1])):
                    assert t[r][c] < t[r + 1][c]
            seen.add(t)
        assert len(seen) == hook_length_count(shape)


def test_plancherel_dimension_sum():
    # sum over shapes of (tableau count)^2 recovers the group order.
    for n in range(1, 9):
        shapes = enumerate_partitions(n)
        counted = sum(hook_length_count(shape) ** 2 for shape in shapes)
        enumerated = sum(len(oracle._tableaux(shape)) ** 2 for shape in shapes)
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
    # the tableau construction and the round kernel agree entry by entry
    rng = np.random.default_rng(12)
    for n in [*range(3, 13), 64]:
        for sigma in [random_permutation(n, rng) for _ in range(3)]:
            assert np.max(np.abs(standard_irrep(n, sigma) - yor_matrix((n - 1, 1), sigma))) <= 1e-12, n


def test_yor_trivial_and_sign_shapes():
    for n in (2, 3, 4):
        for sigma in enumerate_group(n):
            assert yor_matrix((n,), sigma).shape == (1, 1)
            assert yor_matrix((n,), sigma)[0, 0] == 1.0
            assert abs(yor_matrix((1,) * n, sigma)[0, 0] - sign(sigma)) <= 1e-12


def test_yor_generators_coxeter_and_orthogonal_all_shapes():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            gens = [yor_generator(shape, k) for k in range(1, n)]
            d = len(oracle._tableaux(shape))
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
    values = np.array([10.0, 20.0, 30.0])
    f = lift(values)
    values[0] = -1.0  # lift reads its own copy
    assert f(Permutation((2, 3, 1))) == 10.0  # sigma(3) = 1
    assert type(f(Permutation((2, 3, 1)))) is float


def test_lift_constant_on_stabilizer_cosets():
    rng = np.random.default_rng(1)
    f = lift(rng.uniform(-1, 1, 4))
    stabilizer = [d for d in enumerate_group(4) if d.images[-1] == 4]
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
            lifted = sum(f[sigma.images[-1] - 1] * mat for sigma, mat in mats.items())
            assert np.max(np.abs(np.tensordot(f, oracle._coset_sums(shape), 1) - lifted)) <= 1e-12
            assert abs(band.block_norms[shape] - np.max(np.abs(lifted))) <= 1e-12
            if shape == (n - 1, 1):
                assert np.max(np.abs(fourier_standard_block(f) - lifted)) <= 1e-12
            fixing_n = [mat.T for sigma, mat in mats.items() if sigma.images[-1] == n]
            projection = sum(fixing_n) / math.factorial(n - 1)
            assert np.max(np.abs(stabilizer_projection(shape) - projection)) <= 1e-14


def test_lifted_blocks_equal_the_tensordot_over_coset_sums():
    # verify_bandlimit and fourier_standard_block against np.tensordot, bitwise
    rng = np.random.default_rng(27)
    for n in range(2, 9):
        for scale in (1.0, 1e-3, 1e5):
            f = scale * rng.uniform(-1, 1, n)
            coeffs = {
                shape: np.tensordot(f, oracle._coset_sums(shape), axes=1)
                for shape in enumerate_partitions(n)
            }
            report = verify_bandlimit(f)
            assert report.block_norms == {shape: float(np.max(np.abs(b))) for shape, b in coeffs.items()}
            assert list(report.block_norms) == list(coeffs)
            tail = float(np.max(np.abs(coeffs[(n - 1, 1)][:, 1:]))) if n > 2 else 0.0
            assert report.tail_max == tail
            block = fourier_standard_block(f)
            assert block.shape == coeffs[(n - 1, 1)].shape
            assert block.tobytes() == coeffs[(n - 1, 1)].tobytes()


def test_oracle_retains_no_group_elements(monkeypatch):
    # group sums at the default cap leave no n!-sized table behind
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    verify_bandlimit(np.random.default_rng(13).uniform(-1, 1, 8))
    derive_schur_constants(8)
    gc.collect()
    live = sum(isinstance(obj, Permutation) for obj in gc.get_objects())
    assert live < 100, live


def test_generators_are_fresh_and_only_their_sparse_form_is_cached(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    oracle._actions.cache_clear()
    verify_bandlimit(np.random.default_rng(15).uniform(-1, 1, 8))
    first = yor_generator((6, 2), 3)
    first[:] = 0.0
    again = yor_generator((6, 2), 3)
    assert again is not first and np.max(np.abs(again @ again - np.eye(len(again)))) <= 1e-12
    shapes = [shape for m in range(1, 9) for shape in enumerate_partitions(m)]
    retained = sum(sys.getsizeof(a) for s in shapes for act in oracle._actions(s) for a in act)
    assert oracle._actions.cache_info().currsize == len(shapes)
    assert retained < 0.5e6, retained


def test_fourier_full_at_n9_under_a_raised_cap(monkeypatch):
    monkeypatch.setenv(ORACLE_CAP_ENV, "9")
    f = np.random.default_rng(16).uniform(-1, 1, 9)
    started = time.perf_counter()
    coeffs = fourier_full(lift(f), 9)
    elapsed = time.perf_counter() - started
    report = verify_bandlimit(f)
    # the same 9! terms summed in two orders: far inside the band-limit bound
    assert np.max(np.abs(coeffs[(8, 1)] - fourier_standard_block(f))) <= 1e-6 * report.bound
    off_band = [np.max(np.abs(b)) for shape, b in coeffs.items() if shape not in {(9,), (8, 1)}]
    assert max(off_band) <= report.bound
    assert elapsed < 3.0, f"fourier_full took {elapsed:.3f}s at n=9, budget 3s"


def test_coset_sums_are_cached_once_per_shape_and_read_only(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    oracle._coset_sums.cache_clear()
    f = np.random.default_rng(17).uniform(-1, 1, 8)
    verify_bandlimit(f)
    # every shape of m <= 8, the empty one included: (8+1)! floats in all
    shapes = [()] + [shape for m in range(1, 9) for shape in enumerate_partitions(m)]
    assert oracle._coset_sums.cache_info().currsize == len(shapes) == 67
    stacks = [oracle._coset_sums(shape) for shape in shapes]
    assert sum(stack.size for stack in stacks) == math.factorial(9)
    assert not any(stack.flags.writeable for stack in stacks)
    for call in (lambda: stabilizer_projection((6, 2)), lambda: fourier_standard_block(f)):
        first = call()
        expected = first.copy()
        first[...] = 0.0
        assert np.array_equal(call(), expected)


def test_coset_matrices_are_cached_once_per_shape_and_read_only(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    oracle._coset_sums.cache_clear()
    oracle._coset_matrices.cache_clear()
    verify_bandlimit(np.random.default_rng(18).uniform(-1, 1, 8))
    # every nonempty shape of m <= 8, m matrices of side dim(shape) each:
    # sum_m m * m! = 9! - 1 floats in all
    shapes = [shape for m in range(1, 9) for shape in enumerate_partitions(m)]
    assert oracle._coset_matrices.cache_info().currsize == len(shapes) == 66
    stacks = [oracle._coset_matrices(shape) for shape in shapes]
    assert sum(stack.size for stack in stacks) == math.factorial(9) - 1
    assert not any(stack.flags.writeable for stack in stacks)


def test_coset_matrices_match_dense_generator_products():
    # D(c_j) = G_j G_{j+1} ... G_{m-1}, multiplied out densely from the generators
    for m in range(1, 7):
        for shape in enumerate_partitions(m):
            d = hook_length_count(shape)
            stack = oracle._coset_matrices(shape)
            assert stack.shape == (m, d, d)
            assert np.array_equal(stack[-1], np.eye(d))
            for j in range(1, m):
                dense = functools.reduce(np.matmul, [yor_generator(shape, k) for k in range(j, m)])
                assert np.max(np.abs(stack[j - 1] - dense)) <= 1e-12, (shape, j)


def test_prop1_at_n9_under_a_raised_cap(monkeypatch):
    monkeypatch.setenv(ORACLE_CAP_ENV, "9")
    oracle._coset_sums.cache_clear()
    started = time.perf_counter()
    report = run_prop1(9)
    elapsed = time.perf_counter() - started
    assert report.passed
    assert elapsed < 2.0, f"run_prop1 took {elapsed:.3f}s at n=9, budget 2s"


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
                if d.images[-1] == n
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


def test_translation_builds_the_shift_word_once(monkeypatch):
    # One word of delta serves every partition's predicted block.
    calls = []
    decompose = Permutation.decompose_adjacent
    monkeypatch.setattr(Permutation, "decompose_adjacent", lambda self: calls.append(self) or decompose(self))
    rng = np.random.default_rng(15)
    n = 6
    delta = random_permutation(n, rng)
    assert verify_translation(lift(rng.uniform(-1, 1, n)), delta, n).passed
    assert calls == [delta]


def looped_deviations(func, delta):
    """verify_translation's deviations one shape at a time, the word applied letter by letter."""
    word = delta.decompose_adjacent()
    deviations = {}
    for shape, (block, shifted) in oracle._translation_sums(func, delta).items():
        predicted, actions = block.copy(), oracle._actions(shape)
        for k in word:
            oracle._act(actions[k - 1], predicted)
        deviations[shape] = float(np.max(np.abs(shifted - predicted)))
    return deviations


def test_stacked_word_product_equals_the_per_shape_letter_loop():
    rng = np.random.default_rng(25)
    for n in range(2, 8):
        values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
        funcs = (lift(rng.uniform(-1, 1, n)), values.__getitem__)  # lifted, and not lifted
        deltas = [identity(n), Permutation(tuple(range(n, 0, -1))), random_permutation(n, rng)]
        deltas += [adjacent_transposition(n, k) for k in sorted({1, n // 2, n - 1})]
        for func, delta in itertools.product(funcs, deltas):
            report = verify_translation(func, delta, n)
            looped = looped_deviations(func, delta)
            assert list(report.deviations) == list(looped) == enumerate_partitions(n)
            assert report.deviations == looped, (n, delta)
            for shape, (block, shifted) in oracle._translation_sums(func, delta).items():
                dense = np.max(np.abs(shifted - yor_matrix(shape, delta).T @ block))
                assert abs(report.deviations[shape] - dense) <= 1e-12, (n, delta, shape)


def test_stacked_actions_are_read_only_and_built_once_per_n():
    oracle._stacked_actions.cache_clear()
    rng = np.random.default_rng(26)
    for _ in range(3):
        assert verify_translation(lift(rng.uniform(-1, 1, 6)), random_permutation(6, rng), 6).passed
    assert oracle._stacked_actions.cache_info()[1:] == (1, None, 1)  # misses, maxsize, currsize
    for n in range(1, 9):
        actions, starts = oracle._stacked_actions(n)
        dims = [hook_length_count(shape) for shape in enumerate_partitions(n)]
        assert starts.tolist() == np.cumsum([0] + dims[:-1]).tolist() and len(actions) == n - 1
        arrays = [starts] + [arr for action in actions for arr in action]
        assert not any(arr.flags.writeable for arr in arrays)
        for k, (diag, pair, off) in enumerate(actions):
            for shape, start, d in zip(enumerate_partitions(n), starts, dims):
                own_diag, own_pair, own_off = oracle._actions(shape)[k]
                assert np.array_equal(diag[start : start + d], own_diag)
                assert np.array_equal(pair[start : start + d], own_pair + start)
                assert np.array_equal(off[start : start + d], own_off)
    # about 0.13 MB at n = 8: three 8-byte entries per row, 764 rows, 7 generators
    actions, _ = oracle._stacked_actions(8)
    assert sum(arr.nbytes for action in actions for arr in action) == 3 * 8 * 764 * 7


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
        lift(np.zeros(3))(identity(4))  # a permutation of the wrong degree
    with pytest.raises(ValueError):
        fourier_standard_block(np.zeros(1))
    with pytest.raises(ValueError):
        yor_matrix((3, 1), Permutation((1, 2, 3)))
    with pytest.raises(ValueError):
        yor_generator((3, 1), 4)
    with pytest.raises(ValueError):
        verify_translation(lambda s: 0.0, identity(3), 4)


def test_translation_sums_equal_the_translate_summed_directly():
    # f is not lifted, so every shape carries weight; the translate's sums are
    # gathered from f's values and must equal summing g = f(delta . sigma) itself
    rng = np.random.default_rng(23)
    for n in range(3, 7):
        values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
        func = values.__getitem__
        delta = random_permutation(n, rng)
        direct_f = fourier_full(func, n)
        direct_g = fourier_full(lambda sigma: func(compose(delta, sigma)), n)
        sums = oracle._translation_sums(func, delta)
        assert list(sums) == list(direct_f) == enumerate_partitions(n)
        for shape, (f_block, g_block) in sums.items():
            assert f_block.tobytes() == direct_f[shape].tobytes(), (n, shape)
            assert g_block.tobytes() == direct_g[shape].tobytes(), (n, shape)
        assert verify_translation(func, delta, n).passed


def test_translation_fails_when_the_translate_is_read_at_sigma_delta(monkeypatch):
    rng = np.random.default_rng(24)
    n = 4
    values = {sigma: float(rng.uniform(-1, 1)) for sigma in enumerate_group(n)}
    delta = Permutation((2, 4, 1, 3))
    assert verify_translation(values.__getitem__, delta, n).passed

    def right_translate(coset_values, delta):
        # the defect under test: sigma -> f(sigma . delta) in place of f(delta . sigma)
        order = [Permutation(w[::-1]) for w in itertools.permutations(range(1, delta.n + 1))]
        at = dict(zip(order, coset_values))
        return [at[compose(sigma, delta)] for sigma in order]

    monkeypatch.setattr(oracle, "_translate", right_translate)
    report = verify_translation(values.__getitem__, delta, n)
    assert not report.passed and report.max_deviation > 1e-3


def dict_translate(values, delta):
    """The translate gathered by a dict of every image tuple's lexicographic rank."""
    rank = {w: p for p, w in enumerate(itertools.permutations(range(1, delta.n + 1)))}
    return [values[rank[w]] for w in itertools.permutations(delta.images)]


def test_translate_gathers_what_the_dict_rank_gathers():
    # every delta for n <= 4 (n = 1 and 2 included), random ones up to the cap; bitwise
    rng = np.random.default_rng(28)
    deltas = [delta for n in range(1, 5) for delta in enumerate_group(n)]
    deltas += [random_permutation(n, rng) for n in range(5, 9) for _ in range(3)]
    for delta in deltas:
        values = rng.uniform(-1, 1, math.factorial(delta.n))
        gathered = oracle._translate(values, delta)
        assert gathered.tobytes() == np.array(dict_translate(values.tolist(), delta)).tobytes(), delta


def test_lex_table_is_read_only_int8_and_built_once_per_n():
    oracle._lex_table.cache_clear()
    rng = np.random.default_rng(29)
    for _ in range(3):
        assert verify_translation(lift(rng.uniform(-1, 1, 6)), random_permutation(6, rng), 6).passed
    assert oracle._lex_table.cache_info()[1:] == (1, None, 1)  # misses, maxsize, currsize
    for n in range(1, 9):
        table = oracle._lex_table(n)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert table.tolist() == [list(w) for w in itertools.permutations(range(n))]
    # n! rows of n bytes: 322,560 bytes at n = 8
    assert oracle._lex_table(8).nbytes == math.factorial(8) * 8 == 322_560


def test_summed_coset_product_equals_the_coset_stack_summed():
    rng = np.random.default_rng(30)
    for m in range(1, 8):
        for shape in enumerate_partitions(m):
            d = hook_length_count(shape)
            # stored side by side, so the (d, m*d) layout the product reads is a view
            assert oracle._coset_matrices(shape).transpose(1, 0, 2).flags.c_contiguous
            dims = [len(oracle._tableaux(mu)) for _, mu in oracle._removals(shape)]
            for batch in ((), (2, 3)):
                sums = [rng.uniform(-1, 1, batch + (m, k, k)) for k in dims]
                total = oracle._coset_total(shape, sums)
                reference = oracle._coset_stack(shape, sums).sum(axis=-3)
                assert total.shape == reference.shape == batch + (d, d)
                scale = np.max(np.abs(reference), axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(total - reference) <= 1e-12 * scale), (shape, batch)


def test_translation_checks_the_cap_before_building_the_shift_word(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)

    def no_word(self):
        raise AssertionError("delta's word was built before the cap was checked")

    monkeypatch.setattr(Permutation, "decompose_adjacent", no_word)
    with pytest.raises(OracleCapExceeded):
        verify_translation(lambda sigma: 0.0, identity(9), 9)


def test_partitions_are_cached_but_handed_out_fresh():
    first = enumerate_partitions(5)
    first.append((99,))
    assert enumerate_partitions(5) == list(oracle._partitions(5))
    assert len(enumerate_partitions(5)) == 7
    assert oracle._partitions(5) is oracle._partitions(5)
