import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permharmonic.permutations import (
    DEFAULT_ORACLE_CAP,
    ORACLE_CAP_ENV,
    OracleCapExceeded,
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    from_one_line,
    oracle_cap,
    random_permutation,
)
from permharmonic.permutations import _sort_rounds
from references import identity, inverse, sign, word_product

permutations_of = lambda n: st.permutations(list(range(1, n + 1))).map(
    lambda imgs: Permutation(tuple(imgs))
)
small_perms = st.integers(2, 9).flatmap(permutations_of)


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    # distinct images that fail only the lower or only the upper end, and ones past any fixed width
    for images in [(0, 2, 3), (-1, 2, 3), (1, 2, 4), (1, 2, 2**70), (-(2**70), 2, 3), (2, 1, 1)]:
        with pytest.raises(ValueError, match=r"are not a bijection on 1\.\.3"):
            Permutation(images)


def test_validation_rejects_non_integral_images():
    # images are coerced with operator.index, never truncated or parsed
    for images in [(1.5, 2), (2.9, 1.2), (2.0, 1.0), ("2", "1")]:
        with pytest.raises(TypeError):
            Permutation(images)
    sigma = Permutation(np.array([2, 3, 1]))
    assert sigma == Permutation((2, 3, 1))
    assert all(type(v) is int for v in sigma.images)


def test_compose_identity_neutral():
    sigma = Permutation((3, 1, 4, 2))
    e = identity(4)
    assert compose(e, sigma) == sigma
    assert compose(sigma, e) == sigma


def test_compose_transposition_involution():
    tau = adjacent_transposition(5, 2)
    assert compose(tau, tau) == identity(5)


def test_compose_convention_pinned():
    # tau_1 after tau_2 under (a.b)(i) = a(b(i)) is the 3-cycle 1->2->3->1.
    tau1 = adjacent_transposition(3, 1)
    tau2 = adjacent_transposition(3, 2)
    assert compose(tau1, tau2).images == (2, 3, 1)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse__examples():
    # the tests' reference inverse, and compose against it
    assert inverse(identity(5)) == identity(5)
    tau = adjacent_transposition(6, 3)
    assert inverse(tau) == tau
    sigma = Permutation((2, 3, 1))
    assert inverse(sigma).images == (3, 1, 2)
    assert compose(sigma, inverse(sigma)) == identity(3)
    assert compose(inverse(sigma), sigma) == identity(3)


def test_apply_to_vector_examples():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(identity(3).apply_to_vector(x), x)
    assert np.array_equal(adjacent_transposition(3, 1).apply_to_vector(x), [2.0, 1.0, 3.0])
    sigma = Permutation((4, 1, 3, 2))
    x = np.array([10.0, 20.0, 30.0, 40.0])
    y = sigma.apply_to_vector(x)
    assert np.array_equal(y, [40.0, 10.0, 30.0, 20.0])
    # a fresh, writable array, never a view of x
    assert y.flags.writeable and not np.shares_memory(y, x)


def test_apply_to_vector_length_mismatch():
    with pytest.raises(ValueError):
        identity(3).apply_to_vector(np.zeros(4))


def test_vector_action_is_antihomomorphism():
    # apply(compose(a, b)) == apply(b) after apply(a): exact, pure reindexing.
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a, b = random_permutation(n, rng), random_permutation(n, rng)
        x = rng.integers(-100, 100, n)
        via_product = compose(a, b).apply_to_vector(x)
        via_chain = b.apply_to_vector(a.apply_to_vector(x))
        assert np.array_equal(via_product, via_chain)


def test_decompose_adjacent_examples():
    assert identity(4).decompose_adjacent() == ()
    assert adjacent_transposition(5, 3).decompose_adjacent() == (3,)
    word = Permutation((3, 2, 1)).decompose_adjacent()
    assert len(word) == 3
    assert word_product(3, word) == Permutation((3, 2, 1))


def test_decompose_adjacent_round_trip_exhaustive():
    for n in range(1, 7):
        bound = n * (n - 1) // 2
        for sigma in enumerate_group(n):
            word = sigma.decompose_adjacent()
            assert len(word) <= bound
            assert all(1 <= k <= n - 1 for k in word)
            assert word_product(n, word) == sigma
            # reduced: one letter per inversion
            images = sigma.images
            assert len(word) == sum(a > b for i, a in enumerate(images) for b in images[i + 1 :])
            # the word is the rounds' letters in order; each round's are of one parity, 2+ apart
            rounds = [np.flatnonzero(mask) + 1 for mask in _sort_rounds(np.array(images) - 1)]
            assert word == tuple(k for letters in rounds for k in letters.tolist())
            for letters in rounds:
                assert len(set(letters % 2)) <= 1 and np.all(np.diff(letters) >= 2)


def test_decompose_adjacent_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 21))
        sigma = random_permutation(n, rng)
        assert word_product(n, sigma.decompose_adjacent()) == sigma


def test_random_permutation_is_numpys_draw_plus_one():
    for n in (1, 2, 7, 1000):
        sigma = random_permutation(n, np.random.default_rng([n, 3]))
        assert sigma.images == tuple(int(v) + 1 for v in np.random.default_rng([n, 3]).permutation(n))
        assert all(type(v) is int for v in sigma.images) and Permutation(sigma.images) == sigma
    for n in (0, -1):
        with pytest.raises(ValueError, match="a permutation needs n >= 1"):
            random_permutation(n, np.random.default_rng(0))


def test_enumerate_group_sizes_and_order():
    assert [p.images for p in enumerate_group(1)] == [(1,)]
    threes = list(enumerate_group(3))
    assert len(set(threes)) == 6
    assert threes == sorted(threes, key=lambda p: p.images)
    fives = {p.images for p in enumerate_group(5)}
    assert len(fives) == math.factorial(5)


def test_enumerate_group_cap_is_eager(monkeypatch):
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    assert oracle_cap() == DEFAULT_ORACLE_CAP
    with pytest.raises(OracleCapExceeded):
        enumerate_group(DEFAULT_ORACLE_CAP + 1)  # must raise without being consumed
    with pytest.raises(ValueError):
        enumerate_group(0)


def test_oracle_cap_env_override(monkeypatch):
    monkeypatch.setenv(ORACLE_CAP_ENV, "4")
    assert oracle_cap() == 4
    with pytest.raises(OracleCapExceeded):
        enumerate_group(5)
    monkeypatch.setenv(ORACLE_CAP_ENV, "not a number")
    with pytest.raises(ValueError):
        oracle_cap()
    monkeypatch.setenv(ORACLE_CAP_ENV, "0")
    with pytest.raises(ValueError):
        oracle_cap()


def test_from_one_line_and_text_round_trip():
    assert from_one_line("2 3 1").images == (2, 3, 1)
    assert from_one_line("2,3,1").images == (2, 3, 1)
    assert from_one_line("4 2 1 3") == Permutation((4, 2, 1, 3))
    assert repr(Permutation((2, 1, 3))) == "Permutation((2, 1, 3))"
    with pytest.raises(ValueError):
        from_one_line("")
    with pytest.raises(ValueError, match=r"cannot parse permutation from '1 2 x'"):
        from_one_line("1 2 x")
    with pytest.raises(ValueError):
        from_one_line("1 3")


@given(small_perms, st.data())
@settings(max_examples=60, deadline=None)
def test_group_axioms(sigma, data):
    delta = data.draw(permutations_of(sigma.n))
    gamma = data.draw(permutations_of(sigma.n))
    assert compose(compose(sigma, delta), gamma) == compose(sigma, compose(delta, gamma))
    assert compose(sigma, inverse(sigma)) == identity(sigma.n)
    assert sign(sigma) * sign(delta) == sign(compose(sigma, delta))


@given(small_perms)
@settings(max_examples=60, deadline=None)
def test_decompose_round_trip_property(sigma):
    assert word_product(sigma.n, sigma.decompose_adjacent()) == sigma
