import time

import numpy as np
import pytest

from permharmonic import verify, yor
from permharmonic.permutations import (
    ORACLE_CAP_ENV,
    Permutation,
    compose,
    enumerate_group,
    random_permutation,
)
from permharmonic.transform import build_plan, spectral_shift, transform
from permharmonic.verify import Check, _ratio, run_suite, run_theorem, shift_check


def test_ratio_is_deviation_over_tolerance():
    reports = run_suite("all", 5, seed=3)
    checks = [check for report in reports for check in report.checks]
    assert len(checks) == 15
    for check in checks:
        if check.tolerance > 0:
            assert check.ratio == check.deviation / check.tolerance
        else:
            assert check.ratio == _ratio(check.deviation, check.tolerance) == 0.0
        assert (check.ratio <= 1.0) == check.passed
    assert Check("x", 0.0, 0.0).ratio == 0.0
    assert Check("x", 1.0, 0.0).ratio == np.inf and not Check("x", 1.0, 0.0).passed
    assert Check("x", 0.0, -1.0).ratio == np.inf and not Check("x", 0.0, -1.0).passed


def looped_theorem(n, seed, trials):
    """run_theorem's checks one (permutation, vector) pair at a time, in its draw order."""
    plan = build_plan(n)
    rng = np.random.default_rng(seed)
    if n <= 5:
        sigmas = enumerate_group(n)
    else:
        sigmas = (random_permutation(n, rng) for _ in range(trials))
    dev = 0.0
    for sigma in sigmas:
        x = rng.uniform(-1.0, 1.0, n)
        shifted = transform(sigma.apply_to_vector(x), plan)
        dev = max(dev, shift_check(sigma, transform(x, plan), shifted).deviation)
    composition = 0.0
    for _ in range(20):
        sigma, delta = random_permutation(n, rng), random_permutation(n, rng)
        spectrum = transform(rng.uniform(-1.0, 1.0, n), plan)
        twice = spectral_shift(delta, spectral_shift(sigma, spectrum, plan), plan)
        once = spectral_shift(compose(sigma, delta), spectrum, plan)
        composition = max(composition, float(np.max(np.abs(twice - once))))
    return dev, composition


def test_batched_theorem_suite_equals_the_looped_checks():
    cases = ((2, 0, 500), (5, 1, 500), (6, 2, 50), (9, 3, 40), (32, 4, 10), (7, 5, 0))
    for n, seed, trials in cases:
        report = run_theorem(n, seed, trials)
        assert report.passed
        assert tuple(check.deviation for check in report.checks) == looped_theorem(n, seed, trials)


def test_theorem_suite_draws_image_rows_not_permutations(monkeypatch):
    # above n = 5, run_theorem draws rng.permutation(n) + 1 itself, the very draw
    # random_permutation makes, and builds no Permutation for its trials
    cases = ((0, 500), (11, 37))
    expected = {seed: looped_theorem(64, seed, trials) for seed, trials in cases}
    monkeypatch.setattr(verify, "random_permutation", lambda n, rng: pytest.fail("a Permutation drawn"))
    built = []
    validate = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__", lambda self: built.append(self) or validate(self))
    for seed, trials in cases:
        report = run_theorem(64, seed, trials)
        assert report.passed and built == []
        assert tuple(check.deviation for check in report.checks) == expected[seed]


def test_run_suite_refuses_before_any_suite_runs(monkeypatch):
    for runner in ("run_coxeter", "run_orthogonality", "run_theorem", "run_prop1", "run_schur"):
        monkeypatch.setattr(verify, runner, lambda *args: pytest.fail("a suite ran"))
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
    cases = [
        ("orthogonality", 257, "n <= 256"),
        ("theorem", 257, "n <= 256"),
        ("coxeter", 65, "n <= 64"),
        ("all", 9, "oracle cap 8"),
        ("all", 2, "'schur' needs n >= 3"),
        ("schur", 2, "n >= 3"),
        ("nope", 4, "unknown suite 'nope'"),
    ]
    for suite, n, message in cases:
        with pytest.raises(ValueError, match=message):
            run_suite(suite, n)


def test_shift_check_refuses_before_building_a_word(monkeypatch):
    monkeypatch.setattr(yor, "_sort_rounds", lambda index: pytest.fail("word built"))
    sigma = Permutation(tuple(range(4097, 0, -1)))
    spectrum = np.zeros(4097)
    with pytest.raises(ValueError, match="n <= 4096"):
        shift_check(sigma, spectrum, spectrum)
    sigma = Permutation((2, 1, 3, 4))
    cases = [
        (np.zeros(5), np.zeros(5), r"spectrum shape \(5,\) and shifted shape \(5,\)"),
        (np.zeros((3, 4)), np.zeros(4), r"spectrum shape \(3, 4\) and shifted shape \(4,\)"),
        (np.zeros(4), np.zeros((3, 4)), r"spectrum shape \(4,\) and shifted shape \(3, 4\)"),
    ]
    for spectrum, shifted, shapes in cases:
        with pytest.raises(ValueError, match=shapes + ".* n = 4"):
            shift_check(sigma, spectrum, shifted)
        with pytest.raises(ValueError, match=shapes + ".* n = 4"):
            shift_check(np.array([sigma.images] * 3), spectrum, shifted)


def test_shift_check_takes_batches():
    n, plan = 7, build_plan(7)
    rng = np.random.default_rng(8)
    sigmas = [random_permutation(n, rng) for _ in range(4)]
    x = rng.uniform(-1.0, 1.0, (4, n)) * np.array([[1.0], [1e-3], [10.0], [0.5]])
    spectra = transform(x, plan)
    rows = np.array([sigma.images for sigma in sigmas])
    shifted = spectral_shift(rows, spectra, plan)
    checks = [shift_check(*case) for case in zip(sigmas, spectra, shifted)]
    batched = shift_check(rows, spectra, shifted)
    assert batched.deviation == max(check.deviation for check in checks)
    assert batched.tolerance == max(check.tolerance for check in checks)
    # one permutation against a batch of spectra
    one = shift_check(sigmas[0], spectra, spectral_shift(sigmas[0], spectra, plan))
    assert one.passed and one.tolerance == batched.tolerance
    assert shift_check(rows[:0], spectra[:0], shifted[:0]) == Check("shift_word_product", 0.0, 0.0)


def test_shift_check_at_n4096_under_2s():
    n = 4096
    sigma = Permutation(tuple(range(n, 0, -1)))
    spectrum = transform(np.random.default_rng(9).uniform(-1.0, 1.0, n))
    shifted = spectral_shift(sigma, spectrum)
    started = time.perf_counter()
    check = shift_check(sigma, spectrum, shifted)
    elapsed = time.perf_counter() - started
    assert check.passed
    assert elapsed < 2.0, f"shift_check took {elapsed:.3f}s on the longest word at n=4096, budget 2s"


def test_theorem_suite_at_n256_under_2s():
    started = time.perf_counter()
    report = run_theorem(256)
    elapsed = time.perf_counter() - started
    assert report.passed
    assert elapsed < 2.0, f"run_theorem took {elapsed:.3f}s at n=256, budget 2s"
