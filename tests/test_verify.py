import numpy as np
import pytest

from permharmonic import verify
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
    ]
    for suite, n, message in cases:
        with pytest.raises(ValueError, match=message):
            run_suite(suite, n)


def test_shift_check_refuses_before_building_a_word(monkeypatch):
    monkeypatch.setattr(Permutation, "decompose_adjacent", lambda self: pytest.fail("word built"))
    sigma = Permutation(tuple(range(4097, 0, -1)))
    spectrum = np.zeros(4097)
    with pytest.raises(ValueError, match="n <= 4096"):
        shift_check(sigma, spectrum, spectrum)
