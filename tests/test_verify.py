import numpy as np

from permharmonic.permutations import compose, enumerate_group, random_permutation
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
