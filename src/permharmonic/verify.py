"""Named verification suites over the library's invariants.

Each suite bundles related checks into a report of (deviation, tolerance)
pairs: generator relations, orthogonality and round trips, the permutation
equivariance identity, band-limitedness of lifted vectors, and the scalar
constants linking the full-group oracle to the fast transform.  Suites are
deterministic given a seed; randomness comes from numpy's default_rng.

Checks that depend on input scale report a ratio against their input-scaled
bound, with tolerance 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import BandlimitReport, SchurReport, derive_schur_constants, verify_bandlimit
from .permutations import Permutation, compose, enumerate_group, random_permutation
from .transform import (
    build_plan,
    dense_transform,
    inverse_transform,
    spectral_shift,
    transform,
)
from .yor import standard_irrep, standard_irrep_transpose_apply, verify_coxeter

SUITES = ("coxeter", "orthogonality", "theorem", "prop1", "schur")


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    seed: int | None
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def max_deviation(self) -> float:
        return max(check.deviation for check in self.checks)


def run_coxeter(n: int) -> SuiteReport:
    """Involution, braid, and distant-commutation relations of the generators."""
    return SuiteReport(
        suite="coxeter",
        n=n,
        seed=None,
        checks=(Check("coxeter_relations", verify_coxeter(n), 1e-12),),
    )


def run_orthogonality(n: int, seed: int = 0, trials: int = 20) -> SuiteReport:
    """Orthogonality of the transform and the irrep, plus round-trip identities."""
    plan = build_plan(n)
    dense = dense_transform(plan)
    orth = float(np.max(np.abs(dense @ dense.T - np.eye(n))))

    rng = np.random.default_rng(seed)
    fast_dense = parseval = roundtrip = inv_dense = irrep_orth = 0.0
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, n)
        spectrum = transform(x, plan)
        scale = max(1.0, float(np.max(np.abs(x))))
        fast_dense = max(fast_dense, float(np.max(np.abs(spectrum - dense @ x))) / scale)
        parseval = max(
            parseval,
            abs(float(np.linalg.norm(spectrum)) - float(np.linalg.norm(x)))
            / max(1.0, float(np.linalg.norm(x))),
        )
        roundtrip = max(roundtrip, float(np.max(np.abs(inverse_transform(spectrum, plan) - x))))
        inv_dense = max(inv_dense, float(np.max(np.abs(inverse_transform(x, plan) - dense.T @ x))))
        sigma = random_permutation(n, rng)
        rep = standard_irrep(n, sigma)
        irrep_orth = max(irrep_orth, float(np.max(np.abs(rep @ rep.T - np.eye(n - 1)))))

    return SuiteReport(
        suite="orthogonality",
        n=n,
        seed=seed,
        checks=(
            Check("transform_orthogonality", orth, 1e-12),
            Check("fast_dense_agreement", fast_dense, 1e-12),
            Check("parseval", parseval, 1e-12),
            Check("round_trip", roundtrip, 1e-10),
            Check("inverse_dense_agreement", inv_dense, 1e-12),
            Check("irrep_orthogonality", irrep_orth, 1e-10),
        ),
    )


def _equivariance_deviation(sigma: Permutation, x: np.ndarray, plan) -> float:
    lhs = transform(sigma.apply_to_vector(x), plan)
    rhs = transform(x, plan)
    rhs[1:] = standard_irrep_transpose_apply(plan.n, sigma, rhs[1:])
    return float(np.max(np.abs(lhs - rhs)))


def run_theorem(n: int, seed: int = 0, trials: int = 500) -> SuiteReport:
    """Permuting the input equals shifting the spectrum by the word product 1 (+) D(sigma)^t.

    The reference is yor's generator word, not spectral_shift, which goes
    through the transform itself.  Exhaustive over the group for n <= 5
    (fresh random vector per element), random (permutation, vector) pairs above.
    """
    plan = build_plan(n)
    rng = np.random.default_rng(seed)
    dev = 0.0
    if n <= 5:
        name = "equivariance_exhaustive"
        for sigma in enumerate_group(n):
            dev = max(dev, _equivariance_deviation(sigma, rng.uniform(-1.0, 1.0, n), plan))
    else:
        name = "equivariance_random"
        for _ in range(trials):
            sigma = random_permutation(n, rng)
            dev = max(dev, _equivariance_deviation(sigma, rng.uniform(-1.0, 1.0, n), plan))

    composition = 0.0
    for _ in range(20):
        sigma = random_permutation(n, rng)
        delta = random_permutation(n, rng)
        spectrum = transform(rng.uniform(-1.0, 1.0, n), plan)
        twice = spectral_shift(delta, spectral_shift(sigma, spectrum, plan), plan)
        once = spectral_shift(compose(sigma, delta), spectrum, plan)
        composition = max(composition, float(np.max(np.abs(twice - once))))

    return SuiteReport(
        suite="theorem",
        n=n,
        seed=seed,
        checks=(Check(name, dev, 1e-10), Check("shift_composition", composition, 1e-10)),
    )


def _ratio(value: float, bound: float) -> float:
    # An all-zero input has bound 0 and exactly zero coefficients: read 0/0 as 0.
    return value / bound if bound > 0.0 else (0.0 if value == 0.0 else math.inf)


def bandlimit_checks(report: BandlimitReport) -> tuple[Check, ...]:
    """Band-limit checks of one lifted vector, as ratios against its scaled bound."""
    return (
        Check("off_band_ratio", _ratio(report.off_band_max, report.bound), 1.0),
        Check("standard_tail_ratio", _ratio(report.tail_max, report.bound), 1.0),
    )


def schur_checks(report: SchurReport) -> tuple[Check, ...]:
    """Diagonality of the linking matrix and the values of its two scalars."""
    n = report.n
    lam1_exact = math.factorial(n - 1) * math.sqrt(n)
    lam2_frozen = math.factorial(n - 1) * math.sqrt(n / (n - 1))
    return (
        Check("linking_diagonality", report.off_structure_max, 1e-9),
        Check("lambda1_relative_error", abs(report.lambda1 - lam1_exact) / lam1_exact, 1e-9),
        Check("lambda2_regression", abs(report.lambda2 - lam2_frozen) / lam2_frozen, 1e-9),
        Check("block_split", 0.0 if report.block_split == (1, n - 1) else 1.0, 0.0),
    )


def run_prop1(n: int, seed: int = 0, trials: int = 50) -> SuiteReport:
    """Band-limitedness of lifted vectors: the worst ratio of each check over the trials."""
    rng = np.random.default_rng(seed)
    trials_checks = [
        bandlimit_checks(verify_bandlimit(rng.uniform(-1.0, 1.0, n))) for _ in range(trials)
    ]
    worst = tuple(max(same, key=lambda check: check.deviation) for same in zip(*trials_checks))
    return SuiteReport(suite="prop1", n=n, seed=seed, checks=worst)


def run_schur(n: int) -> SuiteReport:
    """Diagonality of the linking matrix and the values of its two scalars."""
    return SuiteReport(suite="schur", n=n, seed=None, checks=schur_checks(derive_schur_constants(n)))


def run_suite(suite: str, n: int, seed: int = 0) -> list[SuiteReport]:
    """Run one named suite, or all of them for suite='all'."""
    runners = {
        "coxeter": lambda: run_coxeter(n),
        "orthogonality": lambda: run_orthogonality(n, seed),
        "theorem": lambda: run_theorem(n, seed),
        "prop1": lambda: run_prop1(n, seed),
        "schur": lambda: run_schur(n),
    }
    if suite == "all":
        return [run() for run in runners.values()]
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    return [runners[suite]()]
