"""Named verification suites over the library's invariants.

Each suite bundles related checks into a report of (deviation, tolerance)
pairs: generator relations, orthogonality and round trips, the permutation
equivariance identity, band-limitedness of lifted vectors, and the scalar
constants linking the full-group oracle to the fast transform.  Suites are
deterministic given a seed; randomness comes from numpy's default_rng.

Checks that depend on input scale report a ratio against their input-scaled
bound, with tolerance 1.0.  Every check's margin, deviation / tolerance, is
Check.ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import (
    SCHUR_MIN_N, BandlimitReport, SchurReport, derive_schur_constants, verify_bandlimit
)
from .permutations import Permutation, check_cap, enumerate_group, random_permutation
from .transform import (
    _coerced, build_plan, dense_transform, inverse_transform, spectral_shift, transform
)
from .yor import COXETER_N, standard_irrep, standard_irrep_transpose_apply, verify_coxeter

# Largest n of the Theta(n^2) references: orthogonality, theorem and shift_check.
QUADRATIC_SUITE_MAX_N = 256
SHIFT_CHECK_MAX_N = 4096

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    @property
    def ratio(self) -> float:
        """The margin deviation / tolerance, at most 1 when the check passes; see _ratio."""
        return _ratio(self.deviation, self.tolerance)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    seed: int | None
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def run_coxeter(n: int) -> SuiteReport:
    """Involution, braid, and distant-commutation relations of the generators."""
    return SuiteReport(
        suite="coxeter",
        n=n,
        seed=None,
        checks=(Check("coxeter_relations", verify_coxeter(n), 1e-12),),
    )


def run_orthogonality(n: int, seed: int = 0) -> SuiteReport:
    """Orthogonality of the transform and the irrep, plus round-trip identities, over 20 trials."""
    plan = build_plan(n)
    dense = dense_transform(plan)
    orth = float(np.max(np.abs(dense @ dense.T - np.eye(n))))

    rng = np.random.default_rng(seed)
    fast_dense = parseval = roundtrip = inv_dense = irrep_orth = 0.0
    for _ in range(20):
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


def check_shift_n(n: int) -> None:
    """Refuse an n above SHIFT_CHECK_MAX_N, where shift_check's Theta(n^2) word grows too long."""
    if n > SHIFT_CHECK_MAX_N:
        raise ValueError(f"shift_check needs n <= {SHIFT_CHECK_MAX_N} (Theta(n^2) word), got {n}")


def shift_check(sigma: Permutation | np.ndarray, spectrum: np.ndarray, shifted: np.ndarray) -> Check:
    """Deviation of shifted spectra from the Young word product 1 (+) D(sigma)^t.

    The tolerance is a first-order float64 bound (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3) at the spectra's scale, which
    the orthogonal maps preserve: 4u per step, for the two roundings of a
    two-term combination and those of its coefficients, over n(n-1)/2 steps
    for the longest word plus n for the O(n) path.  u is the unit roundoff.
    sigma is read as in spectral_shift, both (..., n) arrays of one shape by
    the transform's dtype rule; check_shift_n refuses n first.
    """
    n = sigma.n if isinstance(sigma, Permutation) else np.atleast_1d(sigma).shape[-1]
    check_shift_n(n)
    spectrum, shifted = _coerced(spectrum), _coerced(shifted)
    if spectrum.shape != shifted.shape or spectrum.shape[-1:] != (n,):
        shapes = f"spectrum shape {spectrum.shape} and shifted shape {shifted.shape}"
        raise ValueError(f"{shapes} must be equal, with last axis n = {n}")
    bound = 4 * _UNIT_ROUNDOFF * (n * (n - 1) // 2 + n) * float(np.max(np.abs(spectrum), initial=0.0))
    reference = np.array(spectrum)
    reference[..., 1:] = standard_irrep_transpose_apply(n, sigma, spectrum[..., 1:])
    deviation = float(np.max(np.abs(shifted - reference), initial=0.0))
    return Check("shift_word_product", deviation, bound)


def run_theorem(n: int, seed: int = 0, trials: int = 500) -> SuiteReport:
    """Permuting the input equals shifting the spectrum by the word product 1 (+) D(sigma)^t.

    The reference is yor's generator word, not spectral_shift, which goes
    through the transform itself.  Exhaustive over the group for n <= 5
    (fresh random vector per element), random (permutation, vector) pairs above.
    All pairs are drawn first, then transformed and checked in one batched call each.
    """
    plan = build_plan(n)
    rng = np.random.default_rng(seed)
    if n <= 5:
        name = "equivariance_exhaustive"
        rows = (sigma.images for sigma in enumerate_group(n))
    else:
        name = "equivariance_random"
        rows = (rng.permutation(n) + 1 for _ in range(trials))  # as random_permutation draws
    # Drawn lazily: each permutation's image row, then its vector.
    pairs = [(images, rng.uniform(-1.0, 1.0, n)) for images in rows]
    x = np.reshape([vector for _, vector in pairs], (-1, n))
    images = np.array([images for images, _ in pairs], dtype=np.intp).reshape(-1, n)
    shifted = transform(np.take_along_axis(x, images - 1, axis=-1), plan)
    dev = shift_check(images, transform(x, plan), shifted).deviation

    # Image rows of sigma and delta, then a vector, per trial, as random_permutation
    # draws them; compose(sigma, delta) reads sigma's images at delta's.
    draws = [
        (rng.permutation(n) + 1, rng.permutation(n) + 1, rng.uniform(-1.0, 1.0, n))
        for _ in range(20)
    ]
    sigma_rows, delta_rows, vectors = (np.array(column) for column in zip(*draws))
    spectrum = transform(vectors, plan)
    twice = spectral_shift(delta_rows, spectral_shift(sigma_rows, spectrum, plan), plan)
    once = spectral_shift(np.take_along_axis(sigma_rows, delta_rows - 1, axis=-1), spectrum, plan)
    composition = float(np.max(np.abs(twice - once)))

    return SuiteReport(
        suite="theorem",
        n=n,
        seed=seed,
        checks=(Check(name, dev, 1e-10), Check("shift_composition", composition, 1e-10)),
    )


def _ratio(value: float, bound: float) -> float:
    # An all-zero input has bound 0 and exactly zero coefficients: read 0/0 as 0.
    # Any other value over a bound <= 0 fails its check, and reads inf.
    return value / bound if bound > 0.0 else (0.0 if value == 0.0 == bound else math.inf)


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


# suite: (runner(n, seed), least n, greatest n); None is the oracle cap, checked by check_cap.
_SUITES = {
    "coxeter": (lambda n, seed: run_coxeter(n), COXETER_N[0], COXETER_N[-1]),
    "orthogonality": (lambda n, seed: run_orthogonality(n, seed), 2, QUADRATIC_SUITE_MAX_N),
    "theorem": (lambda n, seed: run_theorem(n, seed), 2, QUADRATIC_SUITE_MAX_N),
    "prop1": (lambda n, seed: run_prop1(n, seed), 2, None),
    "schur": (lambda n, seed: run_schur(n), SCHUR_MIN_N, None),
}
SUITES = tuple(_SUITES)


def run_suite(suite: str, n: int, seed: int = 0) -> list[SuiteReport]:
    """Run one named suite, or all of them for suite='all', once n is in every one's range."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        _, least, most = _SUITES[name]
        if most is None:
            check_cap(n)
        elif n > most:
            raise ValueError(f"suite {name!r} supports n <= {most}, got {n}")
        if n < least:
            raise ValueError(f"suite {name!r} needs n >= {least}, got {n}")
    return [_SUITES[name][0](n, seed) for name in names]
