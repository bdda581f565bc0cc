"""Acceptance suite: one test per shipping criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a CRITERION nn PASS summary (shown with -s).
Tolerances and ranges here are the package's acceptance contract; loosening
them is not an option, a red test means the library is wrong.
"""

import math
import time

import numpy as np

from permharmonic.oracle import (
    derive_schur_constants,
    enumerate_partitions,
    stabilizer_projection,
    verify_bandlimit,
    verify_translation,
)
from permharmonic.permutations import (
    Permutation,
    adjacent_transposition,
    enumerate_group,
    random_permutation,
)
from permharmonic.transform import (
    build_plan,
    dense_transform,
    inverse_transform,
    spectral_shift,
    transform,
    transform_counted,
)
from permharmonic.yor import (
    standard_irrep_generator,
    verify_coxeter,
)


def _equivariance_max(sigma: Permutation, x: np.ndarray, plan) -> float:
    direct = transform(sigma.apply_to_vector(x), plan)
    shifted = spectral_shift(sigma, transform(x, plan), plan)
    return float(np.max(np.abs(direct - shifted)))


def test_criterion_01_operation_counts():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for n in range(2, 4097):
        _, mult, add = transform_counted(rng.uniform(-1.0, 1.0, n))
        assert mult == 2 * n - 2, (n, mult)
        assert add == 2 * n - 2, (n, add)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"count sweep took {elapsed:.3f}s, budget 1s"
    print(f"CRITERION 01 PASS: mult = add = 2n-2 exactly, n in 2..4096 ({elapsed:.3f}s)")


def test_criterion_02_transform_orthogonality():
    worst = 0.0
    for n in range(2, 65):
        t = dense_transform(build_plan(n))
        worst = max(worst, float(np.max(np.abs(t @ t.T - np.eye(n)))))
    assert worst <= 1e-12, worst
    print(f"CRITERION 02 PASS: max |T T^t - I| = {worst:.3e} <= 1e-12, n in 2..64")


def test_criterion_03_shift_equivariance():
    rng = np.random.default_rng(3)
    started = time.perf_counter()
    worst = 0.0
    exhausted = 0
    for n in range(2, 6):
        plan = build_plan(n)
        for sigma in enumerate_group(n):
            worst = max(worst, _equivariance_max(sigma, rng.uniform(-1.0, 1.0, n), plan))
            exhausted += 1
    for n in range(6, 13):
        plan = build_plan(n)
        for _ in range(500):
            sigma = random_permutation(n, rng)
            worst = max(worst, _equivariance_max(sigma, rng.uniform(-1.0, 1.0, n), plan))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10, worst
    assert elapsed < 30.0, f"equivariance sweep took {elapsed:.3f}s, budget 30s"
    print(
        f"CRITERION 03 PASS: equivariance max deviation {worst:.3e} <= 1e-10 "
        f"({exhausted} exhaustive permutations for n in 2..5, 500 random pairs "
        f"per n in 6..12, {elapsed:.3f}s)"
    )


def test_criterion_04_generator_conjugation():
    worst = 0.0
    for n in range(2, 33):
        t = dense_transform(build_plan(n))
        for k in range(1, n):
            tau = adjacent_transposition(n, k)
            p = np.eye(n)[np.array(tau.images) - 1]
            conj = t @ p @ t.T
            expected = np.zeros((n, n))
            expected[0, 0] = 1.0
            expected[1:, 1:] = standard_irrep_generator(n, k)
            worst = max(worst, float(np.max(np.abs(conj - expected))))
            sub = conj[1:, 1:]
            if k == 1:
                assert abs(sub[n - 2, n - 2] + 1.0) <= 1e-12, n
            else:
                # the paper's block [[-c, s], [s, c]], c = 1/k, s = sqrt(1 - c^2)
                r, c = n - k - 1, 1.0 / k
                s = math.sqrt(1.0 - c * c)
                block = np.array([[-c, s], [s, c]])
                block_dev = np.max(np.abs(sub[r : r + 2, r : r + 2] - block))
                assert block_dev <= 1e-12, (n, k)
    assert worst <= 1e-12, worst
    print(
        f"CRITERION 04 PASS: max |T P(tau_k) T^t - (1 (+) D(tau_k))| = {worst:.3e}"
        " <= 1e-12, all k, n in 2..32, -1 corner and 2x2 blocks included"
    )


def test_criterion_05_coxeter_relations():
    worst = max(verify_coxeter(n) for n in range(2, 11))
    assert worst <= 1e-12, worst
    print(f"CRITERION 05 PASS: Coxeter relation deviation {worst:.3e} <= 1e-12, n in 2..10")


def test_criterion_06_bandlimited_spectrum():
    rng = np.random.default_rng(6)
    worst_ratio = 0.0
    n6_elapsed = 0.0
    for n in range(3, 7):
        started = time.perf_counter()
        for _ in range(50):
            report = verify_bandlimit(rng.uniform(-1.0, 1.0, n))
            assert report.off_band_max <= report.bound, (n, report)
            assert report.tail_max <= report.bound, (n, report)
            worst_ratio = max(
                worst_ratio, max(report.off_band_max, report.tail_max) / report.bound
            )
        if n == 6:
            n6_elapsed = time.perf_counter() - started
    assert n6_elapsed < 120.0, f"n=6 batch took {n6_elapsed:.1f}s, budget 120s"
    print(
        f"CRITERION 06 PASS: off-band and standard-tail coefficients within "
        f"{worst_ratio:.3e} of the 1e-9 n! |f| bound, 50 vectors per n in 3..6 "
        f"(n=6 batch {n6_elapsed:.1f}s)"
    )


def test_criterion_07_subgroup_projection():
    worst_unit = worst_zero = worst_idem = 0.0
    for n in range(3, 7):
        for shape in enumerate_partitions(n):
            z = stabilizer_projection(shape)
            worst_idem = max(worst_idem, float(np.max(np.abs(z @ z - z))))
            if shape == (n - 1, 1):
                want = np.zeros((n - 1, n - 1))
                want[0, 0] = 1.0
                worst_unit = max(worst_unit, float(np.max(np.abs(z - want))))
            elif shape != (n,):
                worst_zero = max(worst_zero, float(np.max(np.abs(z))))
    assert worst_unit <= 1e-12, worst_unit
    assert worst_zero <= 1e-12, worst_zero
    assert worst_idem <= 1e-10, worst_idem
    print(
        f"CRITERION 07 PASS: projection unit-entry dev {worst_unit:.3e}, "
        f"off-shape dev {worst_zero:.3e} (<= 1e-12), idempotency dev "
        f"{worst_idem:.3e} (<= 1e-10), n in 3..6"
    )


def test_criterion_08_schur_scalars():
    lines = []
    for n in range(3, 7):
        report = derive_schur_constants(n)
        lam1 = math.factorial(n - 1) * math.sqrt(n)
        assert report.off_structure_max <= 1e-9, (n, report.off_structure_max)
        assert abs(report.lambda1 - lam1) / lam1 <= 1e-9, (n, report.lambda1)
        assert report.block_split == (1, n - 1), (n, report.block_split)
        lines.append(
            f"n={n}: lambda1={report.lambda1:.12g} lambda2={report.lambda2:.12g} "
            f"split={report.block_split}"
        )
    print("CRITERION 08 PASS: linking matrix diagonal with two scalar blocks; " + "; ".join(lines))


def test_criterion_09_round_trip():
    rng = np.random.default_rng(9)
    worst_rt = worst_inv = 0.0
    for n in (2, 3, 4, 5, 8, 16, 32, 64, 128, 256, 512, 1024):
        plan = build_plan(n)
        x = rng.uniform(-10.0, 10.0, n)
        back = inverse_transform(transform(x, plan), plan)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))
        spectrum = rng.uniform(-1.0, 1.0, n)
        dense = dense_transform(plan).T @ spectrum
        worst_inv = max(
            worst_inv, float(np.max(np.abs(inverse_transform(spectrum, plan) - dense)))
        )
    assert worst_rt <= 1e-10, worst_rt
    assert worst_inv <= 1e-12, worst_inv
    print(
        f"CRITERION 09 PASS: round-trip dev {worst_rt:.3e} <= 1e-10 and fast-vs-dense "
        f"inverse dev {worst_inv:.3e} <= 1e-12, n up to 1024"
    )


def test_criterion_10_translation():
    rng = np.random.default_rng(10)
    n = 4
    elements = list(enumerate_group(n))
    worst = 0.0
    for _ in range(20):
        values = dict(zip(elements, rng.uniform(-1.0, 1.0, len(elements))))
        delta = random_permutation(n, rng)
        report = verify_translation(values.__getitem__, delta, n)
        assert report.passed, report
        worst = max(worst, report.max_deviation)
    assert worst <= 1e-9, worst
    print(
        f"CRITERION 10 PASS: shifted spectra match D(delta)^t F blockwise, "
        f"max deviation {worst:.3e} <= 1e-9, 20 random pairs at n=4"
    )
