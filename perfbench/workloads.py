"""The five workloads: seeded inputs, the round of operations each repeats, and checks.

A workload makes its inputs from the seed with numpy alone, before the
package is imported.  ``prepare`` runs after the import; it builds plans and
the package's input objects and returns a pool of rounds.  A round is a fixed
list of operations; the timed loop runs whole rounds, cycling through the
pool, so every run attempts the same mix.  An operation calls a public
function of ``permharmonic`` looked up at call time through its module
attribute (so the traced run sees it).

Checks never compare against stored output of the program.  Each returns a
ratio of an observed deviation to its tolerance or first-order bound, so a
check passes when its ratio is at most 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

FAIL = math.inf


def mod(name: str):
    return sys.modules[f"permharmonic.{name}"]


@dataclass
class Op:
    label: str
    target: object
    attr: str
    args: tuple
    source: np.ndarray | None = None  # the vector a spectral input was made from, for checks


@dataclass
class OpError:
    """An operation that raised; counted as failed."""

    error: BaseException


class Checks:
    """Worst ratio per named check; a ratio above 1 fails."""

    def __init__(self) -> None:
        self.worst: dict[str, float] = {}
        self.bounded: set[str] = set()

    def add(self, name: str, ratio: float, bounded: bool = False) -> None:
        ratio = float(ratio) if np.isfinite(ratio) or ratio == FAIL else FAIL
        self.worst[name] = max(self.worst.get(name, 0.0), ratio)
        if bounded:
            self.bounded.add(name)

    def flag(self, name: str, ok: bool) -> None:
        self.add(name, 0.0 if ok else FAIL)

    @property
    def passed(self) -> bool:
        return all(r <= 1.0 for r in self.worst.values())

    def err_to_bound(self) -> float:
        return max((self.worst[n] for n in self.bounded), default=0.0)


def near_identity(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """The identity after three random adjacent swaps."""
    images = list(range(1, n + 1))
    for k in rng.integers(1, n, size=3):
        images[k - 1], images[k] = images[k], images[k - 1]
    return tuple(images)


def random_images(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(v) + 1 for v in rng.permutation(n))


def max_abs(a) -> float:
    return float(np.max(np.abs(a)))


class Workload:
    name = ""  # as in BENCHMARK.json, where each workload's reason is recorded

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        self._dense: dict[int, np.ndarray] = {}

    def dense(self, n: int) -> np.ndarray:
        if n not in self._dense:
            self._dense[n] = ref.dense_matrix(n)
        return self._dense[n]

    def prepare(self) -> list[list[Op]]:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed work that runs once between set-up and the timed loop."""

    def failed(self, op: Op, out) -> bool:
        return isinstance(out, OpError)

    def check_op(self, op: Op, out, checks: Checks) -> None:
        raise NotImplementedError

    def check_extra(self, checks: Checks) -> None:
        """Checks that make their own calls, after the timed loop."""

    def round_counts(self, ops: list[Op], outs: list) -> dict[str, int]:
        return {}

    def largest_forward(self):
        """(x, plan) of the largest vector the workload transforms, or None."""
        return None

    # shared check helpers -------------------------------------------------

    def check_forward(self, x, out, checks: Checks, name: str = "forward_vs_reference") -> None:
        n = x.shape[0]
        bound = ref.forward_bound(x)
        if n <= 1024:
            expected = self.dense(n) @ x
            bound = bound + n * ref.U * (np.abs(self.dense(n)) @ np.abs(x))
        else:
            expected = ref.forward(x)
        # The reference is itself rounded to float64 once.
        bound = bound + ref.U * np.abs(expected)
        checks.add(name, ref.worst_ratio(np.asarray(out) - expected, bound), bounded=True)

    def check_inverse(self, X, out, checks: Checks) -> None:
        n = X.shape[0]
        bound = ref.inverse_bound(X)
        if n <= 1024:
            expected = self.dense(n).T @ X
            bound = bound + n * ref.U * float(np.max(np.abs(self.dense(n)).T @ np.abs(X)))
        else:
            expected = ref.inverse(X)
        bound = bound + ref.U * np.abs(expected)
        checks.add("inverse_vs_reference", ref.worst_ratio(np.asarray(out) - expected, bound), bounded=True)

    def check_shift(self, sigma_images, x, X, out, checks: Checks) -> None:
        idx = np.array(sigma_images) - 1
        expected = self.dense(x.shape[0]) @ x[idx]
        checks.add("shift_vs_dense", max_abs(np.asarray(out) - expected) / ref.shift_tolerance(X))

    def check_shift_algebra(self, sigma, delta, X, plan, checks: Checks) -> None:
        T, P = mod("transform"), mod("permutations")
        tol = ref.shift_tolerance(X)
        once_sigma = T.spectral_shift(sigma, X, plan)
        twice = T.spectral_shift(delta, once_sigma, plan)
        once = T.spectral_shift(P.compose(sigma, delta), X, plan)
        checks.add("shift_composition", max_abs(twice - once) / tol)
        checks.add("shift_norm", abs(float(np.linalg.norm(once_sigma)) - float(np.linalg.norm(X))) / tol)


class LargeVectors(Workload):
    name = "large-vectors"
    SIZES = (1 << 16, 1 << 20)
    OFFSET = 1.0e3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        big, small = self.SIZES[1], self.SIZES[0]
        self.x_big = self.OFFSET + self.rng.standard_normal(big)
        self.x_small = [self.OFFSET + self.rng.standard_normal(small) for _ in range(4)]
        self.x_cert = self.OFFSET + self.rng.standard_normal(4096)
        # Any vector is a valid spectrum; drawing it directly keeps the
        # reference computation out of the process before the timed loop.
        self.spectra = {id(x): self.rng.standard_normal(x.shape[0]) for x in [self.x_big, *self.x_small]}

    def prepare(self) -> list[list[Op]]:
        T = mod("transform")
        self.plans = {n: T.build_plan(n) for n in self.SIZES}
        ops = []
        for x in [self.x_big, *self.x_small]:
            plan = self.plans[x.shape[0]]
            tag = f"2^{x.shape[0].bit_length() - 1}"
            ops += [
                Op(f"forward@{tag}", T, "transform", (x, plan)),
                Op(f"inverse@{tag}", T, "inverse_transform", (self.spectra[id(x)], plan)),
                Op(f"counted@{tag}", T, "transform_counted", (x, plan)),
            ]
        return [ops]

    def check_op(self, op: Op, out, checks: Checks) -> None:
        x = op.args[0]
        n = x.shape[0]
        if op.attr == "transform":
            self.check_forward(x, out, checks)
        elif op.attr == "inverse_transform":
            self.check_inverse(x, out, checks)
        else:
            spectrum, mult, add = out
            self.check_forward(x, spectrum, checks, "counted_vs_reference")
            checks.flag("counted_exact_counts", (mult, add) == (2 * n - 2, 2 * n - 2))

    def check_extra(self, checks: Checks) -> None:
        T = mod("transform")
        for x in (self.x_big, self.x_small[0]):
            plan = self.plans[x.shape[0]]
            spectrum = T.transform(x, plan)
            bound = ref.forward_bound(x)
            values = x.tolist()
            rows = np.unique(np.concatenate(([0, 1, x.shape[0] - 1], self.rng.integers(0, x.shape[0], 9))))
            for r in rows:
                err = spectrum[r] - ref.forward_row_fsum(values, int(r))
                checks.add("forward_rows_fsum", abs(err) / bound[r], bounded=True)
            norm_x = float(np.linalg.norm(x))
            parseval_bound = float(np.linalg.norm(bound)) + x.shape[0] * ref.U * norm_x
            checks.add("parseval", abs(float(np.linalg.norm(spectrum)) - norm_x) / parseval_bound, bounded=True)
            back = T.inverse_transform(spectrum, plan)
            trip_bound = float(np.linalg.norm(bound)) + ref.inverse_bound(spectrum)
            checks.add("round_trip", max_abs(back - x) / trip_bound, bounded=True)
        # Certify the declared counts with the scalar-by-scalar counter.
        n = self.x_cert.shape[0]
        scalar, mult_s, add_s = T.transform_counted_scalarwise(self.x_cert)
        counted, mult_c, add_c = T.transform_counted(self.x_cert)
        checks.flag("certified_counts", (mult_s, add_s) == (mult_c, add_c) == (2 * n - 2, 2 * n - 2))
        self.check_forward(self.x_cert, scalar, checks, "scalarwise_vs_reference")
        self.check_forward(self.x_cert, counted, checks, "counted_vs_reference")

    def round_counts(self, ops: list[Op], outs: list) -> dict[str, int]:
        counted = [out for op, out in zip(ops, outs) if op.attr == "transform_counted"]
        return {"mult": sum(o[1] for o in counted), "add": sum(o[2] for o in counted)}

    def largest_forward(self):
        return self.x_big, self.plans[self.x_big.shape[0]]


class SmallCalls(Workload):
    name = "small-calls"
    PER_SIZE = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.vectors = {n: [self.rng.uniform(-1.0, 1.0, n) for _ in range(self.PER_SIZE)] for n in (8, 64, 1024)}
        self.perm_images = {n: [near_identity(n, self.rng) for _ in range(self.PER_SIZE)] for n in (64, 1024)}
        self.spectra = {n: [ref.forward(x) for x in xs] for n, xs in self.vectors.items()}

    def prepare(self) -> list[list[Op]]:
        T, P = mod("transform"), mod("permutations")
        self.plans = {n: T.build_plan(n) for n in self.vectors}
        self.perms = {n: [P.Permutation(images) for images in imgs] for n, imgs in self.perm_images.items()}
        ops = []
        for i in range(self.PER_SIZE):
            for n in (8, 64):
                x, X, plan = self.vectors[n][i], self.spectra[n][i], self.plans[n]
                ops += [Op(f"forward@{n}", T, "transform", (x, plan)), Op(f"inverse@{n}", T, "inverse_transform", (X, plan))]
            for n in (64, 1024):
                sigma, x, X = self.perms[n][i], self.vectors[n][i], self.spectra[n][i]
                ops += [
                    Op(f"apply@{n}", sigma, "apply_to_vector", (x,)),
                    Op(f"shift@{n}", T, "spectral_shift", (sigma, X, self.plans[n]), source=x),
                ]
        return [ops]

    def check_op(self, op: Op, out, checks: Checks) -> None:
        if op.attr == "transform":
            self.check_forward(op.args[0], out, checks)
        elif op.attr == "inverse_transform":
            self.check_inverse(op.args[0], out, checks)
        elif op.attr == "apply_to_vector":
            x = op.args[0]
            expected = x[np.array(op.target.images) - 1]
            checks.flag("apply_exact", np.array_equal(out, expected))
        else:
            sigma, X, _ = op.args
            self.check_shift(sigma.images, op.source, X, out, checks)

    def check_extra(self, checks: Checks) -> None:
        for n in (64, 1024):
            sigma, delta = self.perms[n][0], self.perms[n][1]
            self.check_shift_algebra(sigma, delta, self.spectra[n][0], self.plans[n], checks)

    def largest_forward(self):
        return self.vectors[64][0], self.plans[64]


class RandomShifts(Workload):
    name = "random-shifts"
    MIX = {64: 16, 256: 4, 1024: 1}
    POOL_ROUNDS = 24

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.vectors = {n: self.rng.uniform(-1.0, 1.0, n) for n in self.MIX}
        self.spectra = {n: ref.forward(x) for n, x in self.vectors.items()}
        self.pool_images = [
            [(n, random_images(n, self.rng)) for n, count in self.MIX.items() for _ in range(count)]
            for _ in range(self.POOL_ROUNDS)
        ]

    def prepare(self) -> list[list[Op]]:
        T, P = mod("transform"), mod("permutations")
        self.plans = {n: T.build_plan(n) for n in self.MIX}
        return [
            [
                Op(f"shift@{n}", T, "spectral_shift", (P.Permutation(images), self.spectra[n], self.plans[n]), self.vectors[n])
                for n, images in round_images
            ]
            for round_images in self.pool_images
        ]

    def check_op(self, op: Op, out, checks: Checks) -> None:
        sigma, X, _ = op.args
        self.check_shift(sigma.images, op.source, X, out, checks)

    def check_extra(self, checks: Checks) -> None:
        P = mod("permutations")
        for n in self.MIX:
            sigma = P.Permutation(random_images(n, self.rng))
            delta = P.Permutation(random_images(n, self.rng))
            self.check_shift_algebra(sigma, delta, self.spectra[n], self.plans[n], checks)


class OracleSmallN(Workload):
    name = "oracle-small-n"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.f7 = self.rng.uniform(-1.0, 1.0, 7)
        self.f6 = self.rng.uniform(-1.0, 1.0, 6)
        self.delta_images = random_images(6, self.rng)
        self.suite_seed = int(self.rng.integers(0, 2**31))

    def prepare(self) -> list[list[Op]]:
        O, V, P = mod("oracle"), mod("verify"), mod("permutations")
        delta = P.Permutation(self.delta_images)
        ops = [
            Op("verify_bandlimit@7", O, "verify_bandlimit", (self.f7,)),
            Op("derive_schur_constants@7", O, "derive_schur_constants", (7,)),
            Op("verify_translation@6", O, "verify_translation", (O.lift(self.f6), delta, 6)),
        ]
        ops += [
            Op(f"stabilizer_projection@{shape}", O, "stabilizer_projection", (shape,))
            for n in (6, 7)
            for shape in O.enumerate_partitions(n)
        ]
        ops += [
            Op("run_prop1@6", V, "run_prop1", (6, self.suite_seed, 1)),
            Op("run_schur@6", V, "run_schur", (6,)),
            Op("run_theorem@6", V, "run_theorem", (6, self.suite_seed, 50)),
        ]
        return [ops]

    def after_setup(self) -> None:
        # One call at the default oracle cap: it fills the n!-sized walk cache,
        # which the peak-RSS figure should include.
        self.schur8 = mod("oracle").derive_schur_constants(8)

    def check_schur(self, report, n: int, checks: Checks) -> None:
        lam1 = math.factorial(n - 1) * math.sqrt(n)
        lam2 = math.factorial(n - 1) * math.sqrt(n / (n - 1))
        checks.add("schur_lambda1", abs(report.lambda1 - lam1) / (1e-9 * lam1))
        checks.add("schur_lambda2", abs(report.lambda2 - lam2) / (1e-9 * lam2))
        checks.add("schur_diagonal", report.off_structure_max / (1e-9 * lam1))
        checks.flag("schur_block_split", tuple(report.block_split) == (1, n - 1))

    def check_op(self, op: Op, out, checks: Checks) -> None:
        name = op.attr
        if name == "verify_bandlimit":
            f = op.args[0]
            n = f.shape[0]
            scale = math.factorial(n - 1)
            trivial = scale * abs(math.fsum(f.tolist()))
            checks.add("trivial_coefficient", abs(out.block_norms[(n,)] - trivial) / (1e-12 * scale * float(np.sum(np.abs(f)))))
            lam2 = scale * math.sqrt(n / (n - 1))
            standard = lam2 * max_abs((self.dense(n) @ f)[1:])
            checks.add("standard_block", abs(out.block_norms[(n - 1, 1)] - standard) / (1e-9 * max(standard, 1.0)))
            checks.add("off_band", max(out.off_band_max, out.tail_max) / out.bound)
            checks.flag("bandlimit_passed", out.passed and len(out.block_norms) == ref.partition_count(n))
        elif name == "derive_schur_constants":
            self.check_schur(out, op.args[0], checks)
        elif name == "verify_translation":
            checks.add("translation_rule", out.max_deviation / 1e-9)
            checks.flag("translation_partitions", out.passed and len(out.deviations) == ref.partition_count(op.args[2]))
        elif name == "stabilizer_projection":
            shape = op.args[0]
            n = sum(shape)
            out = np.asarray(out)
            checks.add("projection_idempotent", max_abs(out @ out - out) / 1e-12)
            expected = np.zeros_like(out)
            if shape in ((n,), (n - 1, 1)):
                expected[0, 0] = 1.0
            checks.add("projection_entries", max_abs(out - expected) / 1e-12)
        else:
            for report in [out] if not isinstance(out, list) else out:
                for check in report.checks:
                    checks.flag(f"suite_{report.suite}", check.passed and check.deviation <= check.tolerance)

    def check_extra(self, checks: Checks) -> None:
        self.check_schur(self.schur8, 8, checks)


class CliRunner:
    """Calls ``permharmonic.cli.main`` with stdout and stderr captured."""

    def main(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mod("cli").main(argv)
        return code, out.getvalue(), err.getvalue()


def strict_json(text: str):
    """json.loads that rejects the non-standard NaN / Infinity tokens too."""

    def reject(token: str):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


# The first non-finite entry of CliFiles.NONFINITE, as a 0-based index or a 1-based file line.
NONFINITE_NAMED = re.compile(r"\b(index\s*[:#=]?\s*1|line\s*[:#=]?\s*2)\b", re.IGNORECASE)


@dataclass
class CliInput:
    values: np.ndarray
    kind: str


class CliFiles(Workload):
    name = "cli-files"
    SIZES = (4096, 16384, 65536)
    SHIFT_N = 256
    SHIFTS = 4
    # Not seeded on purpose: the one operation that fails today (non-finite
    # values printed as bare tokens in JSON) fails on every run alike.
    NONFINITE = np.array([1.0, np.inf, 2.0, 3.0])

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.dir = workdir / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, CliInput] = {}
        for n in self.SIZES:
            x = self.rng.standard_normal(n)
            self._write(f"x{n}", x, "forward")
            self._write(f"X{n}", ref.forward(x), "inverse")
        x = self.rng.uniform(-1.0, 1.0, self.SHIFT_N)
        self._write(f"x{self.SHIFT_N}", x, "shift")
        self.perm_images = [random_images(self.SHIFT_N, self.rng) for _ in range(self.SHIFTS)]
        self._write("nonfinite", self.NONFINITE, "nonfinite")

    def _write(self, key: str, values: np.ndarray, kind: str) -> None:
        path = self.dir / f"{key}.txt"
        path.write_text("\n".join(format(float(v), ".17g") for v in values) + "\n", encoding="utf-8")
        self.inputs[str(path)] = CliInput(values, kind)

    def prepare(self) -> list[list[Op]]:
        runner = CliRunner()
        ops = []
        for n in self.SIZES:
            ops.append(Op(f"transform-json@{n}", runner, "main", (["transform", str(self.dir / f"x{n}.txt"), "--format", "json"],)))
            ops.append(Op(f"inverse-csv@{n}", runner, "main", (["transform", str(self.dir / f"X{n}.txt"), "--inverse", "--format", "csv"],)))
        shift_path = str(self.dir / f"x{self.SHIFT_N}.txt")
        for images in self.perm_images:
            perm = " ".join(map(str, images))
            ops.append(Op(f"shift-check-json@{self.SHIFT_N}", runner, "main", (["shift", shift_path, "--perm", perm, "--check", "--format", "json"],)))
        ops.append(Op("transform-json-nonfinite", runner, "main", (["transform", str(self.dir / "nonfinite.txt"), "--format", "json"],)))
        return [ops]

    def failed(self, op: Op, out) -> bool:
        if isinstance(out, OpError):
            return True
        code, stdout, stderr = out
        if op.label != "transform-json-nonfinite":
            return code != 0
        # Passes once the output is valid JSON, or once the command refuses
        # the input with exit 2 and names the first non-finite entry.  The path
        # is removed first, since its digits would otherwise pass for an index.
        if code == 2:
            return NONFINITE_NAMED.search(stderr.replace(op.args[0][1], "")) is None
        try:
            strict_json(stdout)
        except ValueError:
            return True
        return code != 0

    def check_op(self, op: Op, out, checks: Checks) -> None:
        code, stdout, _ = out
        argv = op.args[0]
        if op.label == "transform-json-nonfinite":
            return
        checks.flag("exit_code", code == 0)
        source = self.inputs[argv[1]]
        if source.kind == "forward":
            payload = strict_json(stdout)
            checks.flag("json_fields", payload["command"] == "transform" and payload["n"] == source.values.shape[0] and payload["inverse"] is False)
            self.check_forward(source.values, np.array(payload["output"], dtype=float), checks)
        elif source.kind == "inverse":
            values = np.array([float(t) for t in stdout.strip().split(",")])
            self.check_inverse(source.values, values, checks)
        else:
            payload = strict_json(stdout)
            images = tuple(int(v) for v in argv[argv.index("--perm") + 1].split())
            checks.flag("json_fields", payload["command"] == "shift" and tuple(payload["perm"]) == images and payload["check_passed"] is True)
            x = source.values
            self.check_shift(images, x, self.dense(x.shape[0]) @ x, np.array(payload["output"], dtype=float), checks)

    def round_counts(self, ops: list[Op], outs: list) -> dict[str, int]:
        bytes_in = sum(Path(op.args[0][1]).stat().st_size for op in ops)
        bytes_out = sum(len(o[1].encode()) + len(o[2].encode()) for o in outs if not isinstance(o, OpError))
        return {"bytes_in": bytes_in, "bytes_out": bytes_out}

    def largest_forward(self):
        n = self.SIZES[-1]
        return self.inputs[str(self.dir / f"x{n}.txt")].values, mod("transform").build_plan(n)


WORKLOADS = {w.name: w for w in (LargeVectors, SmallCalls, RandomShifts, OracleSmallN, CliFiles)}
