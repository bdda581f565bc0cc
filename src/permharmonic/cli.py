"""Command-line surface: transform, shift, verify, oracle, bench.

Exit codes: 0 success, 1 a verification check failed, 2 usage or input
problems (unparseable or non-finite vectors, invalid permutations, n above
a size limit or the oracle cap, results that overflow to a non-finite number).

Determinism contract: randomized commands draw from numpy's default_rng
(PCG64) with the given --seed, and their JSON output carries no timing
fields, so identical invocations produce byte-identical JSON.  Wall-clock
numbers appear only in text output and in bench results.

Numbers print with 17 significant digits in JSON and CSV (round-trip safe
doubles) and 15 in human-readable text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import verify
from .oracle import derive_schur_constants, verify_bandlimit
from .permutations import from_one_line
from .transform import (
    build_plan,
    check_dense_n,
    dense_transform,
    inverse_transform,
    spectral_shift,
    transform,
    transform_counted,
)


class CliError(Exception):
    """Bad input or arguments; maps to exit code 2."""


def _float_str(value: float, digits: int) -> str:
    return format(float(value), f".{digits}g")


def _first_non_finite(vec: np.ndarray) -> int | None:
    """Index of the first NaN or infinity in vec, or None when every entry is finite."""
    bad = np.flatnonzero(~np.isfinite(vec))
    return int(bad[0]) if bad.size else None


def _join_floats(vec: np.ndarray, digits: int, sep: str) -> str:
    """_float_str of every entry joined by sep, in one %-format pass (same bytes)."""
    values = vec.tolist()
    return sep.join([f"%.{digits}g"] * len(values)) % tuple(values)


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {float(obj)!r} has no JSON form")
        return _float_str(obj, 17)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        if (bad := _first_non_finite(obj)) is not None:
            raise ValueError(f"non-finite value {float(obj[bad])!r} has no JSON form")
        return "[" + _join_floats(obj, 17, ", ") + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _read_vector(source: str) -> np.ndarray:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {source}: {exc}") from exc
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise CliError(f"no numbers found in {source}")
    try:
        values = list(map(float, tokens))
    except ValueError as exc:
        raise CliError(f"cannot parse {source}: {exc}") from exc
    vec = np.array(values)
    if (bad := _first_non_finite(vec)) is not None:
        raise CliError(f"non-finite value {tokens[bad]!r} at index {bad}")
    return vec


def _require_finite(vec: np.ndarray) -> None:
    if (bad := _first_non_finite(vec)) is not None:
        raise CliError(f"result overflows: non-finite value {float(vec[bad])!r} at index {bad}")


def _print_vector(vec: np.ndarray, fmt: str) -> None:
    if fmt == "csv":
        print(_join_floats(vec, 17, ","))
    else:
        print(_join_floats(vec, 15, "\n"))


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.counted and args.inverse:
        raise CliError("--counted applies to the forward transform only")
    x = _read_vector(args.input)
    mult = add = None
    if args.counted:
        out, mult, add = transform_counted(x)
    elif args.inverse:
        out = inverse_transform(x)
    else:
        out = transform(x)
    _require_finite(out)

    if args.format == "json":
        payload = {
            "command": "transform",
            "n": x.shape[0],
            "inverse": bool(args.inverse),
            "output": out,
        }
        if args.counted:
            payload["mult"] = mult
            payload["add"] = add
        print(_to_json(payload))
    else:
        _print_vector(out, args.format)
        if args.counted:
            print(_to_json({"n": x.shape[0], "mult": mult, "add": add}))
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    sigma = from_one_line(args.perm)
    if args.check:
        verify.check_shift_n(sigma.n)  # before the vector is read
    x = _read_vector(args.input)
    plan = build_plan(x.shape[0])
    spectrum = transform(x, plan)
    shifted = spectral_shift(sigma, spectrum, plan)
    _require_finite(shifted)

    check = verify.shift_check(sigma, spectrum, shifted) if args.check else None

    if args.format == "json":
        payload = {
            "command": "shift",
            "n": plan.n,
            "perm": list(sigma.images),
            "output": shifted,
        }
        if check is not None:
            payload["check_deviation"] = check.deviation
            payload["check_passed"] = check.passed
        print(_to_json(payload))
    else:
        _print_vector(shifted, args.format)
        if check is not None:
            status = "PASS" if check.passed else "FAIL"
            print(f"check_deviation = {_float_str(check.deviation, 15)} [{status}]")
    return 1 if check is not None and not check.passed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter_ns()
    reports = verify.run_suite(args.suite, args.n, args.seed)
    elapsed = time.perf_counter_ns() - started
    passed = all(r.passed for r in reports)

    if args.format == "json":
        payload = {
            "command": "verify",
            "suite": args.suite,
            "n": args.n,
            "seed": args.seed,
            "suites": [
                {
                    "suite": r.suite,
                    "checks": [
                        {
                            "name": c.name,
                            "deviation": c.deviation,
                            "tolerance": c.tolerance,
                            "ratio": c.ratio if math.isfinite(c.ratio) else None,
                            "passed": c.passed,
                        }
                        for c in r.checks
                    ],
                    "passed": r.passed,
                }
                for r in reports
            ],
            "passed": passed,
        }
        print(_to_json(payload))
    else:
        for r in reports:
            print(f"suite {r.suite} (n={r.n}):")
            for c in r.checks:
                status = "PASS" if c.passed else "FAIL"
                print(
                    f"  {status} {c.name}: deviation {_float_str(c.deviation, 15)}"
                    f" tolerance {_float_str(c.tolerance, 15)} margin {_float_str(c.ratio, 15)}"
                )
        print(f"overall: {'PASS' if passed else 'FAIL'} (elapsed_ns={elapsed})")
    return 0 if passed else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.input is None and args.n is None:
        raise CliError("oracle needs --n (with --seed) or --input")
    f = _read_vector(args.input) if args.input is not None else None
    n = args.n if f is None else f.shape[0]
    schur = derive_schur_constants(n)  # refuses a bad n before the vector is drawn
    if f is None:
        f = np.random.default_rng(args.seed).uniform(-1.0, 1.0, n)
    source: dict = {"seed": args.seed} if args.input is None else {"input": args.input}
    band = verify_bandlimit(f)
    violations = [
        f"{c.name} {c.deviation!r} exceeds tolerance {c.tolerance!r}"
        for c in verify.bandlimit_checks(band) + verify.schur_checks(schur)
        if not c.passed
    ]

    payload = {
        "command": "oracle",
        "n": n,
        **source,
        "partitions": {",".join(map(str, shape)): norm for shape, norm in band.block_norms.items()},
        "bound": band.bound,
        "off_band_max": band.off_band_max,
        "standard_tail_max": band.tail_max,
        "lambda1": schur.lambda1,
        "lambda2": schur.lambda2,
        "block_split": list(schur.block_split),
        "violations": violations,
    }
    if args.format == "json":
        print(_to_json(payload))
    else:
        for shape, norm in payload["partitions"].items():
            print(f"|F({shape})|_max = {_float_str(norm, 15)}")
        print(f"bound = {_float_str(band.bound, 15)}")
        print(f"lambda1 = {_float_str(schur.lambda1, 15)}")
        print(f"lambda2 = {_float_str(schur.lambda2, 15)}")
        print(f"block_split = {schur.block_split}")
        for v in violations:
            print(f"VIOLATION: {v}")
        print("overall: " + ("PASS" if not violations else "FAIL"))
    return 0 if not violations else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(t) for t in args.n_list.split(",") if t]
    except ValueError as exc:
        raise CliError(f"cannot parse --n-list: {exc}") from exc
    if not sizes:
        raise CliError("--n-list needs at least one size")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    for n in sizes:
        check_dense_n(n)

    rng = np.random.default_rng(0)
    rows = []
    for n in sizes:
        plan = build_plan(n)
        dense = dense_transform(plan)
        x = rng.uniform(-1.0, 1.0, n)
        fast_ns = min(_time_ns(lambda: transform(x, plan)) for _ in range(args.reps))
        dense_ns = min(_time_ns(lambda: dense @ x) for _ in range(args.reps))
        _, mult, add = transform_counted(x, plan)
        rows.append(
            {
                "n": n,
                "fast_ns": fast_ns,
                "dense_ns": dense_ns,
                "mult": mult,
                "add": add,
                "ops_total": mult + add,
                "bound_cubic": n**3 - n**2,
                "bound_quadratic": 3 * n * (n - 1) // 2,
            }
        )
    crossover = next((r["n"] for r in rows if r["fast_ns"] < r["dense_ns"]), None)
    cols = list(rows[0])

    if args.format == "json":
        print(_to_json({"command": "bench", "reps": args.reps, "rows": rows, "crossover_n": crossover}))
    elif args.format == "csv":
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r[c]) for c in cols))
    else:
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
        print("  ".join(c.rjust(widths[c]) for c in cols))
        for r in rows:
            print("  ".join(str(r[c]).rjust(widths[c]) for c in cols))
        if crossover is None:
            print("crossover: none observed (dense multiply never slower on this list)")
        else:
            print(f"crossover: fast path beats dense multiply from n={crossover}")
    return 0


def _time_ns(fn) -> int:
    start = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permharmonic",
        description="Linear-time orthogonal spectral transform for permuted vectors, "
        "with verification suites and a small-n full-group oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply the forward or inverse transform to a vector")
    p.add_argument("input", nargs="?", default="-", help="vector file, or - for stdin (default)")
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    p.add_argument("--counted", action="store_true", help="report exact multiply/add counts")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("shift", help="shift a vector's spectrum by a permutation")
    p.add_argument("input", nargs="?", default="-", help="vector file, or - for stdin (default)")
    p.add_argument("--perm", required=True, help='one-line images, 1-based, e.g. "2 1 3"')
    p.add_argument(
        "--check",
        action="store_true",
        help="also shift by the Young word product 1 (+) D(sigma)^t, Theta(n^2), "
        f"and report the deviation; refused above n = {verify.SHIFT_CHECK_MAX_N}",
    )
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(handler=_cmd_shift)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=verify.SUITES + ("all",))
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"orthogonality, theorem: n <= {verify.QUADRATIC_SUITE_MAX_N}",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="full-group coefficient report for a lifted vector")
    p.add_argument("--n", type=int, default=None, help="vector length for the seeded random input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None, help="read the vector from a file instead")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("bench", help="time the O(n) path against a dense multiply")
    p.add_argument("--n-list", default="8,16,32,64,128,256,512,1024")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
