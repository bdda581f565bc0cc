"""Benchmark runner for permharmonic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric.  Each
run also writes a record to ``perfbench/out/records/``.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
TRACE_BLOCK_S = 0.25  # the traced run alternates untraced and traced blocks this long
TAIL_WINDOW_BEYOND = 20  # samples beyond the tail percentile in each window of op_tail_ms

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import MODULES, PHASES, SpanTable, Tracer  # noqa: E402


def latency_tail_ms(latencies_ns: array, round_ends: list[int]) -> tuple[str, float, int] | None:
    """Tail latency as (percentile label, ms, number of windows), nearest rank.

    The percentile is the highest of p90/p99/p99.9 with at least ten of the
    run's samples beyond it: None below 40 samples, p90 from 40 to 99, where
    no percentile has ten beyond it.  It is taken in windows of whole rounds,
    each the fewest consecutive rounds that hold TAIL_WINDOW_BEYOND samples
    beyond it (the last window also takes the remainder), and the median over
    the windows is reported.  A burst of host interference then moves one
    window's figure, not the run's.  A run too short for two windows is one
    window.
    """
    count = len(latencies_ns)
    if count < 40:
        return None
    label, per = "p90", 10
    for level in (("p99", 100), ("p99.9", 1000)):
        if count // level[1] >= 10:  # nearest rank leaves count // per samples beyond
            label, per = level
    values = np.frombuffer(latencies_ns, dtype=np.int64)
    cuts, start = [0], 0
    for end in round_ends:
        if end - start >= TAIL_WINDOW_BEYOND * per:
            cuts.append(end)
            start = end
    if len(cuts) == 1:
        cuts.append(count)
    cuts[-1] = count
    q = 100 - 100 / per
    tails = [np.percentile(values[a:b], q, method="inverted_cdf") for a, b in zip(cuts, cuts[1:])]
    return label, float(np.median(tails)) * 1e-6, len(tails)


def rss_now_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("permharmonic")
    if Path(package.__file__).resolve().parent != (src / "permharmonic").resolve():
        raise SystemExit(f"error: imported permharmonic from {package.__file__}, not from {src}")
    for name in MODULES:
        importlib.import_module(f"permharmonic.{name}")


def run_round(workload, ops, tracer: Tracer | None = None, latencies_ns: array | None = None, first_op: int = 0):
    """Run one round; returns (outputs, failures, wall seconds, median op latency in ns)."""
    clock = time.perf_counter_ns
    outs = []
    latencies = []
    started = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = first_op + i
        fn = getattr(op.target, op.attr)
        t0 = clock()
        try:
            out = fn(*op.args)
        except Exception as exc:  # an operation that raises is counted as failed
            out = wl.OpError(exc)
        t1 = clock()
        latencies.append(t1 - t0)
        outs.append(out)
    wall = (clock() - started) * 1e-9
    if latencies_ns is not None:
        latencies_ns.extend(latencies)
    failures = sum(workload.failed(op, out) for op, out in zip(ops, outs))
    return outs, failures, wall, statistics.median(latencies)


def setup(workload, tracer_factory=None):
    """Import, prepare and one cold round; returns (seconds, pool, (ops, outputs), tracer).

    Traced, each operation of the round runs twice in a row, cold and then
    warm, so that both calls see the same host speed.
    """
    t0 = time.perf_counter()
    import_package()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    pool = workload.prepare()
    ops = pool[0] if tracer is None else [op for op in pool[0] for _ in range(2)]
    outs, *_ = run_round(workload, ops, tracer)
    return time.perf_counter() - t0, pool, (ops, outs), tracer


def timed_loop(workload, pool, seconds: float, latencies_ns=None, tracer=None, pauses=()):
    """Whole rounds until `seconds` of measured time have passed.

    Each of `pauses` is called once between rounds, at evenly spaced points
    of the measured time, and its own time is left out of the measurement.

    With a tracer, blocks of about TRACE_BLOCK_S alternate between untraced and
    traced rounds, so both see the same drift in host speed; the traced
    rounds are the ones measured and kept.  Kept are the outputs of the first
    round of each pool entry other than pool[0] (the set-up round ran it) and
    of the last measured round.
    """
    kept, seen = [], {0}
    totals = {mode: {"rounds": 0, "wall": 0.0, "attempted": 0, "failed": 0} for mode in ("plain", "traced")}
    round_medians = []
    round_ends = []  # len(latencies_ns) after each round
    traced = False
    rounds = 0
    pending = list(pauses)
    step = seconds / (len(pending) + 1)
    paused = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    next_pause = start + step
    while True:
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        block_end = time.perf_counter() + TRACE_BLOCK_S
        mode = "traced" if traced else "plain"
        while True:
            index = rounds % len(pool)
            ops = pool[index]
            outs = last = None  # let the previous round's outputs go before the next round runs
            outs, failures, wall, median_ns = run_round(
                workload, ops, tracer if traced else None, latencies_ns, first_op=totals[mode]["attempted"]
            )
            rounds += 1
            if latencies_ns is not None:
                round_ends.append(len(latencies_ns))
            totals[mode]["rounds"] += 1
            totals[mode]["wall"] += wall
            totals[mode]["attempted"] += len(ops)
            totals[mode]["failed"] += failures
            if traced or tracer is None:
                round_medians.append(median_ns)
                last = (ops, outs)
                if index not in seen:
                    seen.add(index)
                    kept.append(last)
            now = time.perf_counter()
            if pending and now >= next_pause:
                pending.pop(0)()
                gap = time.perf_counter() - now
                paused += gap
                deadline += gap
                next_pause += step + gap
            if now >= deadline or (tracer is not None and now >= block_end):
                break
        if now >= deadline and (tracer is None or traced):
            break
        traced = not traced
    if tracer is not None:
        tracer.uninstall()
    measured = totals["traced" if tracer is not None else "plain"]
    return {
        "elapsed": time.perf_counter() - start - paused,
        "attempted": totals["plain"]["attempted"] + totals["traced"]["attempted"],
        "failed": totals["plain"]["failed"] + totals["traced"]["failed"],
        "rounds": measured["rounds"],
        "totals": totals,
        "round_medians": round_medians,
        "round_ends": round_ends,
        "kept": kept if kept and kept[-1] is last else kept + [last],
        "last": last,
    }


def run_checks(workload, kept) -> "wl.Checks":
    checks = wl.Checks()
    for ops, outs in kept:
        for op, out in zip(ops, outs):
            if not workload.failed(op, out):
                workload.check_op(op, out, checks)
    workload.check_extra(checks)
    return checks


def setup_probe(args) -> int:
    workload = wl.WORKLOADS[args.workload](args.seed, OUT / "inputs")
    seconds, _, _, _ = setup(workload)
    print(json.dumps({"setup_s": seconds}))
    return 0


def probe_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(args, workload) -> tuple[dict, dict]:
    seconds0, pool, setup_round, _ = setup(workload)
    workload.after_setup()
    gc.collect()
    latencies_ns = array("q")
    # The set-up probes run between stretches of the timed loop, so that the
    # samples are spread over the run and not all taken in one mode of the
    # host's speed (see README.md, "Noise").
    setup_samples = [seconds0]
    probe = lambda: setup_samples.append(probe_setup_seconds(args))  # noqa: E731
    result = timed_loop(workload, pool, args.seconds, latencies_ns=latencies_ns, pauses=[probe] * (SETUP_SAMPLES - 1))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    checks = run_checks(workload, [setup_round] + result["kept"])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": result["attempted"] / result["elapsed"],
        # The host's speed switches between modes every few seconds; the
        # median of each round, averaged over rounds, averages those modes
        # out where a median over the whole run would jump between them.
        "op_p50_ms": statistics.fmean(result["round_medians"]) * 1e-6,
    }
    tail = latency_tail_ms(latencies_ns, result["round_ends"])
    info = {"setup_samples_s": setup_samples, "rounds": result["rounds"], "ops_per_round": len(pool[0])}
    if tail is not None:
        metrics["op_tail_ms"] = tail[1]
        info["op_tail_percentile"] = tail[0]
        info["op_tail_windows"] = tail[2]
    metrics["peak_rss_mb"] = peak_rss
    return metrics, {**result, "checks": checks, "info": info}


def ratio_of_medians(fn_a, fn_b) -> float:
    """Median time of fn_a over median time of fn_b, from 15 alternating calls each."""
    a, b = [], []
    for _ in range(15):
        t0 = time.perf_counter_ns()
        fn_a()
        t1 = time.perf_counter_ns()
        fn_b()
        t2 = time.perf_counter_ns()
        a.append(t1 - t0)
        b.append(t2 - t1)
    return statistics.median(a) / statistics.median(b)


def kernel_probes(workload) -> dict[str, float]:
    """forward / cumsum time ratio and tracemalloc peak of one call, untraced."""
    largest = workload.largest_forward()
    if largest is None:
        return {"transform.forward_over_cumsum": 0.0, "transform.temp_peak_mb": 0.0}
    x, plan = largest
    T = wl.mod("transform")
    ratio = ratio_of_medians(lambda: T.transform(x, plan), lambda: np.cumsum(x))
    peak = 0
    tracemalloc.start()
    for fn in (T.transform, T.inverse_transform, T.transform_counted):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(x, plan)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    return {"transform.forward_over_cumsum": ratio, "transform.temp_peak_mb": peak / 1e6}


def per_layer(args, workload) -> tuple[dict, dict]:
    rss_before = None

    def make_tracer():
        nonlocal rss_before
        gc.collect()
        rss_before = rss_now_mb()
        return Tracer()

    _, pool, setup_round, tracer = setup(workload, make_tracer)
    tracer.uninstall()
    workload.after_setup()
    gc.collect()
    tracer.current_phase = PHASES["timed"]
    traced = timed_loop(workload, pool, args.seconds, tracer=tracer)
    tracer.install()
    tracer.current_phase = PHASES["check"]
    tracer.current_op = -1
    checks = run_checks(workload, [setup_round] + traced["kept"])
    tracer.uninstall()
    gc.collect()
    retained = rss_now_mb() - rss_before
    tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.npz")

    spans = SpanTable(tracer)
    rounds = traced["rounds"]
    per_round = lambda name: spans.total(name) / rounds  # noqa: E731
    counts = workload.round_counts(*traced["last"])
    m: dict[str, float] = {}

    m["transform.build_plan_s"] = spans.total("transform.build_plan", "setup", "duration")
    m["transform.forward_s"] = per_round("transform.transform")
    m["transform.inverse_s"] = per_round("transform.inverse_transform")
    m["transform.counted_s"] = per_round("transform.transform_counted")
    m.update(kernel_probes(workload))
    kernel = np.zeros(spans.name.shape, dtype=bool)
    for name in ("transform.transform", "transform.inverse_transform", "transform.transform_counted"):
        kernel |= spans.mask(name, "timed")
    kernel_time = float(np.sum(spans.duration[kernel]))
    m["transform.bytes_per_s"] = float(np.sum(16.0 * spans.count[kernel])) / kernel_time if kernel_time else 0.0
    m["transform.shift_s"] = per_round("transform.spectral_shift")
    m["transform.mult"] = counts.get("mult", 0)
    m["transform.add"] = counts.get("add", 0)
    m["transform.err_to_bound"] = checks.err_to_bound()

    decompose = "permutations.Permutation.decompose_adjacent"
    m["permutations.decompose_s"] = per_round(decompose)
    m["permutations.word_letters"] = spans.total(decompose, field="count") / rounds
    m["permutations.apply_s"] = per_round("permutations.Permutation.apply_to_vector")

    m["yor.transpose_apply_s"] = per_round("yor.standard_irrep_transpose_apply")
    dec = np.flatnonzero(spans.mask(decompose, "timed"))
    dec = dec[spans.parent[dec] >= 0]
    in_yor = spans.module_of(spans.parent[dec]) == "yor"
    m["yor.generator_applications"] = float(np.sum(spans.count[dec][in_yor])) / rounds

    m["counting.certify_s"] = spans.total("transform.transform_counted_scalarwise", "check", "duration")

    m["oracle.fourier_full_s"] = per_round("oracle.fourier_full")
    m["oracle.fourier_standard_block_s"] = per_round("oracle.fourier_standard_block")
    m["oracle.stabilizer_projection_s"] = per_round("oracle.stabilizer_projection")
    m["oracle.schur_s"] = per_round("oracle.derive_schur_constants")
    m["oracle.translation_s"] = per_round("oracle.verify_translation")
    updates = sum(spans.total(f"oracle.{f}", field="count") for f in
                  ("fourier_full", "fourier_standard_block", "stabilizer_projection", "derive_schur_constants"))
    m["oracle.element_updates"] = updates / rounds
    top = np.flatnonzero(spans.parent < 0)
    oracle_top = top[spans.module_of(top) == "oracle"]
    in_setup = oracle_top[spans.phase[oracle_top] == PHASES["setup"]]
    cold = spans.op[in_setup] % 2 == 0  # set-up runs each operation cold, then warm
    m["oracle.cold_extra_s"] = float(np.sum(spans.duration[in_setup[cold]]) - np.sum(spans.duration[in_setup[~cold]]))
    m["oracle.retained_mb"] = retained if oracle_top.size else 0.0

    m["verify.prop1_s"] = per_round("verify.run_prop1")
    m["verify.schur_s"] = per_round("verify.run_schur")
    m["verify.theorem_s"] = per_round("verify.run_theorem")

    main_spans = spans.mask("cli.main", "timed")
    children = np.flatnonzero((spans.parent >= 0) & (spans.phase == PHASES["timed"]))
    children = children[spans.module_of(spans.parent[children]) == "cli"]
    library = children[spans.module_of(children) != "cli"]
    library_s = float(np.sum(spans.duration[library])) / rounds
    m["cli.self_s"] = float(np.sum(spans.duration[main_spans])) / rounds - library_s
    m["cli.library_s"] = library_s
    m["cli.bytes_in"] = counts.get("bytes_in", 0)
    m["cli.bytes_out"] = counts.get("bytes_out", 0)

    plain, traced_totals = traced["totals"]["plain"], traced["totals"]["traced"]
    m["trace.overhead_ratio"] = (traced_totals["wall"] / traced_totals["rounds"]) / (plain["wall"] / plain["rounds"])
    info = {"traced_rounds": rounds, "plain_rounds": plain["rounds"], "spans": int(spans.name.size)}
    result = {"attempted": traced["attempted"], "failed": traced["failed"], "checks": checks, "info": info}
    return m, result


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "permharmonic" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = wl.WORKLOADS[args.workload](args.seed, OUT / "inputs")
    metrics, result = (per_layer if args.trace else end_to_end)(args, workload)
    missing = set(units) - set(metrics) - {"op_tail_ms"}
    if missing or set(metrics) - set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    checks = result["checks"]

    for name, ratio in sorted(checks.worst.items()):
        print(f"check {name}: worst ratio {ratio:.3g} {'ok' if ratio <= 1 else 'FAILED'}")
    for key, value in result["info"].items():
        print(f"info {key}: {value}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"operations attempted {result['attempted']}, failed {result['failed']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": checks.passed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": checks.worst,
        "info": result["info"],
        **environment(),
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
