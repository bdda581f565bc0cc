"""End-to-end CLI tests driving main() directly: formats, exit codes, determinism."""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permharmonic import cli, verify
from permharmonic.cli import main
from permharmonic.permutations import Permutation
from permharmonic.transform import build_plan, inverse_transform, spectral_shift, transform
from references import inverse


def run_cli(argv, capsys, monkeypatch, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_text_from_stdin(capsys, monkeypatch):
    code, out, err = run_cli(["transform"], capsys, monkeypatch, stdin="1 0 0\n")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 3
    got = np.array([float(s) for s in lines])
    assert np.max(np.abs(got - transform(np.array([1.0, 0.0, 0.0])))) <= 1e-12


def test_transform_csv_round_trips_exactly(capsys, monkeypatch):
    # 17 significant digits pin the double exactly
    code, out, _ = run_cli(
        ["transform", "--format", "csv"], capsys, monkeypatch, stdin="0.1, -2.5, 3.75, 4"
    )
    assert code == 0
    got = np.array([float(s) for s in out.strip().split(",")])
    assert np.array_equal(got, transform(np.array([0.1, -2.5, 3.75, 4.0])))


def test_transform_json_counted(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["transform", "--counted", "--format", "json"], capsys, monkeypatch, stdin="1 2 3 4 5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "transform"
    assert payload["n"] == 5
    assert payload["inverse"] is False
    assert payload["mult"] == 8 and payload["add"] == 8
    assert np.allclose(payload["output"], transform(np.arange(1.0, 6.0)), atol=1e-15)


def test_transform_counted_text_appends_json_line(capsys, monkeypatch):
    code, out, _ = run_cli(["transform", "--counted"], capsys, monkeypatch, stdin="1 0 0")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"n": 3, "mult": 4, "add": 4}


def test_transform_counted_inverse_conflict(capsys, monkeypatch):
    code, out, err = run_cli(
        ["transform", "--counted", "--inverse"], capsys, monkeypatch, stdin="1 0"
    )
    assert code == 2
    assert err.startswith("error:")


def test_transform_inverse_round_trip_via_files(tmp_path, capsys, monkeypatch):
    x = np.array([0.5, -1.25, 2.0, 7.5])
    src = tmp_path / "x.txt"
    src.write_text(" ".join(repr(float(v)) for v in x))
    code, out, _ = run_cli(["transform", str(src), "--format", "csv"], capsys, monkeypatch)
    assert code == 0
    mid = tmp_path / "spectrum.csv"
    mid.write_text(out)
    code, out, _ = run_cli(["transform", str(mid), "--inverse", "--format", "csv"], capsys, monkeypatch)
    assert code == 0
    back = np.array([float(s) for s in out.strip().split(",")])
    assert np.max(np.abs(back - x)) <= 1e-12


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the reader stops after a few bytes of an output far larger than a pipe buffer
    src = tmp_path / "x.txt"
    src.write_text(" ".join(map(repr, np.random.default_rng(30).uniform(-1.0, 1.0, 65536).tolist())))
    proc = subprocess.Popen(
        [sys.executable, "-m", "permharmonic.cli", "transform", str(src)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )
    assert proc.stdout.read(30)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_transform_rejects_garbage(tmp_path, capsys, monkeypatch):
    code, _, err = run_cli(["transform"], capsys, monkeypatch, stdin="1 banana 3")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["transform"], capsys, monkeypatch, stdin="42")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["transform", str("/no/such/file")], capsys, monkeypatch)
    assert code == 2 and "error:" in err
    # a file that is not UTF-8 is named like one that cannot be opened
    src = tmp_path / "bad.txt"
    src.write_bytes(b"\xff 1 2")
    code, out, err = run_cli(["transform", str(src)], capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {src}: 'utf-8' codec can't decode byte 0xff")


def test_transform_rejects_non_finite_input(capsys, monkeypatch):
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            ["transform", "--format", fmt], capsys, monkeypatch, stdin="1 inf 2 3"
        )
        assert code == 2 and out == ""
        assert "non-finite value 'inf' at index 1" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowed_output_is_refused_in_every_format(capsys, monkeypatch):
    # finite input whose total overflows: no bare inf may reach any output
    with pytest.raises(ValueError):
        cli._to_json({"output": [math.inf]})
    for argv in (["transform"], ["shift", "--perm", "2 1"]):
        for fmt in ("text", "csv", "json"):
            code, out, err = run_cli(
                argv + ["--format", fmt], capsys, monkeypatch, stdin="1e308 1e308"
            )
            assert code == 2 and out == ""
            assert "non-finite value inf at index 0" in err


def test_shift_matches_library(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["shift", "--perm", "2 1 3", "--format", "csv"], capsys, monkeypatch, stdin="1 2 3"
    )
    assert code == 0
    got = np.array([float(s) for s in out.strip().split(",")])
    plan = build_plan(3)
    want = transform(np.array([2.0, 1.0, 3.0]), plan)  # y[i] = x[sigma(i)]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_shift_check_text(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["shift", "--perm", "3 1 4 2", "--check"], capsys, monkeypatch, stdin="1 2 3 4"
    )
    assert code == 0
    assert "check_deviation" in out and "[PASS]" in out


def test_shift_check_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["shift", "--perm", "2 3 1", "--check", "--format", "json"],
        capsys,
        monkeypatch,
        stdin="0.5 -0.25 4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["perm"] == [2, 3, 1]
    assert payload["check_passed"] is True
    assert payload["check_deviation"] <= 1e-10


@pytest.mark.parametrize("scale", [0.0, 1e6, 1e12, 1e300])
def test_shift_check_passes_at_every_magnitude(capsys, monkeypatch, scale):
    # the check's tolerance scales with the spectrum; at 1e6 the deviation is
    # 9.3e-10, which an absolute 1e-10 failed
    stdin = " ".join(repr(v * scale) for v in (1.0, 2.0, 3.0, 4.0, 5.0))
    code, out, _ = run_cli(
        ["shift", "--perm", "5 3 1 2 4", "--check", "--format", "json"],
        capsys,
        monkeypatch,
        stdin=stdin,
    )
    assert code == 0 and json.loads(out)["check_passed"] is True


def test_shift_check_fails_on_a_wrong_shift_rule(capsys, monkeypatch):
    # the check's reference is the Young word product, not the fast path
    monkeypatch.setattr(
        cli, "spectral_shift", lambda sigma, X, plan: spectral_shift(inverse(sigma), X, plan)
    )
    code, out, _ = run_cli(
        ["shift", "--perm", "3 1 4 2", "--check"], capsys, monkeypatch, stdin="1 2 3 4"
    )
    assert code == 1
    assert "[FAIL]" in out


def test_quadratic_references_are_refused_above_their_limits(capsys, monkeypatch):
    # shift --check allows n <= 4096; orthogonality and theorem allow n <= 256.
    # The refusal comes before any transform or suite runner runs.
    monkeypatch.setattr(cli, "transform", lambda *args: pytest.fail("transform ran"))
    for runner in ("run_coxeter", "run_orthogonality", "run_theorem", "run_prop1", "run_schur"):
        monkeypatch.setattr(verify, runner, lambda *args: pytest.fail("suite ran"))
    perm = " ".join(str(v) for v in range(4097, 0, -1))
    code, out, err = run_cli(
        ["shift", "--perm", perm, "--check"], capsys, monkeypatch, stdin="1 " * 4097
    )
    assert code == 2 and out == "" and "n <= 4096" in err
    for suite in ("orthogonality", "theorem"):
        code, out, err = run_cli(["verify", "--suite", suite, "--n", "257"], capsys, monkeypatch)
        assert code == 2 and out == "" and "n <= 256" in err, suite


def test_shift_check_stays_allowed_at_n_256(capsys, monkeypatch):
    rng = np.random.default_rng(14)
    perm = " ".join(str(v + 1) for v in rng.permutation(256))
    code, out, _ = run_cli(
        ["shift", "--perm", perm, "--check", "--format", "json"],
        capsys,
        monkeypatch,
        stdin=" ".join(str(v) for v in rng.uniform(-1.0, 1.0, 256)),
    )
    assert code == 0 and json.loads(out)["check_passed"] is True


def test_shift_rejects_bad_permutations(capsys, monkeypatch):
    code, _, err = run_cli(
        ["shift", "--perm", "2 2 3"], capsys, monkeypatch, stdin="1 2 3"
    )
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        ["shift", "--perm", "2 1"], capsys, monkeypatch, stdin="1 2 3"
    )
    assert code == 2 and "degree" in err


def test_verify_coxeter_text_passes(capsys, monkeypatch):
    code, out, _ = run_cli(["verify", "--suite", "coxeter", "--n", "6"], capsys, monkeypatch)
    assert code == 0
    assert "overall: PASS" in out
    assert "elapsed_ns=" in out


def test_verify_json_schema_and_determinism(capsys, monkeypatch):
    argv = ["verify", "--suite", "theorem", "--n", "6", "--seed", "7", "--format", "json"]
    code1, out1, _ = run_cli(argv, capsys, monkeypatch)
    code2, out2, _ = run_cli(argv, capsys, monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical: no timing in JSON
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "theorem"
    names = [c["name"] for c in payload["suites"][0]["checks"]]
    assert names and all(c["passed"] for c in payload["suites"][0]["checks"])


def test_verify_reports_each_margin(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--n", "5", "--format", "json"], capsys, monkeypatch
    )
    assert code == 0
    checks = [c for suite in json.loads(out)["suites"] for c in suite["checks"]]
    assert len(checks) == 15
    for c in checks:
        assert c["ratio"] == (c["deviation"] / c["tolerance"] if c["tolerance"] > 0 else 0.0)
    code, text, _ = run_cli(["verify", "--suite", "all", "--n", "5"], capsys, monkeypatch)
    margins = re.findall(r"^  PASS .* margin (\S+)$", text, flags=re.M)
    assert margins == [format(c["ratio"], ".15g") for c in checks]
    # a failing check over a zero tolerance leaves no margin: inf in text, null in JSON
    real = verify.derive_schur_constants
    monkeypatch.setattr(
        verify,
        "derive_schur_constants",
        lambda n: dataclasses.replace(real(n), block_split=(2, n - 2)),
    )
    argv = ["verify", "--suite", "schur", "--n", "5"]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys, monkeypatch)
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    split = [c for c in payload["suites"][0]["checks"] if c["name"] == "block_split"]
    assert split == [
        {"name": "block_split", "deviation": 1.0, "tolerance": 0.0, "ratio": None, "passed": False}
    ]
    code, text, _ = run_cli(argv, capsys, monkeypatch)
    assert code == 1
    assert re.search(r"^  FAIL block_split: .* margin inf$", text, flags=re.M)
    assert re.search(r"^overall: FAIL ", text, flags=re.M)


def test_verify_all_suite(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--n", "4", "--format", "json"], capsys, monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["suite"] for s in payload["suites"]] == [
        "coxeter",
        "orthogonality",
        "theorem",
        "prop1",
        "schur",
    ]
    assert payload["passed"] is True


def test_verify_argument_validation(capsys, monkeypatch):
    cases = [
        ["verify", "--suite", "coxeter", "--n", "1"],
        ["verify", "--suite", "coxeter", "--n", "65"],
        ["verify", "--suite", "prop1", "--n", "12"],
        ["verify", "--suite", "schur", "--n", "2"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys, monkeypatch)
        assert code == 2 and "error:" in err, argv
    code, _, err = run_cli(["verify", "--suite", "bogus", "--n", "4"], capsys, monkeypatch)
    assert code == 2  # argparse rejects the choice


def test_oracle_seeded_json_is_byte_identical(capsys, monkeypatch):
    argv = ["oracle", "--n", "4", "--seed", "11"]
    code1, out1, _ = run_cli(argv, capsys, monkeypatch)
    code2, out2, _ = run_cli(argv, capsys, monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2


def test_oracle_json_contents(capsys, monkeypatch):
    code, out, _ = run_cli(["oracle", "--n", "4", "--seed", "3"], capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["seed"] == 3
    assert payload["violations"] == []
    assert set(payload["partitions"]) == {"4", "3,1", "2,2", "2,1,1", "1,1,1,1"}
    assert payload["partitions"]["2,2"] <= payload["bound"]
    lam1 = math.factorial(3) * math.sqrt(4)
    assert abs(payload["lambda1"] - lam1) / lam1 <= 1e-9
    assert payload["block_split"] == [1, 3]


def test_oracle_input_file(tmp_path, capsys, monkeypatch):
    src = tmp_path / "f.txt"
    src.write_text("1 0 0 0 0")
    code, out, _ = run_cli(["oracle", "--input", str(src)], capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5 and payload["input"] == str(src)
    assert payload["violations"] == []


def test_oracle_all_zero_input_passes(tmp_path, capsys, monkeypatch):
    # bound is 0 here, and every coefficient is exactly 0
    src = tmp_path / "zeros.txt"
    src.write_text("0 0 0 0")
    code, out, _ = run_cli(["oracle", "--input", str(src)], capsys, monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 0 and payload["violations"] == []


def test_oracle_text_format(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["oracle", "--n", "3", "--seed", "0", "--format", "text"], capsys, monkeypatch
    )
    assert code == 0
    assert "lambda1" in out and "overall: PASS" in out
    # a failing Schur check prints one VIOLATION line before the verdict
    real = cli.derive_schur_constants
    monkeypatch.setattr(
        cli, "derive_schur_constants", lambda n: dataclasses.replace(real(n), block_split=(2, n - 2))
    )
    code, out, _ = run_cli(
        ["oracle", "--n", "3", "--seed", "0", "--format", "text"], capsys, monkeypatch
    )
    assert code == 1
    assert out.splitlines()[-2:] == ["VIOLATION: block_split 1.0 exceeds tolerance 0.0", "overall: FAIL"]


def test_oracle_argument_validation(tmp_path, capsys, monkeypatch):
    for argv in (["oracle"], ["oracle", "--n", "2"], ["oracle", "--n", "9"]):
        code, _, err = run_cli(argv, capsys, monkeypatch)
        assert code == 2 and "error:" in err, argv
    # --n and --input name two different vectors: argparse refuses the pair
    src = tmp_path / "x7.txt"
    src.write_text("1 2 3 4 5 6 7")
    code, out, err = run_cli(["oracle", "--n", "5", "--seed", "3", "--input", str(src)], capsys, monkeypatch)
    assert code == 2 and out == "" and "not allowed with argument" in err
    # --seed draws the --n vector only: beside --input it is refused, not dropped
    code, out, err = run_cli(["oracle", "--input", str(src), "--seed", "3"], capsys, monkeypatch)
    assert code == 2 and out == "" and "--seed" in err and "--input" in err
    # and without it, --n draws from seed 0
    unseeded = run_cli(["oracle", "--n", "4"], capsys, monkeypatch)
    assert unseeded == run_cli(["oracle", "--n", "4", "--seed", "0"], capsys, monkeypatch)
    assert json.loads(unseeded[1])["seed"] == 0


def test_bench_csv_counts_and_bounds(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["bench", "--n-list", "64", "--reps", "1", "--format", "csv"], capsys, monkeypatch
    )
    assert code == 0
    header, row = out.strip().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["n"] == "64"
    assert record["mult"] == "126" and record["add"] == "126"
    assert record["ops_total"] == "252"
    assert record["bound_cubic"] == "258048"
    assert record["bound_quadratic"] == "6048"
    assert int(record["fast_ns"]) > 0 and int(record["dense_ns"]) > 0


def test_bench_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["bench", "--n-list", "8,16", "--reps", "2", "--format", "json"], capsys, monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload["rows"]] == [8, 16]
    assert all(r["ops_total"] == 2 * (2 * r["n"] - 2) for r in payload["rows"])


def test_bench_text_table(capsys, monkeypatch):
    code, out, _ = run_cli(["bench", "--n-list", "8,16", "--reps", "1"], capsys, monkeypatch)
    assert code == 0
    header, *rows, last = out.strip().splitlines()
    columns = ["n", "fast_ns", "dense_ns", "mult", "add", "ops_total", "bound_cubic", "bound_quadratic"]
    assert header.split() == columns
    assert [row.split()[0] for row in rows] == ["8", "16"]
    assert last.startswith("crossover: ")
    # timings alternate fast, dense per size: the first size where fast is lower is named
    for ticks, want in (
        ([2, 1, 1, 2], "crossover: fast path beats dense multiply from n=16"),
        ([2, 1, 2, 1], "crossover: none observed (dense multiply never slower on this list)"),
    ):
        monkeypatch.setattr(cli, "_time_ns", lambda fn, ticks=iter(ticks): next(ticks))
        code, out, _ = run_cli(["bench", "--n-list", "8,16", "--reps", "1"], capsys, monkeypatch)
        assert code == 0 and out.strip().splitlines()[-1] == want


def test_bench_argument_validation(capsys, monkeypatch):
    dense_calls = []
    monkeypatch.setattr(cli, "dense_transform", lambda plan: dense_calls.append(plan.n))
    cases = [
        ["bench", "--n-list", "abc"],
        ["bench", "--n-list", "1,4"],
        ["bench", "--n-list", ""],
        ["bench", "--n-list", "8", "--reps", "0"],
        ["bench", "--n-list", "8,4097"],  # the dense matrix is refused above DENSE_MAX_N
        ["bench", "--n-list", "4096,4097", "--reps", "1"],  # refused before any size is built
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys, monkeypatch)
        assert code == 2 and out == "" and "error:" in err, argv
    assert dense_calls == []


def test_no_subcommand_is_usage_error(capsys, monkeypatch):
    assert run_cli([], capsys, monkeypatch)[0] == 2


def test_cli_options_are_the_listed_ones():
    # Every settable value of every command, positionals by name; an option
    # added or removed shows up here.
    (commands,) = [a for a in cli.build_parser()._actions if a.choices]
    options = {
        name: [", ".join(a.option_strings) or a.dest for a in p._actions if a.dest != "help"]
        for name, p in commands.choices.items()
    }
    assert options == {
        "transform": ["input", "--inverse", "--counted", "--format"],
        "shift": ["input", "--perm", "--check", "--format"],
        "verify": ["--suite", "--n", "--seed", "--format"],
        "oracle": ["--n", "--seed", "--input", "--format"],
        "bench": ["--n-list", "--reps", "--format"],
    }


def test_inverse_text_format(capsys, monkeypatch):
    spectrum = transform(np.array([1.0, 2.0, 3.0]))
    text = " ".join(repr(float(v)) for v in spectrum)
    code, out, _ = run_cli(["transform", "--inverse"], capsys, monkeypatch, stdin=text)
    assert code == 0
    got = np.array([float(s) for s in out.strip().splitlines()])
    assert np.max(np.abs(got - np.array([1.0, 2.0, 3.0]))) <= 1e-12


TRICKY = (-0.0, 5e-324, 1e-300, 1.0, 0.1, 1e300)


def _tricky_vectors():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for start in range(len(TRICKY)):
            yield np.resize(np.roll(TRICKY, -start), n)
    yield rng.permutation(np.resize(TRICKY, 4096))


def _joined(values, digits, sep):
    return sep.join(format(float(v), f".{digits}g") for v in values)


def test_vector_output_bytes_match_per_element_format(capsys, monkeypatch):
    # text prints 15 significant digits per line, CSV and JSON 17, each entry
    # formatted on its own; the library result is the one printed
    rng = np.random.default_rng(22)
    for x in _tricky_vectors():
        n = x.shape[0]
        plan = build_plan(n)
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        stdin = " ".join(repr(float(v)) for v in x)
        cases = [
            (["transform"], transform(x, plan), '"command": "transform", "n": %d, "inverse": false' % n),
            (["transform", "--inverse"], inverse_transform(x, plan), '"command": "transform", "n": %d, "inverse": true' % n),
            (
                ["shift", "--perm", " ".join(map(str, sigma.images))],
                spectral_shift(sigma, transform(x, plan), plan),
                '"command": "shift", "n": %d, "perm": [%s]' % (n, ", ".join(map(str, sigma.images))),
            ),
        ]
        for argv, want, head in cases:
            expected = {
                "text": _joined(want, 15, "\n") + "\n",
                "csv": _joined(want, 17, ",") + "\n",
                "json": "{" + head + ', "output": [' + _joined(want, 17, ", ") + "]}\n",
            }
            for fmt, text in expected.items():
                code, out, err = run_cli(argv + ["--format", fmt], capsys, monkeypatch, stdin=stdin)
                assert (code, err) == (0, ""), (argv, fmt, err)
                assert out == text, (argv[0], n, fmt)
            assert json.loads(expected["json"])["output"] == want.tolist()


def test_vector_parse_accepts_every_separator(capsys, monkeypatch):
    tokens = ["0.1", "-2.5e-3", "7", "-0.0"]
    want = [float(t) for t in tokens]
    separators = [" ", "\t", "\r\n", "\x0b", "\x0c", "\u00a0", "\u3000", ", ", ",,", " ,\t"]
    texts = [sep.join(tokens) for sep in separators]
    texts += ["0.1,-2.5e-3,7,-0.0,", "\n\n  0.1 -2.5e-3\n7 -0.0\n\n", "\r\n0.1,\t-2.5e-3 ,7 ,-0.0,\r\n"]
    for text in texts:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        got = cli._read_vector("-")
        assert got.dtype == np.float64
        assert got.tolist() == want and math.copysign(1.0, got[3]) == -1.0, repr(text)
        # the same tokens as the former regular-expression split
        assert got.tolist() == [float(t) for t in re.split(r"[,\s]+", text.strip()) if t]


def test_vector_parse_error_texts(capsys, monkeypatch):
    cases = [
        ("1 banana 3", "error: cannot parse -: could not convert string to float: 'banana'\n"),
        ("1 inf 2 3", "error: non-finite value 'inf' at index 1\n"),
        ("1,\t1e999", "error: non-finite value '1e999' at index 1\n"),
        ("42\n", "error: need a vector of length >= 2, got 1\n"),
        (" ,\n,, \t\n", "error: no numbers found in -\n"),
        ("", "error: no numbers found in -\n"),
    ]
    for stdin, message in cases:
        code, out, err = run_cli(["transform"], capsys, monkeypatch, stdin=stdin)
        assert (code, out, err) == (2, "", message), stdin
