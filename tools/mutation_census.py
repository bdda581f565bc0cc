"""Mutation census: run tier-1 against named source edits and record what fails.

Each mutant is a list of exact-string edits (file, old text, new text) applied
to a fresh temporary copy of src/, tests/ and pyproject.toml.  An edit whose
old text does not occur exactly once stops the census before any run, so a
stale mutant cannot pass silently.  Tier-1 runs serially in each copy with a
fixed hypothesis seed, so the counts reproduce, and the census writes one JSON
record per mutant.  A first run of the unmutated copy shows the command passes.
A mutant that fails no test marks a gap in the tests.

One mutant takes 10-30 s and the whole census a few minutes; it writes
tools/mutation_census.json:

    python tools/mutation_census.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().with_suffix(".json")
HYPOTHESIS_SEED = 0
COMMAND = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "-rfE", f"--hypothesis-seed={HYPOTHESIS_SEED}",
]

YOR = "src/permharmonic/yor.py"
TRANSFORM = "src/permharmonic/transform.py"
VERIFY = "src/permharmonic/verify.py"
COUNTING = "src/permharmonic/counting.py"
ORACLE = "src/permharmonic/oracle.py"
CLI = "src/permharmonic/cli.py"
PERMUTATIONS = "src/permharmonic/permutations.py"
ROUNDS = "        for step, mask in enumerate(_sort_rounds(index)):\n"
TAU1 = "            np.copyto(out[..., n - 2 :], -out[..., n - 2 :], where=mask[..., :1])\n"
BOTTOM = "            np.copyto(bottom, s[q::2] * top + c[q::2] * bottom, where=swap)\n"
TOP = "            np.copyto(top, new_top, where=swap)\n"
ROW_N = "    rows[..., 0] = arr[..., 1]  # row n: coefficient 1, so no multiply\n"
INVERSE_TAIL = "    np.multiply(coef[1:], tail[..., 1:], out=tail[..., 1:])  # j = 1: coefficient 1, so no multiply\n"
CHECK = "    check_shift_n(n)\n"
DEVIATION = "    deviation = float(np.max(np.abs(shifted - reference), initial=0.0))\n"
IRREP = "    return standard_irrep_transpose_apply(n, sigma, np.eye(n - 1))\n"
DEGREE = "        if sigma.n != n:\n            raise _degree_error(sigma, n)\n"
IDENTITY = "        if sigma._is_identity:\n            return spectrum.copy()\n"
WORD = "    for k in word:  # D(delta)^t: the word's symmetric generators, first letter first\n"

# name: (what the mutant breaks, [(file, old, new), ...])
MUTANTS = {
    "reversed-round-order": (
        "the round kernel applies the odd-even sort rounds last to first",
        [(YOR, ROUNDS, ROUNDS.replace("enumerate(_sort_rounds(index))", "reversed([*enumerate(_sort_rounds(index))])"))],
    ),
    "tau2-off-diagonal-sign": (
        "the round kernel flips the sign of tau_2's off-diagonal entries",
        [(YOR, "    c, s = _block_entries(np.arange(n - 1.0, 1.0, -1.0))\n",
          "    c, s = _block_entries(np.arange(n - 1.0, 1.0, -1.0))\n    s[-1:] *= -1.0\n")],
    ),
    "tau1-negation-skipped": (
        "the round kernel never negates the last coordinate for tau_1",
        [(YOR, TAU1, "")],
    ),
    "errstate-dropped": (
        "the round kernel lets numpy warn on inf - inf and overflow",
        [(YOR, 'with np.errstate(invalid="ignore", over="ignore"):', "with np.errstate():")],
    ),
    "tau1-as-k1-block": (
        "tau_1 applied as the k = 1 block [[-1, 0], [0, 1]] against a zero phantom coordinate",
        [(YOR, TAU1, TAU1.replace("-out[..., n - 2 :],", "-1.0 * out[..., n - 2 :] + 0.0 * 0.0,"))],
    ),
    "irrep-returns-transpose": (
        "standard_irrep returns D(sigma)^t, the round kernel's columns in place of its rows",
        [(YOR, IRREP, IRREP.replace("np.eye(n - 1))", "np.eye(n - 1)).T"))],
    ),
    "irrep-reversed-identity": (
        "standard_irrep applies the round kernel to the identity's rows in reverse order",
        [(YOR, IRREP, IRREP.replace("np.eye(n - 1)", "np.eye(n - 1)[::-1]"))],
    ),
    "check-shift-n-after-reference": (
        "shift_check refuses an oversized n only after building the Theta(n^2) reference",
        [(VERIFY, CHECK + "    spectrum, shifted =", "    spectrum, shifted ="),
         (VERIFY, DEVIATION, CHECK + DEVIATION)],
    ),
    "extra-exact-multiply": (
        "_forward multiplies every row once more, by an exact 1.0",
        [(TRANSFORM, "    out *= alpha\n", "    out *= alpha\n    out *= np.ones_like(alpha)\n")],
    ),
    "row-n-times-one": (
        "_forward multiplies row n by 1.0",
        [(TRANSFORM, ROW_N, "    rows[..., 0] = 1.0 * arr[..., 1]\n")],
    ),
    "rows-plus-negated-sum": (
        "_forward adds the negated prefix sums in place of subtracting them",
        [(TRANSFORM, "    rows -= s[..., :-1]\n", "    rows += -s[..., :-1]\n")],
    ),
    "row-n-as-coef0-product": (
        "_forward computes row n as coef[0] * x[1]",
        [(TRANSFORM, ROW_N, "    rows[..., 0] = coef[0] * arr[..., 1]\n")],
    ),
    "plan-row-1e-13": (
        "TransformPlan scales one row, alpha[n // 2], by a relative 1e-13",
        [(TRANSFORM, "        alpha[0] = 1.0 / np.sqrt(n)\n", "        alpha[0] = 1.0 / np.sqrt(n)\n        alpha[n // 2] *= 1.0 + 1e-13\n")],
    ),
    "block-s-sign-flipped": (
        "the one definition of the Young block gives -s_k",
        [(YOR, "    return c, np.sqrt(1.0 - c * c)\n", "    return c, -np.sqrt(1.0 - c * c)\n")],
    ),
    "block-c-one-over-k-plus-1": (
        "the one definition of the Young block gives c_k = 1/(k+1)",
        [(YOR, "    c = 1.0 / k\n", "    c = 1.0 / (k + 1)\n")],
    ),
    "identity-shift-returns-input": (
        "spectral_shift's identity shortcut returns its input instead of a copy "
        "(the gather-index FOUND line: an index cache must not share writable state)",
        [(TRANSFORM, "        return spectrum.copy()\n", "        return spectrum\n")],
    ),
    "round-kernel-top-written-first": (
        "the round kernel writes the top rows before computing the bottom ones from them "
        "(the masked-copy FOUND line: a rewrite of the two copies must keep their order)",
        [(YOR, BOTTOM + TOP, TOP + BOTTOM)],
    ),
    "coset-chain-reversed": (
        "the oracle's coset matrices are built as D(c_j) = D(c_{j+1}) G_j, not G_j D(c_{j+1})",
        [(ORACLE, "        out[j - 1] = out[j]\n        _act(actions[j - 1], out[j - 1])\n",
          "        out[j - 1] = out[j] @ yor_generator(shape, j)\n")],
    ),
    "coset-matmul-swapped": (
        "the oracle multiplies each coset's block diagonal by D(c_j) from the right",
        [(ORACLE, "    return np.matmul(_coset_matrices(shape), _block_diagonal(shape, sums, lead))\n",
          "    return np.matmul(_block_diagonal(shape, sums, lead), _coset_matrices(shape))\n")],
    ),
    "act-partner-times-diag": (
        "the oracle's sparse generator action scales the partner row by the diagonal entry",
        [(ORACLE, "    partner *= off[:, None]\n", "    partner *= diag[:, None]\n")],
    ),
    "lift-reads-first-image": (
        "lift reads f at sigma(1) in place of sigma(n)",
        [(ORACLE, "        return values[sigma.images[-1] - 1]\n", "        return values[sigma.images[0] - 1]\n")],
    ),
    "accumulate-billed-n-per-row": (
        "CountedArray bills add.accumulate n additions per row, not n - 1 "
        "(the CountedArray overhead FOUND line: a faster tally must keep the count)",
        [(COUNTING, "        self.tally[_SLOT[ufunc]] += result.size - rows", "        self.tally[_SLOT[ufunc]] += result.size")],
    ),
    "oracle-seed-beside-input-dropped": (
        "oracle --input F --seed S ignores --seed again in place of refusing it",
        [(CLI, "    if args.input is not None and args.seed is not None:\n"
               '        raise CliError("--seed draws the --n vector; it has no use with --input")\n', "")],
    ),
    "broken-pipe-reraised": (
        "main lets BrokenPipeError escape, so a closed stdout ends in a traceback",
        [(CLI, "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n        return 1\n",
          "        raise\n")],
    ),
    "decompose-word-reversed": (
        "decompose_adjacent returns its word last letter first, a word of sigma^-1 "
        "(caught by the tests' own word product, tests/references.py)",
        [(PERMUTATIONS, "        return tuple((j + 1).tolist())\n", "        return tuple((j + 1).tolist()[::-1])\n")],
    ),
    "stacked-pair-not-offset": (
        "_stacked_actions keeps each shape's own partner indices, so later shapes read the first shape's rows",
        [(ORACLE, "pair + start, off)", "pair, off)")],
    ),
    "reduceat-starts-shifted": (
        "verify_translation's per-shape maximum starts one row early, taking the previous shape's last row",
        [(ORACLE, "max(axis=-1), starts)", "max(axis=-1), np.maximum(starts - 1, 0))")],
    ),
    "stacked-word-last-letter-first": (
        "verify_translation applies delta's word to the stack last letter first, D(delta) in place of D(delta)^t",
        [(ORACLE, WORD, WORD.replace("in word:", "in reversed(word):"))],
    ),
    "translate-rank-of-delta-inverse": (
        "_translate applies delta^-1 to the lexicographic table, gathering func(delta^-1 sigma)",
        [(ORACLE, "np.take(np.array(delta.images, dtype=np.int8) - 1, table)", "np.take(np.argsort(delta.images).astype(np.int8), table)")],
    ),
    "translate-codes-in-base-n-minus-1": (
        "_translate reads the table's rows as base n - 1 numbers, which no longer order them",
        [(ORACLE, "    place = n ** np.arange(n - 1, -1, -1)\n", "    place = (n - 1) ** np.arange(n - 1, -1, -1)\n")],
    ),
    "coset-row-untransposed": (
        "the summed coset product reads the D(c_j) stack flattened as it lies, not side by side",
        [(ORACLE, "_coset_matrices(shape).transpose(1, 0, 2).reshape(d, m * d)", "_coset_matrices(shape).reshape(d, m * d)")],
    ),
    "blocks-off-the-diagonal": (
        "the block diagonal of one level's group sums puts each block in the mirrored column range",
        [(ORACLE, "        blocks[..., start:stop, start:stop] = s\n", "        blocks[..., start:stop, d - stop : d - start] = s\n")],
    ),
    "translation-cap-after-word": (
        "verify_translation builds delta's Theta(n^2) word before checking the oracle cap",
        [(ORACLE, "    check_cap(n)  # before delta's Theta(n^2) word\n    word = delta.decompose_adjacent()\n",
          "    word = delta.decompose_adjacent()\n    check_cap(n)\n")],
    ),
    "subtract-accumulate-billed-n-per-row": (
        "CountedArray bills subtract.accumulate n subtractions per row, not n - 1, and add.accumulate as before",
        [(COUNTING, " if accumulate else 0", " if accumulate and ufunc is np.add else 0")],
    ),
    "inverse-j1-multiplied": (
        "_inverse multiplies b[n-1] by its coefficient 1 too: equal values, a bill of 2n - 1",
        [(TRANSFORM, INVERSE_TAIL, "    np.multiply(coef, tail, out=tail)\n")],
    ),
    "inverse-accumulate-unreversed": (
        "_inverse writes the running difference into out as it comes, not reversed",
        [(TRANSFORM, "out=out[..., ::-1])", "out=out)")],
    ),
    "inverse-coef-one-off": (
        "_inverse reads the contrast coefficients one place off, coef[:-1] for coef[1:]",
        [(TRANSFORM, INVERSE_TAIL, INVERSE_TAIL.replace("coef[1:]", "coef[:-1]"))],
    ),
    "identity-shortcut-before-degree-check": (
        "spectral_shift returns a Permutation identity's copy before checking its degree",
        [(TRANSFORM, DEGREE + IDENTITY, IDENTITY + DEGREE)],
    ),
    "image-index-not-decremented": (
        "_image_index converts a Permutation's images to a gather index without subtracting 1",
        [(PERMUTATIONS, "        index -= 1\n", "")],
    ),
    "validation-drops-min": (
        "Permutation accepts n distinct images with max n whatever their minimum",
        [(PERMUTATIONS, "if min(images) != 1 or max(images)", "if max(images)")],
    ),
    "validation-drops-max": (
        "Permutation accepts n distinct images with min 1 whatever their maximum",
        [(PERMUTATIONS, "min(images) != 1 or max(images) != n or ", "min(images) != 1 or ")],
    ),
    "random-permutation-accepts-n0": (
        "random_permutation trusts numpy's draw even when it is empty, so n = 0 gives a permutation of nothing",
        [(PERMUTATIONS, "    if n < 1:\n        raise ValueError(\"a permutation needs n >= 1\")\n    # numpy's", "    # numpy's")],
    ),
    "inverse-after-broadcast": (
        "spectral_shift broadcasts X against the image rows before inverting it, one inverse per row "
        "(equal values; caught by counting what _inverse is given)",
        [(TRANSFORM, "x = np.broadcast_to(_inverse(spectrum, alpha, coef), shape)",
          "x = _inverse(np.broadcast_to(spectrum, shape), alpha, coef)")],
    ),
    "plan-alpha-writable": (
        "TransformPlan leaves alpha writable, so a caller can change every later transform",
        [(TRANSFORM, "        alpha.setflags(write=False)\n", "")],
    ),
    "plan-coef-writable": (
        "TransformPlan leaves coef writable, so a caller can change every later transform",
        [(TRANSFORM, "        coef.setflags(write=False)\n", "")],
    ),
    "plan-n-not-an-index": (
        "TransformPlan takes n as given, so a float n builds float-length arrays and a numpy n stays numpy",
        [(TRANSFORM, "        n = operator.index(self.n)\n", "        n = self.n\n")],
    ),
    "identity-row-copyto-dropped": (
        "spectral_shift's image-row path returns identity rows through the round trip, not copied from X",
        [(TRANSFORM, "    np.copyto(out, spectrum, where=(index == np.arange(n)).all(-1, keepdims=True))\n", "")],
    ),
    "image-rows-gather-unbroadcast": (
        "spectral_shift gathers with the raw image rows, not the rows broadcast to the output shape",
        [(TRANSFORM, "np.take_along_axis(x, np.broadcast_to(index, shape), axis=-1)", "np.take_along_axis(x, index, axis=-1)")],
    ),
    "theorem-draws-without-plus-one": (
        "run_theorem draws 0-based image rows, rng.permutation(n) without + 1",
        [(VERIFY, "rows = (rng.permutation(n) + 1 for", "rows = (rng.permutation(n) for")],
    ),
}


def mutated(name: str) -> dict[str, str]:
    """The mutant's files with its edits applied in order; stops on an edit that does not match once."""
    texts: dict[str, str] = {}
    for file, old, new in MUTANTS[name][1]:
        text = texts[file] if file in texts else (ROOT / file).read_text()
        if text.count(old) != 1:
            raise SystemExit(f"mutant {name}: its edit to {file} matches {text.count(old)} times, expected once")
        texts[file] = text.replace(old, new)
    return texts


def run(texts: dict[str, str]) -> dict:
    """Tier-1 in a temporary copy of src/, tests/ and pyproject.toml with texts written over it."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        for file, text in texts.items():
            (tree / file).write_text(text)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(COMMAND, cwd=tree, env=env, capture_output=True, text=True)
    summary = proc.stdout.splitlines()[-1] if proc.stdout else ""
    counts = {key: int(value) for value, key in re.findall(r"(\d+) (failed|passed|errors?)\b", summary)}
    return {
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "passed": counts.get("passed", 0),
        "exit_code": proc.returncode,
        "failed_tests": sorted(set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.M))),
    }


def main() -> int:
    texts = {name: mutated(name) for name in MUTANTS}  # every edit checked before the first run
    results = {}
    for name, breaks in [("unmutated", "nothing: the tree as committed")] + [(m, MUTANTS[m][0]) for m in MUTANTS]:
        results[name] = {"breaks": breaks, **run(texts.get(name, {}))}
        print(f"{name}: {results[name]['failed']} failed, {results[name]['passed']} passed", file=sys.stderr)
    survivors = [name for name in MUTANTS if results[name]["failed"] == 0]
    payload = {"command": "PYTHONPATH=src " + " ".join(["python"] + COMMAND[1:]), "mutants": results, "survivors": survivors}
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"survivors: {survivors or 'none'}", file=sys.stderr)
    return 1 if results["unmutated"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
