"""Mutation smoke test: each kernel or I/O mutant below must fail the tier-1 tests named with it.

Each mutant is a (file, old, new) triple: the one occurrence of old in file is replaced
by new, in a temporary copy of src/ and tests/. The named tests then run on that copy,
and the mutant is killed when they fail (or time out). Exits 1 if any mutant survives
or no longer applies. Run from anywhere:

    python tests/mutation_smoke.py

pytest does not collect this file; CI runs it as its own step.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROPERTIES = "src/franklin_forge/properties.py"
CORE = "src/franklin_forge/core.py"
PATTERNS = "src/franklin_forge/patterns.py"
ORBITS = "tests/test_orbits.py"
REFERENCE_PROBE = "tests/test_reference.py::test_probe_and_table_give_the_reference_certificate"
REARRANGEMENTS = "tests/test_involution.py::test_rearrangements_keep_the_proof_and_the_range"
EMIT_DIGITS = "tests/test_cli.py::test_emit_matches_reference_on_every_digit_count"

PXP_TESTS = ["tests/test_properties.py::TestPxp", "tests/test_reference.py"]
GUARD_TESTS = ["tests/test_properties.py::TestInt64Guard"]
BATTERY = ["tests/test_certificate_bytes.py"]
CLI = "src/franklin_forge/cli.py"
PLAIN_TESTS = ["tests/test_cli.py::test_plain_path_matches_reference",
               "tests/test_cli.py::test_plain_path_compares_gap_bytes"]

# (name, file, old, new, tests that must fail)
MUTANTS = [
    ("band wrap rows start one late", PROPERTIES, "a[: end - rows]))", "a[1 : end - rows + 1]))", PXP_TESTS),
    ("band reads p - 2 following rows", PROPERTIES, "tops) + width - 1", "tops) + width - 2",
     ["tests/test_properties.py::TestPxp::test_band_edges_match_reference"]),
    ("off-by-one prefix", PROPERTIES, "np.add(c[i - 1], a[i], out=c[i])",
     "np.add(c[i - 1], a[i - 1], out=c[i])", PXP_TESTS),
    ("decision without the wrap compare", PROPERTIES, "bad |= (v[:, -width:] != v[:, :width]).any(axis=1)",
     "pass", PXP_TESTS),
    ("decision without the W(i, 0) test", PROPERTIES, "bad = first != target",
     "bad = np.zeros(len(v), dtype=bool)", PXP_TESTS),
    ("decision compares V(i, j+1) for V(i, j+p)", PROPERTIES, "(v[:, width:] != v[:, :-width])",
     "(v[:, 1:] != v[:, :-1])", PXP_TESTS),
    ("p x p witness one column short", PROPERTIES, "for dc in range(p):", "for dc in range(p - 1):", PXP_TESTS),
    ("failing row found from W(i, 0) alone", PROPERTIES, "k = int(bad.argmax())",
     "k = int((first != target).argmax())", PXP_TESTS),
    ("shift offset", PROPERTIES, "-k % vec.shape[-1]", "(1 - k) % vec.shape[-1]", ["tests/test_reference.py"]),
    ("slab offset t*m for t*h", PROPERTIES, "sign * t * h)", "sign * t * m)", ["tests/test_reference.py"]),
    ("negated Franklin placement shift", PROPERTIES, "_shift_add(acc[s], groups[g], row)",
     "_shift_add(acc[s], groups[g], -row)", ["tests/test_reference.py"]),
    ("Franklin rest read -step columns on", PROPERTIES, "_shift_add(totals, tail, step)",
     "_shift_add(totals, tail, -step)", ["tests/test_reference.py", ORBITS]),
    ("Franklin steps taken from rest - rest", PROPERTIES, "np.subtract(rest, first)", "np.subtract(rest, rest)",
     ["tests/test_reference.py", ORBITS]),
    ("Franklin rest read from the whole group", PROPERTIES, "sums[:, -1:] - heads", "sums[:, -1:]",
     ["tests/test_reference.py", ORBITS]),
    ("Franklin halves not folded", PROPERTIES, "acc[..., :n] += acc[..., n:]", "acc[..., :n] += 0",
     ["tests/test_reference.py"]),
    ("probe compares with the wrong target", PROPERTIES, "if (sums == target).all():",
     "if (sums == target + 1).all():", [REFERENCE_PROBE]),
    ("probe reports the second failing entry", PROPERTIES, "first = int(bad.argmax())",
     "first = int(np.flatnonzero(bad)[:2][-1])", [REFERENCE_PROBE]),
    ("witness cells left in scan order", PROPERTIES, "in sorted(cells(", "in list(cells(", BATTERY),
    ("witness read one entry on", PROPERTIES, "np.array([j]))[0]", "np.array([j + 1]))[0]", BATTERY),
    ("oracle reads int64 entries", PROPERTIES, "else grid_or_array, dtype=object)\n    rows, cols = a.shape\n    perm",
     "else grid_or_array, dtype=np.int64)\n    rows, cols = a.shape\n    perm",
     ["tests/test_properties.py::TestTransversals::test_exact_past_int64"]),
    ("loosened int64 guard", PROPERTIES, "** 2 > 2**63 - 1", "** 2 > 2**64 - 1", GUARD_TESTS),
    ("guard > becomes >=", PROPERTIES, "** 2 > 2**63 - 1", "** 2 >= 2**63 - 1", GUARD_TESTS),
    ("rest used for first", PATTERNS, "(rest if col % p else first)",
     "(rest if col % p else rest)", ["tests/test_patterns.py"]),
    ("split-row memo keyed on p alone", PATTERNS, "@lru_cache(maxsize=16)",
     "def _keyed_on_p(f):\n"
     "    memo = {}\n"
     "    lookup = lambda params: memo.setdefault(params.p, f(params))\n"
     "    lookup.cache_clear = memo.clear\n"
     "    return lookup\n\n\n"
     "@_keyed_on_p",
     ["tests/test_patterns.py::TestSplitRowsMemo::test_table_is_the_reference_walk_cold_and_after_eviction"]),
    ("alpha-row table read at alpha", PATTERNS, "up = split_rows(spec.params).rows[spec.alpha - 1]",
     "up = split_rows(spec.params).rows[spec.alpha % (spec.params.p - 1)]",
     ["tests/test_reference.py::test_franklin_cells_match_reference"]),
    ("CellSet lines swapped", PATTERNS, "CellSet(line, cols) if q % 2 == 0 else CellSet(cols, line)",
     "CellSet(cols, line) if q % 2 == 0 else CellSet(line, cols)",
     ["tests/test_reference.py::test_franklin_cells_match_reference", "tests/test_patterns.py::TestCellSet"]),
    ("group code read with the wrong place value", "src/franklin_forge/construct.py",
     "codes.append(places @ row_res[group])", "codes.append(places[::-1] @ row_res[group])",
     ["tests/test_construct.py::TestCandidateToSquare::test_digit_map_matches_reference_at_every_order"]),
    ("unswapped theta axis", "src/franklin_forge/involution.py", "((1, 0, 2) if swap_rows",
     "((0, 1, 2) if swap_rows", ["tests/test_involution.py"]),
    ("theta of a plain Grid comes back as a NaturalSquare", "src/franklin_forge/involution.py",
     "return type(grid)(_Owned(", "return __import__('franklin_forge').NaturalSquare(_Owned(", [REARRANGEMENTS]),
    ("a plain Grid's rearrangement taken as proved", CORE, "isinstance(entries.source, NaturalSquare)",
     "isinstance(entries.source, Grid)", [REARRANGEMENTS]),
    ("range from the first row only", CORE, "(int(a.min()), int(a.max()))",
     "(int(a[0].min()), int(a[0].max()))", ["tests/test_core.py"] + GUARD_TESTS),
    ("no range test in the naturalness proof", CORE, "if lo < 0 or hi >= n * n or not _is_permutation",
     "if not _is_permutation", ["tests/test_core.py"]),
    ("Grid(g) does not share the range", CORE, "self._a, self._span = entries._a, entries._span",
     "self._a = entries._a", GUARD_TESTS + BATTERY),
    ("leading-zero token read as plain", CLI, " or ((band[starts] == 48) & (lengths > 1)).any()", "",
     PLAIN_TESTS),
    ("19-digit tokens read as plain", CLI, "_MAX_DIGITS = 18", "_MAX_DIGITS = 19", PLAIN_TESTS),
    ("a block one row short read as plain", CLI, "if (done == n * n) != final", "if (done >= n * n - n) != final",
     PLAIN_TESTS),
    ("a band's first run not checked to open a row", CLI, " or edges[0] != 0", "",
     PLAIN_TESTS + ["tests/test_cli.py::test_csv_plain_path_matches_reference"]),
    ("separator bytes not compared", CLI, "if not _gaps_are(band, ends[:, :-1], starts[:, 1:], sep):",
     "if (starts[:, 1:] - ends[:, :-1] != len(sep)).any():", PLAIN_TESTS),
    ("row-gap bytes not compared", CLI, "if not _gaps_are(band, ends[:-1, -1], starts[1:, 0], gap):",
     "if (starts[1:, 0] - ends[:-1, -1] != len(gap)).any():", PLAIN_TESTS),
    ("no retry at the first tail", CLI, "(text.rfind, text.find)", "(text.rfind,)",
     ["tests/test_cli.py::test_tail_after_the_block_takes_the_plain_path"]),
    ("last row emitted with a trailing comma", CLI, '"]\\n  ]")', '"],\\n  ]")',
     ["tests/test_cli.py::TestFormats::test_golden_serialization"]),
    ("digit taken from the wrong remainder", CLI, "rest.astype(np.uint8) * 10", "rest.astype(np.uint8) * 9",
     [EMIT_DIGITS]),
    ("streamed stdout not flushed first", CLI, "        sys.stdout.flush()\n", "",
     ["tests/test_cli.py::TestStreamedOutput::test_file_stdout_and_text_stdout_carry_the_same_bytes"]),
    ("CSV layout with a CRLF row gap", CLI, '"csv": (("", ",", "\\n", "\\n"),)', '"csv": (("", ",", "\\r\\n", "\\n"),)',
     ["tests/test_cli.py::test_emit_matches_reference_on_squares"]),
]

TIMEOUT_S = 120


def tests_pass(work: Path, tests: list) -> bool:
    """Do the tests pass on the copy in work? A run past TIMEOUT_S counts as a failure."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def run_mutant(work: Path, file: str, old: str, new: str, tests: list) -> str:
    """'killed', 'survived' or 'stale' (old no longer occurs exactly once) for one mutant."""
    path = work / file
    text = path.read_text()
    if text.count(old) != 1:
        return "stale"
    path.write_text(text.replace(old, new))
    try:
        return "survived" if tests_pass(work, tests) else "killed"
    finally:
        path.write_text(text)


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="franklin-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        every_test = sorted({t for *_, tests in MUTANTS for t in tests})
        if not tests_pass(work, every_test):  # else a failure would not be the mutant's doing
            print("the unmutated tests fail; no mutant can be judged")
            return 1
        for name, file, old, new, tests in MUTANTS:
            start = time.perf_counter()
            outcome = run_mutant(work, file, old, new, tests)
            print(f"{outcome:8}  {time.perf_counter() - start:5.1f} s  {name}", flush=True)
            if outcome != "killed":
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants not killed: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
