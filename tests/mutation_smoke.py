"""Mutation smoke test: each kernel or I/O mutant below must fail the tier-1 tests named with it.

Each mutant is a (file, old, new) triple: the one occurrence of old in file is replaced
by new, in a temporary copy of src/ and tests/. The named tests then run on that copy,
and the mutant is killed when they fail (or time out, or cannot be imported). Exits 1 if
any mutant survives or no longer applies. Run from anywhere:

    python tests/mutation_smoke.py

This process imports pytest, numpy and hypothesis once, and never franklin_forge. Each
run of the named tests is a child forked from it, which runs pytest.main on the copy and
so imports franklin_forge fresh from the mutated src/. Nothing of one mutant reaches the
next, and no run pays for those imports again.

pytest does not collect this file; CI runs it as its own step.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy's import: a BLAS thread alive at a fork can deadlock the child

import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import hypothesis  # noqa: F401  imported once, before any fork, so that no child imports it again
import numpy  # noqa: F401  likewise
import pytest

ROOT = Path(__file__).resolve().parents[1]
PROPERTIES = "src/franklin_forge/properties.py"
CORE = "src/franklin_forge/core.py"
PATTERNS = "src/franklin_forge/patterns.py"
ORBITS = "tests/test_orbits.py"
REFERENCE_PROBE = "tests/test_reference.py::test_probe_and_table_give_the_reference_certificate"
FRANKLIN_REFERENCE = "tests/test_reference.py::test_franklin_matches_reference"
FRANKLIN_BANDS = "tests/test_reference.py::test_franklin_in_many_bands_matches_reference"
REARRANGEMENTS = "tests/test_involution.py::test_rearrangements_keep_the_proof_and_the_range"
EMIT_DIGITS = "tests/test_cli.py::test_emit_matches_reference_on_every_digit_count"
BANDS = "tests/test_properties.py::TestBands"
DIAGONALS = "tests/test_properties.py::TestDiagonalFold::test_broken_diagonals_match_the_defining_sums"

PXP_TESTS = ["tests/test_properties.py::TestPxp", "tests/test_reference.py"]
GUARD_TESTS = ["tests/test_properties.py::TestInt64Guard"]
BATTERY = ["tests/test_certificate_bytes.py"]
CLI = "src/franklin_forge/cli.py"
CONSTRUCT = "src/franklin_forge/construct.py"
DIGIT_MAP = "tests/test_construct.py::TestCandidateToSquare::test_digit_map_matches_reference_at_every_order"
INVERTIBLE = "tests/test_construct.py::TestCandidateToSquare::test_invertible_matches_the_determinant_mod_p"
GENERAL_PINS = "tests/test_construct.py::TestGenerator::test_general_candidate_bytes_are_pinned"
INTEGER_RULE = "tests/test_core.py::TestTypeParams::test_one_integer_rule_at_the_library_boundary"
R_AND_K_RULE = "tests/test_core.py::TestTypeParams::test_integer_rule_for_r_and_k"
LABELS = "tests/test_properties.py::TestVerifyAll::test_each_label_from_exactly_its_required_verdicts"
ORDER_BOUND = "tests/test_construct.py::TestCandidateToSquare::test_order_and_prime_checked_before_anything_of_size_n"
EIGHT_DIGITS = "tests/test_cli.py::test_plain_reader_reads_tokens_of_at_most_eight_digits"
PLAIN_TESTS = ["tests/test_cli.py::test_plain_path_matches_reference",
               "tests/test_cli.py::test_plain_path_compares_gap_bytes"]

# (name, file, old, new, tests that must fail)
MUTANTS = [
    ("p x p wrap compare dropped", PROPERTIES,
     "np.not_equal(f[:m, :width], f[:m, -width:], out=lag[:m, -width:])", "pass", PXP_TESTS + [ORBITS]),
    ("first-column windows without the wrap rows", PROPERTIES, "v[: width - 1] if toric", "v[:0] if toric",
     PXP_TESTS),
    ("row 0 not decided", PROPERTIES, "        found = 0\n", "        pass\n", PXP_TESTS + [ORBITS]),
    ("F read width - 1 rows below", PROPERTIES, "a[lo + width : lo + width + k], a[lo : lo + k]",
     "a[lo + width - 1 : lo + width - 1 + k], a[lo : lo + k]", PXP_TESTS + [ORBITS]),
    ("failing row found from W(i, 0) alone", PROPERTIES,  # row 0's windows unchecked, and no F row scanned
     "    if (_windows(a[:width].sum(axis=0), width, toric) != target).any():  # row 0's windows\n"
     "        found = 0\n"
     "    band = -(-BAND_CELLS // cols)  # rows of F, each band read from a's rows "
     "and the rows width below them alone\n"
     "    f, lag = np.empty((band, cols), dtype=heads.dtype), np.empty((band, cols), dtype=bool)\n"
     "    for lo in range(0, found - 1, band):",
     "    f = lag = None\n    for lo in ():", PXP_TESTS + [ORBITS]),
    ("failing row reported one late", PROPERTIES, ".argmax()) + 1\n", ".argmax()) + 2\n", PXP_TESTS),
    ("wrapped rows clipped instead of wrapped", PROPERTIES, "a[lo + width + k - rows : lo + width + m - rows]",
     "a[[rows - 1] * (m - k)]", PXP_TESTS + [ORBITS]),
    ("flat lag compare one column short", PROPERTIES,
     "f.ravel()[width : m * cols], f.ravel()[: m * cols - width], out=lag.ravel()[: m * cols - width]",
     "f.ravel()[width : m * cols - 1], f.ravel()[: m * cols - width - 1], out=lag.ravel()[: m * cols - width - 1]",
     PXP_TESTS + [ORBITS]),
    ("last F row skipped", PROPERTIES, "range(0, found - 1, band)", "range(0, found - 2, band)", PXP_TESTS),
    ("p x p witness windows read unwrapped", PROPERTIES, "_windows(v, p, True)", "_windows(v, p, False)", PXP_TESTS),
    ("shift offset", PROPERTIES, "-k % vec.shape[-1]", "(1 - k) % vec.shape[-1]", ["tests/test_reference.py", ORBITS]),
    ("anti windows read on the main stride", PROPERTIES, "(2 * n - 1, 1)", "(2 * n + 1, 1)",
     ["tests/test_reference.py", DIAGONALS, ORBITS]),
    ("diagonal window starting one column on", PROPERTIES, "_view(band, top, (len(band), n)",
     "_view(band, top + 1, (len(band), n)", ["tests/test_reference.py", DIAGONALS]),
    ("p-set slab t shifted by (t+1)*m", PROPERTIES, "sign * t * m)", "sign * (t + 1) * m)", ["tests/test_reference.py"]),
    ("Franklin run slope sign flipped", PROPERTIES, "+ tau * slope, stride", "- tau * slope, stride",
     [FRANKLIN_REFERENCE, ORBITS]),
    ("Franklin wrap margin one cell short", PROPERTIES, "e = n // p - 1\n", "e = n // p - 2\n",
     [FRANKLIN_REFERENCE, ORBITS]),
    ("Franklin backward direction read forward", PROPERTIES, "e + tau * (f0 + slope", "e + (f0 + slope",
     [FRANKLIN_REFERENCE, ORBITS]),
    ("Franklin run piece one group past its band", PROPERTIES, "min(g0 + count, lo + m // p)",
     "min(g0 + count, lo + m // p + 1)", [FRANKLIN_BANDS, ORBITS]),
    ("Franklin rest read -step columns on", PROPERTIES, "_shift_add(totals, tail, step)",
     "_shift_add(totals, tail, -step)", ["tests/test_reference.py", ORBITS]),
    ("Franklin rest read from the whole group", PROPERTIES, "sums[:, -1:] - heads", "sums[:, -1:]",
     ["tests/test_reference.py", ORBITS]),
    ("Franklin backward sums not turned round", PROPERTIES, "sums if tau > 0 else sums[..., ::-1]", "sums",
     [FRANKLIN_REFERENCE, ORBITS]),
    ("walker right margin filled from the line's end", PROPERTIES, "lines[:, :right]", "lines[:, n - right :]",
     [BANDS, FRANKLIN_REFERENCE, ORBITS]),
    ("walker column band copied without the transpose", PROPERTIES, "strip[:, :m].T if columns",
     "strip[:, :m].reshape(m, n) if columns", [BANDS, FRANKLIN_REFERENCE, ORBITS]),
    ("walker's last partial band read one line long", PROPERTIES, "yield top, buf[:m]", "yield top, buf[: m + 1]",
     [BANDS, DIAGONALS, ORBITS]),
    ("probe compares with the wrong target", PROPERTIES, "if (sums == target).all():",
     "if (sums == target + 1).all():", [REFERENCE_PROBE]),
    ("probe reports the second failing entry", PROPERTIES, "first = int(bad.argmax())",
     "first = int(np.flatnonzero(bad)[:2][-1])", [REFERENCE_PROBE]),
    ("witness cells left in scan order", PROPERTIES, "np.divmod(flat[flat.argsort()], cols)", "np.divmod(flat, cols)",
     BATTERY),
    ("witness read one entry on", PROPERTIES, "np.array([j]))[0]", "np.array([j + 1]))[0]", BATTERY),
    ("oracle reads int64 entries", PROPERTIES, "else grid_or_array, dtype=object)\n    rows, cols = a.shape\n    perm",
     "else grid_or_array, dtype=np.int64)\n    rows, cols = a.shape\n    perm",
     ["tests/test_properties.py::TestTransversals::test_exact_past_int64"]),
    ("loosened int64 guard", PROPERTIES, "** 2 > 2**63 - 1", "** 2 > 2**64 - 1", GUARD_TESTS),
    ("guard > becomes >=", PROPERTIES, "** 2 > 2**63 - 1", "** 2 >= 2**63 - 1", GUARD_TESTS),
    ("rest used for first", PATTERNS, "(rest if col % p else first)",
     "(rest if col % p else rest)", ["tests/test_patterns.py", ORBITS]),
    ("split-row memo keyed on p alone", PATTERNS, "@lru_cache(maxsize=16)",
     "def _keyed_on_p(f):\n"
     "    memo = {}\n"
     "    lookup = lambda params: memo.setdefault(params.p, f(params))\n"
     "    lookup.cache_clear = memo.clear\n"
     "    return lookup\n\n\n"
     "@_keyed_on_p",
     ["tests/test_patterns.py::TestSplitRowsMemo::test_table_is_the_reference_walk_cold_and_after_eviction", ORBITS]),
    ("alpha-row table read at alpha", PATTERNS, "up = split_rows(spec.params).rows[spec.alpha - 1]",
     "up = split_rows(spec.params).rows[spec.alpha % (spec.params.p - 1)]",
     ["tests/test_reference.py::test_franklin_cells_match_reference"]),
    ("CellSet lines swapped", PATTERNS, "CellSet(line, cols) if q % 2 == 0 else CellSet(cols, line)",
     "CellSet(cols, line) if q % 2 == 0 else CellSet(line, cols)",
     ["tests/test_reference.py::test_franklin_cells_match_reference", "tests/test_patterns.py::TestCellSet"]),
    ("band rows read R_d one row down", CONSTRUCT, "_table(w, row_res[:, top : top + band].T, col_res, p, out",
     "_table(w, np.roll(row_res, -1, axis=1)[:, top : top + band].T, col_res, p, out",
     [DIGIT_MAP, GENERAL_PINS, ORBITS]),
    ("table kernel moves digits by -y instead of +y", CONSTRUCT, "s_d[:, None] + np.arange(p)",
     "s_d[:, None] - np.arange(p)", [DIGIT_MAP, "tests/test_reference.py::test_digit_map_matches_reference"]),
    ("residues not reduced mod p", CONSTRUCT, "(m[:, :r] @ digits + b[:, None]) % p, (m[:, r:] @ digits) % p",
     "m[:, :r] @ digits + b[:, None], m[:, r:] @ digits", [DIGIT_MAP, GENERAL_PINS, ORBITS]),
    ("pivot searched from row 0 instead of row col", CONSTRUCT, "pivots = col + np.flatnonzero(a[col:, col])",
     "pivots = np.flatnonzero(a[:, col])", [INVERTIBLE]),
    ("order not bounded before the square is allocated", CONSTRUCT, "n = TypeParams.for_power(p, r).n", "n = p**r",
     [ORDER_BOUND]),
    ("half table H read at j mod p", CONSTRUCT, "high.reshape(1, p, n // wide, wide)",
     "high[np.arange(n) % p, np.arange(n)].reshape(1, 1, n // wide, wide)", [DIGIT_MAP, ORBITS]),
    ("half table L's tile shifted one column", CONSTRUCT, "np.tile(low.T, wide // p)",
     "np.roll(np.tile(low.T, wide // p), 1, axis=1)", [DIGIT_MAP]),
    ("two-table structure test ignores the bottom-right block", CONSTRUCT,
     "if not m[:r, : r - 1].any() and not m[r:, r:-1].any():", "if not m[:r, : r - 1].any():", [DIGIT_MAP]),
    ("unswapped theta axis", "src/franklin_forge/involution.py", "((1, 0, 2) if swap_rows",
     "((0, 1, 2) if swap_rows", ["tests/test_involution.py", ORBITS]),
    ("theta of a plain Grid comes back as a NaturalSquare", "src/franklin_forge/involution.py",
     "return type(grid)(_Owned(", "return __import__('franklin_forge').NaturalSquare(_Owned(", [REARRANGEMENTS]),
    ("a plain Grid's rearrangement taken as proved", CORE, "isinstance(entries.source, NaturalSquare)",
     "isinstance(entries.source, Grid)", [REARRANGEMENTS]),
    ("integer rule accepts floats", CORE, "not isinstance(value, numbers.Integral)",
     "not isinstance(value, numbers.Real)",
     [INTEGER_RULE, "tests/test_patterns.py::TestFranklinCells::test_spec_refuses_a_non_integer_alpha_or_offset"]),
    ("for_power skips the integer rule for r", CORE, ', _integer(r, "r")\n', ", r\n", [R_AND_K_RULE]),
    ("classification takes the first label met", PROPERTIES, "for c in reversed(CLASSIFICATIONS[1:])",
     "for c in CLASSIFICATIONS[1:]", [LABELS, "tests/test_properties.py::TestVerifyAll::test_mp9_classification"]),
    ("passed read as carries a witness", PROPERTIES, "return self.witness is None", "return self.witness is not None",
     [LABELS, "tests/test_properties.py::TestInputValidation::test_verdict_carries_a_witness_exactly_when_it_fails"]),
    ("range from the first row only", CORE, "(int(a.min()), int(a.max()))",
     "(int(a[0].min()), int(a[0].max()))", ["tests/test_core.py"] + GUARD_TESTS),
    ("no range test in the naturalness proof", CORE, "if lo < 0 or hi >= n * n or not _is_permutation",
     "if not _is_permutation", ["tests/test_core.py"]),
    ("Grid(g) does not share the range", CORE, "self._a, self._span = entries._a, entries._span",
     "self._a = entries._a", GUARD_TESTS + BATTERY),
    ("leading-zero token read as plain", CLI, " or ((band[starts] == 48) & (lengths > 1)).any()", "",
     PLAIN_TESTS),
    ("9-digit tokens read as plain", CLI, "lengths.max() > _MAX_DIGITS", "lengths.max() > _MAX_DIGITS + 1",
     [EIGHT_DIGITS]),
    ("digit pairs folded with their weights swapped", CLI, "(w * 2561) >> 8", "(w * 266) >> 8",
     ["tests/test_cli.py::test_plain_path_matches_reference"]),
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
    ("report window target read under the segment flag", CLI, "params.pxp_sum if params.has_pxp_sum",
     "params.pxp_sum if params.has_segment_sum",
     ["tests/test_cli.py::TestCommands::test_report_header_marks_targets_that_are_not_integers"]),
    ("fixtures --export serves the first fixture for any known name", CLI, "table.get(args.export, (None, None))",
     "next(iter(table.values())) if args.export in table else (None, None)",
     ["tests/test_cli.py::TestCommands::test_fixtures_list_and_export_serve_the_golden_files"]),
    ("exhaustion exits as an input error", CLI, "return EXIT_EXHAUSTED", "return EXIT_INPUT_ERROR",
     ["tests/test_cli.py::TestCommands::test_construct_exhaustion_exit_code"]),
    ("screen accepts any pandiagonal magic square", CONSTRUCT, '.classification == "most_perfect_type_p":',
     '.classification != "none":',
     ["tests/test_construct.py::TestGenerator::test_screen_rejects_a_pandiagonal_magic_square_that_fails_complementary"]),
    ("write format ignores the .csv extension", CLI, "    fmt = _file_format(path, csv)\n",
     '    fmt = "csv" if csv else "json"\n',
     ["tests/test_cli.py::TestStreamedOutput::test_a_csv_path_is_written_as_csv_as_it_is_read"]),
]

TIMEOUT_S = 120


def tests_pass(work: Path, tests: list, pristine: bool = False) -> bool:
    """Do the tests pass on the copy in work? They run in a forked child, whose output is dropped; a run past
    TIMEOUT_S, or a child that dies, counts as a failure. Only a run on the pristine copy writes bytecode: a .pyc
    records its source's mtime, and each later write of a file gives it a newer one, so no mutant's run reads a
    .pyc of other text, and the test modules are not compiled and assert-rewritten again."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            os.chdir(work)
            os.environ.update(PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")  # for the tests' subprocesses
            sys.dont_write_bytecode = not pristine
            sys.path[:1] = [str(work), str(work / "src")]  # as python -m pytest with that PYTHONPATH, run in work
            signal.alarm(TIMEOUT_S)  # SIGALRM's default action ends the child
            code = pytest.main(["-q", "-x", "-p", "no:cacheprovider", *tests])
        finally:
            os._exit(int(code))
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


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
        if not tests_pass(work, every_test, pristine=True):  # else a failure would not be the mutant's doing
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
