import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import franklin_forge as ff
from franklin_forge.cli import (
    EXIT_EXHAUSTED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    SquareDocument,
    SquareFormatError,
    emit_square,
    main,
    parse_square,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main(["fixtures", "--export", name, "--out", str(path)]) == EXIT_OK
    return path


class TestFormats:
    def test_json_round_trip(self, mp8):
        square, params = mp8
        doc = SquareDocument(square, p=params.p, metadata={"name": "x"})
        text = emit_square(doc)
        again = parse_square(text)
        assert again.grid == doc.grid
        assert emit_square(again) == text  # canonical form is a fixed point

    def test_csv_round_trip(self, fig1):
        square, _ = fig1
        doc = SquareDocument(square)
        text = emit_square(doc, "csv")
        again = parse_square(text, "csv")
        assert again.grid == square
        assert emit_square(again, "csv") == text

    def test_minimal_json_document(self):
        doc = parse_square('{"order":2,"entries":[[0,1],[2,3]]}')
        assert doc.order == 2 and doc.grid.entries.tolist() == [[0, 1], [2, 3]]

    def test_dimension_error(self):
        rows = [",".join(str(8 * i + j) for j in range(7)) for i in range(8)]
        with pytest.raises(SquareFormatError):
            parse_square("\n".join(rows), "csv")

    def test_non_integer_token(self):
        for text in ("0,1\nx,3", "0,1_0\n2,3", "0,1\n١٢,3"):  # int() alone reads 1_0 and ١٢
            with pytest.raises(SquareFormatError, match="non-integer token"):
                parse_square(text, "csv")
        with pytest.raises(SquareFormatError):
            parse_square('{"order":2,"entries":[[0,1],[2,3.5]]}')

    def test_duplicate_symbols_warn(self):
        with pytest.warns(UserWarning, match="duplicate"):
            parse_square('{"order":2,"entries":[[0,0],[1,2]]}')
        with pytest.warns(UserWarning, match="duplicate"):  # out of range as well
            parse_square('{"order":2,"entries":[[5,5],[1,2]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_square('{"order":2,"entries":[[3,1],[2,0]]}')
            parse_square('{"order":2,"entries":[[0,1],[2,5]]}')  # not natural, but no symbol twice

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"order": 3, "entries": [[0, 1], [2, 3]]}', "expected 3 rows, found 2"),
            ('{"order": 2, "entries": [[0, 1], 5]}', "row 1 is not a list"),
            ('{"order": 2, "entries": [[0, 1], [2]]}', "row 1 has 1 values, expected 2"),
            ('{"order": 2, "entries": [[0, 1], [true, 3]]}', "non-integer entry True in row 1"),
            ('{"order": 2, "entries": [[0, 1], [2, 3.0]]}', "non-integer entry 3.0 in row 1"),
            ('{"order": 2, "entries": [["0", 1], [2, 3]]}', "non-integer entry '0' in row 0"),
            ('{"order": 2, "entries": [[0, 1], [2, null]]}', "non-integer entry None in row 1"),
            ('{"order": 2, "entries": [[0, [1]], [2, 3]]}', "non-integer entry [1] in row 0"),
            ('{"entries": [[0, 1], [2, 9223372036854775808]]}', "entries must fit a signed 64-bit integer"),
            ('{"entries": [[0, -9223372036854775809], [2, 3]]}', "entries must fit a signed 64-bit integer"),
            ('{"order": 2, "entries": [[0, 1.5], 7]}', "non-integer entry 1.5 in row 0"),  # row 0 wins
            ('{"entries": [], "k": 1}', "grid entries must form a non-empty 2-D array"),
            ('{"entries": [[0]], "k": false}', "'k' must be an integer, got False"),
        ],
    )
    def test_format_error_messages(self, text, message):
        with pytest.raises(SquareFormatError) as excinfo:
            parse_square(text)
        assert str(excinfo.value) == message

    def test_unknown_format_rejected(self, mp8):
        doc = SquareDocument(mp8[0])
        with pytest.raises(SquareFormatError, match="^unknown format 'xml'$"):
            parse_square(emit_square(doc), "xml")
        with pytest.raises(SquareFormatError, match="^unknown format 'xml'$"):
            emit_square(doc, "xml")

    def test_unknown_schema_rejected(self):
        with pytest.raises(SquareFormatError):
            parse_square('{"schema":"other/9","order":2,"entries":[[0,1],[2,3]]}')

    @pytest.mark.parametrize(
        "name", ["figure1_franklin8", "figure2_mp8", "figure2_mp9", "sec14_franklin27"]
    )
    def test_golden_serialization(self, name, fixture_map):
        square, params = fixture_map[name]
        doc = SquareDocument(square, p=params.p, metadata={"name": name})
        assert emit_square(doc) == (GOLDEN_DIR / f"{name}.json").read_text()


class TestCommands:
    def test_verify_order27(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "sec14_franklin27")
        capsys.readouterr()
        code = main(["verify", "--p", "3", "--in", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert json.loads(out)["classification"] == "pandiagonal_franklin_type_p"

    def test_verify_output_is_byte_identical(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "figure1_franklin8")
        capsys.readouterr()
        main(["verify", "--p", "2", "--in", str(path), "--json"])
        first = capsys.readouterr().out
        main(["verify", "--p", "2", "--in", str(path), "--json"])
        assert capsys.readouterr().out == first

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        doc = SquareDocument(
            ff.NaturalSquare([[8 * i + j for j in range(8)] for i in range(8)])
        )
        path = tmp_path / "reading.json"
        path.write_text(emit_square(doc))
        assert main(["verify", "--p", "2", "--in", str(path)]) == EXIT_VERIFY_FAIL

    def test_verify_expect_classification(self, tmp_path):
        path = write_fixture(tmp_path, "figure2_mp8")
        args = ["verify", "--p", "2", "--in", str(path)]
        assert main(args + ["--expect", "most_perfect_type_p"]) == EXIT_OK
        assert main(args + ["--expect", "franklin_type_p"]) == EXIT_VERIFY_FAIL

    def test_verify_weakened_mode(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "sec14_franklin27")
        assert main(["verify", "--p", "3", "--in", str(path), "--weakened", "--alpha", "2"]) == EXIT_OK
        # On the seed-0 (3,3) square, --alpha alone selects the partition as --weakened --alpha does.
        path = tmp_path / "mp27.json"
        assert main(["construct", "--p", "3", "--r", "3", "--out", str(path)]) == EXIT_OK
        outputs = []
        for extra in (["--alpha", "2"], ["--weakened", "--alpha", "2"], []):
            capsys.readouterr()
            main(["verify", "--p", "3", "--in", str(path), "--json"] + extra)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]
        assert "up pattern, alpha=2, offset=0" in outputs[0]

    def test_verify_refuses_a_bad_alpha_at_every_order(self, tmp_path, capsys):
        """An alpha outside 1..p-1 exits 2 with one message whether or not the order has Franklin
        patterns (27 has, 9 has not); a valid alpha is still ignored where there are none."""
        for r in (2, 3):
            path = tmp_path / f"mp{3 ** r}.json"
            assert main(["construct", "--p", "3", "--r", str(r), "--out", str(path)]) == EXIT_OK
            for alpha in ("7", "0", "-3"):
                for extra in ([], ["--weakened"]):
                    capsys.readouterr()
                    argv = ["verify", "--p", "3", "--in", str(path), "--alpha", alpha] + extra
                    assert main(argv) == EXIT_INPUT_ERROR
                    captured = capsys.readouterr()
                    assert captured.out == "" and captured.err == f"error: alpha={alpha} outside 1..2\n"
        outputs = []
        for extra in (["--alpha", "2"], ["--weakened"], []):
            assert main(["verify", "--p", "3", "--in", str(tmp_path / "mp9.json"), "--json"] + extra) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_theta_then_verify_pipeline(self, tmp_path):
        src = write_fixture(tmp_path, "figure2_mp8")
        out = tmp_path / "franklin8.json"
        assert main(["theta", "--p", "2", "--in", str(src), "--out", str(out)]) == EXIT_OK
        assert (
            main(["verify", "--p", "2", "--in", str(out), "--expect", "pandiagonal_franklin_type_p"])
            == EXIT_OK
        )

    def test_theta_is_involution_through_files(self, tmp_path):
        src = write_fixture(tmp_path, "figure2_mp9")
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        main(["theta", "--p", "3", "--in", str(src), "--out", str(once)])
        main(["theta", "--p", "3", "--in", str(once), "--out", str(twice)])
        assert parse_square(twice.read_text()).grid == parse_square(src.read_text()).grid

    def test_pattern_sum_figure1(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "figure1_franklin8")
        capsys.readouterr()
        code = main(
            ["pattern", "--p", "2", "--k", "1", "--direction", "up", "--alpha", "1",
             "--offset", "1", "--sum", "--in", str(path)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "252"

    def test_pattern_sum_past_int64_on_a_plain_grid(self, tmp_path, capsys):
        """The cells are gathered at once but summed as Python ints: 8 entries above 2^62 would wrap int64."""
        entries = [[2**62 + 8 * i + j for j in range(8)] for i in range(8)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"entries": entries}))
        capsys.readouterr()
        code = main(["pattern", "--p", "2", "--k", "1", "--direction", "right", "--alpha", "1",
                     "--offset", "3", "--sum", "--in", str(path)])
        cells = ff.franklin_cells(ff.PatternSpec("right", 1, 3, ff.TypeParams(2, 8)))
        assert code == EXIT_OK
        assert capsys.readouterr().out == f"{sum(entries[r][c] for r, c in cells)}\n"
        assert sum(entries[r][c] for r, c in cells) > 2**63

    def test_pattern_sum_order_mismatch(self, tmp_path, capsys):
        """pattern --sum needs a square of order k * p^3; an order-1 square exits 2 with one error line."""
        path = tmp_path / "order1.json"
        path.write_text('{"entries": [[0]]}')
        code = main(["pattern", "--p", "2", "--k", "1", "--direction", "up", "--alpha", "1",
                     "--offset", "0", "--sum", "--in", str(path)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: square order 1 does not match n=8\n"

    def test_pattern_cells_output(self, capsys):
        code = main(
            ["pattern", "--p", "2", "--k", "1", "--direction", "up", "--alpha", "1",
             "--offset", "1", "--cells"]
        )
        assert code == EXIT_OK
        cells = {tuple(c) for c in json.loads(capsys.readouterr().out)}
        assert cells == {(1, 0), (2, 1), (3, 2), (4, 3), (4, 4), (3, 5), (2, 6), (1, 7)}

    def test_construct_then_verify(self, tmp_path):
        out = tmp_path / "mp.json"
        assert main(["construct", "--p", "2", "--r", "3", "--out", str(out)]) == EXIT_OK
        assert (
            main(["verify", "--p", "2", "--in", str(out), "--expect", "most_perfect_type_p"])
            == EXIT_OK
        )

    def test_construct_exhaustion_exit_code(self, tmp_path, capsys):
        code = main(
            ["construct", "--p", "5", "--r", "2", "--family", "fixtures_only",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == EXIT_EXHAUSTED

    def test_fixtures_list(self, capsys):
        assert main(["fixtures", "--list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("figure1_franklin8", "figure2_mp8", "figure2_mp9", "sec14_franklin27"):
            assert name in out

    def test_fixtures_list_and_export_serve_the_golden_files(self, tmp_path, capsys):
        """--list gives each fixture's order and p, and --export writes each listed one as its golden file."""
        assert main(["fixtures", "--list"]) == EXIT_OK
        listed = capsys.readouterr().out.splitlines()
        assert listed == ["figure1_franklin8  order=8  p=2", "figure2_mp8  order=8  p=2",
                          "figure2_mp9  order=9  p=3", "sec14_franklin27  order=27  p=3"]
        for line in listed:
            name = line.split()[0]
            assert write_fixture(tmp_path, name).read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()

    def test_fixtures_unknown_name(self, capsys):
        assert main(["fixtures", "--export", "nonesuch"]) == EXIT_INPUT_ERROR

    def test_report_contains_band_sums(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "sec14_franklin27")
        capsys.readouterr()
        assert main(["report", "--p", "3", "--in", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "s_0=6552" in out and "s_1=3276" in out
        assert "classification: pandiagonal_franklin_type_p" in out

    @pytest.mark.parametrize(
        "p, rows, header",
        [
            (3, [[54 * i + j for j in range(54)] for i in range(54)],
             "magic sum 78705, window sum n/a, segment sum 26235, complement sum n/a"),
            (2, [[0]], "magic sum 0, window sum n/a, segment sum n/a, complement sum n/a"),
        ],
        ids=["n54_p3", "n1_p2"],
    )
    def test_report_header_marks_targets_that_are_not_integers(self, tmp_path, capsys, p, rows, header):
        """At n = 54, p = 3 the window and complement targets are half-integers; at n = 1, p = 2 does not divide n."""
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"entries": rows}))
        main(["report", "--p", str(p), "--in", str(path)])
        assert capsys.readouterr().out.splitlines()[1] == header

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--p", "2", "--in", str(bad)]) == EXIT_INPUT_ERROR
        assert main(["verify", "--p", "2", "--in", str(tmp_path / "missing.json")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "text",
        [
            '{"entries": 5}',
            '{"entries": [5]}',
            '{"order": null, "entries": [[0, 1], [2, 3]]}',
            '{"order": 2, "entries": [[0, 1], [2, 3]], "metadata": 5}',
            '{"order": 2, "entries": [[0, 1], [2, 9223372036854775808]]}',
            '{"order": 2.7, "entries": [[0, 1], [2, 3]]}',
            '{"entries": [[0, 1], [2, 3]], "p": []}',
            '{"entries": [[0, 1], [2, 3]], "p": 2.7}',
            '{"entries": [[0, 1], [2, 3]], "p": true}',
            '{"entries": [[0, 1], [2, 3]], "r": "1"}',
            '{"entries": []}',
            '{"entries": [[0, 1], [2, 3]], "p": 3}',  # verified with --p 2
            pytest.param("[" * 200_000 + "]" * 200_000, id="nested-200000-deep"),
        ],
    )
    def test_malformed_document_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["verify", "--p", "2", "--in", str(bad)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["0,1_0\n2,3", "0,1\n١٢,3"], ids=["underscore", "arabic-indic-digits"])
    def test_malformed_csv_exit_code(self, tmp_path, capsys, text):
        """int() reads both tokens (as 10 and 12); a CSV token must be an optional sign and ASCII digits."""
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        assert main(["verify", "--p", "2", "--in", str(bad)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_tokens_may_carry_a_sign_and_spaces(self):
        assert parse_square(" 0 , +1\n2,\t3 ", "csv").grid.entries.tolist() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("row0", [[2**62, 2**62, 2**62 - 3], [2**62, 2**62, 12 - 2**63]])
    def test_overflowing_grid_exit_code(self, tmp_path, capsys, row0):
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({"order": 3, "entries": [row0, [0, 1, 2], [3, 4, 5]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate symbols
            assert main(["verify", "--p", "3", "--in", str(bad)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--p", "1000000000000000003", "--r", "2"],
            ["pattern", "--p", "1000000000000000003", "--k", "1", "--direction", "up", "--alpha", "1",
             "--offset", "0"],
            ["construct", "--p", "3", "--r", "100000000"],
            ["verify", "--p", "1000000000000000003", "--in", "{order1}"],
        ],
        ids=["construct-huge-p", "pattern-huge-p", "construct-huge-r", "verify-huge-p-order1"],
    )
    def test_huge_parameters_exit_fast(self, tmp_path, capsys, argv):
        """A prime p far beyond the order cap, or a huge r, is refused before any trial division
        or p**r: exit 2 with one error line, within a second."""
        doc = tmp_path / "order1.json"
        doc.write_text('{"entries": [[0]]}')
        start = time.perf_counter()
        code = main([str(doc) if a == "{order1}" else a for a in argv])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_one_natural_proof_per_load(self, tmp_path, capsys, monkeypatch):
        calls = []
        proof = ff.core._is_permutation
        for module in [m for name, m in sys.modules.items() if name.startswith("franklin_forge")]:
            if getattr(module, "_is_permutation", None) is proof:  # every binding, imported ones too
                monkeypatch.setattr(module, "_is_permutation", lambda a: calls.append(a.shape) or proof(a))
        path = write_fixture(tmp_path, "figure2_mp8")
        calls.clear()
        assert main(["verify", "--p", "2", "--in", str(path)]) == EXIT_OK
        assert len(calls) == 1

        rows = json.loads(path.read_text())["entries"]
        rows[0][0] = rows[0][1]  # a symbol twice, another missing
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({"entries": rows}))
        calls.clear()
        capsys.readouterr()
        with pytest.warns(UserWarning, match="duplicate symbols") as record:
            assert main(["verify", "--p", "2", "--in", str(dup), "--json"]) == EXIT_VERIFY_FAIL
        assert len(calls) == 1
        assert len(record) == 1
        verdicts = {v["property"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert not verdicts["natural"]["passed"]

    def test_duplicate_load_sorts_once(self, tmp_path, monkeypatch):
        """A square grid in 0..n^2-1 that is not natural repeats a symbol (pigeonhole), so the load
        warns without sorting; only check_natural sorts, for its witness."""
        rows = ff.generate_most_perfect(ff.GeneratorConfig(p=3, r=6)).entries.copy()
        rows[0, 0] = rows[0, 1]
        path = tmp_path / "dup.json"
        path.write_text(emit_square(SquareDocument(ff.Grid(rows), p=3)))
        shapes = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, *args, **kw: shapes.append(np.shape(a)) or sort(a, *args, **kw))
        with pytest.warns(UserWarning, match="duplicate symbols"), redirect_stdout(io.StringIO()):
            assert main(["verify", "--p", "3", "--in", str(path), "--json"]) == EXIT_VERIFY_FAIL
        assert shapes == [(729, 729)]

    @pytest.mark.parametrize("argv", [["verify", "--p", "2"], ["report", "--p", "3"]])
    def test_order_one_square_verifies(self, tmp_path, capsys, argv):
        """p does not divide n = 1, so no p x p window fits and the window check does not apply."""
        path = tmp_path / "order1.json"
        path.write_text('{"entries": [[0]]}')
        assert main(argv + ["--in", str(path)]) == EXIT_OK
        assert "classification: pandiagonal_magic" in capsys.readouterr().out

    def test_verify_rejects_invalid_params(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "figure2_mp9")
        assert main(["verify", "--p", "2", "--in", str(path)]) == EXIT_INPUT_ERROR  # 2 does not divide 9

    def test_stdin_pipeline(self, tmp_path, capsys, monkeypatch):
        import io

        src = write_fixture(tmp_path, "figure2_mp8")
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(src.read_text()))
        assert main(["theta", "--p", "2"]) == EXIT_OK
        transformed = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(transformed))
        assert main(["verify", "--p", "2", "--expect", "pandiagonal_franklin_type_p"]) == EXIT_OK


@st.composite
def small_documents(draw):
    """A JSON square of order 1..6 with entries anywhere in the int64 range."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    return json.dumps({"order": n, "entries": draw(st.lists(row, min_size=n, max_size=n))})


def assert_exits_cleanly(argv, text):
    """main(argv) on a file holding text gives a documented exit code and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main(argv + ["--in", str(path)])
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_INPUT_ERROR)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_INPUT_ERROR:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(text=small_documents(), p=st.sampled_from([2, 3, 5]))
def test_verify_fuzz_exits_cleanly(text, p):
    assert_exits_cleanly(["verify", "--p", str(p)], text)


@st.composite
def nested_documents(draw):
    """A document nested up to 5000 deep: the whole document, a row entry, the metadata or p."""
    nest = "[" * draw(st.integers(1, 5000))
    nest += "]" * len(nest)
    return draw(st.sampled_from([
        nest,
        '{"entries": [[%s]]}' % nest,
        '{"entries": [[0]], "metadata": {"m": %s}}' % nest,
        '{"entries": [[0]], "p": %s}' % nest,
    ]))


# small values, any integer up to 2^70, and primes beyond the order cap
integer_args = (
    st.sampled_from([1, 2, 3, 5])
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([3001, 2**61 - 1, 1_000_000_000_000_000_003])
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["verify", "theta", "report", "pattern"]),
    text=small_documents() | nested_documents(),
    numbers=st.tuples(integer_args, integer_args, integer_args, integer_args),
    direction=st.sampled_from(ff.patterns.DIRECTIONS),
)
def test_main_fuzz_exits_cleanly(command, text, numbers, direction):
    p, k, alpha, offset = map(str, numbers)
    argv = [command, "--p", p]
    if command == "pattern":
        argv += ["--k", k, "--direction", direction, "--alpha", alpha, "--offset", offset, "--sum"]
    assert_exits_cleanly(argv, text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def json_documents(draw):
    """Each document key left out, well-formed, or holding any JSON value."""
    n = draw(st.integers(0, 4))
    row = st.lists(st.integers(-(2**64), 2**64), min_size=n, max_size=n)
    well_formed = {
        "schema": st.just("franklin-forge/1"),
        "order": st.just(n),
        "p": st.integers(),
        "k": st.integers(),
        "r": st.integers(),
        "entries": st.lists(row, min_size=n, max_size=n),
        "metadata": st.dictionaries(st.text(max_size=2), json_values, max_size=3),
    }
    doc = {}
    for key, value in well_formed.items():
        kind = draw(st.integers(0, 5))  # 0 leaves the key out, 1 puts any JSON value in it
        if kind:
            doc[key] = draw(json_values if kind == 1 else value)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=json_documents())
def test_parse_square_fuzz(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate symbols
        try:
            doc = parse_square(text)
        except SquareFormatError:
            return
        canonical = emit_square(doc)
        assert emit_square(parse_square(canonical)) == canonical


def reference_parse_json(text):
    """The JSON branch of parse_square without the plain-block path: one json.loads of the whole
    text, then checks row by row. The plain-block path must agree with it on every text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SquareFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SquareFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict) or "entries" not in raw:
        raise SquareFormatError("JSON square document needs an 'entries' key")
    schema = raw.get("schema")
    if schema is not None and schema != "franklin-forge/1":
        raise SquareFormatError(f"unsupported schema {schema!r}")
    rows = raw["entries"]
    if not isinstance(rows, list):
        raise SquareFormatError("'entries' must be a list of rows")
    order = raw.get("order", len(rows))
    if type(order) is not int:
        raise SquareFormatError(f"'order' must be an integer, got {order!r}")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SquareFormatError("'metadata' must be an object")
    if len(rows) != order:
        raise SquareFormatError(f"expected {order} rows, found {len(rows)}")
    for idx, row in enumerate(rows):
        if not isinstance(row, list):
            raise SquareFormatError(f"row {idx} is not a list")
        if len(row) != order:
            raise SquareFormatError(f"row {idx} has {len(row)} values, expected {order}")
        if not set(map(type, row)) <= {int}:
            token = next(t for t in row if type(t) is not int)
            raise SquareFormatError(f"non-integer entry {token!r} in row {idx}")
    try:
        grid = ff.Grid(rows)
    except OverflowError as exc:
        raise SquareFormatError("entries must fit a signed 64-bit integer") from exc
    except ValueError as exc:
        raise SquareFormatError(str(exc)) from exc
    try:
        grid = ff.NaturalSquare(grid)
    except ValueError:
        flat = np.sort(grid.entries, axis=None)
        if (flat[1:] == flat[:-1]).any():
            warnings.warn("square contains duplicate symbols; not a natural square")
    for key in ("p", "k", "r"):
        value = raw.get(key)
        if value is not None and type(value) is not int:
            raise SquareFormatError(f"'{key}' must be an integer, got {value!r}")
    return SquareDocument(grid, p=raw.get("p"), k=raw.get("k"), r=raw.get("r"), metadata=metadata)


def parse_outcome(parse, text):
    """Everything parse makes of text: the document's parts or the error message, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            doc = parse(text)
            made = (type(doc.grid).__name__, doc.grid.entries.shape, doc.grid.entries.tobytes(),
                    repr(doc.metadata), doc.p, doc.k, doc.r)
        except SquareFormatError as exc:
            made = ("error", str(exc))
    return made, [str(w.message) for w in caught]


def assert_parses_as_reference(text):
    assert parse_outcome(parse_square, text) == parse_outcome(reference_parse_json, text)


# Near-plain documents: a square in one of several layouts, then at most one edit to a
# token, a row, or the document around the entries.
TOKEN_EDITS = ["0{}", "-{}", "-0", "1e3", "1.0", "true", "null", "[1]", "{} {}", "", " {}", "{}\n", "+{}", "١",
               str(10**18 - 1), str(10**18), "1" * 19, str(2**63 - 1), str(2**63), str(-(2**63)), str(2**64)]
LAYOUTS = [  # head, separator inside a row, between rows, tail
    ("[\n    [", ", ", "],\n    [", "]\n  ]"),  # emit_square
    ("[[", ", ", "], [", "]]"),  # json.dumps
    ("[[", ",", "],[", "]]"),
    ("[ [", " , ", "] ,\r\n\t[", "] ]"),
]
DOC_EDITS = ["none", "order+1", "order-str", "no-order", "entries-twice-first", "entries-twice-last",
             "entries-in-metadata", "escaped-key", "bom", "nan-metadata", "schema", "p-str", "k-false",
             "metadata-list", "drop-row", "extra-cell"]


@st.composite
def near_plain_documents(draw):
    n = draw(st.integers(1, 4))
    value = st.integers(0, 40) | st.integers(0, 10**18 - 1)
    tokens = [[str(draw(value)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        tokens[r][c] = draw(st.sampled_from(TOKEN_EDITS)).replace("{}", tokens[r][c])
    edit = draw(st.just("none") | st.sampled_from(DOC_EDITS))
    if edit == "drop-row" and n > 1:
        tokens.pop()
    if edit == "extra-cell":
        tokens[-1].append("7")
    head, sep, between, tail = draw(st.sampled_from(LAYOUTS))
    block = head + between.join(sep.join(row) for row in tokens) + tail
    order = {"order+1": n + 1, "order-str": '"2"', "no-order": None}.get(edit, n)
    parts = ['"schema": "franklin-forge/1"'] if edit != "schema" else ['"schema": "other/1"']
    if order is not None:
        parts.append(f'"order": {order}')
    parts.append('"p": "3"' if edit == "p-str" else '"p": 3')
    if edit == "k-false":
        parts.append('"k": false')
    key = '"\\u0065ntries"' if edit == "escaped-key" else '"entries"'
    if edit == "entries-twice-first":
        parts.append('"entries": [[0]]')
    if edit == "entries-in-metadata":
        parts.append(f'"metadata": {{"entries": {block}}}')
    parts.append(f"{key}: {block}")
    if edit == "entries-twice-last":
        parts.append('"entries": [[0]]')
    metadata = {"nan-metadata": '{"x": NaN}', "metadata-list": "[]"}.get(edit, '{"name": "x", "m": [1, 2]}')
    if edit != "entries-in-metadata":
        parts.append(f'"metadata": {metadata}')
    return ("\ufeff" if edit == "bom" else "") + "{\n  " + ",\n  ".join(parts) + "\n}\n"


ADVERSARIAL = [
    '{"order": 2, "entries": [[0, 1], [02, 3]]}',  # leading zero
    '{"order": 2, "entries": [[0, 1], [00, 3]]}',
    '{"entries": [[-0, 1], [2, 3]]}',
    '{"entries": [[0, 1], [2, 1e3]]}',
    '{"entries": [[0, 1], [2, 1.0]]}',
    '{"entries": [[0, 1], [true, 3]]}',
    '{"entries": [[0,  1], [2, 3]]}',  # a second space inside a row
    '{"entries": [[0, 1], [2,\n 3]]}',
    '{"entries": [[0 , 1], [2 , 3]]}',
    '{"entries": [[0, 9223372036854775807], [2, 3]]}',
    '{"entries": [[0, -9223372036854775807], [2, 3]]}',
    '{"entries": [[0, -9223372036854775808], [2, 3]]}',
    '{"entries": [[0, 9223372036854775808], [2, 3]]}',
    '{"entries": [[0, 1111111111111111111], [2, 3]]}',  # 19 digits, fits int64
    '{"entries": [[0, 18446744073709551617], [2, 3]]}',
    '{"entries": [[0, 1], [2, 3]], "entries": [[0]]}',
    '{"entries": [[0]], "entries": [[0, 1], [2, 3]]}',
    '{"metadata": {"entries": [[0, 1], [2, 3]]}, "entries": [[0]]}',
    '{"entries": [[0, 1], [2, 3]], "metadata": {"entries": [[0]]}}',
    '{"\\u0065ntries": [[0, 1], [2, 3]]}',
    '{"\\u0065ntries": [[0]], "metadata": {"entries": [[0, 1], [2, 3]]}}',
    '\ufeff{"entries": [[0, 1], [2, 3]]}',
    '{"entries": [[0, 1], [2]]}',  # ragged
    '{"entries": [[0, 1, 2], [3, 4, 5]]}',  # a row short
    '{"entries": [[0, 1], [2, 3], [4, 5]]}',
    '{"entries": [[0, 1], [2, 3]], "order": 3}',
    '{"entries": [[0, 1], [2, 3]], "order": 1}',
    '{"entries": [[0, 1], [2, 3]], "order": true}',
    '{"entries": [[0, 1], [2, 3]], "metadata": {"x": NaN}}',
    '{"entries": [[0, 1], [2, 3]], "k": NaN}',
    '{"entries": [[0, 1], [2, 3]], "metadata": {"x": Infinity}}',
    '{"entries": [[0, 1], [2, 3]], "p": 2}',
    '{"entries": [[0, 1], [2, 3]]} x',
    '{"entries": [[0, 1], [2, 3]]x}',
    '{"entries": [[3, 1], [1, 0]]}',  # a symbol twice
    '{"entries": [[0, 1], [2, 5]]}',  # out of range, no repeat
    '{"entries": [[0]]}',
    '{"entries":[[0,1],[2,3]]}',
    '{"entries": [[]]}',
    '{"entries": [[], []]}',
    '{"entries": [[1]], "metadata": {"m": ' + "[" * 5000 + "]" * 5000 + "}}",
    '{"entries": [[0, 1], [-2, 3]]}',  # with 6-byte bands, row 1 opens a band
    '{"entries": [[0, 1], [ 2, 3]]}',
    '{"entries": [[0, 1], [2,,3]]}',  # a gap as long as the separator
    '{"entries": [[0, 1], [2 ,3]]}',
    '{"entries": [[0, 1], [2, 3], [4, 5]], "order": 2}',
    '{"entries": [[0, 1], [2, 3]], "metadata": {"h": [[1]]}}',  # a tail after the block: a retry
    '{"entries": [[0, 1], [2, 3]], "metadata": {"x": NaN, "h": [[1]]}}',  # the retry still declines these
    '{"entries": [[0, 1], [2, -3]], "metadata": {"h": [[1]]}}',
    '{"entries": [[0, 1], [2, 3]], "metadata": {"h": [[1]]}, "entries": [[0]]}',
    '{"entries": [[0, 1], [2, 3]]], "metadata": {"h": [[1]]}}',
]


@pytest.mark.parametrize("band_bytes", [ff.cli._BAND_BYTES, 6])
@pytest.mark.parametrize("text", ADVERSARIAL)
def test_plain_path_matches_reference(text, band_bytes):
    with mock.patch.object(ff.cli, "_BAND_BYTES", band_bytes):
        assert_parses_as_reference(text)


@settings(max_examples=400, deadline=None)
@given(text=near_plain_documents() | json_documents())
def test_plain_path_matches_reference_fuzz(text):
    assert_parses_as_reference(text)


@settings(max_examples=200, deadline=None)
@given(text=near_plain_documents(), band_bytes=st.integers(1, 40))
def test_plain_path_matches_reference_across_bands(text, band_bytes):
    """Bands of a few bytes cut a small document into bands of one or more rows each."""
    with mock.patch.object(ff.cli, "_BAND_BYTES", band_bytes):
        assert_parses_as_reference(text)


def test_both_layouts_take_the_plain_path(monkeypatch):
    """The canonical layout and json.dumps' default layout are read without decoding the entries
    as JSON; a negative entry falls back to the full decode."""
    decodes = []
    full_decode = ff.cli._json_object
    monkeypatch.setattr(ff.cli, "_json_object", lambda text: decodes.append(text) or full_decode(text))
    square = ff.generate_most_perfect(ff.GeneratorConfig(p=3, r=3))
    canonical = emit_square(SquareDocument(square, p=3, metadata={"name": "x"}))
    dumped = json.dumps({"schema": "franklin-forge/1", "order": 27, "p": 3, "entries": square.entries.tolist(),
                         "metadata": {}})
    for text in (canonical, dumped):
        assert isinstance(parse_square(text).grid, ff.NaturalSquare)
    assert decodes == []
    assert parse_square('{"entries": [[-1]]}').grid.entries.tolist() == [[-1]]
    assert len(decodes) == 1


@pytest.mark.parametrize("after", ['"metadata": {"h": [[1]]}', '"metadata": {"h": [[1]], "g": [[2, 3]]}, "p": 3'],
                         ids=["metadata", "metadata-then-p"])
def test_tail_after_the_block_takes_the_plain_path(after, monkeypatch):
    """json.dumps' tail ]] repeated after the entries: the cut at the last tail fails to decode,
    and the retry at the first tail reads the block as plain, with the reference's result."""
    decodes = []
    full_decode = ff.cli._json_object
    monkeypatch.setattr(ff.cli, "_json_object", lambda text: decodes.append(text) or full_decode(text))
    square = ff.generate_most_perfect(ff.GeneratorConfig(p=3, r=3))
    text = json.dumps({"order": 27, "entries": square.entries.tolist()})[:-1] + ", " + after + "}"
    assert parse_outcome(parse_square, text) == parse_outcome(reference_parse_json, text)
    assert decodes == []


def reference_emit(doc, fmt="json"):
    """emit_square written with json.dumps and str per row, as the reference for the array kernel."""
    rows = doc.grid.entries.tolist()
    if fmt == "csv":
        return "\n".join(",".join(map(str, row)) for row in rows) + "\n"
    lines = ["{", '  "schema": "franklin-forge/1",', f'  "order": {doc.order},']
    for key in ("p", "k", "r"):
        value = getattr(doc, key)
        if value is not None:
            lines.append(f'  "{key}": {int(value)},')
    lines.append('  "entries": [')
    for idx, row in enumerate(rows):
        comma = "," if idx < len(rows) - 1 else ""
        lines.append("    " + json.dumps(row, separators=(", ", ": ")) + comma)
    lines.append("  ],")
    lines.append(f'  "metadata": {json.dumps(doc.metadata, sort_keys=True)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_emits_as_reference(doc):
    for fmt in ("json", "csv"):
        assert emit_square(doc, fmt) == reference_emit(doc, fmt)


int64_entries = st.integers(-(2**63), 2**63 - 1) | st.integers(-12, 12) | st.sampled_from(
    [-(2**63), 2**63 - 1, 2**32 - 1, 2**32, 1 - 2**32, -(2**32), 10**18, 10**18 - 1])


@settings(max_examples=200, deadline=None)
@given(rows=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(st.lists(int64_entries, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])))
def test_emit_matches_reference_fuzz(rows):
    assert_emits_as_reference(SquareDocument(ff.Grid(rows), p=3, k=1, metadata={"m": [1, "é"]}))


@pytest.mark.parametrize("p, r", [(2, 3), (3, 3), (5, 2), (3, 6)])
def test_emit_matches_reference_on_squares(p, r):
    """Both formats are byte-identical to the per-row emitter, over several row bands at (3, 6)."""
    square = ff.generate_most_perfect(ff.GeneratorConfig(p=p, r=r))
    assert_emits_as_reference(SquareDocument(square, p=p, r=r, metadata={"generator": "digit_linear"}))


def test_emit_matches_reference_on_rows_wider_than_a_band():
    rows = np.arange(-70_000, 70_000, dtype=np.int64).reshape(2, 70_000) * 3
    assert_emits_as_reference(SquareDocument(ff.Grid(rows)))


@pytest.mark.parametrize("widest", [9, 10, 19])
@pytest.mark.parametrize("signed", [False, True])
def test_emit_matches_reference_on_every_digit_count(widest, signed):
    """Entries of every length from 1 to widest digits (below 2**32 at 9, so the uint32 digit path, else
    the uint64 one), with negatives and -2**63 when signed, over two bands of rows, both formats."""
    rng = random.Random(widest)
    values = [rng.randrange(10 ** (digits - 1) if digits > 1 else 0, min(10**digits, 2**63))
              for digits in range(1, widest + 1)]
    if signed:
        values += [-v for v in values] + ([-(2**63)] if widest == 19 else [])
    rows = np.array([rng.choice(values) for _ in range(300 * 301)], dtype=np.int64).reshape(300, 301)
    rows[0, : len(values)] = values  # every length occurs
    assert_emits_as_reference(SquareDocument(ff.Grid(rows), p=3, metadata={"widest": widest}))


class TestStreamedOutput:
    """construct, theta and fixtures --export write emit_square's bytes band by band: to an --out file, to
    stdout's binary buffer after its text layer, or as text to a stdout with no buffer."""

    def test_file_stdout_and_text_stdout_carry_the_same_bytes(self, tmp_path, capsys):
        for argv in (["construct", "--p", "3", "--r", "3"], ["construct", "--p", "2", "--r", "4", "--csv"],
                     ["fixtures", "--export", "figure2_mp9"]):
            out = tmp_path / "out"
            assert main(argv + ["--out", str(out)]) == 0
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with mock.patch("sys.stdout", stdout):
                print("before", end="")  # pending in the text layer: flushed ahead of the square's bytes
                assert main(argv) == 0
                print("after")
                stdout.flush()
            assert stdout.buffer.getvalue() == b"before" + out.read_bytes() + b"after\n"
            assert main(argv) == 0
            assert capsys.readouterr().out == out.read_text()
            text = io.StringIO()
            with redirect_stdout(text):
                assert main(argv) == 0
            assert text.getvalue() == out.read_text()
        assert out.read_text() == (GOLDEN_DIR / "figure2_mp9.json").read_text()

    def test_a_csv_path_is_written_as_csv_as_it_is_read(self, tmp_path, capsys):
        """Without --csv, an --out path ending in .csv gets CSV, the format --in reads there: construct, theta
        and verify chain through .csv files, and fixtures --export writes emit_square's CSV bytes."""
        a, b, f = (str(tmp_path / name) for name in ("a.csv", "b.csv", "f.csv"))
        assert main(["construct", "--p", "2", "--r", "3", "--out", a]) == EXIT_OK
        square = ff.generate_most_perfect(ff.GeneratorConfig(2, 3))
        assert Path(a).read_bytes() == emit_square(SquareDocument(square), "csv").encode()
        assert main(["theta", "--p", "2", "--in", a, "--out", b]) == EXIT_OK
        assert main(["verify", "--p", "2", "--in", b, "--expect", "pandiagonal_franklin_type_p"]) == EXIT_OK
        assert main(["fixtures", "--export", "figure2_mp9", "--out", f]) == EXIT_OK
        mp9 = {name: fixture for name, fixture, _ in ff.builtin_fixtures()}["figure2_mp9"]
        assert Path(f).read_bytes() == emit_square(SquareDocument(mp9), "csv").encode()

    def test_theta_writes_emit_square_bytes(self, tmp_path):
        square = ff.generate_most_perfect(ff.GeneratorConfig(3, 3))
        src, out = tmp_path / "mp.json", tmp_path / "f.csv"
        src.write_text(emit_square(SquareDocument(square, p=3)))
        assert main(["theta", "--p", "3", "--csv", "--in", str(src), "--out", str(out)]) == 0
        theta_doc = SquareDocument(ff.theta(square, ff.TypeParams(3, 27)))
        assert out.read_bytes() == emit_square(theta_doc, "csv").encode()

    def test_closed_stdout_exits_1_with_nothing_on_stderr(self):
        """A reader that closes stdout early, as `| head -c 10` does, is no input error: the command exits 1 with
        no error line, no traceback and no "Exception ignored" from the exit flush. The square at n = 729 is about
        4 MB, far more than a pipe holds, so the pipe is sure to break."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "franklin_forge.cli", "construct", "--p", "3", "--r", "6"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(10) == b'{\n  "schem'
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert stderr == b""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_help_into_a_closed_stdout_exits_1_with_nothing_on_stderr(self, unbuffered):
        """--help, at the top level and on every command, into a pipe whose reader has already left, exits 1 with
        an empty stderr, as every command does there: stdout unbuffered (the write fails) or buffered (the flush
        fails). argparse drops the write error of its own print_help, which exited 0."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        commands = next(a.choices for a in ff.cli.build_parser()._actions if isinstance(a.choices, dict))
        assert len(commands) == 6
        for argv in [["--help"]] + [[command, "-h"] for command in commands]:
            read, write = os.pipe()
            os.close(read)
            try:
                done = subprocess.run([sys.executable, "-m", "franklin_forge.cli", *argv], stdout=write,
                                      stderr=subprocess.PIPE, env=env, timeout=60)
            finally:
                os.close(write)
            assert (done.returncode, done.stderr) == (1, b""), argv

    def test_help_into_an_open_stdout_exits_0(self, capsys):
        for argv in (["--help"], ["construct", "-h"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: franklin-forge")

    def test_format_checked_before_the_file_is_opened(self, tmp_path):
        out = tmp_path / "never"
        with pytest.raises(SquareFormatError, match="unknown format 'xml'"):
            emit_square(SquareDocument(ff.Grid([[0]])), "xml", str(out))
        assert not out.exists()


# Edits of one gap of a plain 3 x 3 block in the plain JSON layouts: other bytes of the same
# length, which the reader must compare, or a sign or space after a row gap, which opens a band
# in 6-byte bands.
GAP_EDITS = [
    ("], [", "]; ["), ("], [", "]] ["), ("], [", "x, ["), ("], [", "], [-"), ("], [", "], [ "),
    ("],\n    [", "];\n    ["), ("],\n    [", "],\n    x"), ("],\n    [", "]]\n    ["),
    ("],\n    [", "],\n    [-"), (", ", ",,"), (", ", ";,"), (", ", ",\x00"), (", ", ", -"),
]


@pytest.mark.parametrize("band_bytes", [ff.cli._BAND_BYTES, 6])
@pytest.mark.parametrize("old, new", GAP_EDITS)
def test_plain_path_compares_gap_bytes(old, new, band_bytes):
    """Each edit lands on the second gap of its kind, so row 0 still fixes n."""
    square = [[1, 22, 3], [40, 5, 6], [7, 8, 90]]
    texts = [t for t in (json.dumps({"entries": square}), emit_square(SquareDocument(ff.Grid(square))))
             if t.count(old) > 1]
    assert texts
    for text in texts:
        at = text.find(old, text.find(old) + 1)
        with mock.patch.object(ff.cli, "_BAND_BYTES", band_bytes):
            assert_parses_as_reference(text[:at] + new + text[at + len(old):])


CSV_TOKEN = r"[ \t]*[+-]?[0-9]+[ \t]*"


def reference_parse_csv(text):
    """The CSV branch of parse_square without the plain reader: each line matched and read with
    int(). Its rows are then checked as the JSON reference checks them. The plain reader must
    agree with it on every text."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        tokens = line.split(",")
        if not re.fullmatch(rf"(?:{CSV_TOKEN},)*{CSV_TOKEN}", line):
            bad = next(t for t in tokens if not re.fullmatch(CSV_TOKEN, t))
            raise SquareFormatError(f"non-integer token in CSV: {bad!r}")
        rows.append(list(map(int, tokens)))
    return reference_parse_json(json.dumps({"entries": rows}))


def assert_csv_parses_as_reference(text):
    assert parse_outcome(lambda t: parse_square(t, "csv"), text) == parse_outcome(reference_parse_csv, text)


ADVERSARIAL_CSV = [
    "0,1\n2,3\n",
    "3,1\n2,0\n",
    "0\n",
    "00,1\n2,3\n",  # leading zeros
    "0,01\n2,3\n",
    "+0,1\n2,3\n",  # signs
    "-0,1\n2,3\n",
    "0,-1\n2,3\n",
    "100,11\n-2,3\n",  # with 6-byte bands, row 1 opens a band
    "100,11\n+2,3\n",
    "100,11\n 2,3\n",
    " 0,1\n2,3\n",  # spaces and tabs
    "0, 1\n2,3\n",
    "0,1 \n2,3\n",
    "0,1\n 2,3\n",
    "0\t,1\n2,3\n",
    "0,1\r\n2,3\r\n",  # CRLF
    "0,1\n\n2,3\n",  # blank lines
    "\n0,1\n2,3\n",
    "0,1\n2,3\n\n",
    "0,1\n2,3",  # no final newline
    "0,1111111111111111111\n2,3\n",  # 19 digits, fits int64
    "0,999999999999999999\n2,3\n",  # 18 digits
    "0,9223372036854775807\n2,3\n",
    "0,9223372036854775808\n2,3\n",
    "0,-9223372036854775808\n2,3\n",
    "0,-9223372036854775809\n2,3\n",
    "0,1\n2\n",  # ragged
    "0,1,2\n3,4,5\n",
    "0,1\n2,3\n4,5\n",
    "0\n1\n",
    "0,1_0\n2,3\n",
    "0,1\n\u0661\u0662,3\n",
    "0,0\n1,2\n",  # a symbol twice
    "0,1\n2,5\n",  # out of range, no repeat
    "0,,1\n2,3,4\n5,6,7\n",
    "0,1,\n2,3\n",
    ",\n",
    "",
    "\n",
    "0,1\n2,3\nx",
    "0,1\n2;3\n",
]


@pytest.mark.parametrize("band_bytes", [ff.cli._BAND_BYTES, 6])
@pytest.mark.parametrize("text", ADVERSARIAL_CSV)
def test_csv_plain_path_matches_reference(text, band_bytes):
    with mock.patch.object(ff.cli, "_BAND_BYTES", band_bytes):
        assert_csv_parses_as_reference(text)


CSV_TOKEN_EDITS = ["0{}", "-{}", "+{}", " {}", "{} ", "\t{}", "", "1_0", "x", str(10**18 - 1), str(10**18),
                   "1" * 19, str(2**63 - 1), str(2**63), str(-(2**63)), "{},{}", "{}\n{}"]
CSV_LINE_ENDS = ["\n", "\r\n", "\n\n"]


@st.composite
def near_plain_csv(draw):
    """A CSV square as emit_square writes it, then at most one token edit, another line end,
    a dropped row or a dropped final newline."""
    n = draw(st.integers(1, 4))
    value = st.integers(0, 40) | st.integers(0, 10**18 - 1)
    tokens = [[str(draw(value)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        tokens[r][c] = draw(st.sampled_from(CSV_TOKEN_EDITS)).replace("{}", tokens[r][c])
    if n > 1 and draw(st.integers(0, 5)) == 0:
        tokens.pop()
    end = draw(st.sampled_from(CSV_LINE_ENDS)) if draw(st.integers(0, 3)) == 0 else "\n"
    text = "".join(",".join(row) + end for row in tokens)
    return text[:-1] if draw(st.integers(0, 5)) == 0 else text


@settings(max_examples=300, deadline=None)
@given(text=near_plain_csv(), band_bytes=st.integers(1, 40) | st.just(ff.cli._BAND_BYTES))
def test_csv_plain_path_matches_reference_fuzz(text, band_bytes):
    with mock.patch.object(ff.cli, "_BAND_BYTES", band_bytes):
        assert_csv_parses_as_reference(text)


def test_csv_output_takes_the_plain_path(tmp_path, monkeypatch):
    """theta --csv output is read without the row-by-row path; a signed entry takes it once."""
    src, out = tmp_path / "mp.json", tmp_path / "f.csv"
    assert main(["construct", "--p", "3", "--r", "3", "--out", str(src)]) == EXIT_OK
    assert main(["theta", "--p", "3", "--csv", "--in", str(src), "--out", str(out)]) == EXIT_OK
    row_reads = []
    parse_grid = ff.cli._parse_grid
    monkeypatch.setattr(ff.cli, "_parse_grid", lambda rows, order: row_reads.append(order) or parse_grid(rows, order))
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--p", "3", "--in", str(out), "--expect", "pandiagonal_franklin_type_p"]) == EXIT_OK
    assert row_reads == []
    assert parse_square("-1\n", "csv").grid.entries.tolist() == [[-1]]
    assert row_reads == [1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plain_reader_reads_tokens_of_at_most_eight_digits(fmt, monkeypatch):
    """A token of 8 digits, one 8-byte word, is read as plain; one of 9 makes the plain reader decline, and
    the full decode reads it. Both give the reference parse's result."""
    decodes, row_reads = [], []
    full_decode, parse_grid = ff.cli._json_object, ff.cli._parse_grid
    monkeypatch.setattr(ff.cli, "_json_object", lambda text: decodes.append(text) or full_decode(text))
    monkeypatch.setattr(ff.cli, "_parse_grid", lambda rows, order: row_reads.append(order) or parse_grid(rows, order))
    reference = reference_parse_json if fmt == "json" else reference_parse_csv
    for widest, full in ((10**8 - 1, 0), (10**8, 1)):
        text = emit_square(SquareDocument(ff.Grid([[0, widest], [2, 3]])), fmt)
        assert parse_outcome(lambda t: parse_square(t, fmt), text) == parse_outcome(reference, text)
        assert len(row_reads) == full, widest  # the full decode checks the rows one by one
        assert len(decodes) == (full if fmt == "json" else 0), widest


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plain_load_adopts_the_array_it_reads(fmt):
    """The plain reader's int64 array becomes the Grid's entries with no second copy: a load peaks at
    about one square plus the proof's marks and the reader's bands, not at two squares."""
    square = ff.generate_most_perfect(ff.GeneratorConfig(2, 10))
    text = emit_square(SquareDocument(square, p=2), fmt)
    parse_square(text, fmt)  # warm
    gc.collect()
    tracemalloc.start()
    try:
        doc = parse_square(text, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.grid == square and isinstance(doc.grid, ff.NaturalSquare)
    assert peak <= 1.5 * square.order**2 * 8, peak / (square.order**2 * 8)
