import io
import json
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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
        doc = SquareDocument.from_square(square, p=params.p, metadata={"name": "x"})
        text = emit_square(doc)
        again = parse_square(text)
        assert again.entries == doc.entries
        assert emit_square(again) == text  # canonical form is a fixed point

    def test_csv_round_trip(self, fig1):
        square, _ = fig1
        doc = SquareDocument.from_square(square)
        text = emit_square(doc, "csv")
        again = parse_square(text, "csv")
        assert again.entries == square.to_lists()
        assert emit_square(again, "csv") == text

    def test_minimal_json_document(self):
        doc = parse_square('{"order":2,"entries":[[0,1],[2,3]]}')
        assert doc.order == 2 and doc.entries == [[0, 1], [2, 3]]

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

    def test_unknown_schema_rejected(self):
        with pytest.raises(SquareFormatError):
            parse_square('{"schema":"other/9","order":2,"entries":[[0,1],[2,3]]}')

    @pytest.mark.parametrize(
        "name", ["figure1_franklin8", "figure2_mp8", "figure2_mp9", "sec14_franklin27"]
    )
    def test_golden_serialization(self, name, fixture_map):
        square, params = fixture_map[name]
        doc = SquareDocument.from_square(square, p=params.p, metadata={"name": name})
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
        doc = SquareDocument.from_square(
            ff.NaturalSquare.from_rows([[8 * i + j for j in range(8)] for i in range(8)])
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
        assert parse_square(twice.read_text()).entries == parse_square(src.read_text()).entries

    def test_pattern_sum_figure1(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "figure1_franklin8")
        capsys.readouterr()
        code = main(
            ["pattern", "--p", "2", "--k", "1", "--direction", "up", "--alpha", "1",
             "--offset", "1", "--sum", "--in", str(path)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "252"

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

    def test_fixtures_unknown_name(self, capsys):
        assert main(["fixtures", "--export", "nonesuch"]) == EXIT_INPUT_ERROR

    def test_report_contains_band_sums(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "sec14_franklin27")
        capsys.readouterr()
        assert main(["report", "--p", "3", "--in", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "s_0=6552" in out and "s_1=3276" in out
        assert "classification: pandiagonal_franklin_type_p" in out

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
        assert parse_square(" 0 , +1\n2,\t3 ", "csv").entries == [[0, 1], [2, 3]]

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
