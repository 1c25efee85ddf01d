"""Command-line front end and on-disk square formats.

JSON schema (canonical form, one entries row per line):

    {"schema": "franklin-forge/1", "order": n, "p": p, "entries": [[...], ...],
     "metadata": {...}}

CSV is bare comma-separated rows of plain decimal integers (an optional sign and
ASCII digits, spaces around). Either format is parsed straight to one int64 Grid,
the document's only copy of the entries, and proved natural once: a natural
document holds a NaturalSquare, any other a plain Grid. p, k and r, if given, must
be integers, and a loaded document's p must match --p. Exit codes: 0
success/pass, 1 verification fail, 2 input error, 3 generator exhaustion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .construct import GeneratorConfig, GeneratorExhaustedError, builtin_fixtures, generate_most_perfect
from .core import Grid, NaturalSquare, TypeParams
from .involution import theta
from .patterns import DIRECTIONS, PatternSpec, franklin_cells
from .properties import CLASSIFICATIONS, REQUIRED_VERDICTS, band_sums, check_complementary, verify_all

SCHEMA_ID = "franklin-forge/1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_EXHAUSTED = 3

_CSV_TOKEN = r"[ \t]*[+-]?[0-9]+[ \t]*"  # int() alone would also take "1_0" and non-ASCII digits
_CSV_ROW = re.compile(rf"(?:{_CSV_TOKEN},)*{_CSV_TOKEN}")


class SquareFormatError(ValueError):
    pass


@dataclass
class SquareDocument:
    """A square plus provenance, as stored on disk; the entries are held once, as a Grid or NaturalSquare."""

    grid: Grid
    p: int | None = None
    k: int | None = None
    r: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return self.grid.rows

    @property
    def entries(self) -> list[list[int]]:
        """The rows as Python ints; each read converts the whole grid."""
        return self.grid.to_lists()

    @classmethod
    def from_square(cls, square, p=None, k=None, r=None, metadata=None) -> "SquareDocument":
        return cls(square, p=p, k=k, r=r, metadata=dict(metadata or {}))


def _parse_grid(rows: list, order: int) -> Grid:
    """Check the rows, build the int64 Grid once and prove it natural once; else warn on duplicates."""
    if len(rows) != order:
        raise SquareFormatError(f"expected {order} rows, found {len(rows)}")
    for idx, row in enumerate(rows):
        if not isinstance(row, list):
            raise SquareFormatError(f"row {idx} is not a list")
        if len(row) != order:
            raise SquareFormatError(f"row {idx} has {len(row)} values, expected {order}")
        if not set(map(type, row)) <= {int}:  # bool is its own type, so it fails too
            token = next(t for t in row if type(t) is not int)
            raise SquareFormatError(f"non-integer entry {token!r} in row {idx}")
    try:
        grid = Grid(rows)
    except OverflowError as exc:
        raise SquareFormatError("entries must fit a signed 64-bit integer") from exc
    except ValueError as exc:  # no rows at all
        raise SquareFormatError(str(exc)) from exc
    try:
        return NaturalSquare(grid)
    except ValueError:
        flat = np.sort(grid.entries, axis=None)
        if (flat[1:] == flat[:-1]).any():
            warnings.warn("square contains duplicate symbols; not a natural square", stacklevel=3)
    return grid


def parse_square(text: str, fmt: str = "json") -> SquareDocument:
    """Parse a square document; emit(parse(x)) is canonical."""
    if fmt == "json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SquareFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SquareFormatError("invalid JSON: nested too deeply") from exc
        if not isinstance(raw, dict) or "entries" not in raw:
            raise SquareFormatError("JSON square document needs an 'entries' key")
        schema = raw.get("schema")
        if schema is not None and schema != SCHEMA_ID:
            raise SquareFormatError(f"unsupported schema {schema!r}")
        entries = raw["entries"]
        if not isinstance(entries, list):
            raise SquareFormatError("'entries' must be a list of rows")
        order = raw.get("order", len(entries))
        if type(order) is not int:
            raise SquareFormatError(f"'order' must be an integer, got {order!r}")
        metadata = raw.get("metadata", {})
        if not isinstance(metadata, dict):
            raise SquareFormatError("'metadata' must be an object")
        grid = _parse_grid(entries, order)
        for key in ("p", "k", "r"):
            value = raw.get(key)
            if value is not None and type(value) is not int:
                raise SquareFormatError(f"'{key}' must be an integer, got {value!r}")
        return SquareDocument(grid, p=raw.get("p"), k=raw.get("k"), r=raw.get("r"), metadata=metadata)
    if fmt == "csv":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if not _CSV_ROW.fullmatch(line):
                bad = next(t for t in tokens if not re.fullmatch(_CSV_TOKEN, t))
                raise SquareFormatError(f"non-integer token in CSV: {bad!r}")
            rows.append(list(map(int, tokens)))
        return SquareDocument(_parse_grid(rows, len(rows)))
    raise SquareFormatError(f"unknown format {fmt!r}")


def emit_square(doc: SquareDocument, fmt: str = "json") -> str:
    """Canonical serialization: stable key order, one entries row per line."""
    if fmt not in ("csv", "json"):
        raise SquareFormatError(f"unknown format {fmt!r}")
    rows = doc.entries
    if fmt == "csv":
        return "\n".join(",".join(map(str, row)) for row in rows) + "\n"
    lines = ["{", f'  "schema": {json.dumps(SCHEMA_ID)},', f'  "order": {doc.order},']
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


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(path: str | None, p: int) -> SquareDocument:
    """Read a square and check its p against p; its grid is a NaturalSquare if natural."""
    text = _read_input(path)
    doc = parse_square(text, "csv" if path and path.endswith(".csv") else "json")
    if doc.p is not None and doc.p != p:
        raise SquareFormatError(f"document has p={doc.p}, but --p is {p}")
    return doc


def _report_lines(report) -> list[str]:
    lines = [f"classification: {report.classification}"]
    for v in report.verdicts:
        if v.passed:
            lines.append(f"  {v.property_name}: pass")
        else:
            w = v.witness
            lines.append(
                f"  {v.property_name}: FAIL at {w.location} "
                f"(expected {w.expected}, actual {w.actual})"
            )
    return lines


def _cmd_construct(args) -> int:
    config = GeneratorConfig(p=args.p, r=args.r, seed=args.seed, family=args.family)
    square = generate_most_perfect(config)
    doc = SquareDocument.from_square(
        square, p=args.p, r=args.r,
        metadata={"generator": args.family, "seed": args.seed},
    )
    _write_output(emit_square(doc, "csv" if args.csv else "json"), args.out)
    return EXIT_OK


def _cmd_theta(args) -> int:
    doc = _load(args.infile, args.p)
    transformed = theta(doc.grid, TypeParams(args.p, doc.order))
    out = SquareDocument.from_square(
        transformed, p=args.p, metadata={**doc.metadata, "transform": "theta"}
    )
    _write_output(emit_square(out, "csv" if args.csv else "json"), args.out)
    return EXIT_OK


def _cmd_pattern(args) -> int:
    params = TypeParams.for_franklin(args.p, args.k)
    spec = PatternSpec(args.direction, args.alpha, args.offset, params)
    cells = franklin_cells(spec)
    if args.sum:
        doc = _load(args.infile, args.p)
        if doc.order != params.n:
            raise SquareFormatError(f"square order {doc.order} does not match n={params.n}")
        total = int(sum(int(doc.grid.entries[r, c]) for r, c in cells))
        print(total)
    else:
        print(json.dumps([[r, c] for r, c in cells.sorted_cells()], separators=(",", ":")))
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = _load(args.infile, args.p)
    params = TypeParams(args.p, doc.order)
    alpha = 1 if args.weakened and args.alpha is None else args.alpha
    alphas = None if alpha is None else (alpha,)
    report = verify_all(doc.grid, params, franklin_alphas=alphas)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(_report_lines(report)))
    if args.expect is not None:
        ok = REQUIRED_VERDICTS[args.expect] <= report.passed_names()
    else:
        ok = report.classification != "none"
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_fixtures(args) -> int:
    table = builtin_fixtures()
    if args.list:
        for name, square, params in table:
            print(f"{name}  order={square.order}  p={params.p}")
        return EXIT_OK
    for name, square, params in table:
        if name == args.export:
            doc = SquareDocument.from_square(square, p=params.p, metadata={"name": name})
            _write_output(emit_square(doc), args.out)
            return EXIT_OK
    raise SquareFormatError(f"unknown fixture {args.export!r}")


def _cmd_report(args) -> int:
    doc = _load(args.infile, args.p)
    target, params = doc.grid, TypeParams(args.p, doc.order)
    report = verify_all(target, params)

    def target_or_na(flag, value):
        return str(value()) if flag else "n/a"

    lines = [
        f"order {params.n}, p={params.p}",
        "magic sum {}, window sum {}, segment sum {}, complement sum {}".format(
            params.magic_sum,
            target_or_na(params.has_pxp_sum, lambda: params.pxp_sum),
            target_or_na(params.has_segment_sum, lambda: params.segment_sum),
            target_or_na(params.has_complement_sum, lambda: params.complement_sum),
        ),
    ]
    lines += _report_lines(report)
    if params.has_complement_sum:
        anti = check_complementary(target, params, direction="anti")
        lines.append(f"  [diagnostic] anti-diagonal complementary: {'pass' if anti.passed else 'fail'}")
    if params.franklin_k is not None:
        lines.append("per-band pattern sums (up, offset 0):")
        for alpha in range(1, params.p):
            sums = band_sums(target, params, alpha, 0)
            lines.append(f"  alpha={alpha}: " + ", ".join(f"s_{j}={s}" for j, s in enumerate(sums)))
    print("\n".join(lines))
    return EXIT_OK if report.classification != "none" else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="franklin-forge",
        description="Construct, transform, and verify type-p Franklin and most-perfect squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a verified most-perfect square of order p^r")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--seed", type=int, default=0, help="picks the digit offset (mod p^(2r))")
    c.add_argument("--family", choices=("digit_linear", "fixtures_only"), default="digit_linear")
    c.add_argument("--out", default=None)
    c.add_argument("--csv", action="store_true")
    c.set_defaults(func=_cmd_construct)

    t = sub.add_parser("theta", help="apply the block involution")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--in", dest="infile", default=None)
    t.add_argument("--out", default=None)
    t.add_argument("--csv", action="store_true")
    t.set_defaults(func=_cmd_theta)

    g = sub.add_parser("pattern", help="resolve one Franklin pattern to cells or a sum")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--direction", choices=DIRECTIONS, required=True)
    g.add_argument("--alpha", type=int, required=True)
    g.add_argument("--offset", type=int, required=True)
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--cells", action="store_true")
    mode.add_argument("--sum", action="store_true")
    g.add_argument("--in", dest="infile", default=None)
    g.set_defaults(func=_cmd_pattern)

    v = sub.add_parser("verify", help="verify properties and classify")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--in", dest="infile", default=None)
    v.add_argument("--weakened", action="store_true",
                   help="check a single partition alpha instead of all (alpha 1 unless --alpha is given)")
    v.add_argument("--alpha", type=int, default=None, help="check only this partition alpha")
    v.add_argument("--json", action="store_true")
    v.add_argument("--expect", choices=CLASSIFICATIONS[1:], default=None)
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("fixtures", help="list or export embedded reference squares")
    group = f.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--export", default=None)
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_fixtures)

    r = sub.add_parser("report", help="human-readable certificate with band diagnostics")
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--in", dest="infile", default=None)
    r.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeneratorExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (SquareFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
