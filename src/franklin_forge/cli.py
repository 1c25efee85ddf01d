"""Command-line front end and on-disk square formats.

JSON schema (canonical form, one entries row per line):

    {"schema": "franklin-forge/1", "order": n, "p": p, "entries": [[...], ...],
     "metadata": {...}}

CSV is bare comma-separated rows of plain decimal integers (an optional sign and
ASCII digits, spaces around). Either format is parsed straight to one int64 Grid,
the document's only copy of the entries (the plain reader's array, uncopied), and
proved natural once: a natural document holds a NaturalSquare, any other a plain
Grid. p, k and r, if given, must be integers, and a loaded document's p must match
--p. Exit codes: 0 success/pass, 1 verification fail or a closed stdout, 2 input error,
3 generator exhaustion.

Square text is written and read without a Python int or str per cell. emit_square renders bands of
rows in numpy as bytes (fixed-width digit tokens padded with NUL bytes, which are dropped) that the
commands write as they come, to a file opened "wb" or stdout's binary buffer.
parse_square first tries the plain reader. A document is plain when its entries are n rows of n
unsigned decimals of at most 8 digits, with no leading zero (RFC 8259 section 6), laid out byte
for byte as emit_square writes them or, in JSON, as json.dumps does by default (_LAYOUTS). That
block is read as bytes; in JSON the rest is decoded with NaN in its place, and the NaN must come
back as the value of "entries", since the last duplicate key wins and "entries" may also sit
inside metadata. The plain reader only accepts. On anything else (another layout, a sign, a
fraction or exponent, true, a leading zero, a 9-digit token, ragged rows, an order mismatch, a
byte-order mark, any other NaN, a decode error) the whole text is decoded with json.loads, or
split into CSV lines, and checked row by row, so every document is accepted, or rejected with
the same message, on either path.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .construct import FAMILIES, GeneratorConfig, GeneratorExhaustedError, builtin_fixtures, generate_most_perfect
from .core import BAND_CELLS, MAX_ORDER, Grid, NaturalSquare, TypeParams, _Owned
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

# Each format's square text layouts, (head, separator, row gap, tail) around the digit runs of an
# n x n block: emit_square writes the first, the plain reader takes any; json.dumps' is second.
_LAYOUTS = {
    "json": (("[\n    [", ", ", "],\n    [", "]\n  ]"), ("[[", ", ", "], [", "]]")),
    "csv": (("", ",", "\n", "\n"),),
}
_ENTRIES_FIELD = '"entries": '
_MAX_DIGITS = 8  # a plain token is one 8-byte word; no natural square entry has over 7 digits (3000**2 - 1)
# _KEEP_HIGH[length]: the high bytes of the 8-byte word ending at a run's last digit, which hold a run of that length
_KEEP_HIGH = np.array([2**64 - 2 ** (64 - 8 * length) for length in range(_MAX_DIGITS + 1)], np.uint64)
# parse reads whole rows in bands of about this many bytes, which bounds its temporaries
_BAND_BYTES = 1 << 18


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


def _parse_grid(rows: list, order: int) -> Grid:
    """Check the rows and build the int64 Grid once."""
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
        return Grid(rows)
    except OverflowError as exc:
        raise SquareFormatError("entries must fit a signed 64-bit integer") from exc
    except ValueError as exc:  # no rows at all
        raise SquareFormatError(str(exc)) from exc


def _natural_or_warn(grid: Grid) -> Grid:
    """Prove the grid natural once; else warn when a symbol occurs twice."""
    try:
        return NaturalSquare(grid)
    except ValueError:
        n, (lo, hi) = grid.rows, grid.span
        if grid.cols == n <= MAX_ORDER and 0 <= lo and hi < n * n:
            repeated = True  # n^2 entries in range, not all n^2 symbols: pigeonhole
        else:
            flat = np.sort(grid.entries, axis=None)
            repeated = bool((flat[1:] == flat[:-1]).any())
        if repeated:
            warnings.warn("square contains duplicate symbols; not a natural square", stacklevel=3)
    return grid


def _json_object(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SquareFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SquareFormatError("invalid JSON: nested too deeply") from exc


def _fields(raw) -> tuple[list, int, dict]:
    """The entries, order and metadata of a decoded document, checked in this order."""
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
    return entries, order, metadata


def _provenance(raw: dict) -> tuple:
    """The document's p, k and r, each an integer or None."""
    for key in ("p", "k", "r"):
        value = raw.get(key)
        if value is not None and type(value) is not int:
            raise SquareFormatError(f"'{key}' must be an integer, got {value!r}")
    return raw.get("p"), raw.get("k"), raw.get("r")


def _plain_json(text: str):
    """(decoded document, n x n int64 values) when the entries are a plain block; None declines.

    The rest of the document is decoded, unchecked, with NaN in the block's place, and the block
    read as bytes. It is cut at its layout's last tail: a plain block holds its tail only at its
    end, and a backward search stops at once where a forward one scans the block; where that cut fails
    to decode (the tail recurs after it), the first tail is tried once. Only a document whose entries
    the full decode would read as these values gets through, so declining is safe."""
    key = text.find(_ENTRIES_FIELD)
    start = key + len(_ENTRIES_FIELD)
    layout = next((lay for lay in _LAYOUTS["json"] if key >= 0 and text.startswith(lay[0], start)), None)
    if layout is None:
        return None
    head, _, _, tail = layout
    placeholder, raw = [], None
    for end in map(lambda find: find(tail, start + len(head)) + len(tail), (text.rfind, text.find)):
        if end < len(tail) or text.find("NaN", 0, start) >= 0 or text.find("NaN", end) >= 0:
            return None  # no tail, or a NaN that is not the placeholder
        try:
            raw = json.loads(text[:start] + "NaN" + text[end:],
                             parse_constant=lambda name: placeholder if name == "NaN" else float(name))
            break
        except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
            continue
    if not isinstance(raw, dict) or raw.get("entries") is not placeholder:
        return None  # a later duplicate key, or the block sat in metadata
    values = _read_block(text, start, end, layout)
    if values is None or raw.get("order", len(values)) != len(values):
        return None
    return raw, values


def _read_block(text: str, start: int, end: int, layout: tuple):
    """The n x n values of the block text[start:end], or None unless it is plain in layout.

    Plain means the head, n rows of n unsigned decimals of at most 8 digits without a leading
    zero, joined by the separator in a row and the row gap between rows, then the tail, byte for
    byte. Row 0 fixes n. The block is read as bytes in bands of whole rows, so no run is cut."""
    head, sep, gap, tail = layout
    if not (text.isascii() and text.startswith(head, start)):
        return None
    lo = start + len(head)
    row0 = text.find(gap, lo, end)
    n = text.count(sep, lo, end if row0 < 0 else row0) + 1
    if n * n > end - start:  # fewer bytes than cells
        return None
    values, done = np.empty(n * n, np.int64), 0
    while lo < end:
        hi = text.find(gap, lo + _BAND_BYTES, end)
        hi = end if hi < 0 else hi + len(gap)
        # 8 bytes before lo (spaces before the text's start) let every run's last 8-byte word be
        # read; position i of the band is text position lo + i, and byte lo - 1 is never a digit.
        data = text[max(lo - 8, 0):hi].encode("ascii").rjust(8 + hi - lo)
        byte = np.frombuffer(data, np.uint8)
        is_digit = byte - np.uint8(48) < 10
        edges = np.flatnonzero(is_digit[8:] != is_digit[7:-1])
        band = byte[8:]
        if edges.size == 0 or edges[0] != 0 or edges.size % (2 * n) or done + edges.size // 2 > n * n:
            return None
        starts, ends = (np.ascontiguousarray(side).reshape(-1, n) for side in (edges[0::2], edges[1::2]))
        lengths = ends - starts
        if lengths.max() > _MAX_DIGITS or ((band[starts] == 48) & (lengths > 1)).any():
            return None  # longer than one word, or a leading zero, which JSON forbids
        if not _gaps_are(band, ends[:, :-1], starts[:, 1:], sep):
            return None
        if not _gaps_are(band, ends[:-1, -1], starts[1:, 0], gap):
            return None
        values[done:done + lengths.size] = _decimal_values(data, ends.ravel(), lengths.ravel())
        done += lengths.size
        final = hi == end
        if (done == n * n) != final or text[lo + int(ends[-1, -1]):hi] != (tail if final else gap):
            return None
        lo = hi
    return values.reshape(n, n)


def _gaps_are(band: np.ndarray, after: np.ndarray, before: np.ndarray, gap: str) -> bool:
    """Is every band[after[i]:before[i]] the bytes of gap? One index gather per byte of gap."""
    if (before - after != len(gap)).any():
        return False
    return not any((band[after + i] != char).any() for i, char in enumerate(gap.encode()))


def _decimal_values(data: bytes, at: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 values of the digit runs of data whose last digit is byte at + 7, of the given lengths, at most 8.

    It reads the 8 bytes ending at each run's last digit as one little-endian word, zeroes the
    bytes before the run, and folds the digits pairwise into one number (SWAR)."""
    w = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))[at] & _KEEP_HIGH[lengths]  # each run's last word
    w &= 0x0F0F0F0F0F0F0F0F  # ASCII digits to digit values
    w = ((w * 2561) >> 8) & 0x00FF00FF00FF00FF  # 10 * first + second, per pair of bytes
    w = ((w * 6553601) >> 16) & 0x0000FFFF0000FFFF  # per four bytes
    w = (w * 42949672960001) >> 32  # all eight
    return w.view(np.int64)


def _format_rows(grid: Grid, layout: tuple):
    """The grid as text in layout: the bytes of its head, then of each band of rows, no Python object per cell.

    Each row is its entries joined by the separator, then the row gap (the tail on the last row).
    Each entry fills a fixed-width token: a sign byte when any entry is negative, then digits right-aligned,
    each place a floor division and a subtraction. Unused bytes are NUL and are dropped once per band."""
    sep, gap, tail = (part.encode() for part in layout[1:])
    a = grid.entries
    rows, cols = a.shape
    lo, hi = grid.span
    signed = int(lo < 0)
    width = signed + len(str(max(-lo, hi)))
    ends = [end.ljust(max(len(gap), len(tail)), b"\0") for end in (gap, tail)]
    token = width + len(sep)
    line = np.frombuffer((b"\0" * width + sep) * (cols - 1) + b"\0" * width + ends[0], np.uint8)
    narrow = max(-lo, hi) < 2**32
    band_rows = max(1, BAND_CELLS // cols)
    yield layout[0].encode()
    for top in range(0, rows, band_rows):
        block = a[top:top + band_rows]
        buf = np.empty((block.shape[0], line.size), np.uint8)
        buf[:] = line
        if top + block.shape[0] == rows:
            buf[-1, line.size - len(ends[1]):] = np.frombuffer(ends[1], np.uint8)
        digits = buf[:, :cols * token].reshape(block.shape[0], cols, token)
        mag = block.view(np.uint64)
        if signed:
            negative = block < 0
            digits[:, :, 0] = negative * ord("-")
            mag = np.where(negative, -mag, mag)  # modulo 2**64, so -2**63 gives 2**63
        if narrow:
            mag = mag.astype(np.uint32)
        for place in range(width - 1, signed - 1, -1):
            rest = mag // 10
            digit = mag.astype(np.uint8) - rest.astype(np.uint8) * 10 + 48  # mag - 10 rest + 48, modulo 256
            if place < width - 1:
                digit *= mag != 0  # a leading zero becomes NUL
            digits[:, :, place] = digit
            mag = rest
        yield buf.tobytes().replace(b"\0", b"")


def parse_square(text: str, fmt: str = "json") -> SquareDocument:
    """Parse a square document; emit(parse(x)) is canonical."""
    if fmt == "json":
        plain = _plain_json(text)
        raw, values = plain or (_json_object(text), None)
        entries, order, metadata = _fields(raw)
        grid = _parse_grid(entries, order) if values is None else Grid(_Owned(values))
        grid = _natural_or_warn(grid)
        p, k, r = _provenance(raw)
        return SquareDocument(grid, p=p, k=k, r=r, metadata=metadata)
    if fmt == "csv":
        values = _read_block(text, 0, len(text), _LAYOUTS["csv"][0])
        if values is not None:
            return SquareDocument(_natural_or_warn(Grid(_Owned(values))))
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
        return SquareDocument(_natural_or_warn(_parse_grid(rows, len(rows))))
    raise SquareFormatError(f"unknown format {fmt!r}")


def emit_square(doc: SquareDocument, fmt: str = "json", out=None) -> str | None:
    """Canonical serialization: stable key order, one entries row per line. Returned as a str, or written
    band by band to out: a binary stream, or a path, opened "wb" once the format is checked."""
    if fmt not in _LAYOUTS:
        raise SquareFormatError(f"unknown format {fmt!r}")
    rows = _format_rows(doc.grid, _LAYOUTS[fmt][0])
    if fmt == "json":
        lines = ["{", f'  "schema": {json.dumps(SCHEMA_ID)},', f'  "order": {doc.order},']
        for key in ("p", "k", "r"):
            value = getattr(doc, key)
            if value is not None:
                lines.append(f'  "{key}": {int(value)},')
        lines.append(f"  {_ENTRIES_FIELD}")
        tail = f',\n  "metadata": {json.dumps(doc.metadata, sort_keys=True)}\n}}\n'
        rows = itertools.chain(["\n".join(lines).encode()], rows, [tail.encode()])
    if out is None:
        return b"".join(rows).decode()
    if isinstance(out, str):
        with open(out, "wb") as fh:
            fh.writelines(rows)
    else:
        out.writelines(rows)


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _file_format(path: str | None, csv: bool = False) -> str:
    """A square file's format, read or written: CSV when csv is set or path ends in .csv, else JSON."""
    return "csv" if csv or (path is not None and path.endswith(".csv")) else "json"


def _write_output(doc: SquareDocument, csv: bool, path: str | None) -> None:
    """emit_square's bytes in _file_format's format, to the file at path or else to stdout's binary buffer once
    its text layer is flushed, or as text to a stdout with none (an io.StringIO)."""
    fmt = _file_format(path, csv)
    if path is not None and path != "-":
        emit_square(doc, fmt, path)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        emit_square(doc, fmt, sys.stdout.buffer)
    else:
        sys.stdout.write(emit_square(doc, fmt))


def _load(path: str | None, p: int) -> SquareDocument:
    """Read a square and check its p against p; its grid is a NaturalSquare if natural."""
    text = _read_input(path)
    doc = parse_square(text, _file_format(path))
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
    doc = SquareDocument(square, p=args.p, r=args.r, metadata={"generator": args.family, "seed": args.seed})
    _write_output(doc, args.csv, args.out)
    return EXIT_OK


def _cmd_theta(args) -> int:
    doc = _load(args.infile, args.p)
    doc = SquareDocument(  # rebinding frees the input square before the output text is built
        theta(doc.grid, TypeParams(args.p, doc.order)), p=args.p, metadata={**doc.metadata, "transform": "theta"}
    )
    _write_output(doc, args.csv, args.out)
    return EXIT_OK


def _cmd_pattern(args) -> int:
    params = TypeParams.for_franklin(args.p, args.k)
    spec = PatternSpec(args.direction, args.alpha, args.offset, params)
    cells = franklin_cells(spec)
    if args.sum:
        doc = _load(args.infile, args.p)
        if doc.order != params.n:
            raise SquareFormatError(f"square order {doc.order} does not match n={params.n}")
        print(sum(doc.grid.entries[cells.rows, cells.cols].tolist()))  # Python ints: a plain Grid's int64 sum may wrap
    else:
        print(json.dumps([[r, c] for r, c in sorted(cells)], separators=(",", ":")))
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
    table = {name: (square, params) for name, square, params in builtin_fixtures()}
    if args.list:
        for name, (square, params) in table.items():
            print(f"{name}  order={square.order}  p={params.p}")
        return EXIT_OK
    square, params = table.get(args.export, (None, None))
    if square is None:
        raise SquareFormatError(f"unknown fixture {args.export!r}")
    _write_output(SquareDocument(square, p=params.p, metadata={"name": args.export}), False, args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    doc = _load(args.infile, args.p)
    target, params = doc.grid, TypeParams(args.p, doc.order)
    report = verify_all(target, params)
    lines = [
        f"order {params.n}, p={params.p}",
        "magic sum {}, window sum {}, segment sum {}, complement sum {}".format(
            params.magic_sum,
            params.pxp_sum if params.has_pxp_sum else "n/a",
            params.segment_sum if params.has_segment_sum else "n/a",
            params.complement_sum if params.has_complement_sum else "n/a",
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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse drops a write error, so --help into a closed stdout would exit 0
        print(self.format_help(), end="", file=file, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="franklin-forge",
        description="Construct, transform, and verify type-p Franklin and most-perfect squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a verified most-perfect square of order p^r")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--seed", type=int, default=0, help="picks the digit offset (mod p^(2r))")
    c.add_argument("--family", choices=FAMILIES, default=FAMILIES[0])
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # stdout's reader left: no error line, and devnull takes the exit flush (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
