"""Certificate-byte battery: one sha256 over the certificates and CLI outputs of a fixed input set.

Every input is deterministic: closed-form most-perfect squares at eight orders and two
seeds, their three block involutions, four damaged copies of each square and its theta,
every natural input again as a plain Grid, the fixtures, seeded generic and rectangular
grids, and grids on either side of the int64 bound. Each line records one verdict, report, diagnostic,
error text or CLI run (stdout, stderr, warnings and exit code).

DIGEST and LINES may change only with a change that means to change certificate or CLI
bytes, and says so. On a mismatch, write battery_lines() to a file on both trees and
diff them.
"""

import hashlib
import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import franklin_forge as ff
from franklin_forge.cli import SquareDocument, emit_square, main

DIGEST = "3a448ba06c76c2ea3f421cac0bb60c75f3cb3b588aed3c03aeb64f99e06d4e47"
LINES = 2545

ORDERS = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6), (5, 3))  # n = 4 .. 125
SEEDS = (0, 1234567)
LIMIT_3 = (2**63 - 1) // 9  # the largest |entry| a 3 x 3 grid may hold
LIMIT_4 = (2**63 - 1) // 16  # ... and a 1 x 4 or 4 x 2 grid


def _line(label: str, payload) -> str:
    return json.dumps([label, payload], sort_keys=True, separators=(",", ":"))


def _outcome(fn):
    """fn()'s JSON-able result, or the text of the ValueError or TypeError it raises."""
    try:
        result = fn()
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return result.to_json_dict() if hasattr(result, "to_json_dict") else result


def _cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "theta":  # a whole document: its digest stands for it
        stdout = hashlib.sha256(stdout.encode()).hexdigest()
    return {"code": code, "stdout": stdout, "stderr": err.getvalue(), "warnings": [str(w.message) for w in caught]}


def _damaged(grid, seed: int):
    """A two-cell swap, a duplicated symbol, a row shuffle and a transpose of grid."""
    a = grid.entries
    swap = a.copy()
    swap[0, 0], swap[0, 1] = a[0, 1], a[0, 0]
    dup = a.copy()
    dup[0, 0] = a[0, 1]
    order = list(range(len(a)))
    random.Random(seed).shuffle(order)
    return [("swap", swap), ("dup", dup), ("shuffle", a[order]), ("transpose", a.T)]


def _as_held(entries):
    """A NaturalSquare when the entries are natural, else a plain Grid, as a CLI load holds them."""
    try:
        return ff.NaturalSquare(entries)
    except ValueError:
        return ff.Grid(entries)


def _checks(label: str, grid, params, full: bool = True) -> list:
    """verify_all, and when full the single-alpha runs, the anti-diagonal diagnostic and band sums."""
    lines = []
    alpha_sets = [None]
    if full and params.franklin_k is not None:
        alpha_sets += [(1,), (params.p - 1,)]
    for alphas in alpha_sets:
        lines.append(_line(f"{label} verify_all alphas={alphas}",
                           _outcome(lambda: ff.verify_all(grid, params, franklin_alphas=alphas))))
    if full and params.has_complement_sum:
        lines.append(_line(f"{label} anti", _outcome(lambda: ff.check_complementary(grid, params, "anti"))))
    if full and params.franklin_k is not None:
        for direction in ff.DIRECTIONS:
            for alpha in sorted({1, params.p - 1}):
                for offset in (0, -1):
                    lines.append(_line(f"{label} band_sums {direction} {alpha} {offset}",
                                       _outcome(lambda: list(ff.band_sums(grid, params, alpha, offset, direction)))))
    return lines


def _cli_lines(label: str, grid, params, tmp_dir) -> list:
    path = tmp_dir / "doc.json"
    path.write_text(emit_square(SquareDocument(grid, p=params.p)))
    p, src = str(params.p), ["--in", str(path)]
    runs = [["theta", "--p", p, *src], ["verify", "--p", p, "--json", *src],
            ["verify", "--p", p, *src], ["report", "--p", p, *src]]
    if params.franklin_k is not None:
        runs.append(["verify", "--p", p, "--alpha", str(params.p - 1), "--json", *src])
        for direction in ("up", "left"):
            runs.append(["pattern", "--p", p, "--k", str(params.franklin_k), "--direction", direction,
                         "--alpha", "1", "--offset", "3", "--sum", *src])
    return [_line(f"{label} cli {' '.join(argv[:-2])}", _cli(argv)) for argv in runs]


def _square_lines(tmp_dir) -> list:
    """Most-perfect squares and their involutions; mp and theta also damaged. The CLI runs at the
    first seed on the undamaged and duplicated-symbol inputs of mp and theta."""
    lines = []
    for p, r in ORDERS:
        params = ff.TypeParams.for_power(p, r)
        for seed in SEEDS:
            mp = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed))
            for transform in (None, ff.theta, ff.theta_row, ff.theta_col):
                name = "mp" if transform is None else transform.__name__
                variant = mp if transform is None else transform(mp, params)
                inputs = [("", variant)]
                if name in ("mp", "theta"):
                    inputs += [(how, _as_held(e)) for how, e in _damaged(variant, seed)]
                for how, grid in inputs:
                    label = f"({p},{r}) seed={seed} {name} {how}".rstrip()
                    lines += _checks(label, grid, params)
                    if type(grid) is ff.NaturalSquare:
                        lines += _checks(label + " as Grid", ff.Grid(grid), params, full=False)
                    if seed == SEEDS[0] and name in ("mp", "theta") and how in ("", "dup"):
                        lines += _cli_lines(label, grid, params, tmp_dir)
    return lines


def _pattern_cell_lines() -> list:
    lines = []
    for p, k in ((2, 1), (2, 2), (3, 1), (5, 1)):
        for direction in ff.DIRECTIONS:
            for alpha in sorted({1, p - 1}):
                argv = ["pattern", "--p", str(p), "--k", str(k), "--direction", direction,
                        "--alpha", str(alpha), "--offset", "2", "--cells"]
                lines.append(_line(" ".join(argv), _cli(argv)))
    return lines


def _fixture_lines() -> list:
    lines = []
    for name, square, params in ff.builtin_fixtures():
        lines += _checks(f"fixture {name}", square, params)
        lines += _checks(f"fixture {name} as Grid", ff.Grid(square), params)
    return lines


def _generic_lines() -> list:
    """Seeded grids with negative entries, window grids, rectangular check_pxp grids."""
    lines = []
    rng = random.Random(11)
    for p, n in ((2, 4), (2, 8), (3, 9), (3, 27)):
        params = ff.TypeParams(p, n)
        noise = ff.Grid([[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)])
        lines += _checks(f"noise ({p},{n})", noise, params)
        lines.append(_line(f"noise ({p},{n}) pxp bare", _outcome(lambda: ff.check_pxp(noise, p))))
        f = np.array([[rng.randrange(-20, 21) for _ in range(n)] for _ in range(p)])
        f[-1] = -f[:-1].sum(axis=0)
        h = np.array([[rng.randrange(-20, 21) for _ in range(p)] for _ in range(n)])
        h[:, -1] = -h[:, :-1].sum(axis=1)
        i = np.arange(n)
        window = ff.Grid(-40 * p + f[i % p, :] + h[:, i % p])  # toric p x p windows all sum alike
        lines += _checks(f"window ({p},{n})", window, params)
        lines.append(_line(f"window ({p},{n}) pxp bare", _outcome(lambda: ff.check_pxp(window, p))))
    for rows, cols, p in ((3, 5, 2), (3, 5, 3), (6, 4, 2), (2, 7, 2), (1, 6, 1)):
        grid = ff.Grid([[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)])
        lines.append(_line(f"rect {rows}x{cols} pxp {p}", _outcome(lambda: ff.check_pxp(grid, p))))
        lines.append(_line(f"rect {rows}x{cols} window_sums_all_equal {p}",
                           _outcome(lambda: ff.window_sums_all_equal(grid, p))))
    return lines


def _bound_lines() -> list:
    """Grids at the int64 bound max|entry| * max(rows, cols)^2 <= 2^63 - 1 and one past it."""
    lines = []
    params = ff.TypeParams(3, 3)
    for edge in (LIMIT_3, -LIMIT_3, LIMIT_3 + 1, -LIMIT_3 - 1):
        grid = ff.Grid([[edge, 0, 0], [0, 0, 0], [0, 0, 0]])
        for name, fn in (("semi_magic", lambda: ff.check_semi_magic(grid, params)),
                         ("pxp bare", lambda: ff.check_pxp(grid, 3)),
                         ("verify_all", lambda: ff.verify_all(grid, params))):
            lines.append(_line(f"bound 3x3 {edge} {name}", _outcome(fn)))
    for edge in (LIMIT_4, -LIMIT_4, LIMIT_4 + 1, -LIMIT_4 - 1):
        for shape in ((1, 4), (4, 2)):
            a = np.zeros(shape, dtype=np.int64)
            a[-1, -1] = edge
            grid = ff.Grid(a)
            lines.append(_line(f"bound {shape} {edge} pxp 1", _outcome(lambda: ff.check_pxp(grid, 1))))
    for edge in (2**63 - 1, -(2**63 - 1), -(2**63)):
        lines.append(_line(f"bound 1x1 {edge} pxp 1", _outcome(lambda: ff.check_pxp(ff.Grid([[edge]]), 1))))
    return lines


def battery_lines(tmp_dir) -> list:
    """Every line of the battery, in order; tmp_dir holds the CLI's input documents."""
    return _square_lines(tmp_dir) + _pattern_cell_lines() + _fixture_lines() + _generic_lines() + _bound_lines()


def test_certificate_bytes_are_pinned(tmp_path):
    lines = battery_lines(tmp_path)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == (DIGEST, LINES)
