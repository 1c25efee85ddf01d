"""Property verifiers and witnessed certificates for magic-square structure.

Each check returns a PropertyVerdict; a failing verdict carries a witness whose cells re-sum to the reported actual
value. The sum checks but p x p report through _verdict, whose docstring states the one scan order, probe then
table: a table's first sums, gathered from their cells, decide a failure there before it is built. Each table states
its sums' cells once, and the witness of its failing sum lists them. So reports are byte-stable across runs.

Toric sums come from strided views and _shift_add (cyclic shifts of a line or a slab of lines). The 2n broken
diagonals (_broken_diagonals) and the Franklin passes sum strided views of the wrapped bands of rows or columns of
one walker (_bands): one pass, contiguous reads, whatever n's factors. The p-sets fold their p slabs of n/p rows.
With F(r, j) = a[r+p, j] - a[r, j], the vertical p-sums V step down by V(i+1) = V(i) + F(i), and the p x p windows
W along a row by W(i, j+1) - W(i, j) = V(i, j+p) - V(i, j). So W(i, 0), row 0's windows and F(k, j+p) == F(k, j)
for all k < i decide row i (_first_failing_row): bands of about BAND_CELLS cells read a's rows and the rows p
below, hand nothing on and build no window table. One prefix sum along a line (_windows) gives W(i, 0), row 0's
windows and the first failing row's, which witness the first failure. An up pattern takes each aligned group of p
columns from two rows split at alpha, the same two for every alpha (patterns.split_rows, its blocks walked once per
order per process), the second the first plus 0, +-1 or +-p. The Franklin check sums each run of groups with one
step and arithmetic first rows as one strided view of a band of columns or rows (_franklin_pass) into the p-row sum
of its step, a prefix of which serves every alpha: O(n^2) for any p, and no whole-square copy. An int64 prefix sum
or difference may wrap, but the wrap cancels modulo 2^64, so each sum equals a direct int64 addition; _array
rejects any Grid whose true sums could leave int64, reading the entry range the Grid recorded when it was built.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .core import BAND_CELLS, Grid, NaturalSquare, TypeParams, _integer
from .patterns import DIRECTIONS, PatternSpec, franklin_cells, select_alphas, split_rows

PROBE = 4  # the sums of each table that _verdict takes from their cells before it builds the table

NATURAL = "natural"
SEMI_MAGIC = "semi_magic"
PANDIAGONAL = "pandiagonal"
COMPLEMENTARY = "complementary"
PXP = "pxp"
ONE_OVER_P_ROWS = "one_over_p_rows"
ONE_OVER_P_COLS = "one_over_p_cols"
FRANKLIN_PATTERNS = "franklin_patterns"

CLASSIFICATIONS = (
    "none",
    "semi_magic",
    "pandiagonal_magic",
    "most_perfect_type_p",
    "franklin_type_p",
    "pandiagonal_franklin_type_p",
)

_FRANKLIN_SET = frozenset({NATURAL, PXP, ONE_OVER_P_ROWS, ONE_OVER_P_COLS, FRANKLIN_PATTERNS})

REQUIRED_VERDICTS = {
    "semi_magic": frozenset({NATURAL, SEMI_MAGIC}),
    "pandiagonal_magic": frozenset({NATURAL, SEMI_MAGIC, PANDIAGONAL}),
    "most_perfect_type_p": frozenset({NATURAL, SEMI_MAGIC, PANDIAGONAL, COMPLEMENTARY, PXP}),
    "franklin_type_p": _FRANKLIN_SET,
    "pandiagonal_franklin_type_p": _FRANKLIN_SET | {PANDIAGONAL},
}


@dataclass(frozen=True)
class Witness:
    """First failure: a human-readable location plus the cells that re-sum to actual."""

    location: str
    expected: int
    actual: int
    cells: tuple = ()


@dataclass(frozen=True)
class PropertyVerdict:
    """One property's verdict: it passed exactly when it carries no witness of a failure."""

    property_name: str
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json_dict(self) -> dict:
        d = {"property": self.property_name, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = {
                "location": self.witness.location,
                "expected": self.witness.expected,
                "actual": self.witness.actual,
                "cells": [list(c) for c in self.witness.cells],
            }
        return d


@dataclass(frozen=True)
class PropertyReport:
    """Certificate: all verdicts plus the maximal classification they support."""

    params: TypeParams
    verdicts: tuple

    @property
    def classification(self) -> str:
        """The last label of CLASSIFICATIONS whose REQUIRED_VERDICTS all passed, else "none"."""
        passed = self.passed_names()
        return next((c for c in reversed(CLASSIFICATIONS[1:]) if REQUIRED_VERDICTS[c] <= passed), "none")

    def verdict(self, property_name: str) -> PropertyVerdict | None:
        for v in self.verdicts:
            if v.property_name == property_name:
                return v
        return None

    def passed_names(self) -> frozenset:
        return frozenset(v.property_name for v in self.verdicts if v.passed)

    def to_json_dict(self) -> dict:
        return {
            "p": self.params.p,
            "order": self.params.n,
            "classification": self.classification,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }


def _array(obj, params: TypeParams | None = None) -> np.ndarray:
    """obj's entries, of params' order when params is given, if no sum over them can leave int64.

    The guard reads obj's recorded range, in Python ints (abs() of the int64 minimum would
    wrap). A natural square's entries lie below n^2, so it always passes."""
    if not isinstance(obj, Grid):
        raise TypeError(f"expected NaturalSquare or Grid, got {type(obj).__name__}")
    a, (lo, hi) = obj.entries, obj.span
    if max(-lo, hi) * max(a.shape) ** 2 > 2**63 - 1:
        raise ValueError("grid entries too large: a sum could overflow a signed 64-bit integer")
    if params is not None and a.shape != (params.n, params.n):
        raise ValueError(f"square of order {a.shape} does not match params order {params.n}")
    return a


def _windows(v: np.ndarray, width: int, toric: bool) -> np.ndarray:
    """The sums of width consecutive entries of line v from each start, wrapping past its end when toric, else not."""
    prefix = np.cumsum(np.concatenate((v[:1] * 0, v, v[: width - 1] if toric else v[:0])))
    return prefix[width:] - prefix[:-width]


def _first_failing_row(a: np.ndarray, width: int, toric: bool, target) -> tuple | None:
    """(i, V(i, :)) for the first top row i with a window W(i, j) that misses target, else None; V sums width cells
    down. Top rows are all rows when toric (windows wrap past the last row and column), else those whose windows fit."""
    rows, cols = a.shape
    if not 1 <= width <= min(rows, cols):
        raise ValueError(f"grid {a.shape} smaller than window size {width}" if width > 0
                         else f"window size {width} is not positive")
    tops, span = (rows, cols) if toric else (rows - width + 1, cols - width)  # top rows, F columns whose lag decides
    heads = a[:, :width].sum(axis=1)  # W(i, 0) sums width of them, wrapping when toric
    bad = np.flatnonzero(_windows(heads, width, toric) != target)
    found = int(bad[0]) if bad.size else tops  # the first row that W(i, 0) fails, else tops
    if (_windows(a[:width].sum(axis=0), width, toric) != target).any():  # row 0's windows
        found = 0
    band = -(-BAND_CELLS // cols)  # rows of F, each band read from a's rows and the rows width below them alone
    f, lag = np.empty((band, cols), dtype=heads.dtype), np.empty((band, cols), dtype=bool)
    for lo in range(0, found - 1, band):  # F rows 0..found-2 decide the rows before found
        m = min(band, found - 1 - lo)
        k = min(m, max(rows - width - lo, 0))  # F(r) = a[r + width] - a[r] reads row r + width in a for r < lo + k
        np.subtract(a[lo + width : lo + width + k], a[lo : lo + k], out=f[:k], dtype=f.dtype)
        if k < m:  # and past the last row for the rest, so wrapped to a's top
            np.subtract(a[lo + width + k - rows : lo + width + m - rows], a[lo + k : lo + m], out=f[k:m], dtype=f.dtype)
        np.not_equal(f.ravel()[width : m * cols], f.ravel()[: m * cols - width], out=lag.ravel()[: m * cols - width])
        np.not_equal(f[:m, :width], f[:m, -width:], out=lag[:m, -width:])  # F(r, j + width) wraps in the last columns
        if lag[:m, :span].any():  # the first F row with a lag miss fails the top row after it
            found = lo + int(lag[:m, :span].any(axis=1).argmax()) + 1
            break
    del f, lag  # freed before the witness, so a failing scan peaks no higher than a passing one
    if found == tops:
        return None
    return found, a.take(np.arange(found, found + width) % rows, axis=0).sum(axis=0)


def _shift_add(acc: np.ndarray, vec: np.ndarray, k: int) -> None:
    """acc[..., c] += vec[..., (c + k) % n], as two slice adds."""
    n, s = vec.shape[-1], -k % vec.shape[-1]
    acc[..., :s] += vec[..., n - s :]
    acc[..., s:] += vec[..., : n - s]


def _bands(a: np.ndarray, group: int, left: int, right: int, columns: bool):
    """Yield (top, band) for the rows of square a, or its columns, in bands of whole groups of group lines and about
    BAND_CELLS cells (loop blocking: Lam, Rothberg & Wolf, ASPLOS 1991). Band row k is line top + k as [its last left
    cells | the line | its first right cells], left, right <= n. Every band is a view of one buffer that the next
    overwrites. Columns are gathered, then transposed from cache: faster at large n than one strided copy."""
    n = len(a)
    width = left + n + right
    k = group * min(-(-BAND_CELLS // (group * width)), n // group)  # lines per band
    buf, strip = np.empty((k, width), dtype=a.dtype), np.empty((n, k) if columns else 0, dtype=a.dtype)
    for top in range(0, n, k):
        m = min(k, n - top)
        if columns:
            strip[:, :m] = a[:, top : top + m]
        lines = strip[:, :m].T if columns else a[top : top + m]  # copied from, not within, buf: no overlap temporary
        buf[:m, :left], buf[:m, left : left + n], buf[:m, left + n :] = lines[:, n - left :], lines, lines[:, :right]
        yield top, buf[:m]


def _view(band: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """The strided view of C-ordered band whose element x is its flat cell offset + sum(x * strides), all in cells."""
    return np.ndarray(shape, band.dtype, band, offset * band.itemsize, [s * band.itemsize for s in strides])


def _broken_diagonals(a: np.ndarray) -> np.ndarray:
    """[sum_i a[i, (j + i) % n] for j] and [sum_i a[i, (j - i) % n] for j]: the main and anti broken diagonals.

    In _bands with margins 0 and n, band row k, square row i = top + k, holds its row twice, side by side: its main
    cells from column i on, its anti cells from column n - i on. So the n cells at flat offset top + k(2n+1), or
    n - top + k(2n-1), of each band row form a strided (k, n) view, summed down the band."""
    n = len(a)
    out = np.zeros((2, n), dtype=a.dtype)
    for top, band in _bands(a, 1, 0, n, False):
        out[0] += _view(band, top, (len(band), n), (2 * n + 1, 1)).sum(axis=0)
        out[1] += _view(band, n - top, (len(band), n), (2 * n - 1, 1)).sum(axis=0)
    return out


def _diagonal_sums(a: np.ndarray, count: int, sign: int, location: str) -> tuple:
    """The table (_verdict) of D[i, j] = sum of the count cells (i + t*m, j + sign*t*m), m = n/count, i < m.

    Every such set meets rows 0..m-1, so D's first failure is the torus's first. With count n
    the sets are the broken diagonals and j is the offset. location is formatted with i and j.
    D folds the count slabs of m rows, slab t shifted by sign*t*m: p slab adds for p-sets (the
    pandiagonal check builds its count-n tables with _broken_diagonals instead).
    """
    n, m = len(a), len(a) // count
    steps = np.arange(count) * m

    def build():
        d = np.zeros((m, n), dtype=a.dtype)
        for t in range(count):
            _shift_add(d, a[t * m : (t + 1) * m], sign * t * m)
        return d

    def cells(i, j):  # i < m, so the rows need no wrap
        return (i[:, None] + steps) * n + (j[:, None] + sign * steps) % n

    return (m, n), cells, location.format, build


def _segment_sums(a: np.ndarray, axis: str, parts: int) -> tuple:
    """The table (_verdict) of S[i, s] = sum of segment s of line i (a row, or a column for axis "cols"),
    each line cut into parts aligned runs of n/parts cells; one part is the whole line."""
    n, seg = len(a), len(a) // parts
    lines, label = (a, "row") if axis == "rows" else (a.T, "column")

    def cells(i, s):
        line, span = i[:, None], s[:, None] * seg + np.arange(seg)
        return line * n + span if axis == "rows" else span * n + line

    def location(i, j):
        return f"{label} {i}" + (f", segment {j} (indices {j * seg}..{(j + 1) * seg - 1})" if parts > 1 else "")

    return (n, parts), cells, location, lambda: lines.reshape(n, parts, seg).sum(axis=2)


def _verdict(name: str, target: int, a: np.ndarray, tables) -> PropertyVerdict:
    """The one sum scan, probe then table: the first sum that misses target, with its witness, fails the property.

    tables yields (shape, cells, location, build) per table, read in order: build() makes its 2-D sums, read
    row-major; cells(i, j) gives the flat indices into a of the cells of sums[i[k], j[k]] along a last axis,
    location(i=i, j=j) names one sum. So rows precede columns, main diagonals anti ones, segments go by line then
    position, p-sets by top-left cell, and patterns by direction, alpha, then offset. The first PROBE sums,
    gathered from their cells, decide a failure among them before a table is built. The witness lists the
    failing sum's cells in (row, col) order: its flat indices from cells, sorted, then split by row."""
    cols = a.shape[1]  # flat index x into a is cell divmod(x, cols)
    for (height, width), cells, location, build in tables:
        i, j = np.divmod(np.arange(min(PROBE, height * width)), width)
        sums = a.take(cells(i, j)).sum(axis=-1)
        if (sums == target).all():
            sums = build().ravel()
        bad = sums != target
        if bad.any():  # argmax finds the first row-major failure without listing them all
            first = int(bad.argmax())
            i, j = divmod(first, width)
            flat = cells(np.array([i]), np.array([j]))[0]
            at = [x.tolist() for x in np.divmod(flat[flat.argsort()], cols)]  # rows and columns, in (row, col) order
            return PropertyVerdict(name, Witness(location(i=i, j=j), target, int(sums[first]), tuple(zip(*at))))
    return PropertyVerdict(name)


def _franklin_pass(a: np.ndarray, p: int, runs, columns: bool) -> tuple:
    """The p-row sums of the two directions whose lines are a's columns (up, down) or rows (right, left): sums[s, c, o]
    adds, over the groups g of the runs of step index s, cell first[g] + o (mod n) of line c of g as the direction reads
    it. Up and right take lines g*p + c, down and left n - 1 - (g*p + c); up and left read a line forward, right and
    down backward. runs lists (g, count, first[g], slope, s) for runs of groups whose first rows are arithmetic.

    In _bands of whole groups with margins e = n/p - 1 >= first[g], the n cells from e + first[g] forward, or back,
    lie in the band row, so a run's groups in a band are one strided (count, p, n) view, summed down its groups. A
    backward view reads the same cells forward from their other end: its sums are turned round once at the end."""
    n = len(a)
    e = n // p - 1
    out = np.zeros((2, 1 + max(run[4] for run in runs), p, n), dtype=a.dtype)
    ends, taus = [g + count for g, count, *_ in runs], (1, -1) if columns else (-1, 1)  # cells read forward or back
    for top, band in _bands(a, p, e, e, columns):
        m, width = band.shape
        for sums, stride, tau in zip(out, (width, -width), taus):  # from the near end (up, right), the far (down, left)
            lo = (n - top - m) // p if stride < 0 else top // p  # the band holds groups lo .. lo + m/p - 1
            for g0, count, f0, slope, s in runs[bisect.bisect_right(ends, lo) :]:
                if g0 >= lo + m // p:
                    break
                g, end = max(g0, lo), min(g0 + count, lo + m // p)
                line = (n - 1 - g * p if stride < 0 else g * p) - top
                offset = line * width + e + tau * (f0 + slope * (g - g0))
                sums[s] += _view(band, offset, (end - g, p, n), (p * stride + tau * slope, stride, 1)).sum(axis=0)
    return tuple(sums if tau > 0 else sums[..., ::-1] for sums, tau in zip(out, taus))


def check_natural(square_or_grid, params: TypeParams) -> PropertyVerdict:
    """Entries are exactly the symbols 0..n^2-1, each once."""
    a = _array(square_or_grid, params)
    if isinstance(square_or_grid, NaturalSquare):
        return PropertyVerdict(NATURAL)  # proved at construction; the entries are read-only
    flat = np.sort(a, axis=None)
    bad = np.nonzero(flat != np.arange(a.size))[0]
    if bad.size == 0:
        return PropertyVerdict(NATURAL)
    k = int(bad[0])
    w = Witness(f"sorted entry {k}", expected=k, actual=int(flat[k]))
    return PropertyVerdict(NATURAL, w)


def check_semi_magic(square_or_grid, params: TypeParams) -> PropertyVerdict:
    """Every row and column sums to the magic sum."""
    a = _array(square_or_grid, params)
    return _verdict(SEMI_MAGIC, params.magic_sum, a, (_segment_sums(a, axis, 1) for axis in ("rows", "cols")))


def check_pandiagonal(square_or_grid, params: TypeParams) -> PropertyVerdict:
    """All 2n broken diagonals sum to the magic sum. _diagonal_sums states each table's cells and
    locations; one _broken_diagonals pass, made once the main table's probe passes, builds both."""
    a = _array(square_or_grid, params)
    both = functools.cache(lambda: _broken_diagonals(a))
    tables = [_diagonal_sums(a, params.n, sign, label + " diagonal, offset {j}")[:3] + (lambda row=row: both()[row],)
              for row, (sign, label) in enumerate(((1, "main"), (-1, "anti")))]
    return _verdict(PANDIAGONAL, params.magic_sum, a, tables)


def check_complementary(square_or_grid, params: TypeParams, direction: str = "main") -> PropertyVerdict:
    """p symbols spaced n/p apart along a broken diagonal sum to p(n^2-1)/2.

    The defining property uses the main-diagonal direction; direction="anti" is
    an extra diagnostic and plays no role in classification.
    """
    a = _array(square_or_grid, params)
    n, p = params.n, params.p
    if n % p:
        raise ValueError(f"p={p} does not divide order {n}")
    if direction not in ("main", "anti"):
        raise ValueError("direction must be 'main' or 'anti'")
    sign = 1 if direction == "main" else -1
    table = _diagonal_sums(a, p, sign, direction + "-diagonal p-set at ({i}, {j})")
    return _verdict(COMPLEMENTARY, params.complement_sum, a, [table])


def check_pxp(square_or_grid, params) -> PropertyVerdict:
    """Every toric p x p window shares one sum.

    Natural squares must hit the pinned target p^2(n^2-1)/2; generic grids only need all windows equal (the
    lemma-oracle mode). A bare p selects that mode with no order check, so the grid may be rectangular. So the
    certificate depends on the wrapper: a natural square held as a plain Grid is compared with window (0, 0).
    """
    typed = isinstance(params, TypeParams)
    p = params.p if typed else _integer(params, "p")
    a = _array(square_or_grid, params if typed else None)
    rows, cols = a.shape
    target = params.pxp_sum if typed and isinstance(square_or_grid, NaturalSquare) else int(a[:p, :p].sum())
    failing = _first_failing_row(a, p, True, target)
    if failing is None:
        return PropertyVerdict(PXP)
    i, v = failing
    windows = _windows(v, p, True)  # W(i, j) = V(i, j) + ... + V(i, j+p-1), wrapping past the last column
    j = int((windows != target).argmax())  # the first failing window, of the row that has one
    cells = tuple(((i + dr) % rows, (j + dc) % cols) for dr in range(p) for dc in range(p))
    return PropertyVerdict(PXP, Witness(f"window at ({i}, {j})", target, int(windows[j]), cells))


def check_one_over_p(square_or_grid, params: TypeParams, axis: str = "rows") -> PropertyVerdict:
    """Each line, split into p aligned segments of length n/p, hits n(n^2-1)/2p per segment."""
    if axis not in ("rows", "cols"):
        raise ValueError("axis must be 'rows' or 'cols'")
    a = _array(square_or_grid, params)
    n, p = params.n, params.p
    if n % p:
        raise ValueError(f"p={p} does not divide order {n}")
    name = ONE_OVER_P_ROWS if axis == "rows" else ONE_OVER_P_COLS
    return _verdict(name, params.segment_sum, a, [_segment_sums(a, axis, p)])


def check_franklin_patterns(square_or_grid, params: TypeParams, alphas=None) -> PropertyVerdict:
    """Every Franklin pattern sums to the magic sum.

    Patterns range over 4 directions, the alphas of patterns.select_alphas (default all of 1..p-1), and all n frame
    offsets. A direction is the up pattern on the square rotated q quarter turns, and the n offsets translate the
    offset-0 cells down the rows (patterns guarantees it). At offset 0 the pattern takes the first alpha columns of
    each aligned group g of p from row first[g] and the rest from rest[g] = first[g] + step, for every alpha
    (split_rows): step is +-1 outside the odd-p central band, 0 or +-p in it. So each group is summed once, whole,
    from first[g] into the p-row sum of its step (_franklin_pass: up's column pass serves down, right's row pass
    left), and after a prefix down its rows a sum gives every alpha's n offset sums: its first alpha columns, plus
    the last p - alpha read step columns on.
    """
    a = _array(square_or_grid, params)
    n, p = params.n, params.p
    table = split_rows(params)  # refuses an order that is not k*p^3
    steps = sorted({run[4] for run in table.runs})
    runs = [run[:4] + (steps.index(run[4]),) for run in table.runs]  # each run's step as its index into steps
    chosen = np.array(select_alphas(params, alphas))
    up, passes = table.rows[chosen - 1], functools.cache(lambda columns: _franklin_pass(a, p, runs, columns))

    def tables():
        for q, direction in enumerate(DIRECTIONS):  # the up pattern on the square turned q times
            def cells(i, offset, q=q):  # its cells (row[c], c) there, up[i, c] being c's row at chosen[i], turned back
                row, col = (up[i] + offset[:, None]) % n, np.arange(n)
                flat = row * n + col if q % 2 == 0 else col * n + n - 1 - row
                return flat if q < 2 else n * n - 1 - flat  # a half turn takes cell x to n^2 - 1 - x

            def location(i, j, direction=direction):
                return f"{direction} pattern, alpha={chosen[i]}, offset={j}"

            yield (len(chosen), n), cells, location, lambda q=q: direction_sums(q)  # row i holds alpha chosen[i]

    def direction_sums(q):
        sums = passes(q % 2 == 0)[q // 2]  # read by this direction alone, so summed down its rows in place
        for c in range(1, p):  # sums[s, c]: columns 0..c of every group of step s
            sums[:, c] += sums[:, c - 1]
        heads = sums[:, chosen - 1]  # heads[s, i]: the first chosen[i] columns
        totals = heads.sum(axis=0)
        for step, tail in zip(steps, sums[:, -1:] - heads):  # the other columns, at rest = first + step
            _shift_add(totals, tail, step)
        return totals

    return _verdict(FRANKLIN_PATTERNS, params.magic_sum, a, tables())


def verify_all(square_or_grid, params: TypeParams, franklin_alphas=None, *, required_for=None) -> PropertyReport:
    """Run every applicable check, or only those of them that the classification required_for
    (a key of REQUIRED_VERDICTS) requires, and classify the result.

    A check is applicable when its divisibility precondition holds and its sum
    target is an integer; inapplicable checks are omitted from the report (the
    corresponding properties are unsatisfiable at this order, so they can never
    contribute to a classification). franklin_alphas (patterns.select_alphas) is
    read only by the Franklin check, but an invalid selection raises at every order.
    """
    if required_for is not None and required_for not in REQUIRED_VERDICTS:
        raise ValueError(f"unknown classification {required_for!r}")
    g, wanted = square_or_grid, REQUIRED_VERDICTS.get(required_for)
    alphas = None if franklin_alphas is None else select_alphas(params, franklin_alphas)
    checks = (  # (verdict, applicable, check), in report order
        (NATURAL, True, lambda: check_natural(g, params)),
        (SEMI_MAGIC, True, lambda: check_semi_magic(g, params)),
        (PANDIAGONAL, True, lambda: check_pandiagonal(g, params)),
        (COMPLEMENTARY, params.has_complement_sum, lambda: check_complementary(g, params)),
        (PXP, params.has_pxp_sum, lambda: check_pxp(g, params)),
        (ONE_OVER_P_ROWS, params.has_segment_sum, lambda: check_one_over_p(g, params, "rows")),
        (ONE_OVER_P_COLS, params.has_segment_sum, lambda: check_one_over_p(g, params, "cols")),
        (FRANKLIN_PATTERNS, params.franklin_k is not None, lambda: check_franklin_patterns(g, params, alphas)),
    )
    verdicts = (check() for name, applicable, check in checks if applicable and (wanted is None or name in wanted))
    return PropertyReport(params, tuple(verdicts))


def band_sums(square_or_grid, params: TypeParams, alpha: int, frame_offset: int,
              direction: str = "up") -> tuple[int, ...]:
    """Diagnostic per-band pattern sums s_0..s_mid for one pattern.

    Band b is the b-th run of n/p columns of the up pattern on the square rotated
    to the direction; s_j folds band j with band p-1-j. For a transformed
    most-perfect square these equal n(n^2-1)/p for every outer band pair and
    n(n^2-1)/2p for the central band (odd p). The frame offset wraps mod n.
    """
    a = _array(square_or_grid, params)
    n, p = params.n, params.p
    spec = PatternSpec(direction, alpha, frame_offset % n, params)  # rejects a bad direction, alpha or order
    cells = franklin_cells(spec)  # cell i lies in column i of the up pattern on the rotated square
    bands = a[cells.rows, cells.cols].reshape(p, n // p).sum(axis=1)  # exact: _array's guard
    folded = (int(bands[j]) + int(bands[p - 1 - j]) if 2 * j < p - 1 else int(bands[j]) for j in range((p + 1) // 2))
    return tuple(folded)


# --- brute-force oracles for the window-sum lemmas ---


def window_sums_all_equal(grid_or_array, p: int, toric: bool = False) -> bool:
    """Do all p x p windows of consecutive rows/columns share one sum? Decided as in check_pxp.

    A Grid's entries, like a raw int64 array's, are summed in int64 by that kernel, so their sums are
    compared modulo 2^64. The other oracles below read their entries as Python ints and are exact."""
    a = grid_or_array.entries if isinstance(grid_or_array, Grid) else np.asarray(grid_or_array)
    return _first_failing_row(a, p, toric, a[:p, :p].sum()) is None


def lemma_diagsum_oracle(grid_or_array, p: int) -> bool:
    """Corner identity a + d == c + b on an (mp+1) x (np+1) array.

    Holds whenever the array has the window property; the oracle only evaluates
    the identity, so on arbitrary grids it may legitimately return False.
    """
    a = np.asarray(grid_or_array.entries if isinstance(grid_or_array, Grid) else grid_or_array, dtype=object)
    rows, cols = a.shape
    if p < 1 or rows < p + 1 or cols < p + 1 or (rows - 1) % p or (cols - 1) % p:  # p < 1 first: p = 0 divides by zero
        raise ValueError(f"grid {a.shape} is not (mp+1) x (np+1) for p={p}")
    return bool(a[0, 0] + a[-1, -1] == a[-1, 0] + a[0, -1])


def lemma_moremoresums2_oracle(grid_or_array, p: int, k_split: int) -> bool:
    """Split identity on an (mp+1) x (np) array.

    Compares the first k_split entries plus the trailing block-completing
    entries of the top row against the same positions of the bottom row.
    k_split may exceed p (any 1 <= k_split <= lp with room for the trailer).
    """
    a = np.asarray(grid_or_array.entries if isinstance(grid_or_array, Grid) else grid_or_array, dtype=object)
    rows, cols = a.shape
    if p < 1 or rows < p + 1 or (rows - 1) % p or cols < p or cols % p:  # p < 1 first: p = 0 divides by zero
        raise ValueError(f"grid {a.shape} is not (mp+1) x (np) for p={p}")
    if k_split < 1:
        raise ValueError("k_split must be at least 1")
    tail = (-k_split) % p
    if k_split + tail > cols:
        raise ValueError(f"k_split={k_split} leaves no room for its trailer in {cols} columns")
    top, bottom = a[0], a[-1]
    lhs = top[:k_split].sum() + (top[cols - tail :].sum() if tail else 0)
    rhs = bottom[:k_split].sum() + (bottom[cols - tail :].sum() if tail else 0)
    return bool(lhs == rhs)


def cross_identity_holds(grid_or_array) -> bool:
    """Does every 2 x 2 subarray (any row pair, any column pair) balance?

    Brute force over all index quadruples; meant for small oracle grids.
    """
    a = np.asarray(grid_or_array.entries if isinstance(grid_or_array, Grid) else grid_or_array, dtype=object)
    rows, cols = a.shape
    for i1 in range(rows):
        for i2 in range(i1 + 1, rows):
            for j1 in range(cols):
                for j2 in range(j1 + 1, cols):
                    if a[i1, j1] + a[i2, j2] != a[i1, j2] + a[i2, j1]:
                        return False
    return True


def transversal_sum(grid_or_array, column_of_row) -> int:
    """Sum of one cell per row at the given columns; columns must be a permutation."""
    a = np.asarray(grid_or_array.entries if isinstance(grid_or_array, Grid) else grid_or_array, dtype=object)
    rows, cols = a.shape
    perm = list(column_of_row)
    if rows != cols or sorted(perm) != list(range(cols)):
        raise ValueError("transversal requires a square array and a column permutation")
    return int(sum(a[i, perm[i]] for i in range(rows)))
