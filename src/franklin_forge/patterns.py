"""Franklin pattern geometry: resolving up/right/down/left patterns to cell sets.

An up pattern of order n = k*p^3 lives in a frame of n/p consecutive rows
(toroidal), partitioned into a p x p^2 array T of kp x kp blocks. The block
columns of T split into p bands of p consecutive block columns each. Outside
the central band, the pattern meets one block per band row, placed on the
band's main diagonal or off diagonal; within a kp x kp block it occupies two
partial rows of each p x p sub-block along the matching sub-block diagonal,
taking the first alpha cells of one row and the last beta = p - alpha of the
other. For odd p the central band is partitioned into p x p subsquares whose
bottom rows carry the pattern, narrowing to a single full-row peak (top) or
valley (bottom) depending on the parity of (p-1)/2; for even k the peak or
valley row holds two adjacent full rows and one frame row is skipped.

Right, down, and left patterns are the images of up patterns under 1, 2, and 3
clockwise quarter turns of the ambient square.

select_blocks and block_intersection state this definition; split_rows walks
them once per order per process, at frame offset 0, into the table every pattern is read from: each
column's row for every alpha. A spec's CellSet is that row line moved down its offset (flipped for right
and down) and a column range; its frozenset of cells is built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import BlockAddress, TypeParams, _integer, block_at

DIRECTIONS = ("up", "right", "down", "left")

SIDE_LEFT = "left"
SIDE_RIGHT = "right"
SIDE_SOLE = "sole"


def _franklin_k(params: TypeParams) -> int:
    """k of the order n = k*p^3; any other order has no Franklin patterns."""
    if params.franklin_k is None:
        raise ValueError(f"order {params.n} is not of the form k*p^3 for p={params.p}")
    return params.franklin_k


@dataclass(frozen=True)
class PatternSpec:
    """One Franklin pattern: direction, split alpha (beta = p - alpha), frame offset."""

    direction: str
    alpha: int
    frame_offset: int
    params: TypeParams

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        for name in ("alpha", "frame_offset"):  # a NumPy integer too becomes an int, so the cells are Python ints
            if type(getattr(self, name)) is not int:  # the common case skips the helper and the setattr
                object.__setattr__(self, name, _integer(getattr(self, name), name))
        select_alphas(self.params, (self.alpha,))  # alpha in 1..p-1
        split_rows(self.params)  # refuses an order that is not k*p^3; builds its table here, once per order
        if not 0 <= self.frame_offset < self.params.n:
            raise ValueError(f"frame offset {self.frame_offset} outside 0..{self.params.n - 1}")

    @property
    def beta(self) -> int:
        return self.params.p - self.alpha


@dataclass(frozen=True, eq=False)
class CellSet:
    """Resolved pattern cells (rows[i], cols[i]), n of them, distinct as one line is a permutation of 0..n-1.
    Iteration reads the lines; cells, the frozenset that == and hash use, is built when read."""

    rows: Sequence[int]
    cols: Sequence[int]

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise ValueError(f"pattern lines of {len(self.rows)} and {len(self.cols)} cells")

    @cached_property
    def cells(self) -> frozenset:
        return frozenset(zip(self.rows, self.cols))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return zip(self.rows, self.cols)

    def __eq__(self, other):
        return self.cells == other.cells if isinstance(other, CellSet) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.cells)


@dataclass(frozen=True)
class BandBlock:
    """A block met by an up pattern: band index, row within the band, and address.

    Non-central blocks are kp x kp and carry side="sole". Central-band blocks
    (odd p only) are p x p subsquares; row_in_band then ranges over 0..kp-1 and
    side distinguishes the left/right member of a pair, or "sole" where the two
    coincide.
    """

    band: int
    row_in_band: int
    side: str
    address: BlockAddress
    params: TypeParams


def _band_kind(band: int, p: int) -> tuple[int, bool]:
    """(j, mirrored): j = distance to the nearer edge band, mirrored = right half."""
    mirrored = 2 * band > p - 1
    return (p - 1 - band if mirrored else band), mirrored


def _central_rows(p: int, k: int) -> list[tuple[int, int | None, int | None]]:
    """Central band layout: (row, left subcolumn, right subcolumn) per row.

    Subcolumns are band-relative in units of p. A None pair marks the skipped
    row (even k only); left == right marks the coincidence row (odd k).
    """
    kp = k * p
    peak = ((p - 1) // 2) % 2 == 1
    skipped = None if k % 2 else (kp - 1 if peak else kp - 2)
    rows: list[tuple[int, int | None, int | None]] = []
    for i in range(kp):
        if i == skipped:
            rows.append((i, None, None))
        elif peak:  # widening from the middle pair, (kp-1)//2 and kp//2 (one column for odd k)
            rows.append((i, (kp - 1) // 2 - (i + 1) // 2, kp // 2 + (i + 1) // 2))
        else:  # narrowing from the outer pair to the same middle at the bottom
            rows.append((i, i // 2, kp - 1 - i // 2))
    return rows


def select_blocks(params: TypeParams, frame_offset: int) -> list[BandBlock]:
    """All blocks of the frame at frame_offset met by the up pattern, band-major order."""
    k = _franklin_k(params)
    p = params.p
    bs = k * p
    mid = (p - 1) // 2 if p % 2 == 1 else None
    out: list[BandBlock] = []
    for band in range(p):
        if band == mid:
            base_subcol = mid * p * k  # global subcolumn of the band's left edge
            for i, left, right in _central_rows(p, k):
                if left is None:
                    continue
                addr_l = block_at(params, frame_offset, i, base_subcol + left, p)
                if left == right:
                    out.append(BandBlock(band, i, SIDE_SOLE, addr_l, params))
                    continue
                addr_r = block_at(params, frame_offset, i, base_subcol + right, p)
                out.append(BandBlock(band, i, SIDE_LEFT, addr_l, params))
                out.append(BandBlock(band, i, SIDE_RIGHT, addr_r, params))
        else:
            j, mirrored = _band_kind(band, p)
            main = (j % 2 == 0) != mirrored
            for i in range(p):
                col = band * p + (i if main else p - 1 - i)
                addr = block_at(params, frame_offset, i, col, bs)
                out.append(BandBlock(band, i, SIDE_SOLE, addr, params))
    return out


def block_intersection(block: BandBlock, alpha: int) -> list[tuple[int, int]]:
    """Block-local cells of the up pattern inside this block, row-major order."""
    params = block.params
    p, k = params.p, params.franklin_k
    if not 1 <= alpha < p:
        raise ValueError(f"alpha={alpha} outside 1..{p - 1}")
    beta = p - alpha
    mid = (p - 1) // 2 if p % 2 == 1 else None

    if block.band == mid:
        bottom = p - 1
        if block.side == SIDE_SOLE:
            return [(bottom, c) for c in range(p)]
        kp = k * p
        peak = (mid % 2 == 1)
        adjacency_row = 0 if peak else kp - 1
        if k % 2 == 0 and block.row_in_band == adjacency_row:
            return [(bottom, c) for c in range(p)]
        i_even = block.row_in_band % 2 == 0
        first = (block.side == SIDE_LEFT) == i_even
        cols = range(alpha) if first else range(p - beta, p)
        return [(bottom, c) for c in cols]

    j, mirrored = _band_kind(block.band, p)
    # On-diagonal blocks take the first alpha cells of their top row; the
    # sub-block diagonal orientation follows the same parity rule.
    main = (j % 2 == 0) != mirrored
    cells = []
    for t in range(k):
        r0 = t * p
        c0 = (t if main else k - 1 - t) * p
        top, bot = r0 + 2 * j, r0 + 2 * j + 1
        if main:
            cells.extend((top, c0 + c) for c in range(alpha))
            cells.extend((bot, c0 + c) for c in range(p - beta, p))
        else:
            cells.extend((top, c0 + c) for c in range(p - beta, p))
            cells.extend((bot, c0 + c) for c in range(alpha))
    return cells


class SplitRows(NamedTuple):
    """split_rows' first and rest; rows[alpha - 1, c], the offset-0 up row of column c (read-only, (p - 1) x n);
    and runs, the groups cut from the left into the longest runs with one step rest - first and arithmetic first rows."""

    first: tuple
    rest: tuple
    rows: np.ndarray
    runs: tuple


@lru_cache(maxsize=16)  # a constant: all 521 Franklin orders <= 3000 hold ~31 MiB, the 16 largest 2.3 MiB
def split_rows(params: TypeParams) -> SplitRows:
    """Rows (first, rest) of the offset-0 up pattern in each aligned group of p columns.

    For every alpha the pattern takes columns g*p .. g*p+alpha-1 from row
    first[g] and the rest of group g from row rest[g]. Each group is the column
    span of one p x p sub-block: outside the central band the first alpha cells
    of one sub-block row and the last beta of the other, so rest[g] = first[g] +- 1;
    in the central band the bottom rows of the two subsquares the pattern meets in
    that span, p rows apart (one row, first[g] == rest[g], where it takes a whole bottom row).

    This table is the single block-to-cell derivation: one walk of the offset-0
    blocks at alpha = 1, where column g*p is in row first[g] and the rest in rest[g].
    It is memoized per order, so every caller shares one immutable table.
    """
    p, n = params.p, params.n
    first, rest = [0] * (n // p), [0] * (n // p)
    for block in select_blocks(params, 0):
        addr = block.address
        for r, c in block_intersection(block, 1):
            col = addr.col_origin + c
            (rest if col % p else first)[col // p] = addr.row_origin + r
    rows = np.where(np.arange(n) % p < np.arange(1, p)[:, None], np.repeat(first, p), np.repeat(rest, p))
    rows.flags.writeable = False
    runs, g = [], 0  # (g, count, first[g], slope, step): the longest run from g with one step and first arithmetic
    while g < len(first):
        step, end = rest[g] - first[g], g + 1
        slope = first[end] - first[g] if end < len(first) and rest[end] - first[end] == step else 0
        while end < len(first) and rest[end] - first[end] == step and first[end] - first[end - 1] == slope:
            end += 1
        runs.append((g, end - g, first[g], slope, step))
        g = end
    return SplitRows(tuple(first), tuple(rest), rows, tuple(runs))


def franklin_cells(spec: PatternSpec) -> CellSet:
    """Resolve a pattern spec to its absolute toroidal cell set.

    A clockwise quarter turn maps (r, c) to (c, n-1-r), so the up, right, down and left
    cells pair each of (rows, columns, n-1-rows, n-1-columns, rows) with the next. Only
    the row line is computed, flipped for right and down; the column line is a range."""
    n, q = spec.params.n, DIRECTIONS.index(spec.direction)
    up = split_rows(spec.params).rows[spec.alpha - 1]
    line = ((n - 1 - spec.frame_offset - up if q in (1, 2) else up + spec.frame_offset) % n).tolist()
    cols = range(n) if q < 2 else range(n - 1, -1, -1)
    return CellSet(line, cols) if q % 2 == 0 else CellSet(cols, line)


def select_alphas(params: TypeParams, alphas=None) -> list[int]:
    """The partitions a pattern scan covers, ascending and once each: 1..p-1 by default (the strong
    definition), else the iterable given (the weakened mode passes one). At any order, a float or bool
    alpha (as in PatternSpec), one outside 1..p-1 and an empty selection raise: a scan of no pattern
    would pass and say nothing."""
    pool = [_integer(alpha, "alpha") for alpha in (range(1, params.p) if alphas is None else alphas)]
    bad = [alpha for alpha in pool if not 1 <= alpha < params.p]
    if bad:
        raise ValueError(f"alpha={bad[0]} outside 1..{params.p - 1}")
    if not pool:
        raise ValueError("the alpha selection is empty")
    return sorted(set(pool))


def enumerate_patterns(params: TypeParams, alphas=None) -> Iterator[PatternSpec]:
    """Every pattern spec: 4 directions x selected alphas (select_alphas) x n frame offsets."""
    chosen = select_alphas(params, alphas)
    for direction in DIRECTIONS:
        for alpha in chosen:
            for offset in range(params.n):
                yield PatternSpec(direction, alpha, offset, params)
