"""Toroidal integer grids, natural squares, and the arithmetic frame for type-p sums.

A NaturalSquare is a Grid proved natural once, when it is built: its entries are
exactly the symbols 0..n^2-1. Everything here is an immutable value: operations
return new objects and are safe to share across threads, so Grid(g) shares g's
read-only entries instead of copying them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# n*(n^2-1)/2 for MAX_ORDER is ~1.3e10, far inside int64; larger orders are rejected.
MAX_ORDER = 3000
BAND_CELLS = 1 << 16  # cells per band in construct, emit, p x p and properties._bands (diagonals, Franklin passes)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _integer(value, name: str) -> int:
    """value as an int: an int, or a non-bool numbers.Integral such as a NumPy integer. A float or bool
    is refused, as the JSON and CSV readers refuse it; an int skips the slower ABC test."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_permutation(a: np.ndarray) -> bool:
    """Are a's entries, known to lie in 0..a.size-1, each of those values once? Only if they set all marks.

    The caller checks the range first: a negative entry would index the marks from the end."""
    seen = np.zeros(a.size, dtype=bool)
    seen[a.ravel()] = True
    return bool(seen.all())


@dataclass(frozen=True)
class _Owned:
    """A fresh array that nothing else holds or writes; package code only. Grid adopts it uncopied, and with a
    source, whose entries it only rearranges, the source's recorded range and a NaturalSquare source's proof."""

    array: np.ndarray
    source: Grid | None = None


class Grid:
    """Immutable rectangular integer grid with toroidal index semantics.

    Entries must fit a 64-bit signed integer; dimensions must be at least 1x1.
    The entries are always stored C-ordered, whatever the input's layout.
    """

    __slots__ = ("_a", "_span")

    def __init__(self, entries):
        if isinstance(entries, Grid):  # read-only, so shared rather than copied, range included
            self._a, self._span = entries._a, entries._span
            return
        if isinstance(entries, _Owned):  # copied only if it is not C-ordered int64 already
            a = np.asarray(entries.array, dtype=np.int64, order="C")
        else:
            a = np.array(entries, dtype=np.int64, order="C")
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("grid entries must form a non-empty 2-D array")
        a.setflags(write=False)
        source = entries.source if isinstance(entries, _Owned) else None
        self._a, self._span = a, (int(a.min()), int(a.max())) if source is None else source._span

    @property
    def rows(self) -> int:
        return int(self._a.shape[0])

    @property
    def cols(self) -> int:
        return int(self._a.shape[1])

    @property
    def entries(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._a

    @property
    def span(self) -> tuple[int, int]:
        """(min, max) of the entries as Python ints, found once, when the entries were stored."""
        return self._span

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self._a.shape == other._a.shape and bool((self._a == other._a).all())

    def __hash__(self):
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"Grid({self.rows}x{self.cols})"


class NaturalSquare(Grid):
    """Order-n square Grid whose entries are exactly the symbols 0..n^2-1.

    Every instance is proved on construction: the Grid's recorded range lies in 0..n^2-1,
    and one boolean mark per symbol, set at each entry, leaves every mark set. A rearrangement
    of a NaturalSquare (core._Owned with that source) keeps the source's proof instead.
    """

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        n = self.rows
        if self.cols != n:
            raise ValueError(f"natural square must be square, got {self.rows}x{self.cols}")
        if n > MAX_ORDER:
            raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        if isinstance(entries, _Owned) and isinstance(entries.source, NaturalSquare):
            return
        lo, hi = self._span
        if lo < 0 or hi >= n * n or not _is_permutation(self._a):  # range first: see _is_permutation
            raise ValueError(f"entries are not a permutation of 0..{n * n - 1}")

    @property
    def order(self) -> int:
        return self.rows

    def __repr__(self) -> str:
        return f"NaturalSquare(order={self.order})"


@dataclass(frozen=True)
class TypeParams:
    """The arithmetic frame: prime p and order n, with all derived sum targets.

    p must divide n (waived for the degenerate order n=1, where every target
    is 0). A target is accessible only when it is an exact integer; for odd p
    and even n the window and complement targets are half-integers, so no
    square with those properties exists and the corresponding checks do not
    apply. The magic sum is an integer for every order.
    """

    p: int
    n: int

    def __post_init__(self):
        for name in ("p", "n"):  # a NumPy integer becomes an int, so targets and certificates hold Python ints
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        # Bounds before primality: trial division of a huge p would not finish.
        if not 1 <= self.n <= MAX_ORDER:
            raise ValueError(f"order n={self.n} outside 1..{MAX_ORDER}")
        if self.p > MAX_ORDER:  # implied by p | n for n > 1
            raise ValueError(f"p={self.p} exceeds the maximum order {MAX_ORDER}")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n > 1 and self.n % self.p:
            raise ValueError(f"p={self.p} does not divide n={self.n}")

    def _exact(self, label: str, num: int, den: int) -> int:
        if num % den:
            raise ValueError(f"{label} is not an integer for p={self.p}, n={self.n}")
        return num // den

    @classmethod
    def for_franklin(cls, p: int, k: int) -> "TypeParams":
        """Frame for the Franklin context n = k*p^3."""
        p, k = _integer(p, "p"), _integer(k, "k")
        if k < 1:
            raise ValueError("k must be positive")
        return cls(p, k * p**3)

    @classmethod
    def for_power(cls, p: int, r: int) -> "TypeParams":
        """Frame for a prime-power order n = p^r."""
        p, r = _integer(p, "p"), _integer(r, "r")
        if r < 1:
            raise ValueError("r must be positive")
        if r >= MAX_ORDER.bit_length():  # p^r >= 2^r > MAX_ORDER; refused before p**r is computed
            raise ValueError(f"order n={p}^{r} outside 1..{MAX_ORDER}")
        return cls(p, p**r)

    @property
    def magic_sum(self) -> int:
        return self.n * (self.n * self.n - 1) // 2  # always an exact integer

    @property
    def segment_sum(self) -> int:
        return self._exact("segment_sum", self.n * (self.n * self.n - 1), 2 * self.p)

    @property
    def pxp_sum(self) -> int:
        return self._exact("pxp_sum", self.p * self.p * (self.n * self.n - 1), 2)

    @property
    def complement_sum(self) -> int:
        return self._exact("complement_sum", self.p * (self.n * self.n - 1), 2)

    @property
    def has_segment_sum(self) -> bool:
        return self.n % self.p == 0 and (self.n * (self.n * self.n - 1)) % (2 * self.p) == 0

    @property
    def has_pxp_sum(self) -> bool:
        return self.n % self.p == 0 and (self.p * self.p * (self.n * self.n - 1)) % 2 == 0

    @property
    def has_complement_sum(self) -> bool:
        return self.n % self.p == 0 and (self.p * (self.n * self.n - 1)) % 2 == 0

    @property
    def franklin_k(self) -> int | None:
        """k with n = k*p^3, or None when the order is not of that form."""
        q = self.p**3
        return self.n // q if self.n % q == 0 else None


@dataclass(frozen=True)
class BlockAddress:
    """A square block of a toroidally-partitioned frame.

    Origins are absolute (already wrapped mod n); the block covers rows
    row_origin..row_origin+block_size-1 and the matching columns, toroidally.
    """

    block_row: int
    block_col: int
    block_size: int
    row_origin: int
    col_origin: int


def get_toric(grid: Grid, row: int, col: int) -> int:
    """Entry at (row mod rows, col mod cols) using mathematical modulus."""
    return int(grid.entries[row % grid.rows, col % grid.cols])


def rotate_cw(square: NaturalSquare, quarter_turns: int) -> NaturalSquare:
    """Clockwise rotation; one quarter turn sends input (n-1-j, i) to output (i, j)."""
    q = quarter_turns % 4
    return NaturalSquare(_Owned(np.rot90(square.entries, -q), square))


def block_at(
    params: TypeParams,
    frame_offset: int,
    block_row: int,
    block_col: int,
    block_size: int,
) -> BlockAddress:
    """Address of the block at (block_row, block_col) in a frame starting at row frame_offset."""
    n = params.n
    if block_size < 1 or n % block_size:
        raise ValueError(f"block size {block_size} does not divide order {n}")
    per_side = n // block_size
    if not (0 <= block_row < per_side and 0 <= block_col < per_side):
        raise ValueError(f"block index ({block_row}, {block_col}) outside partition bounds")
    return BlockAddress(
        block_row=block_row,
        block_col=block_col,
        block_size=block_size,
        row_origin=(frame_offset + block_row * block_size) % n,
        col_origin=(block_col * block_size) % n,
    )
