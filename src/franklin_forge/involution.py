"""The block involution mapping most-perfect squares to Franklin squares.

A square of order n with p^2 | n is viewed as a p^2 x p^2 array of order-n/p^2
blocks. The involution moves block (i, j) to (swap(i), swap(j)) where swap
exchanges the two base-p digits of a block index. It depends on p: the same
square admits distinct involutions for distinct primes dividing its order.

Row i = (l*p + m)*bs + t, with bs = n/p^2, is index (l, m, t) of a (p, p, bs)
view, so swapping the digits of every block row is swapping the first two axes.
The involution is therefore one axis transpose of the (p, p, bs, p, p, bs) view
of the entries; the reshape back to n x n copies into C order once, and the
output adopts that copy. The one-sided variants transpose only the row axes or
only the column axes. The output has the input's type, and as it only rearranges the input's
entries, it adopts their recorded range and, for a NaturalSquare, its proof: nothing is rescanned.
"""

from __future__ import annotations

from .core import TypeParams, _Owned


def digit_swap(index: int, p: int) -> int:
    """Swap the base-p digits of index = l*p + m, giving m*p + l."""
    if not 0 <= index < p * p:
        raise ValueError(f"index {index} outside 0..{p * p - 1}")
    l, m = divmod(index, p)
    return m * p + l


def _apply(grid, params: TypeParams, swap_rows: bool, swap_cols: bool):
    if grid.rows != grid.cols:
        raise ValueError("involution requires a square grid")
    if grid.rows != params.n:
        raise ValueError(f"grid order {grid.rows} does not match params order {params.n}")
    n, p = params.n, params.p
    if n % (p * p):
        raise ValueError(f"p^2={p * p} does not divide order {n}")
    bs = n // (p * p)
    axes = ((1, 0, 2) if swap_rows else (0, 1, 2)) + ((4, 3, 5) if swap_cols else (3, 4, 5))
    return type(grid)(_Owned(grid.entries.reshape(p, p, bs, p, p, bs).transpose(axes).reshape(n, n), grid))


def theta(square, params: TypeParams):
    """Full block involution: output block (i, j) is input block (swap(i), swap(j))."""
    return _apply(square, params, swap_rows=True, swap_cols=True)


def theta_row(square, params: TypeParams):
    """Row-sided variant: output block (i, j) is input block (swap(i), j)."""
    return _apply(square, params, swap_rows=True, swap_cols=False)


def theta_col(square, params: TypeParams):
    """Column-sided variant: output block (i, j) is input block (i, swap(j))."""
    return _apply(square, params, swap_rows=False, swap_cols=True)
