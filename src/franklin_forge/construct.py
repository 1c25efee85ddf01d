"""Closed-form type-p most-perfect squares of order p^r.

A digit-linear candidate gives cell (i, j), with base-p digit vector v (row digits first, most
significant first), the symbol whose digit vector is matrix @ v + offset (mod p); an invertible
matrix makes the square natural. Symbol digit d, of weight w_d = p^(2r-1-d), is R_d[i] + C_d[j] mod p, R_d from
the row digits and offset, C_d from the column digits, each reduced mod p once. One kernel writes every table,
T[s, x] = sum_d w_d*((shifts[s, d] + res[d, x]) mod p), one digit at a time, for two writers. A closed form,
[[A, B], [B', A']] with A and A' zero outside their last column, has two p x n half tables over the p residues: H
of the high r digits, shifts R_d[u] for u < p, and L of the low r, shifts C_d[u]. One broadcast add writes
S[i, j] = H[i mod p, j] + L[j mod p, i], L tiled to the least width p^k >= _MIN_TILE_WIDTH. Any other matrix is
written in bands of about BAND_CELLS cells (Lam, Rothberg & Wolf, ASPLOS 1991), each band's rows the table of all
2r digits with shifts R_d[i] for its rows i. Partial sums stay in 0..n^2-1.

The generator uses one matrix at every order: [[A, B], [B, A]], where A has 1s
in its last column and B has 1s in its first column plus B[i, r-i] = 1 for
i = 1..r-1 (the digit constructions of Ollerenshaw & Bree, "Most-perfect
Pandiagonal Magic Squares", 1998). The seed's base-p digits, least significant
first, give the offset, so seeds congruent mod p^(2r) give the same square and
seed 0 gives the zero offset. The one candidate is screened by the five checks
of most_perfect_type_p (natural, semi-magic, pandiagonal, complementary, p x p),
and no others; no code path hands back an unverified square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixtures as _fixtures
from .core import BAND_CELLS, NaturalSquare, TypeParams, _integer, _Owned
from .properties import verify_all

_MIN_TILE_WIDTH = 32  # L's least tile width: at (2, 11), width 2 took 38 ms and width 32 took 9 ms
FAMILIES = ("digit_linear", "fixtures_only")  # the generator families; the first is the default


class GeneratorExhaustedError(RuntimeError):
    """The screen rejected the candidate; never a silent fallback."""


@dataclass(frozen=True)
class GeneratorConfig:
    p: int
    r: int
    seed: int = 0
    family: str = FAMILIES[0]

    def __post_init__(self):
        for name in ("p", "r", "seed"):  # core._integer's rule, before any arithmetic on them
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.r < 2:
            raise ValueError("most-perfect construction needs r >= 2")
        TypeParams.for_power(self.p, self.r)  # bounds r, then the order, then checks p is prime
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class DigitLinearCandidate:
    """2r x 2r matrix and 2r offset over residues mod p."""

    matrix: tuple
    offset: tuple

    @classmethod
    def of(cls, matrix, offset) -> "DigitLinearCandidate":
        return cls(tuple(tuple(int(x) for x in row) for row in matrix),
                   tuple(int(x) for x in offset))


def is_invertible_mod(matrix, p: int) -> bool:
    """Is the square matrix invertible mod the prime p? Forward elimination, False at a column with no pivot left."""
    a = np.asarray(matrix, dtype=np.int64) % p
    for col in range(a.shape[1]):
        pivots = col + np.flatnonzero(a[col:, col])  # the rows left that can take the pivot
        if not len(pivots):
            return False
        a[[col, pivots[0]]] = a[[pivots[0], col]]
        a[col + 1 :] = (a[col + 1 :] - np.outer(a[col + 1 :, col] * pow(int(a[col, col]), p - 2, p) % p, a[col])) % p
    return a.shape[0] == a.shape[1]  # a taller matrix has a pivot in every column, and is still not invertible


def candidate_to_square(candidate: DigitLinearCandidate, p: int, r: int) -> NaturalSquare:
    """Materialize the digit map in table form (module docstring); raises on a bad order or p, or a singular matrix."""
    n = TypeParams.for_power(p, r).n  # bounds the order and checks p is prime before anything of size n exists
    m = np.asarray(candidate.matrix, dtype=np.int64) % p
    b = np.asarray(candidate.offset, dtype=np.int64) % p
    if m.shape != (2 * r, 2 * r) or b.shape != (2 * r,):
        raise ValueError(f"candidate dimensions {m.shape}/{b.shape} do not fit 2r={2 * r}")
    if not is_invertible_mod(m, p):
        raise ValueError("candidate matrix is singular mod p")
    digits = np.indices((p,) * r).reshape(r, n)  # the digit vector of each index, msb first
    row_res, col_res = (m[:, :r] @ digits + b[:, None]) % p, (m[:, r:] @ digits) % p  # R_d and C_d
    out, w = np.empty((n, n), dtype=np.int64), p ** np.arange(2 * r - 1, -1, -1)  # w_d = p^(2r-1-d)
    if not m[:r, : r - 1].any() and not m[r:, r:-1].any():  # A and A' zero outside their last column
        high, low = np.empty((2, p, n), dtype=np.int64)
        _table(w[:r], row_res[:r, :p].T, col_res[:r], p, high)  # row u < p has R_d[u] = a_d*u + b_d
        _table(w[r:], col_res[r:, :p].T, row_res[r:], p, low)
        wide = next(p**k for k in range(1, r + 1) if p**k >= min(n, _MIN_TILE_WIDTH))
        np.add(high.reshape(1, p, n // wide, wide), np.tile(low.T, wide // p).reshape(n // p, p, 1, wide),
               out=out.reshape(n // p, p, n // wide, wide))  # S[i, j] = H[i mod p, j] + L[j mod p, i]
        del high, low  # freed before the naturalness proof allocates its marks
        return NaturalSquare(_Owned(out))
    band = max(1, BAND_CELLS // n)
    for top in range(0, n, band):  # row i is T[i] with shifts R_d[i]
        _table(w, row_res[:, top : top + band].T, col_res, p, out[top : top + band])
    return NaturalSquare(_Owned(out))


def _table(w: np.ndarray, shifts: np.ndarray, res: np.ndarray, p: int, out: np.ndarray) -> None:
    """Write T[s, x] = sum_d w_d*((shifts[s, d] + res[d, x]) mod p), over residues, into out one digit at a time:
    w_d*((s + y) mod p) for each shift s and residue y, read from a 2p-entry table, is taken at y = res[d, x]."""
    mod = np.arange(2 * p) % p  # (a + b) mod p for residues a and b
    out[...] = 0
    for w_d, s_d, r_d in zip(w, shifts.T, res):
        out += np.take((w_d * mod)[s_d[:, None] + np.arange(p)], r_d, axis=1)


def closed_form_candidate(p: int, r: int, seed: int = 0) -> DigitLinearCandidate:
    """The matrix [[A, B], [B, A]] with the offset read off the seed's base-p digits."""
    a = np.zeros((r, r), dtype=np.int64)
    a[:, r - 1] = 1
    b = np.zeros((r, r), dtype=np.int64)
    b[:, 0] = 1
    rows = np.arange(1, r)
    b[rows, r - rows] = 1
    offset = [(seed // p**d) % p for d in range(2 * r)]
    return DigitLinearCandidate.of(np.block([[a, b], [b, a]]), offset)


def generate_most_perfect(config: GeneratorConfig) -> NaturalSquare:
    """The closed-form square for config.seed, screened by the five most-perfect checks:
    natural, semi-magic, pandiagonal, complementary and p x p.

    Raises GeneratorExhaustedError when the screen rejects it (or the
    fixtures-only family has nothing for these parameters).
    """
    params = TypeParams.for_power(config.p, config.r)
    if config.family == "fixtures_only":
        wanted = {(2, 3): "figure2_mp8", (3, 2): "figure2_mp9"}.get((config.p, config.r))
        square = {name: fixture for name, fixture, _ in builtin_fixtures()}.get(wanted)
        if square is None:
            raise GeneratorExhaustedError(f"no embedded most-perfect square for p={config.p}, r={config.r}")
        return square

    candidate = closed_form_candidate(config.p, config.r, config.seed)
    square = candidate_to_square(candidate, config.p, config.r)
    if verify_all(square, params, required_for="most_perfect_type_p").classification == "most_perfect_type_p":
        return square
    raise GeneratorExhaustedError(
        f"the closed-form square for p={config.p}, r={config.r}, seed={config.seed} "
        "failed the most-perfect screen"
    )


def builtin_fixtures() -> list[tuple[str, NaturalSquare, TypeParams]]:
    """The embedded reference squares, bit-exact as printed."""
    out = []
    for name, p, rows in _fixtures.FIXTURE_TABLE:
        square = NaturalSquare(rows)
        out.append((name, square, TypeParams(p, square.order)))
    return out
