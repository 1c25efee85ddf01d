"""Closed-form type-p most-perfect squares of order p^r.

A digit-linear candidate gives cell (i, j), with base-p digit vector v (row digits first, most
significant first), the symbol whose digit vector is matrix @ v + offset (mod p). An invertible
matrix makes the square natural. Symbol digit d, of weight w_d = p^(2r-1-d), is R_d[i] + C_d[j]
mod p, R_d from the row digits and offset, C_d from the column digits. If the matrix is
[[A, B], [B', A']] with A and A' zero outside their last column, as every closed form is, the r
high and r low digits make two p x n half tables, and one broadcast add writes S[i, j] =
H[i mod p, j] + L[j mod p, i], L tiled to the least width p^k >= _TABLE_ROWS. Else the digits go
in groups g of k, the most with p^k <= _TABLE_ROWS; with c_g[i] the group's R digits in base p and
U_g[v, j] = sum_{d in g} w_d*((v_d + C_d[j]) mod p), row i is the sum of U_g[c_g[i]], in bands of
about BAND_CELLS cells (Lam, Rothberg & Wolf, ASPLOS 1991). Partial sums stay in 0..n^2-1.

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
from .core import BAND_CELLS, NaturalSquare, TypeParams, _Owned
from .properties import verify_all

_TABLE_ROWS = 32  # the most rows of a digit table (of 16, 32, 64 and 256, 32 measured fastest); L's least tile width
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


def _rank_mod(matrix: np.ndarray, p: int) -> int:
    a = matrix.astype(np.int64).copy() % p
    m = a.shape[0]
    rank = 0
    for col in range(a.shape[1]):
        piv = None
        for row in range(rank, m):
            if a[row, col]:
                piv = row
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), p - 2, p)) % p
        for row in range(m):
            if row != rank and a[row, col]:
                a[row] = (a[row] - a[row, col] * a[rank]) % p
        rank += 1
    return rank


def is_invertible_mod(matrix, p: int) -> bool:
    a = np.asarray(matrix)
    return a.shape[0] == a.shape[1] and _rank_mod(a, p) == a.shape[0]


def candidate_to_square(candidate: DigitLinearCandidate, p: int, r: int) -> NaturalSquare:
    """Materialize the digit map in table form (see the module docstring); raises on a singular matrix."""
    m = np.asarray(candidate.matrix, dtype=np.int64) % p
    b = np.asarray(candidate.offset, dtype=np.int64) % p
    if m.shape != (2 * r, 2 * r) or b.shape != (2 * r,):
        raise ValueError(f"candidate dimensions {m.shape}/{b.shape} do not fit 2r={2 * r}")
    if not is_invertible_mod(m, p):
        raise ValueError("candidate matrix is singular mod p")
    n = p**r
    out, band = np.empty((n, n), dtype=np.int64), max(1, BAND_CELLS // n)
    if not m[:r, : r - 1].any() and not m[r:, r:-1].any():  # A and A' zero outside their last column
        high = _half_table(m[:r, r - 1], m[:r, r:] @ np.indices((p,) * r).reshape(r, n) + b[:r, None], p, n)
        low = _half_table(m[r:, -1], m[r:, :r] @ np.indices((p,) * r).reshape(r, n) + b[r:, None], p, 1)
        wide = next(p**k for k in range(1, r + 1) if p**k >= min(n, _TABLE_ROWS))
        np.add(high.reshape(1, p, n // wide, wide), np.tile(low.T, wide // p).reshape(n // p, p, 1, wide),
               out=out.reshape(n // p, p, n // wide, wide))  # S[i, j] = H[i mod p, j] + L[j mod p, i]
        del high, low  # freed before the naturalness proof allocates its marks
        return NaturalSquare(_Owned(out))
    tables, codes = _digit_tables(m, b, p, r)
    for top in range(0, n, band):
        rows = out[top : top + band]  # mode="clip": codes are in range, and "raise" would buffer the output
        np.take(tables[0], codes[0][top : top + band], axis=0, out=rows, mode="clip")
        for table, code in zip(tables[1:], codes[1:]):
            rows += np.take(table, code[top : top + band], axis=0, mode="clip")
    del tables  # freed before the naturalness proof allocates its marks
    return NaturalSquare(_Owned(out))


def _half_table(a: np.ndarray, res: np.ndarray, p: int, scale: int) -> np.ndarray:
    """T[u, x] = scale * ((a*u + res[:, x]) mod p read in base p), from every digit vector moved on by a*u."""
    moved = np.zeros((p, 1), dtype=np.int64)
    for a_d in a:  # moved[u] gains a least significant digit y_d, moved on by a_d*u
        moved = (moved[:, :, None] * p + (np.add.outer(a_d * np.arange(p), np.arange(p)) % p)[:, None]).reshape(p, -1)
    return np.take(moved * scale, p ** np.arange(len(a) - 1, -1, -1) @ (res % p), axis=1)


def _digit_tables(m: np.ndarray, b: np.ndarray, p: int, r: int) -> tuple:
    """The tables U_g and row codes c_g of the digit groups of the reduced matrix m and offset b."""
    idx = np.arange(p**r)
    digits = np.stack([(idx // p ** (r - 1 - d)) % p for d in range(r)])  # msb first
    row_res = (m[:, :r] @ digits + b[:, None]) % p  # R_d, symbol digits msb first
    col_res = (m[:, r:] @ digits) % p  # C_d
    k = next(j for j in range(1, _TABLE_ROWS) if p ** (j + 1) > _TABLE_ROWS)  # the most with p^k <= 32, or 1
    tables, codes = [], []
    for lo in range(0, 2 * r, k):
        group = np.arange(lo, min(lo + k, 2 * r))
        places = p ** (group[-1] - group)  # each digit's place in the group's code
        v = np.arange(p ** len(group))[:, None] // places % p  # the digits of every code
        tables.append(((v[:, :, None] + col_res[group]) % p * p ** (2 * r - 1 - group)[:, None]).sum(axis=1))
        codes.append(places @ row_res[group])
    return tables, codes


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
