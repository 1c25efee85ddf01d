"""Closed-form type-p most-perfect squares of order p^r.

A digit-linear candidate gives cell (i, j), with base-p digit vector v (row
digits first, most significant first), the symbol whose digit vector is
matrix @ v + offset (mod p). An invertible matrix makes the square natural.
Each symbol digit is R_d[i] + C_d[j] mod p, with R_d (row digits and offset)
and C_d (column digits) reduced once per digit on length-n vectors. Two
residues sum below 2p, so the digit is R_d + C_d - p*[R_d + C_d >= p], and the
square is outer(w.R, w.C) - p*carry with w_d = p^(2r-1-d): the carry is one
boolean compare per digit, and no modulo runs over the n^2 cells. Every partial
value is below 2n^2 <= 1.8e7 in size, so the map runs in int32.

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
from .core import NaturalSquare, TypeParams
from .properties import REQUIRED_VERDICTS, verify_all

_DIGIT_DTYPE = np.int32  # the digit map's accumulator: see candidate_to_square


class GeneratorExhaustedError(RuntimeError):
    """The screen rejected the candidate; never a silent fallback."""


@dataclass(frozen=True)
class GeneratorConfig:
    p: int
    r: int
    seed: int = 0
    family: str = "digit_linear"

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("most-perfect construction needs r >= 2")
        TypeParams.for_power(self.p, self.r)  # bounds r, then the order, then checks p is prime
        if self.family not in ("digit_linear", "fixtures_only"):
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
    """Materialize the digit map; raises on a non-invertible matrix.

    Carry form: out = outer(w.R, w.C) - p*carry, where carry = sum_d w_d*[R_d[i] >= p - C_d[j]]
    is built by Horner, one compare per digit. |partial values| < 2n^2, so _DIGIT_DTYPE is int32.
    """
    m = np.asarray(candidate.matrix, dtype=np.int64) % p
    b = np.asarray(candidate.offset, dtype=np.int64) % p
    if m.shape != (2 * r, 2 * r) or b.shape != (2 * r,):
        raise ValueError(f"candidate dimensions {m.shape}/{b.shape} do not fit 2r={2 * r}")
    if not is_invertible_mod(m, p):
        raise ValueError("candidate matrix is singular mod p")
    n = p**r
    idx = np.arange(n)
    digits = np.stack([(idx // p ** (r - 1 - d)) % p for d in range(r)])  # msb first
    row_res = ((m[:, :r] @ digits + b[:, None]) % p).astype(_DIGIT_DTYPE)  # R_d, symbol digits msb first
    col_res = ((m[:, r:] @ digits) % p).astype(_DIGIT_DTYPE)  # C_d
    weights = p ** np.arange(2 * r - 1, -1, -1, dtype=_DIGIT_DTYPE)
    out = np.zeros((n, n), dtype=_DIGIT_DTYPE)  # the carry, then the square
    for d in range(2 * r):
        out *= p
        out += np.greater_equal.outer(row_res[d], p - col_res[d])
    out *= -p
    out += (weights @ row_res)[:, None]
    out += weights @ col_res
    return NaturalSquare(out)


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


def most_perfect_requirements_met(report) -> bool:
    return REQUIRED_VERDICTS["most_perfect_type_p"] <= report.passed_names()


def generate_most_perfect(config: GeneratorConfig) -> NaturalSquare:
    """The closed-form square for config.seed, screened by the five most-perfect checks:
    natural, semi-magic, pandiagonal, complementary and p x p.

    Raises GeneratorExhaustedError when the screen rejects it (or the
    fixtures-only family has nothing for these parameters).
    """
    params = TypeParams.for_power(config.p, config.r)
    if config.family == "fixtures_only":
        wanted = {(2, 3): "figure2_mp8", (3, 2): "figure2_mp9"}.get((config.p, config.r))
        if wanted is None:
            raise GeneratorExhaustedError(
                f"no embedded most-perfect square for p={config.p}, r={config.r}"
            )
        for name, square, _ in builtin_fixtures():
            if name == wanted:
                return square
        raise GeneratorExhaustedError(f"fixture {wanted} missing")  # pragma: no cover

    candidate = closed_form_candidate(config.p, config.r, config.seed)
    square = candidate_to_square(candidate, config.p, config.r)
    if most_perfect_requirements_met(verify_all(square, params, required_for="most_perfect_type_p")):
        return square
    raise GeneratorExhaustedError(
        f"the closed-form square for p={config.p}, r={config.r}, seed={config.seed} "
        "failed the most-perfect screen"
    )


def builtin_fixtures() -> list[tuple[str, NaturalSquare, TypeParams]]:
    """The embedded reference squares, bit-exact as printed."""
    out = []
    for name, p, rows in _fixtures.FIXTURE_TABLE:
        square = NaturalSquare.from_rows(rows)
        out.append((name, square, TypeParams(p, square.order)))
    return out
