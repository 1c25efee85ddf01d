"""Seeded benchmark inputs and the independent checks used on program outputs.

Nothing here calls into franklin_forge: the squares are built from the closed
form below and the checks are separate implementations, so a defect in a layer
under measurement cannot hide itself by also producing the expected answer.
"""

from __future__ import annotations

import random

import numpy as np


def digit_offset(p: int, r: int, rng: random.Random) -> tuple[int, ...]:
    """A seeded digit offset for the closed-form square: 2r residues mod p."""
    return tuple(rng.randrange(p) for _ in range(2 * r))


def closed_form_matrix(r: int) -> np.ndarray:
    """The digit-linear matrix [[A, B], [B, A]] that yields a most-perfect square.

    A has 1s in its last column; B has 1s in its first column and
    B[i, r - i] = 1 for i = 1..r-1.
    """
    a = np.zeros((r, r), dtype=np.int64)
    a[:, r - 1] = 1
    b = np.zeros((r, r), dtype=np.int64)
    b[:, 0] = 1
    for i in range(1, r):
        b[i, r - i] = 1
    return np.block([[a, b], [b, a]])


def most_perfect_entries(p: int, r: int, offset) -> np.ndarray:
    """Order p^r square whose cell (i, j) is the symbol with digits M @ (i, j) + offset mod p."""
    m = closed_form_matrix(r)
    off = np.asarray(offset, dtype=np.int64)
    if off.shape != (2 * r,):
        raise ValueError(f"offset needs {2 * r} digits, got {off.shape}")
    n = p**r
    idx = np.arange(n)
    digits = np.stack([(idx // p ** (r - 1 - d)) % p for d in range(r)])  # most significant first
    symbol_digits = (
        (m[:, :r] @ digits)[:, :, None] + (m[:, r:] @ digits)[:, None, :] + off[:, None, None]
    ) % p
    weights = p ** np.arange(2 * r - 1, -1, -1, dtype=np.int64)
    return np.tensordot(weights, symbol_digits, axes=1)


def theta_entries(a: np.ndarray, p: int) -> np.ndarray:
    """Block involution: output block (i, j) is input block (swap(i), swap(j)), swap exchanging base-p digits."""
    n = a.shape[0]
    bs = n // (p * p)
    swapped = [(b % p) * p + b // p for b in range(p * p)]
    perm = np.concatenate([s * bs + np.arange(bs) for s in swapped])
    return a[perm][:, perm]


def _toric_window_sums(a: np.ndarray, p: int) -> np.ndarray:
    """Sum of every toric p x p window, keyed by its top-left cell (summed-area table)."""
    n = a.shape[0]
    padded = np.pad(a, ((0, p - 1), (0, p - 1)), mode="wrap")
    s = np.zeros((n + p, n + p), dtype=np.int64)
    s[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    return s[p:, p:] - s[:n, p:] - s[p:, :n] + s[:n, :n]


def _sheared_column_sums(a: np.ndarray, sign: int) -> np.ndarray:
    """Broken-diagonal sums: entry c is the sum of a[i, (sign*i + c) mod n] over rows i."""
    n = a.shape[0]
    sheared = np.stack([np.roll(a[i], -sign * i) for i in range(n)])
    return sheared.sum(axis=0)


def most_perfect_defects(a: np.ndarray, p: int) -> list[str]:
    """Names of the most-perfect properties that the square a violates (empty when it is most-perfect)."""
    n = a.shape[0]
    defects = []
    if a.shape != (n, n) or a.min() < 0 or a.max() >= n * n or np.bincount(a.ravel(), minlength=n * n).max() != 1:
        return ["natural"]
    magic = n * (n * n - 1) // 2
    if (a.sum(axis=0) != magic).any() or (a.sum(axis=1) != magic).any():
        defects.append("semi_magic")
    if (_sheared_column_sums(a, 1) != magic).any() or (_sheared_column_sums(a, -1) != magic).any():
        defects.append("pandiagonal")
    step = n // p
    complement = sum(np.roll(a, (-t * step, -t * step), axis=(0, 1)) for t in range(p))
    if (complement * 2 != p * (n * n - 1)).any():
        defects.append("complementary")
    if (_toric_window_sums(a, p) * 2 != p * p * (n * n - 1)).any():
        defects.append("pxp")
    return defects


def witness_resums(a: np.ndarray, verdict: dict) -> bool:
    """Does a failing verdict's witness (JSON form) re-sum to its reported actual value?"""
    witness = verdict.get("witness")
    if witness is None:
        return verdict["passed"]
    cells = witness["cells"]
    if not cells:  # the natural check reports a sorted-entry index, not a cell set
        flat = np.sort(a, axis=None)
        index = int(witness["location"].split()[-1])
        return int(flat[index]) == witness["actual"]
    return sum(int(a[r, c]) for r, c in cells) == witness["actual"]
