"""Shared fixtures: paper squares, derived cell lists, and random grid builders."""

from __future__ import annotations

import random

import numpy as np
import pytest

import franklin_forge as ff

# The 27 cells of the order-27 up pattern (alpha=1, frame offset 2), transcribed
# from the boxed entries of the reference square's upper region.
BOXED_W_CELLS = frozenset(
    {
        (2, 0), (2, 25), (2, 26),
        (3, 1), (3, 2), (3, 24),
        (4, 12), (4, 13), (4, 14),
        (5, 3), (5, 22), (5, 23),
        (6, 4), (6, 5), (6, 21),
        (7, 10), (7, 11), (7, 15),
        (8, 6), (8, 19), (8, 20),
        (9, 7), (9, 8), (9, 18),
        (10, 9), (10, 16), (10, 17),
    }
)

READING_ORDER_8 = [[8 * i + j for j in range(8)] for i in range(8)]


@pytest.fixture(scope="session")
def fixture_map():
    return {name: (square, params) for name, square, params in ff.builtin_fixtures()}


@pytest.fixture(scope="session")
def fig1(fixture_map):
    return fixture_map["figure1_franklin8"]


@pytest.fixture(scope="session")
def mp8(fixture_map):
    return fixture_map["figure2_mp8"]


@pytest.fixture(scope="session")
def mp9(fixture_map):
    return fixture_map["figure2_mp9"]


@pytest.fixture(scope="session")
def f27(fixture_map):
    return fixture_map["sec14_franklin27"]


def random_natural_square(n: int, rng: random.Random) -> ff.NaturalSquare:
    symbols = list(range(n * n))
    rng.shuffle(symbols)
    return ff.NaturalSquare([symbols[i * n : (i + 1) * n] for i in range(n)])


def kotzig_square(p: int, n: int, rng: random.Random | None = None) -> ff.NaturalSquare:
    """The orbit square of order n, p^2 | n, for which p^2(n^2-1)/2 is an integer: a most-perfect square whether
    n is a prime power or not (its windows and p-sets for the reasons below, its lines and diagonals as tested).

    A Kotzig array K is p x m, m = n/p: each row a permutation of 0..m-1, each column summing to p(m-1)/2. The
    orbits O_a = {t*m + K[t, a] : t < p} partition 0..n-1, each summing to p(n-1)/2; sigma takes element t of each
    orbit to element t + 1 (mod p), and g(a + t*m) = O_a[t]. Entry (i, j) is n*sigma^(j mod p)(g(i)) plus
    sigma^(i mod p)(g(j)): p consecutive columns add one whole orbit to a row's high part, p consecutive rows one
    to a column's low part, so every p x p window sums to p^2(n^2-1)/2, and the p cells (i + t*m, j + t*m) meet
    the whole orbit of g(i) and of g(j), so each p-set sums to p(n^2-1)/2.

    With rng, the weakened family: g gives each residue class mod p of 0..n-1 m/p whole orbits drawn by rng, their
    elements in random order. The square stays natural and every line, broken diagonal and window keeps its
    target (each sums whole orbits, or sigma's powers of a union of them), but a p-set need no longer meet a
    whole orbit, so the complementary constraint is dropped.
    """
    m = n // p
    a = np.arange(m)
    if p == 2:
        rows = [a, m - 1 - a]
    else:  # m is odd: three rows summing to 3h, h = (m-1)/2, then pairs summing to m - 1
        h = (m - 1) // 2
        shifted = (a + h) % m
        rows = [a, shifted, (3 * h - a - shifted) % m] + [a, m - 1 - a] * ((p - 3) // 2)
    orbits = (np.arange(p)[:, None] * m + np.array(rows)).T  # orbits[a, t] = O_a[t]
    g = orbits.T.ravel()
    if rng is not None:  # a fresh g, as the ravel above is a view of orbits
        g, drawn = np.empty(n, dtype=np.int64), orbits[rng.sample(range(m), m)].reshape(p, -1)
        for c, elements in enumerate(drawn.tolist()):  # residue class c takes the m/p orbits in row c
            rng.shuffle(elements)
            g[c::p] = elements
    powers = [np.arange(n)]  # powers[s][x] = sigma^s(x)
    sigma = np.empty(n, dtype=np.int64)
    sigma[orbits] = np.roll(orbits, -1, axis=1)
    for _ in range(p - 1):
        powers.append(sigma[powers[-1]])
    powers, i = np.array(powers), np.arange(n)
    return ff.NaturalSquare(ff.Grid(n * powers[i % p, g[:, None]] + powers[i[:, None] % p, g]))


def random_window_grid(rows: int, cols: int, p: int, rng: random.Random) -> ff.Grid:
    """Random grid whose contiguous (non-toric) p x p windows all share one sum.

    Free data: the L-shape of the first p-1 rows and columns plus the target;
    every remaining entry is solved from the window through its cell.
    """
    g = np.zeros((rows, cols), dtype=np.int64)
    target = rng.randrange(0, 50 * p * p)
    for i in range(rows):
        for j in range(cols):
            if i < p - 1 or j < p - 1:
                g[i, j] = rng.randrange(0, 50)
    for i in range(p - 1, rows):
        for j in range(p - 1, cols):
            g[i, j] = target - (g[i - p + 1 : i + 1, j - p + 1 : j + 1].sum() - g[i, j])
    return ff.Grid(g)


def random_toric_window_grid(n: int, p: int, rng: random.Random) -> ff.Grid:
    """Random order-n grid whose toric p x p windows all share one sum.

    Built as const + F(i mod p, j) + H(i, j mod p) with F zero-sum down each
    column and H zero-sum along each row, which spans the whole solution space.
    """
    f = np.array([[rng.randrange(-20, 21) for _ in range(n)] for _ in range(p)], dtype=np.int64)
    f[-1, :] = -f[:-1, :].sum(axis=0)
    h = np.array([[rng.randrange(-20, 21) for _ in range(p)] for _ in range(n)], dtype=np.int64)
    h[:, -1] = -h[:, :-1].sum(axis=1)
    base = 40 * p
    i = np.arange(n)
    grid = base + f[i % p, :] + h[:, i % p]
    return ff.Grid(grid)


def random_cross_identity_grid(m: int, rng: random.Random) -> ff.Grid:
    """Random m x m grid satisfying the 2 x 2 cross identity (row + column form)."""
    f = [rng.randrange(0, 100) for _ in range(m)]
    g = [rng.randrange(0, 100) for _ in range(m)]
    return ff.Grid([[f[i] + g[j] for j in range(m)] for i in range(m)])
