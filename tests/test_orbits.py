"""Orbit squares: the closed-form matrix moved by random monomial matrices, and near misses.

A monomial matrix mod p permutes the 2r symbol digits and scales each by a unit, so
D @ M with a random offset is another digit-linear square. Every such square drawn here
classifies most-perfect and its θ pandiagonal Franklin, so the checks run on many squares
per order, not only the closed form. Permuting the row digits among themselves and the
column digits among themselves as well (D @ M @ Q) gives near misses, most of which fail
most-perfect; at n <= 81 their Franklin, p x p, complementary and pandiagonal verdicts, and those of
their θ, are compared with the brute-force reference.
One near miss at (2, 4) is pinned: it shows that the converse of the paper's direction fails.
The Kotzig orbit squares (conftest.kotzig_square) are most-perfect at every order with a p x p target. In
their weakened family, pinned at n = 16 and 27, each residue class of rows takes whole orbits in random
order: those squares fail only complementary of the most-perfect checks, and their θ is pandiagonal magic,
not Franklin, so θ needs more than the other four checks.
"""

import hashlib
import random

import numpy as np
import pytest

import franklin_forge as ff
from franklin_forge.construct import DigitLinearCandidate, candidate_to_square, closed_form_candidate

from conftest import kotzig_square
from test_reference import ref_complementary, ref_franklin, ref_pandiagonal, ref_pxp

# (p, r, squares drawn): 523 squares over 11 orders, n from 8 to 1331
ORBIT_ORDERS = [(2, 3, 80), (2, 4, 80), (2, 5, 70), (2, 6, 50), (2, 7, 20), (3, 3, 80), (3, 4, 60),
                (3, 5, 20), (5, 3, 40), (7, 3, 20), (11, 3, 3)]
NEAR_MISS_ORDERS = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]  # every Franklin order p^r <= 81
WEAKENED_DIGESTS = {(2, 16): "bc8540d384d057e3", (3, 27): "545f78d4a1f0030b"}  # kotzig_square(p, n, Random(n))


def monomial(p, size, rng):
    """A random permutation matrix with each 1 replaced by a random unit mod p."""
    perm = list(range(size))
    rng.shuffle(perm)
    d = np.zeros((size, size), dtype=np.int64)
    for i, j in enumerate(perm):
        d[i, j] = rng.randrange(1, p)
    return d


def digit_permutation(r, rng):
    """Q = diag(P_rows, P_cols): permutes the r row digits among themselves, and the r column digits."""
    q = np.zeros((2 * r, 2 * r), dtype=np.int64)
    for half in (0, r):
        for i, j in enumerate(rng.sample(range(r), r)):
            q[half + i, half + j] = 1
    return q


def orbit_square(p, r, rng, near_miss=False):
    matrix = monomial(p, 2 * r, rng) @ np.array(closed_form_candidate(p, r).matrix)
    if near_miss:
        matrix = matrix @ digit_permutation(r, rng)
    offset = [rng.randrange(p) for _ in range(2 * r)]
    return candidate_to_square(DigitLinearCandidate.of(matrix % p, offset), p, r)


def test_orbit_squares_are_most_perfect_and_their_theta_pandiagonal_franklin():
    rng = random.Random(2024)
    seen = set()
    for p, r, count in ORBIT_ORDERS:
        params = ff.TypeParams.for_power(p, r)
        for _ in range(count):
            square = orbit_square(p, r, rng)
            seen.add(square.entries.tobytes())
            assert ff.verify_all(square, params).classification == "most_perfect_type_p"
            franklin = ff.verify_all(ff.theta(square, params), params)
            assert franklin.classification == "pandiagonal_franklin_type_p"
    assert len(seen) >= 500


def test_kotzig_squares_are_most_perfect_and_their_theta_pandiagonal_franklin():
    """The Kotzig orbit square is most-perfect wherever p^2 | n and the p x p target is an integer, prime power or
    not, and at the Franklin orders among them its θ is pandiagonal Franklin."""
    for p, n in ((2, 8), (2, 12), (2, 24), (3, 27), (2, 40), (3, 45), (3, 81), (5, 125), (3, 135), (7, 245)):
        params = ff.TypeParams(p, n)
        square = kotzig_square(p, n)
        assert ff.verify_all(square, params).classification == "most_perfect_type_p"
        if params.franklin_k is not None:
            franklin = ff.verify_all(ff.theta(square, params), params)
            assert franklin.classification == "pandiagonal_franklin_type_p"


@pytest.mark.parametrize("p,n", sorted(WEAKENED_DIGESTS))
def test_weakened_kotzig_square_fails_complementary_and_its_theta_is_pandiagonal_magic(p, n):
    """The pinned weakened-family square is natural, semi-magic, pandiagonal and p x p, and fails complementary;
    its θ classifies pandiagonal magic. The complementary, pandiagonal, p x p and Franklin verdicts of the square
    and of its θ, witnesses included, equal the brute-force ones."""
    params, square = ff.TypeParams(p, n), kotzig_square(p, n, random.Random(n))
    assert hashlib.sha256(square.entries.astype("<i8").tobytes()).hexdigest()[:16] == WEAKENED_DIGESTS[(p, n)]
    report = ff.verify_all(square, params)
    assert {"natural", "semi_magic", "pandiagonal", "pxp"} <= report.passed_names()
    assert not report.verdict("complementary").passed
    franklin = ff.theta(square, params)
    assert ff.verify_all(franklin, params).classification == "pandiagonal_magic"
    for candidate in (square, franklin):
        assert ff.check_complementary(candidate, params) == ref_complementary(candidate, params, "main")
        assert ff.check_pandiagonal(candidate, params) == ref_pandiagonal(candidate, params)
        assert ff.check_pxp(candidate, params) == ref_pxp(candidate, params)
        assert ff.check_franklin_patterns(candidate, params) == ref_franklin(candidate, params, None)


def near_misses():
    """(params, square) for 8 near misses at each NEAR_MISS_ORDERS order, each followed by its θ."""
    rng = random.Random(81)
    for p, r in NEAR_MISS_ORDERS:
        params = ff.TypeParams.for_power(p, r)
        for _ in range(8):
            square = orbit_square(p, r, rng, near_miss=True)
            yield params, square
            yield params, ff.theta(square, params)


def test_near_miss_franklin_verdicts_match_reference():
    """Each near miss and its θ: the Franklin verdict, witness included, equals the brute-force one,
    and every failing verdict's witness re-sums to its actual value. Both verdicts occur."""
    outcomes = set()
    for params, candidate in near_misses():
        verdict = ff.check_franklin_patterns(candidate, params)
        assert verdict == ref_franklin(candidate, params, None)
        outcomes.add(verdict.passed)
        entries = candidate.entries.tolist()
        for failed in (v for v in ff.verify_all(candidate, params).verdicts if not v.passed):
            w = failed.witness
            if w.cells:
                assert sum(entries[i][j] for i, j in w.cells) == w.actual != w.expected
    assert outcomes == {True, False}


def test_near_miss_pxp_complementary_and_pandiagonal_verdicts_match_reference():
    """Each near miss and its θ: the p x p, complementary and pandiagonal verdicts, witnesses included, equal
    the brute-force ones. Each check passes on some of them and fails on others."""
    checks = {
        "pxp": (ff.check_pxp, ref_pxp),
        "complementary": (ff.check_complementary, lambda square, params: ref_complementary(square, params, "main")),
        "pandiagonal": (ff.check_pandiagonal, ref_pandiagonal),
    }
    outcomes = {name: set() for name in checks}
    for params, candidate in near_misses():
        for name, (check, reference) in checks.items():
            verdict = check(candidate, params)
            assert verdict == reference(candidate, params), (name, params)
            outcomes[name].add(verdict.passed)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def converse_counterexample():
    """The pinned near miss S at (2, 4), a digit-linear square."""
    rows = "00010010 01100001 00010110 00011010 00110001 10100001 00010011 00100001".split()
    matrix, offset = [[int(d) for d in row] for row in rows], [int(d) for d in "01011010"]
    return candidate_to_square(DigitLinearCandidate.of(matrix, offset), 2, 4)


def test_converse_counterexample_at_order_16():
    """A near miss S at (2, 4) that fails only complementary among the most-perfect checks, yet θ(S) classifies
    pandiagonal Franklin: θ of a pandiagonal Franklin square need not be most-perfect. S itself is pandiagonal
    Franklin too, each of the two fails complementary at the first main-diagonal p-set, and θ(θ(S)) = S."""
    params = ff.TypeParams.for_power(2, 4)
    square = converse_counterexample()
    franklin = ff.theta(square, params)
    for candidate in (square, franklin):
        report = ff.verify_all(candidate, params)
        assert report.classification == "pandiagonal_franklin_type_p"
        failed = [v for v in report.verdicts if not v.passed]
        assert [(v.property_name, v.witness.location) for v in failed] == [
            ("complementary", "main-diagonal p-set at (0, 0)")]
        assert failed[0] == ref_complementary(candidate, params, "main")
        assert report.verdict("franklin_patterns") == ref_franklin(candidate, params, None)
    assert np.array_equal(ff.theta(franklin, params).entries, square.entries)
