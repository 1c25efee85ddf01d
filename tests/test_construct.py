import gc
import hashlib
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import franklin_forge as ff
from franklin_forge import construct
from franklin_forge.construct import closed_form_candidate
from franklin_forge.core import MAX_ORDER, is_prime
from franklin_forge.properties import REQUIRED_VERDICTS

from test_orbits import converse_counterexample, orbit_square

# sha256 prefixes of the seed-0 squares, pinned so seed-0 output stays byte-stable
SEED0_DIGESTS = {
    (2, 3): "904eb17b079f4c2f",
    (2, 4): "2e1ca21b624486a2",
    (2, 5): "8158b8c2b5025972",
    (3, 3): "94f07ba504a63093",
    (3, 4): "38caaab82e313d61",
    (5, 3): "8a48de2163ccc13b",
    (7, 3): "4a3f22dffc5ffbec",
    (11, 2): "3d8857e5b40e0e55",
}

# sha256 prefixes of the squares at seeds 0 and p^(2r) - 1 (every offset digit p - 1) at the orders whose
# build the two half tables changed most
EDGE_SEED_DIGESTS = {
    (11, 3): ("86197d1cce467bd9", "c58502aad96dea22"),
    (3, 7): ("ab888e44fd8322b1", "0880926a219f62d2"),
    (2, 11): ("a37be16cd63e69a0", "9e44ab712707d5cc"),
    (13, 3): ("efe9935236957f6b", "7882f11c13cefd2a"),
    (53, 2): ("b1c07b425ef13088", "1d08062a71f66e3e"),
}

# sha256 prefixes of whole squares written band by band: a random unreduced invertible candidate, then a
# near-miss orbit square, both drawn from random.Random(p^r), at orders where the reference compares samples only
GENERAL_DIGESTS = {
    (2, 11): ("e9194e2b0a0f8dcc", "1d12bb6b0c5a9176"),
    (3, 7): ("9d8d26c17ee299f7", "6df23a39c996ca90"),
    (53, 2): ("64fb7ae38c9e6e9e", "e3ce52ffbdcd9659"),
    (5, 4): ("569f32943400dc5c", "105b9fb8e365830b"),
    (2, 9): ("e6036fcdcb0ac9f2", "bb42b608ba8fb2e7"),
    (3, 6): ("9887f49ca0e315ac", "684302e022cf04f7"),
}

ORDERS_UP_TO_729 = [
    (p, r) for p in range(2, 28) if is_prime(p) for r in range(2, 10) if p**r <= 729
]


def identity_candidate(p, r):
    size = 2 * r
    matrix = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    return matrix, [0] * size


class TestCandidateToSquare:
    def test_identity_gives_reading_order(self):
        square = ff.candidate_to_square(*identity_candidate(2, 2), 2, 2)
        assert square.entries.tolist() == [[4 * i + j for j in range(4)] for i in range(4)]

    def test_singular_matrix_rejected(self):
        size = 4
        matrix = [[0] * size for _ in range(size)]
        with pytest.raises(ValueError):
            ff.candidate_to_square(matrix, [0] * size, 2, 2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ff.candidate_to_square(*identity_candidate(2, 2), 2, 3)

    def test_list_tuple_and_array_candidates_give_the_same_bytes(self):
        """The matrix and offset are read as int64 mod p whatever holds them: one unreduced candidate for each
        writer (a random one, and the closed form shifted by multiples of p) as lists, tuples, int64 arrays and
        narrower NumPy arrays gives the same square, byte for byte, and so do p and r as NumPy integers."""
        from test_reference import random_unreduced_candidate

        rng = random.Random(35)
        for p, r in ((2, 3), (3, 2), (5, 2), (3, 3)):
            closed_matrix, closed_offset = closed_form_candidate(p, r, seed=rng.randrange(p ** (2 * r)))
            shifted = ((closed_matrix - 2 * p).tolist(), [b + 3 * p for b in closed_offset])
            for matrix, offset in (random_unreduced_candidate(p, r, rng), shifted):
                forms = [(matrix, offset), (tuple(map(tuple, matrix)), tuple(offset)),
                         (np.array(matrix), np.array(offset)),
                         (np.array(matrix, dtype=np.int16), np.array(offset, dtype=np.int32))]
                squares = [ff.candidate_to_square(m, b, p, r).entries for m, b in forms]
                squares.append(ff.candidate_to_square(matrix, offset, np.int8(p), np.int64(r)).entries)
                assert all(s.dtype == np.int64 for s in squares), (p, r)
                assert len({s.tobytes() for s in squares}) == 1, (p, r)

    def test_order_and_prime_checked_before_anything_of_size_n(self):
        """An order above MAX_ORDER is refused before the n^2 square is allocated, and a p that is not prime is
        refused as everywhere else."""
        candidate = identity_candidate(2, 12)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"outside 1..{MAX_ORDER}"):
                ff.candidate_to_square(*candidate, 2, 12)  # n = 4096
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        with pytest.raises(ValueError, match="not prime"):
            ff.candidate_to_square(*identity_candidate(4, 2), 4, 2)

    @pytest.mark.parametrize("size,p", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)])
    def test_invertible_matches_the_determinant_mod_p(self, size, p):
        """Every size x size matrix over 0..p-1: is_invertible_mod against the Leibniz determinant in Python ints."""
        terms = [(sign_of(perm), [i * size + j for i, j in enumerate(perm)])
                 for perm in itertools.permutations(range(size))]  # the cells of each term, in the flat matrix
        verdicts = set()
        for flat in itertools.product(range(p), repeat=size * size):
            det = sum(sign * math.prod(flat[k] for k in cells) for sign, cells in terms)
            verdict = construct.is_invertible_mod(np.reshape(flat, (size, size)), p)
            assert verdict == (det % p != 0), flat
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_a_matrix_that_is_not_square_is_not_invertible(self):
        for shape in ((2, 3), (3, 2)):
            assert not construct.is_invertible_mod(np.eye(*shape, dtype=np.int64), 5), shape

    def test_digit_tables_and_partial_sums_stay_below_n_squared(self):
        """At every accepted p^r with r >= 2, the table kernel run on one symbol digit at a time, over the p
        shifts, writes 2r int64 p x n tables whose entries, and so every partial sum over digits, lie in
        0..n^2-1: the tables' maxima sum to exactly n^2 - 1. The general writer's first and last band tables,
        all 2r digits at once, lie in 0..n^2-1 too."""
        orders = [(p, r) for p in range(2, MAX_ORDER + 1) if is_prime(p)
                  for r in range(2, MAX_ORDER.bit_length()) if p**r <= MAX_ORDER]
        assert (2, 11) in orders and (53, 2) in orders
        for p, r in orders:
            n, w = p**r, p ** np.arange(2 * r - 1, -1, -1)
            candidate = closed_form_candidate(p, r, seed=p ** (2 * r) - 1)  # every offset digit p - 1
            row_res, col_res = residues(candidate, p, r, np.arange(n), np.arange(n))
            tables = np.full((2 * r, p, n), -1, dtype=np.int64)  # written over, not added to
            for d, table in enumerate(tables):
                construct._table(w[d : d + 1], np.arange(p)[:, None], col_res[d : d + 1], p, table)
            assert all(t.dtype == np.int64 and t.shape == (p, n) for t in tables), (p, r)
            assert min(int(t.min()) for t in tables) == 0, (p, r)
            assert sum(int(t.max()) for t in tables) == p ** (2 * r) - 1, (p, r)
            band = max(1, ff.core.BAND_CELLS // n)
            for top in (0, (n - 1) // band * band):
                rows = np.full((min(band, n - top), n), -1, dtype=np.int64)
                construct._table(w, row_res[:, top : top + band].T, col_res, p, rows)
                assert rows.dtype == np.int64 and 0 <= int(rows.min()) and int(rows.max()) < n * n, (p, r, top)

    def test_random_invertible_candidates_are_natural(self):
        rng = random.Random(17)
        produced = 0
        while produced < 10:
            matrix = [[rng.randrange(3) for _ in range(4)] for _ in range(4)]
            if not construct.is_invertible_mod(np.array(matrix), 3):
                continue
            offset = [rng.randrange(3) for _ in range(4)]
            square = ff.candidate_to_square(matrix, offset, 3, 2)
            assert sorted(square.entries.flatten().tolist()) == list(range(81))
            produced += 1

    def test_digit_map_matches_reference_at_every_order(self):
        """At every order p^r <= MAX_ORDER: a random unreduced invertible candidate, the closed form at seed 0
        and at a random seed, and the closed form with an extra 1 in the first column of either A. Below n = 100
        the whole square is the Python-int reference's, and so is digit_map_cells'. At every order, every row
        on a sample of columns, and the rows at each band edge, at each edge of the first and last p-row
        residue groups and a sample, are digit_map_cells'. The closed forms take the two half tables, shifts of
        r digits, and the perturbed ones one table per band of rows, shifts of all 2r digits."""
        from test_reference import random_unreduced_candidate, ref_candidate_to_square

        rng = random.Random(3000)
        orders = [(p, r) for p in range(2, 60) if is_prime(p) for r in range(2, 12) if p**r <= MAX_ORDER]
        assert len(orders) == 36
        extra = 0
        for p, r in orders:
            n = p**r
            closed = [closed_form_candidate(p, r, seed) for seed in (0, rng.randrange(p ** (2 * r)))]
            perturbed = [c for c in (closed_form_with_an_extra_one(p, r, corner) for corner in (0, r)) if c]
            extra += len(perturbed)
            for candidate in [random_unreduced_candidate(p, r, rng)] + closed + perturbed:
                with mock.patch.object(construct, "_table", wraps=construct._table) as tables:
                    square = ff.candidate_to_square(*candidate, p, r).entries
                every = np.arange(n)
                if n < 100:
                    expected = ref_candidate_to_square(candidate, p, r)
                    assert square.tolist() == expected == digit_map_cells(candidate, p, r, every, every).tolist()
                band = max(1, ff.core.BAND_CELLS // n)
                edges = {i for top in range(0, n, band) for i in (top, min(top + band, n) - 1)}
                edges |= {0, p - 1, p, 2 * p - 1, n - 2 * p, n - p - 1, n - p, n - 1}
                sample = sorted(edges | set(rng.sample(range(n), min(n, 32))))
                assert np.array_equal(square[:, sample], digit_map_cells(candidate, p, r, every, sample)), (p, r)
                assert np.array_equal(square[sample], digit_map_cells(candidate, p, r, sample, every)), (p, r)
                widths = [call.args[1].shape[1] for call in tables.call_args_list]  # digits in each table's shifts
                if any(candidate is c for c in closed):  # a tuple holding an array has no value equality
                    assert widths == [r, r], (p, r)
                elif any(candidate is c for c in perturbed):
                    assert widths == [2 * r] * -(-n // band), (p, r)
        assert extra == 70  # at (2, 2) no row of either A's first column keeps the matrix invertible

    @pytest.mark.parametrize("p,r", [(3, 6), (2, 10)])
    def test_generator_peaks_below_two_squares(self, p, r):
        """The digit map writes into the square's own array and the p x p screen works in bands, so
        generate_most_perfect holds no second n^2 int64 array beside the square."""
        config = ff.GeneratorConfig(p, r)
        ff.generate_most_perfect(config)  # warm: the first call's one-off allocations are not the op's
        square_bytes = (p**r) ** 2 * 8
        gc.collect()
        tracemalloc.start()
        try:
            ff.generate_most_perfect(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * square_bytes, peak / square_bytes


def sign_of(perm):
    """+1 for an even permutation, -1 for an odd one, by counting inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def closed_form_with_an_extra_one(p, r, corner):
    """The closed form at seed 1 with 1 added to the first column of its top-left (corner 0) or bottom-right
    (corner r) A, in the first row where the matrix stays invertible mod p; None where no row does."""
    base = closed_form_candidate(p, r, seed=1)
    for row in range(corner, corner + r):
        m = np.array(base[0])
        m[row, corner] += 1
        if construct.is_invertible_mod(m, p):
            return m, base[1]
    return None


def residues(candidate, p, r, rows, cols):
    """R_d at rows and C_d at cols, reduced mod p: symbol digit d of cell (i, j) is
    R_d[i] + C_d[j] mod p, with R from the row digits and the offset, C from the column digits."""
    m, b = (np.array(x, dtype=np.int64) for x in candidate)

    def digits(x):
        return np.stack([(np.asarray(x) // p ** (r - 1 - d)) % p for d in range(r)])

    return (m[:, :r] @ digits(rows) + b[:, None]) % p, (m[:, r:] @ digits(cols)) % p


def digit_map_cells(candidate, p, r, rows, cols):
    """Cells (rows x cols) of the digit map by its definition, in int64: symbol digit d of cell (i, j)
    is row d of matrix @ (digits of i, then of j) + offset, mod p, most significant digit first."""
    row_part, col_part = residues(candidate, p, r, rows, cols)
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for d in range(2 * r):
        out = out * p + np.add.outer(row_part[d], col_part[d]) % p
    return out


class TestGenerator:
    def test_order8_is_most_perfect(self):
        square = ff.generate_most_perfect(ff.GeneratorConfig(p=2, r=3, seed=5))
        params = ff.TypeParams(2, 8)
        report = ff.verify_all(square, params)
        assert REQUIRED_VERDICTS["most_perfect_type_p"] <= report.passed_names()
        # post-condition examples: the screened candidate satisfies both
        # structural checks individually
        assert ff.check_complementary(square, params).passed
        assert ff.check_pxp(square, params).passed

    def test_order9_is_most_perfect(self):
        square = ff.generate_most_perfect(ff.GeneratorConfig(p=3, r=2, seed=5))
        report = ff.verify_all(square, ff.TypeParams(3, 9))
        assert report.classification == "most_perfect_type_p"

    def test_determinism(self):
        a = ff.generate_most_perfect(ff.GeneratorConfig(p=2, r=3, seed=123))
        b = ff.generate_most_perfect(ff.GeneratorConfig(p=2, r=3, seed=123))
        assert a == b

    def test_fixtures_only_returns_figure_square(self, mp9):
        square = ff.generate_most_perfect(
            ff.GeneratorConfig(p=3, r=2, family="fixtures_only")
        )
        assert square == mp9[0]

    def test_fixtures_only_unavailable_pair_exhausts(self):
        with pytest.raises(ff.GeneratorExhaustedError):
            ff.generate_most_perfect(ff.GeneratorConfig(p=5, r=2, family="fixtures_only"))

    def test_exhaustion_never_returns_unverified(self, monkeypatch):
        # force the screen to reject: the generator must raise, not fall back
        screened = []

        def reject(square, params, **kwargs):
            screened.append(ff.verify_all(square, params, **kwargs))
            return ff.PropertyReport(params, ())  # no verdicts, so classification "none"

        monkeypatch.setattr(construct, "verify_all", reject)
        with pytest.raises(ff.GeneratorExhaustedError):
            ff.generate_most_perfect(ff.GeneratorConfig(p=2, r=3))
        assert len(screened) == 1  # one closed-form candidate, no search
        assert screened[0].classification == "most_perfect_type_p"

    @pytest.mark.parametrize("p,r", [(2, 4), (3, 3), (11, 3)])
    def test_screen_skips_the_franklin_and_one_over_p_checks(self, monkeypatch, p, r):
        """The most-perfect classification requires neither, so the screen runs neither."""
        def refuse(*args, **kwargs):
            raise AssertionError("the screen ran a check that most-perfect does not require")

        for name in ("check_franklin_patterns", "check_one_over_p"):
            monkeypatch.setattr(ff.properties, name, refuse)
        square = ff.generate_most_perfect(ff.GeneratorConfig(p, r))
        monkeypatch.undo()
        params = ff.TypeParams.for_power(p, r)
        assert ff.verify_all(square, params).classification == "most_perfect_type_p"

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 2)])
    def test_screen_rejects_a_natural_square_that_is_not_most_perfect(self, monkeypatch, p, r):
        """A two-cell swap of the closed form is natural and fails a required check."""
        closed = construct.candidate_to_square

        def swapped(matrix, offset, p, r):
            a = closed(matrix, offset, p, r).entries.copy()
            a[0, 0], a[0, 1] = a[0, 1], a[0, 0]
            return ff.NaturalSquare(a)

        monkeypatch.setattr(construct, "candidate_to_square", swapped)
        with pytest.raises(ff.GeneratorExhaustedError):
            ff.generate_most_perfect(ff.GeneratorConfig(p, r))

    def test_screen_rejects_a_pandiagonal_magic_square_that_fails_complementary(self, monkeypatch):
        """The (2, 4) converse counterexample is natural, semi-magic, pandiagonal and p x p, and fails only the
        complementary check: a screen that took any pandiagonal magic square would hand it back."""
        square, params = converse_counterexample(), ff.TypeParams.for_power(2, 4)
        report = ff.verify_all(square, params, required_for="most_perfect_type_p")
        assert [v.property_name for v in report.verdicts if not v.passed] == ["complementary"]
        monkeypatch.setattr(construct, "candidate_to_square", lambda matrix, offset, p, r: square)
        with pytest.raises(ff.GeneratorExhaustedError):
            ff.generate_most_perfect(ff.GeneratorConfig(2, 4))

    @pytest.mark.parametrize("p,r", sorted(SEED0_DIGESTS))
    def test_seed0_bytes_are_pinned(self, p, r):
        square = ff.generate_most_perfect(ff.GeneratorConfig(p, r, 0))
        digest = hashlib.sha256(square.entries.astype("<i8").tobytes()).hexdigest()[:16]
        assert digest == SEED0_DIGESTS[(p, r)]

    @pytest.mark.parametrize("p,r", sorted(EDGE_SEED_DIGESTS))
    def test_edge_seed_bytes_are_pinned(self, p, r):
        for seed, pinned in zip((0, p ** (2 * r) - 1), EDGE_SEED_DIGESTS[(p, r)]):
            square = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed))
            assert hashlib.sha256(square.entries.astype("<i8").tobytes()).hexdigest()[:16] == pinned, seed

    @pytest.mark.parametrize("p,r", sorted(GENERAL_DIGESTS))
    def test_general_candidate_bytes_are_pinned(self, p, r):
        from test_reference import random_unreduced_candidate

        rng = random.Random(p**r)
        with mock.patch.object(construct, "_table", wraps=construct._table) as tables:
            squares = (ff.candidate_to_square(*random_unreduced_candidate(p, r, rng), p, r),
                       orbit_square(p, r, rng, near_miss=True))
        bands = -(-p**r // max(1, ff.core.BAND_CELLS // p**r))
        assert [call.args[1].shape[1] for call in tables.call_args_list] == [2 * r] * (2 * bands)  # both by bands
        digests = tuple(hashlib.sha256(s.entries.astype("<i8").tobytes()).hexdigest()[:16] for s in squares)
        assert digests == GENERAL_DIGESTS[(p, r)]

    @pytest.mark.parametrize("p,r", ORDERS_UP_TO_729)
    def test_every_order_and_seed_is_most_perfect(self, p, r):
        params = ff.TypeParams.for_power(p, r)
        for seed in (0, 1, 2**31 - 1):
            square = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed))
            assert ff.verify_all(square, params).classification == "most_perfect_type_p"
            if r >= 3:
                report = ff.verify_all(ff.theta(square, params), params)
                assert report.classification == "pandiagonal_franklin_type_p"
            for transform in (ff.theta, ff.theta_row, ff.theta_col):  # re-proved apart from NaturalSquare
                entries = transform(square, params).entries
                assert np.array_equal(np.sort(entries, axis=None), np.arange(params.n**2))

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2)])
    def test_seed_picks_offset_mod_p_to_the_2r(self, p, r):
        period = p ** (2 * r)
        squares = [ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed)) for seed in range(period)]
        assert len({sq.entries.tobytes() for sq in squares}) == period
        for seed in (0, 5, period - 1):
            for congruent in (seed + period, seed + 7 * period, seed - period):
                assert ff.generate_most_perfect(ff.GeneratorConfig(p, r, congruent)) == squares[seed]

    def test_closed_form_offset_is_seed_digits(self):
        candidate = closed_form_candidate(3, 2, 2 + 1 * 3 + 0 * 9 + 1 * 27)
        assert candidate[1] == [2, 1, 0, 1]
        assert closed_form_candidate(3, 2, 0)[1] == [0, 0, 0, 0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ff.GeneratorConfig(p=4, r=3)
        with pytest.raises(ValueError):
            ff.GeneratorConfig(p=2, r=1)
        with pytest.raises(ValueError):
            ff.GeneratorConfig(p=2, r=3, family="magic")


class TestRequiredChecks:
    @pytest.mark.parametrize("p,r", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_required_for_keeps_the_full_reports_verdicts(self, p, r):
        """The closed form, its θ and a swap of each: verify_all(required_for=label) holds the
        full report's verdicts of that label, in order, and the classification they give."""
        params = ff.TypeParams.for_power(p, r)
        square = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed=7))
        rng = random.Random(p * r)
        squares = [square, ff.theta(square, params)]
        for s in list(squares):
            a = s.entries.copy()
            (r1, c1), (r2, c2) = [(rng.randrange(params.n), rng.randrange(params.n)) for _ in range(2)]
            a[r1, c1], a[r2, c2] = a[r2, c2], a[r1, c1]
            squares.append(ff.NaturalSquare(a))
        for s in squares:
            full = ff.verify_all(s, params)
            for label, required in ff.properties.REQUIRED_VERDICTS.items():
                report = ff.verify_all(s, params, required_for=label)
                kept = tuple(v for v in full.verdicts if v.property_name in required)
                assert report.verdicts == kept
                assert report == ff.PropertyReport(params, kept)
            screened = ff.verify_all(s, params, required_for="most_perfect_type_p")
            assert [v.property_name for v in screened.verdicts] == ["natural", "semi_magic", "pandiagonal",
                                                                    "complementary", "pxp"]
            most_perfect = REQUIRED_VERDICTS["most_perfect_type_p"] <= full.passed_names()
            assert (screened.classification == "most_perfect_type_p") == most_perfect

    @pytest.mark.parametrize("label", ["none", "most_perfect", "", 0])
    def test_required_for_an_unknown_classification_raises(self, mp9, label):
        with pytest.raises(ValueError, match="unknown classification"):
            ff.verify_all(*mp9, required_for=label)


class TestPipeline:
    @pytest.mark.parametrize("p,r", [(2, 3), (2, 4), (3, 3)])
    def test_transform_of_generated_square_is_pandiagonal_franklin(self, p, r):
        params = ff.TypeParams.for_power(p, r)
        square = ff.generate_most_perfect(ff.GeneratorConfig(p=p, r=r))
        report = ff.verify_all(ff.theta(square, params), params)
        assert report.classification == "pandiagonal_franklin_type_p"


class TestBuiltinFixtures:
    def test_names_and_first_entries(self, fixture_map):
        assert set(fixture_map) == {
            "figure1_franklin8",
            "figure2_mp8",
            "figure2_mp9",
            "sec14_franklin27",
        }
        fig1, _ = fixture_map["figure1_franklin8"]
        assert int(fig1.entries[0, 0]) == 51
        mp9, _ = fixture_map["figure2_mp9"]
        assert mp9.entries.tolist()[0] == [0, 16, 23, 63, 79, 59, 45, 34, 41]
        f27, _ = fixture_map["sec14_franklin27"]
        assert int(f27.entries[0, 0]) == 0 and int(f27.entries[0, 1]) == 691

    def test_params_attached(self, fixture_map):
        _, params = fixture_map["sec14_franklin27"]
        assert (params.p, params.n) == (3, 27)
