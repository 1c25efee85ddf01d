"""Slow plain-Python references for the vectorised checks, compared verdict for verdict.

Each reference walks its cell sets in the documented scan order and sums them
with Python integers, so it shares no arithmetic with the numpy kernels. The
fast check must return the same PropertyVerdict, witness included.
"""

import functools
import itertools
import random

import numpy as np
import pytest

import franklin_forge as ff
from franklin_forge import properties
from franklin_forge.patterns import split_rows
from franklin_forge.properties import (
    COMPLEMENTARY,
    FRANKLIN_PATTERNS,
    NATURAL,
    ONE_OVER_P_COLS,
    ONE_OVER_P_ROWS,
    PANDIAGONAL,
    PROBE,
    PXP,
    SEMI_MAGIC,
)

from conftest import kotzig_square, random_natural_square, random_toric_window_grid, random_window_grid

FRANKLIN_ORDERS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (2, 5), (3, 5)]
POWER_ORDERS = [(2, 2), (3, 2), (5, 2), (7, 2)]  # r = 2: no Franklin patterns


def first_failure(name, candidates, a, expected=None):
    """First (location, cells) whose sum misses expected (default: the first sum)."""
    for location, cells in candidates:
        total = sum(a[r][c] for r, c in cells)
        if expected is None:
            expected = total
        if total != expected:
            return ff.PropertyVerdict(name, False, ff.Witness(location, expected, total, tuple(cells)))
    return ff.PropertyVerdict(name, True)


def ref_natural(obj, params):
    """The first sorted entry that differs from its index; the witness names the index, not a sum."""
    for k, value in enumerate(sorted(obj.entries.ravel().tolist())):
        if value != k:
            return ff.PropertyVerdict(NATURAL, False, ff.Witness(f"sorted entry {k}", k, value))
    return ff.PropertyVerdict(NATURAL, True)


def semi_magic_sets(params):
    """Every row, then every column."""
    n = params.n
    candidates = [(f"row {i}", [(i, c) for c in range(n)]) for i in range(n)]
    return candidates + [(f"column {i}", [(r, i) for r in range(n)]) for i in range(n)]


def ref_semi_magic(obj, params):
    return first_failure(SEMI_MAGIC, semi_magic_sets(params), obj.entries.tolist(), params.magic_sum)


def one_over_p_sets(params, axis):
    """Line by line, each line's p aligned segments left to right (top to bottom for columns)."""
    n, p = params.n, params.p
    seg = n // p
    label = "row" if axis == "rows" else "column"
    return (
        (f"{label} {i}, segment {s} (indices {s * seg}..{(s + 1) * seg - 1})",
         [(i, c) if axis == "rows" else (c, i) for c in range(s * seg, (s + 1) * seg)])
        for i in range(n)
        for s in range(p)
    )


def ref_one_over_p(obj, params, axis):
    name = ONE_OVER_P_ROWS if axis == "rows" else ONE_OVER_P_COLS
    return first_failure(name, one_over_p_sets(params, axis), obj.entries.tolist(), params.segment_sum)


def pandiagonal_sets(params):
    n = params.n
    return (
        (f"{label} diagonal, offset {c}", [(r, (sign * r + c) % n) for r in range(n)])
        for sign, label in ((1, "main"), (-1, "anti"))
        for c in range(n)
    )


def ref_pandiagonal(obj, params):
    return first_failure(PANDIAGONAL, pandiagonal_sets(params), obj.entries.tolist(), params.magic_sum)


def complementary_sets(params, direction):
    n, p = params.n, params.p
    step, sign = n // p, 1 if direction == "main" else -1
    return (
        (f"{direction}-diagonal p-set at ({i}, {j})",
         [((i + t * step) % n, (j + sign * t * step) % n) for t in range(p)])
        for i in range(n)
        for j in range(n)
    )


def ref_complementary(obj, params, direction):
    candidates = complementary_sets(params, direction)
    return first_failure(COMPLEMENTARY, candidates, obj.entries.tolist(), params.complement_sum)


def ref_pxp(obj, params):
    """Pinned to p^2(n^2-1)/2 for a NaturalSquare with TypeParams, else windows compared to the first."""
    pinned = isinstance(obj, ff.NaturalSquare) and isinstance(params, ff.TypeParams)
    p = params.p if isinstance(params, ff.TypeParams) else params
    rows, cols = obj.entries.shape
    candidates = (
        (f"window at ({i}, {j})", [((i + dr) % rows, (j + dc) % cols) for dr in range(p) for dc in range(p)])
        for i in range(rows)
        for j in range(cols)
    )
    return first_failure(PXP, candidates, obj.entries.tolist(), params.pxp_sum if pinned else None)


def ref_window_sums_all_equal(grid, p, toric):
    a = grid.entries.tolist()
    rows, cols = len(a), len(a[0])
    last_i, last_j = (rows, cols) if toric else (rows - p + 1, cols - p + 1)
    sums = {
        sum(a[(i + dr) % rows][(j + dc) % cols] for dr in range(p) for dc in range(p))
        for i in range(last_i)
        for j in range(last_j)
    }
    return len(sums) == 1


def turned_block_cells(params, frame_offset, alpha, direction):
    """(band, cell) of the paper's block walk at the frame offset, each cell turned clockwise once per
    quarter turn of the direction: the geometry by definition, not by the split-row table."""
    n = params.n
    for block in ff.select_blocks(params, frame_offset):
        addr = block.address
        for r, c in ff.block_intersection(block, alpha):
            cell = ((addr.row_origin + r) % n, (addr.col_origin + c) % n)
            for _ in range(ff.DIRECTIONS.index(direction)):
                cell = (cell[1], n - 1 - cell[0])
            yield block.band, cell


def ref_franklin_cells(spec):
    return frozenset(cell for _, cell in turned_block_cells(spec.params, spec.frame_offset, spec.alpha, spec.direction))


def ref_band_sums(obj, params, alpha, frame_offset, direction):
    """Python-int sum of each band's cells, band j added to its mirror p-1-j."""
    p, a = params.p, obj.entries.tolist()
    sums = [0] * ((p + 1) // 2)
    for band, (r, c) in turned_block_cells(params, frame_offset, alpha, direction):
        sums[min(band, p - 1 - band)] += a[r][c]
    return tuple(sums)


@functools.lru_cache(maxsize=None)
def all_pattern_cells(params):
    return [(spec, tuple(sorted(ref_franklin_cells(spec)))) for spec in ff.enumerate_patterns(params)]


def franklin_sets(params, alphas=None):
    chosen = set(range(1, params.p)) if alphas is None else set(alphas)
    return (
        (f"{spec.direction} pattern, alpha={spec.alpha}, offset={spec.frame_offset}", cells)
        for spec, cells in all_pattern_cells(params)
        if spec.alpha in chosen
    )


def ref_franklin(obj, params, alphas):
    return first_failure(FRANKLIN_PATTERNS, franklin_sets(params, alphas), obj.entries.tolist(), params.magic_sum)


def ref_theta(obj, params, swap_rows, swap_cols):
    """Output (i, j) is input (swap(i // bs)*bs + i % bs, swap(j // bs)*bs + j % bs), bs = n/p^2,
    with the row or column side left as it is when not swapped."""
    p, n = params.p, params.n
    bs = n // (p * p)

    def source(i, swapped):
        return ff.digit_swap(i // bs, p) * bs + i % bs if swapped else i

    a = obj.entries.tolist()
    return [[a[source(i, swap_rows)][source(j, swap_cols)] for j in range(n)] for i in range(n)]


def swap_two_cells(square, rng):
    a = np.array(square.entries)
    n = len(a)
    (r1, c1), (r2, c2) = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
    a[r1, c1], a[r2, c2] = a[r2, c2], a[r1, c1]
    return ff.NaturalSquare(ff.Grid(a))


@functools.lru_cache(maxsize=None)
def cases(p, n):
    """Closed-form most-perfect square (where n is no prime power, the Kotzig orbit square if the p x p
    target is an integer, else a random natural square), its θ, each with and without a two-cell swap,
    and two random integer grids. Where p^2 does not divide n there is no θ: two random natural squares
    take the place of the pair."""
    rng = random.Random(1000 * p + n)
    params = ff.TypeParams(p, n)
    r = round(np.log(n) / np.log(p))
    if n % (p * p):
        squares = [random_natural_square(n, rng) for _ in range(2)]
    else:
        if p**r == n:
            base = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed=rng.randrange(p ** (2 * r))))
        elif params.has_pxp_sum:
            base = kotzig_square(p, n)
        else:
            base = random_natural_square(n, rng)
        squares = [base, ff.theta(base, params)]
    squares += [swap_two_cells(s, rng) for s in squares]
    grids = [ff.Grid([[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]) for _ in range(2)]
    return params, squares + grids


ALL_ORDERS = [(p, k * p**3) for p, k in FRANKLIN_ORDERS] + [(p, p**r) for p, r in POWER_ORDERS]
ORDER_IDS = [f"p{p}-n{n}" for p, n in ALL_ORDERS]
# Orders whose diagonal fold has one level (a prime count), two or three distinct prime factors,
# or a large prime cofactor (74 = 2 * 37); n = 1 folds nothing.
FOLD_ORDERS = [(2, 1), (7, 7), (2, 12), (3, 12), (2, 30), (3, 30), (5, 30), (2, 74), (37, 74)]


@pytest.mark.parametrize("p,n", ALL_ORDERS, ids=ORDER_IDS)
def test_line_checks_match_reference(p, n):
    params, squares = cases(p, n)
    for square in squares:
        assert ff.check_natural(square, params) == ref_natural(square, params)
        assert ff.check_semi_magic(square, params) == ref_semi_magic(square, params)
        if params.has_segment_sum:
            for axis in ("rows", "cols"):
                assert ff.check_one_over_p(square, params, axis) == ref_one_over_p(square, params, axis)


@pytest.mark.parametrize("p,n", ALL_ORDERS + FOLD_ORDERS, ids=ORDER_IDS + [f"p{p}-n{n}" for p, n in FOLD_ORDERS])
def test_diagonal_checks_match_reference(p, n):
    params, squares = cases(p, n)
    for square in squares:
        assert ff.check_pandiagonal(square, params) == ref_pandiagonal(square, params)
        if params.has_complement_sum:
            for direction in ("main", "anti"):
                fast = ff.check_complementary(square, params, direction)
                assert fast == ref_complementary(square, params, direction)


@pytest.mark.parametrize("p,n", ALL_ORDERS, ids=ORDER_IDS)
def test_pxp_matches_reference(p, n):
    params, squares = cases(p, n)
    for square in squares:
        if params.has_pxp_sum:
            assert ff.check_pxp(square, params) == ref_pxp(square, params)
        assert ff.check_pxp(square, p) == ref_pxp(square, p)


@pytest.mark.parametrize("p,n", [(p, k * p**3) for p, k in FRANKLIN_ORDERS], ids=ORDER_IDS[: len(FRANKLIN_ORDERS)])
def test_franklin_matches_reference(p, n):
    params, squares = cases(p, n)
    for square in squares:
        for alphas in (None, (1,), (p - 1,), tuple(range(p - 1, 0, -1)), (1, 1)):
            fast = ff.check_franklin_patterns(square, params, alphas)
            assert fast == ref_franklin(square, params, alphas)


def test_each_franklin_order_with_a_pxp_target_holds_a_passing_theta(monkeypatch):
    """Where the p x p target is an integer, cases() holds a most-perfect square, the Kotzig orbit square where n is
    no prime power, whose θ passes the Franklin check through both banded passes: so the reference comparisons above
    run _franklin_pass on a passing square at every such order, (2, 3) and (2, 5) included."""
    passes, franklin_pass = [], properties._franklin_pass
    monkeypatch.setattr(properties, "_franklin_pass", lambda *args: passes.append(args[-1]) or franklin_pass(*args))
    covered = []
    for p, k in FRANKLIN_ORDERS:
        params, squares = cases(p, k * p**3)
        if params.has_pxp_sum:
            assert ff.verify_all(squares[0], params).classification == "most_perfect_type_p"
            passes.clear()
            assert ff.check_franklin_patterns(squares[1], params).passed and passes == [True, False]
            covered.append((p, k))
    assert covered == [order for order in FRANKLIN_ORDERS if order != (3, 2)]  # n = 54 has no p x p target


def band_cells(params, groups):
    """A BAND_CELLS that makes each band of the Franklin passes hold the given number of groups of p lines."""
    n, p = params.n, params.p
    return groups * p * (n + 2 * (n // p - 1))  # a band row: the line and a margin of n/p - 1 cells each side


@pytest.mark.parametrize("p,k", FRANKLIN_ORDERS)
def test_franklin_in_many_bands_matches_reference(p, k, monkeypatch):
    """Bands of one group of p lines, and of just under a third of the groups: at least 3 bands, with runs of split
    rows cut at band edges. Every case of the order, passing and failing, gives the reference's verdict."""
    params = ff.TypeParams.for_franklin(p, k)
    groups, runs = params.n // p, split_rows(params).runs
    squares = cases(p, params.n)[1]
    for per_band in (1, max(1, (groups - 1) // 3)):
        monkeypatch.setattr(properties, "BAND_CELLS", band_cells(params, per_band))
        assert -(-groups // per_band) >= 3
        assert any(g // per_band != (g + count - 1) // per_band for g, count, *_ in runs)
        for square in squares:
            for alphas in (None, (p - 1,)):
                assert ff.check_franklin_patterns(square, params, alphas) == ref_franklin(square, params, alphas)


def franklin_failure(grid, params, direction, rng):
    """The up (or right) failure of θ of a most-perfect square: +1 and -1 in one column (or a zero-sum shift of
    the columns, which keeps every up and down sum), the +1 on the first up pattern past the probe."""
    n, a = params.n, np.array(grid.entries)
    if direction == "up":
        column = rng.randrange(n)
        row = int(split_rows(params).rows[0, column]) + PROBE + 1
        a[[row % n, (row + n // 2) % n], column] += (1, -1)
        return ff.Grid(a)
    shift = [rng.randrange(-9, 10) for _ in range(n - 1)]
    return ff.Grid(a + np.array(shift + [-sum(shift)]))


def test_franklin_in_many_bands_at_the_central_band_of_order_343(monkeypatch):
    """At (7, 1) the central band's groups 21..27 form runs of 3, 1 and 3 (steps -p, 0, p). Bands of 1, 2 and 3
    groups cut them, and θ of a most-perfect square still passes. Edits in the central band's columns, and a zero-sum
    shift of the columns, which fails a right pattern, give the verdict of one band of all the lines (the reference
    scan is too slow at n = 343)."""
    params = ff.TypeParams.for_franklin(7, 1)
    n = params.n
    franklin = ff.theta(ff.generate_most_perfect(ff.GeneratorConfig(7, 3)), params)
    assert split_rows(params).runs[3:6] == ((21, 3, 48, -14, -7), (24, 1, 6, 0, 0), (25, 3, 13, 14, 7))
    grids = [franklin]
    for column in (21 * 7 + 3, 24 * 7, 27 * 7 + 6, n - 1 - 24 * 7):
        a = np.array(franklin.entries)
        a[[5, 200], column] += (1, -1)
        grids.append(ff.Grid(a))
    grids.append(franklin_failure(franklin, params, "right", random.Random(n)))
    monkeypatch.setattr(properties, "BAND_CELLS", band_cells(params, n // 7))
    expected = [ff.check_franklin_patterns(grid, params) for grid in grids]
    assert expected[0].passed and not any(v.passed for v in expected[1:])
    assert expected[-1].witness.location.startswith("right pattern")
    for per_band in (1, 2, 3):
        monkeypatch.setattr(properties, "BAND_CELLS", band_cells(params, per_band))
        assert [ff.check_franklin_patterns(grid, params) for grid in grids] == expected


def assert_failure_matches_reference(p, n, direction, monkeypatch):
    """franklin_failure's grid gives the reference's verdict, a failure in the given direction, in one band and in
    bands of one group of p lines, for every alpha, the last alone, and all of them listed downwards."""
    params, squares = cases(p, n)
    grid = franklin_failure(squares[1], params, direction, random.Random(n))
    for cells in (properties.BAND_CELLS, band_cells(params, 1)):
        monkeypatch.setattr(properties, "BAND_CELLS", cells)
        for alphas in (None, (p - 1,), tuple(range(p - 1, 0, -1))):
            fast = ff.check_franklin_patterns(grid, params, alphas)
            assert fast == ref_franklin(grid, params, alphas)
            assert fast.witness.location.startswith(direction + " pattern")


@pytest.mark.parametrize("p,n", [(2, 8), (2, 16), (3, 27), (5, 125)])
def test_franklin_right_pattern_failure_matches_reference(p, n, monkeypatch):
    """θ of a most-perfect square plus a zero-sum shift per column: every up and
    down pattern keeps its magic sum, so the first failure is a right pattern, from the row pass."""
    assert_failure_matches_reference(p, n, "right", monkeypatch)


@pytest.mark.parametrize("p,n", [(2, 8), (2, 16), (3, 27), (5, 125)])
def test_franklin_up_pattern_failure_matches_reference(p, n, monkeypatch):
    """θ of a most-perfect square with +1 and -1 in one column: the first failure is an up pattern past
    the probe, from the column pass."""
    assert_failure_matches_reference(p, n, "up", monkeypatch)


def sum_checks(params):
    """(fast check, reference, sets of its scan in order, target) for each probed sum check at the order."""
    out = [(ff.check_semi_magic, ref_semi_magic, semi_magic_sets, params.magic_sum),
           (ff.check_pandiagonal, ref_pandiagonal, pandiagonal_sets, params.magic_sum)]
    if params.has_complement_sum:
        out += [(functools.partial(ff.check_complementary, direction=d),
                 functools.partial(ref_complementary, direction=d),
                 functools.partial(complementary_sets, direction=d), params.complement_sum) for d in ("main", "anti")]
    if params.has_segment_sum:
        out += [(functools.partial(ff.check_one_over_p, axis=axis), functools.partial(ref_one_over_p, axis=axis),
                 functools.partial(one_over_p_sets, axis=axis), params.segment_sum) for axis in ("rows", "cols")]
    if params.franklin_k is not None:
        out.append((ff.check_franklin_patterns, functools.partial(ref_franklin, alphas=None), franklin_sets,
                    params.magic_sum))
    return out


def on_target_first(grid, sets, target, count):
    """grid with one cell of each of the first count cell sets moved so that the set sums to target. The
    sets must be disjoint, as the first table's of every probed check are (a diagonal sign, a direction)."""
    a = grid.entries.tolist()
    for _, cells in itertools.islice(sets, count):
        r, c = cells[0]
        a[r][c] += target - sum(a[x][y] for x, y in cells)
    return ff.Grid(a)


def two_cell_edits(square, rng):
    """+1 at one cell and -1 at another of a square that passes: the first failure lies in the rows or the
    first alphas inside the probe window or beyond it, in the column table (one row), in the anti diagonals
    (one main diagonal), or, for the zero-sum column shift, in the right patterns."""
    n, far = square.rows, PROBE + 2
    pairs = [((1, 0), (2, 3)), ((far, 1), (far + 1, 2)), ((0, 1), (0, 2)), ((0, far), (0, far + 3)),
             ((0, 0), (1, 1)), ((0, far), (1, far + 1))]
    pairs += [tuple((rng.randrange(n), rng.randrange(n)) for _ in "xy") for _ in range(3)]
    for x, y in pairs:
        a = np.array(square.entries)
        a[x[0] % n, x[1] % n] += 1
        a[y[0] % n, y[1] % n] -= 1
        yield ff.Grid(a)
    shift = [rng.randrange(-9, 10) for _ in range(n - 1)]
    yield ff.Grid(square.entries + np.array(shift + [-sum(shift)]))


def record_scan_paths(monkeypatch):
    """[(property, "probe" or "table")] for each failing verdict: did the probe decide it, or the built table?"""
    paths, scan = [], properties._verdict

    def spied(name, target, a, tables):
        built = []

        def watched():
            for shape, cells, location, build in tables:
                built.append(False)
                yield shape, cells, location, lambda build=build: built.__setitem__(-1, True) or build()

        verdict = scan(name, target, a, watched())
        if not verdict.passed:
            paths.append((name, "table" if built[-1] else "probe"))
        return verdict

    monkeypatch.setattr(properties, "_verdict", spied)
    return paths


@pytest.mark.parametrize("p,k", FRANKLIN_ORDERS)
def test_probe_and_table_give_the_reference_certificate(p, k, monkeypatch):
    """Failing squares whose first failure lies inside the probe window (the first PROBE sums of a table)
    and beyond it: a later row, column, offset or direction, the anti sign. The certificate is the
    reference's whichever decides it, and also with no probe or a probe over every sum; both occur."""
    params = ff.TypeParams.for_franklin(p, k)
    n = params.n
    rng = random.Random(n)
    squares = cases(p, n)[1]
    edited = [grid for base in squares[:2] if p ** round(np.log(n) / np.log(p)) == n
              for grid in two_cell_edits(base, rng)]
    paths, decided, failing = record_scan_paths(monkeypatch), set(), set()
    for check, ref, sets, target in sum_checks(params):
        prefixed = [on_target_first(squares[-1], sets(params), target, count) for count in (PROBE - 2, PROBE + 2)]
        for grid in squares + edited + prefixed:
            expected = ref(grid, params)
            if not expected.passed:
                failing.add(expected.property_name)
            for probe in (0, n * n, PROBE):  # no probe, a probe over every sum, then the probe as it is
                monkeypatch.setattr(properties, "PROBE", probe)
                paths.clear()
                assert check(grid, params) == expected
            decided.update(paths)
    assert len(failing) == len(sum_checks(params)) - params.has_complement_sum  # its two directions share a name
    for name in failing:
        assert {path for other, path in decided if other == name} == {"probe", "table"}, name


@pytest.mark.parametrize("p,k", FRANKLIN_ORDERS)
def test_franklin_cells_match_reference(p, k):
    """Every spec: all directions, alphas and frame offsets."""
    for spec, cells in all_pattern_cells(ff.TypeParams.for_franklin(p, k)):
        assert tuple(sorted(ff.franklin_cells(spec))) == cells


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_band_sums_match_reference(p, k):
    """On a random natural square every band has its own sum, so a band folded with the wrong
    mirror shows; offsets -1 and n check the wrap."""
    params = ff.TypeParams.for_franklin(p, k)
    n = params.n
    rng = random.Random(n)
    square = random_natural_square(n, rng)
    for direction in ff.DIRECTIONS:
        for alpha in range(1, p):
            for offset in (-1, 0, 1, rng.randrange(n), n - 1, n):
                expected = ref_band_sums(square, params, alpha, offset, direction)
                assert ff.band_sums(square, params, alpha, offset, direction) == expected


def test_verdicts_pass_and_fail_across_the_cases():
    """The inputs exercise both branches of every compared check."""
    outcomes = {}
    for p, n in ALL_ORDERS:
        params, squares = cases(p, n)
        for square in squares:
            for verdict in ff.verify_all(square, params).verdicts:
                outcomes.setdefault(verdict.property_name, set()).add(verdict.passed)
    for name in (NATURAL, SEMI_MAGIC, PANDIAGONAL, COMPLEMENTARY, PXP, ONE_OVER_P_ROWS, ONE_OVER_P_COLS,
                 FRANKLIN_PATTERNS):
        assert outcomes[name] == {True, False}, name


def test_rectangular_grids_match_reference():
    rng = random.Random(77)
    for rows, cols, p in ((3, 3, 2), (5, 7, 2), (7, 6, 3), (4, 9, 3), (9, 4, 2), (6, 6, 6), (2, 5, 2)):
        grids = [
            random_window_grid(rows, cols, p, rng),
            ff.Grid([[rng.randrange(-9, 9) for _ in range(cols)] for _ in range(rows)]),
            ff.Grid([[4] * cols for _ in range(rows)]),
        ]
        if rows == cols and rows % p == 0:
            grids.append(random_toric_window_grid(rows, p, rng))
        for grid in grids:
            assert ff.check_pxp(grid, p) == ref_pxp(grid, p)
            for toric in (False, True):
                assert ff.window_sums_all_equal(grid, p, toric) == ref_window_sums_all_equal(grid, p, toric)


THETA_ORDERS = [(2, 4), (2, 12), (2, 64), (3, 9), (3, 54), (5, 50), (5, 125), (7, 49), (13, 169)]


@pytest.mark.parametrize("p,n", THETA_ORDERS, ids=[f"p{p}-n{n}" for p, n in THETA_ORDERS])
def test_theta_matches_reference(p, n):
    """θ and both one-sided variants on a natural square and on a generic grid: the same
    entries as the digit_swap reference, the input's type, C-ordered entries."""
    rng = random.Random(n)
    params = ff.TypeParams(p, n)
    grid = ff.Grid([[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)])
    for obj in (random_natural_square(n, rng), grid):
        for transform, swap_rows, swap_cols in ((ff.theta, True, True), (ff.theta_row, True, False),
                                                (ff.theta_col, False, True)):
            out = transform(obj, params)
            assert type(out) is type(obj)
            assert out.entries.flags.c_contiguous
            assert out.entries.tolist() == ref_theta(obj, params, swap_rows, swap_cols)


def ref_candidate_to_square(candidate, p, r):
    """Cell (i, j) has digit vector v (row digits, then column digits, most significant first);
    its symbol's base-p digits are matrix @ v + offset mod p, in Python ints."""
    n = p**r

    def digits(x):
        return [(x // p ** (r - 1 - d)) % p for d in range(r)]

    def symbol(v):
        value = 0
        for row, b in zip(candidate.matrix, candidate.offset):
            value = value * p + (sum(x * y for x, y in zip(row, v)) + b) % p
        return value

    return [[symbol(digits(i) + digits(j)) for j in range(n)] for i in range(n)]


def per_digit_modulo_square(candidate, p, r):
    """The digit map as 2r int64 passes of outer add and % p over the n^2 cells: the numpy form
    that the carry form replaced, kept as a second reference at orders too large for Python ints."""
    m = np.asarray(candidate.matrix, dtype=np.int64) % p
    b = np.asarray(candidate.offset, dtype=np.int64) % p
    n = p**r
    idx = np.arange(n)
    digits = np.stack([(idx // p ** (r - 1 - d)) % p for d in range(r)])
    row_part, col_part = m[:, :r] @ digits, m[:, r:] @ digits
    out = np.zeros((n, n), dtype=np.int64)
    for d in range(2 * r):
        out *= p
        out += np.add.outer(row_part[d] + b[d], col_part[d]) % p
    return out


def random_unreduced_candidate(p, r, rng):
    """A candidate invertible mod p whose matrix and offset entries run from -2p to 3p - 1."""
    size = 2 * r
    while True:
        matrix = [[rng.randrange(-2 * p, 3 * p) for _ in range(size)] for _ in range(size)]
        if ff.construct.is_invertible_mod(np.array(matrix), p):
            return ff.DigitLinearCandidate.of(matrix, [rng.randrange(-2 * p, 3 * p) for _ in range(size)])


DIGIT_MAP_ORDERS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,r", DIGIT_MAP_ORDERS, ids=[f"p{p}-r{r}" for p, r in DIGIT_MAP_ORDERS])
def test_digit_map_matches_reference(p, r):
    """Unreduced random invertible candidates (negative entries and entries >= p) and the
    closed form: the same cells as the Python-int digit map."""
    rng = random.Random(100 * p + r)
    candidates = [random_unreduced_candidate(p, r, rng) for _ in range(3)]
    candidates.append(ff.construct.closed_form_candidate(p, r, rng.randrange(p ** (2 * r))))
    for candidate in candidates:
        square = ff.candidate_to_square(candidate, p, r)
        assert square.entries.dtype == np.int64
        assert square.entries.tolist() == ref_candidate_to_square(candidate, p, r)


def test_digit_map_matches_per_digit_modulo_at_the_widest_carry():
    """(53, 2) has the largest p^(2r) of any order up to 3000, so the largest carry."""
    p, r = 53, 2
    rng = random.Random(53)
    for candidate in (ff.construct.closed_form_candidate(p, r, rng.randrange(p**4)),
                      random_unreduced_candidate(p, r, rng)):
        expected = per_digit_modulo_square(candidate, p, r)
        assert np.array_equal(ff.candidate_to_square(candidate, p, r).entries, expected)


def ref_window_sum_set(rows, p, toric, modulus=None):
    """Python-int sums of every p x p window of the lists rows, each reduced mod modulus if given."""
    height, width = len(rows), len(rows[0])
    last_i, last_j = (height, width) if toric else (height - p + 1, width - p + 1)
    sums = (
        sum(rows[(i + dr) % height][(j + dc) % width] for dr in range(p) for dc in range(p))
        for i in range(last_i)
        for j in range(last_j)
    )
    return {s % modulus if modulus else s for s in sums}


def test_window_sums_wrap_modulo_2_64_on_raw_int64():
    """Entries near 2^62 make every prefix sum wrap; window sums are compared modulo 2^64."""
    rng = random.Random(62)
    big = 2**62
    arrays = []
    for rows, cols, p in ((5, 7, 2), (6, 6, 3), (4, 9, 2)):
        window = random_window_grid(rows, cols, p, rng).entries + big
        bumped = window.copy()
        bumped[rows // 2, cols // 2] += 1
        noise = np.array([[big + rng.randrange(-9, 9) for _ in range(cols)] for _ in range(rows)])
        arrays += [window, bumped, noise]
    arrays.append(random_toric_window_grid(6, 2, rng).entries + big)
    # window (0, 0) sums to 2^64 less than window (0, 1): unequal as integers, equal modulo 2^64
    arrays.append(np.array([[-big, 0, big], [-big, 0, big]], dtype=np.int64))
    assert len(ref_window_sum_set(arrays[-1].tolist(), 2, False)) == 2
    outcomes = set()
    for a in arrays:
        for p in [q for q in (2, 3) if q <= min(a.shape)]:
            for toric in (False, True):
                expected = len(ref_window_sum_set(a.tolist(), p, toric, 2**64)) == 1
                assert ff.window_sums_all_equal(a, p, toric) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_window_sums_of_narrow_arrays_do_not_wrap_at_the_input_width(dtype):
    """Two windows 256 apart: equal if the prefix were summed in the input's 8 bits."""
    edge = -128 if dtype == np.int8 else 128
    column = 0 if dtype == np.int8 else 2
    pair = np.zeros((2, 3), dtype=dtype)
    pair[:, column] = edge
    rng = np.random.default_rng(8)
    info = np.iinfo(dtype)
    arrays = [pair, np.full((4, 5), info.max, dtype=dtype),
              rng.integers(info.min, info.max, size=(5, 7), endpoint=True, dtype=dtype)]
    for a in arrays:
        for toric in (False, True):
            expected = len(ref_window_sum_set(a.tolist(), 2, toric)) == 1
            assert ff.window_sums_all_equal(a, 2, toric) == expected
    assert not ff.window_sums_all_equal(pair, 2)


def test_window_sums_at_the_smallest_shapes():
    """Width equal to the row count (one row of non-toric windows) and a one-row grid with
    width 1, toric and not."""
    rng = random.Random(3)
    grids = [
        random_window_grid(3, 5, 3, rng),
        ff.Grid([[rng.randrange(-9, 9) for _ in range(5)] for _ in range(3)]),
        ff.Grid([[rng.randrange(-9, 9) for _ in range(5)] for _ in range(2)]),
        ff.Grid([[4, 4, 4, 4]]),
        ff.Grid([[4, 4, 5, 4]]),
        ff.Grid([[7]]),
    ]
    for grid in grids:
        p = grid.rows
        for toric in (False, True):
            expected = len(ref_window_sum_set(grid.entries.tolist(), p, toric)) == 1
            assert ff.window_sums_all_equal(grid, p, toric) == expected
        assert ff.check_pxp(grid, p) == ref_pxp(grid, p)


def decision_halves(rows, p):
    """The two halves of check_pxp's decision, by brute force on the lists rows, with V(i, j) the p
    cells down from (i, j): (every W(i, 0) the same, V(i, j + p) == V(i, j) for j < cols - p, and
    the same for the wrapped j >= cols - p)."""
    height, width = len(rows), len(rows[0])
    v = [[sum(rows[(i + t) % height][j] for t in range(p)) for j in range(width)] for i in range(height)]
    same_first = len({sum(line[:p]) for line in v}) == 1
    inner = all(line[j + p] == line[j] for line in v for j in range(width - p))
    wrapped = all(line[(j + p) % width] == line[j] for line in v for j in range(width - p, width))
    return same_first, inner, wrapped


def half_defect_grids(rng):
    """(grid, p, halves): toric window grids c + F(i mod p, j) + H(i, j mod p) (F zero-sum down each
    column, H along each row) plus g(i), whose windows are constant along each row but differ
    between rows; the same form with p dividing the rows but not the columns, whose defect only
    the wrapped-column compare sees; and generic grids with p rows or p columns."""
    def toric_form(height, width, p):
        f = np.array([[rng.randrange(-20, 21) for _ in range(width)] for _ in range(p)])
        f[-1] = -f[:-1].sum(axis=0)
        h = np.array([[rng.randrange(-20, 21) for _ in range(p)] for _ in range(height)])
        h[:, -1] = -h[:, :-1].sum(axis=1)
        i, j = np.ogrid[:height, :width]
        return 40 * p + f[i % p, j] + h[i, j % p]

    out = []
    for n, p in ((4, 2), (6, 2), (6, 3), (9, 3), (10, 5), (5, 2), (7, 3)):
        g = np.array([rng.randrange(-30, 31) for _ in range(n)])[:, None]
        out.append((ff.Grid(toric_form(n, n, p) * (n % p == 0) + g), p, (False, True, True)))
    for height, width, p in ((4, 5, 2), (6, 7, 2), (6, 7, 3), (6, 11, 3), (10, 7, 5), (2, 3, 2)):
        out.append((ff.Grid(toric_form(height, width, p)), p, (True, True, False)))
    for height, width, p in ((2, 5, 2), (3, 7, 3), (5, 2, 2), (7, 3, 3), (3, 3, 3), (2, 2, 2)):
        out.append((ff.Grid([[rng.randrange(-9, 10) for _ in range(width)] for _ in range(height)]), p, None))
        out.append((random_window_grid(height, width, p, rng), p, None))
    return out


def test_pxp_decision_halves_match_reference():
    """Each input fails the half of the decision it is built to fail, and only that one; the
    verdict and witness are the brute-force reference's, in the bare-p mode and, where the
    order allows, with TypeParams, and window_sums_all_equal agrees."""
    seen = set()
    for grid, p, halves in half_defect_grids(random.Random(16)):
        rows = grid.entries.tolist()
        found = decision_halves(rows, p)
        if halves is not None:
            assert found == halves, (grid.entries.shape, p)
        seen.add(found)
        modes = [p]
        if grid.rows == grid.cols and grid.rows % p == 0:
            modes.append(ff.TypeParams(p, grid.rows))
        for mode in modes:
            assert ff.check_pxp(grid, mode) == ref_pxp(grid, mode)
        for toric in (False, True):
            assert ff.window_sums_all_equal(grid, p, toric) == ref_window_sums_all_equal(grid, p, toric)
    assert {(False, True, True), (True, True, False), (True, True, True)} <= seen
