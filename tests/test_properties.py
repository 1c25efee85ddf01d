import gc
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import franklin_forge as ff
from franklin_forge import properties
from franklin_forge.properties import (
    COMPLEMENTARY,
    FRANKLIN_PATTERNS,
    NATURAL,
    ONE_OVER_P_COLS,
    ONE_OVER_P_ROWS,
    PANDIAGONAL,
    PXP,
    SEMI_MAGIC,
)
from franklin_forge.patterns import split_rows

from conftest import (
    READING_ORDER_8,
    random_cross_identity_grid,
    random_natural_square,
    random_toric_window_grid,
    random_window_grid,
)


def record_views(monkeypatch):
    """[shape] of each array that properties builds with np.ndarray(...): the strided views of the Franklin passes."""
    shapes = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def ndarray(shape, *args):
            shapes.append(shape)
            return np.ndarray(shape, *args)

    monkeypatch.setattr(properties, "np", Numpy())
    return shapes


def reading_order_square(n):
    return ff.NaturalSquare([[n * i + j for j in range(n)] for i in range(n)])


def count_calls(monkeypatch, name, *modules):
    """Record the calls to function `name`, bound under that name in each of modules."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestSemiMagic:
    def test_figure1_passes(self, fig1):
        assert ff.check_semi_magic(*fig1).passed

    def test_order27_passes(self, f27):
        assert ff.check_semi_magic(*f27).passed

    def test_forced_counterexample_names_row0(self):
        square = ff.NaturalSquare([[0, 1], [2, 3]])
        verdict = ff.check_semi_magic(square, ff.TypeParams(2, 2))
        assert not verdict.passed
        assert verdict.witness.location == "row 0"
        assert verdict.witness.expected == 3 and verdict.witness.actual == 1

    def test_order_mismatch_raises(self, fig1):
        square, _ = fig1
        with pytest.raises(ValueError):
            ff.check_semi_magic(square, ff.TypeParams(2, 16))
        with pytest.raises(ValueError, match="does not match params order 8"):
            ff.check_pxp(ff.Grid(np.zeros((4, 4), dtype=np.int64)), ff.TypeParams(2, 8))


class TestPandiagonal:
    def test_mp8_passes(self, mp8):
        assert ff.check_pandiagonal(*mp8).passed

    def test_figure1_fails_on_main_diagonal(self, fig1):
        verdict = ff.check_pandiagonal(*fig1)
        assert not verdict.passed
        w = verdict.witness
        assert w.location == "main diagonal, offset 0"
        assert (w.expected, w.actual) == (252, 220)

    def test_order2_failures(self):
        # an order-2 arrangement whose diagonal pairs are not {0,3} and {1,2}
        square = ff.NaturalSquare([[0, 1], [3, 2]])
        assert not ff.check_pandiagonal(square, ff.TypeParams(2, 2)).passed
        # no order-2 square is pandiagonal magic: rows always break
        report = ff.verify_all(reading_order_square(2), ff.TypeParams(2, 2))
        assert report.classification == "none"


class TestDiagonalFold:
    """_diagonal_sums folds slabs of rows and _broken_diagonals sums windows of a doubled band; both are
    compared with the defining sums themselves."""

    @staticmethod
    def reference_table(a, count, sign):
        """D[i][j] = sum over t < count of a[i + t*m][j + sign*t*m], m = n/count, in Python ints."""
        rows, n = a.tolist(), len(a)
        m = n // count
        return [[sum(rows[(i + t * m) % n][(j + sign * t * m) % n] for t in range(count)) for j in range(n)]
                for i in range(m)]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 74, 300])
    def test_broken_diagonals_match_the_defining_sums(self, n):
        """Row 0 holds sum_i a[i, (j + i) % n] and row 1 sum_i a[i, (j - i) % n], on natural and generic
        int64 grids with negative entries. At n = 300 the walker's bands hold 110, 110 and 80 rows."""
        rng = random.Random(300 + n)
        natural = random_natural_square(n, rng).entries
        generic = np.array([[rng.randrange(-10**9, 10**9) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if n == 300:
            assert [len(band) for _, band in properties._bands(natural, 1, 0, n, False)] == [110, 110, 80]
        for a in (natural, generic):
            rows = a.tolist()
            sums = properties._broken_diagonals(a)
            assert sums.dtype == np.int64 and sums.shape == (2, n)
            assert sums.tolist() == [[sum(rows[i][(j + sign * i) % n] for i in range(n)) for j in range(n)]
                                     for sign in (1, -1)]

    @pytest.mark.parametrize("n", [1, 7, 12, 30, 74])
    def test_table_matches_brute_force_for_every_count(self, n):
        """Every count dividing n, both signs: one level where count is prime (7, 37), two where
        it has a cofactor (74 = 2*37), three distinct primes at 30."""
        rng = random.Random(n)
        natural = random_natural_square(n, rng).entries
        generic = np.array([[rng.randrange(-10**9, 10**9) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        for a in (natural, generic):
            for count in (c for c in range(1, n + 1) if n % c == 0):
                for sign in (1, -1):
                    shape, cells, location, build = properties._diagonal_sums(a, count, sign, "({i}, {j})")
                    table = build()
                    assert table.dtype == np.int64 and table.shape == shape == (n // count, n)
                    assert table.tolist() == self.reference_table(a, count, sign)
                    i, j = rng.randrange(n // count), rng.randrange(n)
                    assert location(i=i, j=j) == f"({i}, {j})"
                    m = n // count
                    defining = sorted(((i + t * m) % n, (j + sign * t * m) % n) for t in range(count))
                    probed = cells(np.array([i, 0]), np.array([j, 0]))  # the probe's cells, the witness's too
                    assert sorted(divmod(x, n) for x in probed[0].tolist()) == defining
                    assert a.take(probed).sum(axis=-1).tolist() == [table[i, j], table[0, 0]]

    @pytest.mark.parametrize("p, r", [(3, 6), (7, 3), (2, 5), (5, 2)])
    def test_slab_adds_per_check(self, p, r, monkeypatch):
        """The 2n broken diagonals take one _broken_diagonals pass, which serves both directions, and no
        shift-add; the p-sets take p slab adds of n/p rows: not one shift-add per row."""
        params = ff.TypeParams.for_power(p, r)
        square = ff.generate_most_perfect(ff.GeneratorConfig(p, r))
        calls = count_calls(monkeypatch, "_shift_add", ff.properties)
        passes = count_calls(monkeypatch, "_broken_diagonals", ff.properties)
        assert ff.check_pandiagonal(square, params).passed
        assert len(calls) == 0 and len(passes) == 1
        assert ff.check_complementary(square, params).passed
        assert len(calls) == p and len(passes) == 1
        assert {acc.shape for acc, _, _ in calls} == {(params.n // p, params.n)}


class TestBands:
    """_bands yields every line of the square once, in order, in bands of whole groups, each band a view of one reused
    buffer whose rows are the lines wrapped as np.pad wraps them."""

    @pytest.mark.parametrize("columns", [False, True], ids=["rows", "columns"])
    @pytest.mark.parametrize("p, n", [(3, 27), (2, 40)])
    def test_bands_are_the_wrapped_lines(self, p, n, columns, monkeypatch):
        """Groups of 1 and p lines, margins (0, n) as the broken diagonals take them and (n/p - 1, n/p - 1) as the
        Franklin passes do. BAND_CELLS makes each band 2 or 3 groups, so the last band is partial."""
        a = np.random.default_rng(n).integers(-10**9, 10**9, (n, n))
        lines = a.T if columns else a
        for group in (1, p):
            for left, right in ((0, n), (n // p - 1, n // p - 1)):
                per_band = 2 if n // group % 2 else 3
                assert n // group % per_band  # a partial last band
                width = left + n + right
                monkeypatch.setattr(properties, "BAND_CELLS", per_band * group * width - 1)
                expected = np.pad(lines, ((0, 0), (left, right)), mode="wrap")
                tops, buffers, size = [], [], per_band * group
                for top, band in properties._bands(a, group, left, right, columns):
                    assert band.shape == (min(size, n - top), width)
                    assert np.array_equal(band, expected[top : top + len(band)])
                    tops.append(top)
                    buffers.append(band.base)
                assert tops == list(range(0, n, size)) and n - tops[-1] < size
                assert all(buffer is buffers[0] for buffer in buffers)


class TestComplementary:
    def test_mp8_target63(self, mp8):
        square, params = mp8
        assert params.complement_sum == 63
        assert int(square.entries[0, 0]) + int(square.entries[4, 4]) == 63
        assert ff.check_complementary(square, params).passed

    def test_mp9_target120(self, mp9):
        square, params = mp9
        assert params.complement_sum == 120
        triple = sum(int(square.entries[3 * t, 3 * t]) for t in range(3))
        assert triple == 120
        assert ff.check_complementary(square, params).passed

    def test_reading_order_fails(self):
        verdict = ff.check_complementary(reading_order_square(9), ff.TypeParams(3, 9))
        assert not verdict.passed
        # brute-force the reported p-set
        square = reading_order_square(9)
        w = verdict.witness
        assert sum(int(square.entries[r, c]) for r, c in w.cells) == w.actual != w.expected

    def test_anti_diagonal_diagnostic(self, mp8, mp9):
        for square, params in (mp8, mp9):
            assert ff.check_complementary(square, params, direction="anti").passed


class TestPxp:
    def test_mp8_window_sum(self, mp8):
        square, params = mp8
        assert params.pxp_sum == 126
        assert square.entries[0:2, 0:2].sum() == 126  # 0+31+59+36
        assert ff.check_pxp(square, params).passed

    def test_order27_every_window_3276(self, f27):
        square, params = f27
        assert params.pxp_sum == 3276
        # spot-check one window against the pinned formula value
        assert square.entries[0:3, 0:3].sum() == 3276
        assert ff.check_pxp(square, params).passed

    def test_constant_grid_passes_generic_mode(self):
        verdict = ff.check_pxp(ff.Grid([[5, 5], [5, 5]]), 2)
        assert verdict.passed

    def test_generic_mode_compares_windows_only(self):
        # toric equal-window grids pass the generic check with no pinned target
        from conftest import random_toric_window_grid

        rng = random.Random(5)
        grid = random_toric_window_grid(8, 2, rng)
        assert ff.check_pxp(grid, 2).passed
        # the contiguous (non-toric) property alone is checked by the helper
        contiguous = random_window_grid(5, 5, 2, rng)
        assert ff.window_sums_all_equal(contiguous, 2)
        assert not ff.window_sums_all_equal(contiguous, 2, toric=True)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="smaller than window size 2"):
            ff.check_pxp(ff.Grid([[1, 2]]), 2)
        grid = ff.Grid([[1, 2], [3, 4]])
        for width in (0, -1):  # one size check, in _first_failing_row, for every caller
            with pytest.raises(ValueError, match=f"window size {width} is not positive"):
                ff.check_pxp(grid, width)
            for toric in (False, True):
                with pytest.raises(ValueError, match="not positive"):
                    ff.window_sums_all_equal(grid, width, toric)

    def test_passing_grids_take_one_vertical_pass(self, monkeypatch):
        """A grid is decided by one _first_failing_row scan, and a failing one is witnessed from the
        vertical sums that scan returns: one scan whether the windows all share one sum or not."""
        rng = random.Random(9)
        cases = []
        for p, r in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
            params = ff.TypeParams.for_power(p, r)
            square = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed=rng.randrange(p ** (2 * r))))
            cases += [(square, params, True), (ff.Grid(square), p, True)]
            if r >= 3:  # θ of a most-perfect square is Franklin, windows included
                cases.append((ff.theta(square, params), params, True))
            swapped = square.entries.copy()
            swapped[[0, 1], [0, 1]] = swapped[[1, 0], [1, 0]]
            cases += [(ff.NaturalSquare(swapped), params, False), (ff.Grid(swapped), p, False)]
        cases += [(random_toric_window_grid(n, p, rng), p, True) for n, p in ((6, 2), (9, 3), (10, 5))]
        cases.append((reading_order_square(4), ff.TypeParams(2, 4), False))
        calls = count_calls(monkeypatch, "_first_failing_row", properties)
        for grid, params, passes in cases:
            calls.clear()
            assert ff.check_pxp(grid, params).passed == passes
            assert len(calls) == 1

    def test_bands_read_their_rows_and_the_rows_width_below(self, monkeypatch):
        """After W(i, 0) (the first width columns) and row 0's windows (the first width rows), each band of
        ceil(BAND_CELLS / cols) rows, fewer than width in the 16-column case, reads its rows and the rows width below
        them as slices of a; the rows below past the last row, which toric windows wrap to, are a slice of its top.
        Nothing else is read, no take, and no row more than twice. Bands of BAND_CELLS = 64 cells here."""
        reads = []  # the rows of each slice of a, and its columns

        class Logged(np.ndarray):
            def __getitem__(self, key):
                rows, cols = key if isinstance(key, tuple) else (key, slice(None))
                reads.append((list(range(len(self))[rows]), cols))
                return np.asarray(self)[key]

            def take(self, indices, axis=None):
                raise AssertionError("a passing scan takes no rows")

        monkeypatch.setattr(properties, "BAND_CELLS", 64)
        rng = random.Random(64)
        for rows, cols, width in ((24, 9, 3), (40, 16, 5), (21, 9, 1), (22, 9, 2)):
            band = -(-64 // cols)
            assert (band < width) == (cols == 16)
            a = self.row_periodic_grid(rows, cols, width, rng)
            for toric in (False, True):
                reads.clear()
                assert properties._first_failing_row(a.view(Logged), width, toric, 30 * width * width) is None
                assert reads[:2] == [(list(range(rows)), slice(None, width)), (list(range(width)), slice(None))]
                whole = reads[2:]  # a subtract's rows below, then its own rows, for each subtract
                assert all(columns == slice(None) for _, columns in whole)
                pairs = [(below, upper) for (below, _), (upper, _) in zip(whole[::2], whole[1::2]) if upper]
                assert all(below == [(r + width) % rows for r in upper] for below, upper in pairs)
                last = rows - 1 if toric else rows - width  # F rows 0..last - 1 decide top rows 1..last
                bands = [range(lo, min(lo + band, last)) for lo in range(0, last, band)]
                pieces = [[r for r in rows_ if (r + width < rows) == inside]  # read below in a, then wrapped
                          for rows_ in bands for inside in (True, False)]
                assert [upper for _, upper in pairs] == [piece for piece in pieces if piece]
                assert max(Counter(r for rows_, _ in whole for r in rows_).values()) <= 2

    @staticmethod
    def first_failing_top_row(rows, width, toric, target):
        """The first top row with a width x width window that misses target, and its vertical sums,
        by brute force on the lists rows; None when every window hits target."""
        height, cols = len(rows), len(rows[0])
        tops, lefts = (height, cols) if toric else (height - width + 1, cols - width + 1)
        for i in range(tops):
            v = [sum(rows[(i + t) % height][j] for t in range(width)) for j in range(cols)]
            if any(sum(v[(j + s) % cols] for s in range(width)) != target for j in range(lefts)):
                return i, v
        return None

    def test_first_failing_row_matches_reference_at_band_edges(self, monkeypatch):
        """c + P(i mod w, j) grids with one or two edits, toric and not, rectangular, w in {1, 2, 3, 5}, in bands of
        ceil(BAND_CELLS / cols) rows with BAND_CELLS = 64, so 4-row bands at width 5 with 16 columns. An edit in row r
        first shows in the F row r - w that reads it from below. The first failing row comes from W(i, 0) (a whole
        row raised), from row 0's windows (a +1, -1 pair in row w - 1), from the last F row of a band or the first of
        the next (a pair in row band - 1 + w or band + w), from a pair in a band's last or first row, from the last
        band (a pair in the last row), from an F row alone in the last band before a W(i, 0) failure, from the last
        lag compare of a full band (a +1 in the last column, compared w columns back) and, with w not dividing the
        rows and P zero on the first w columns, from the wrap rows alone. The verdict is ref_pxp's and
        window_sums_all_equal ref_window_sums_all_equal's."""
        from test_reference import ref_pxp, ref_window_sums_all_equal

        monkeypatch.setattr(properties, "BAND_CELLS", 64)
        rng = random.Random(24)
        cases = []  # (grid, width, first failing toric top row)
        for rows, cols, width in ((20, 9, 1), (24, 9, 2), (21, 10, 3), (25, 16, 5), (30, 7, 5)):
            band = -(-64 // cols)
            assert rows > 2 * band + width + 1
            pair = [0] * width + [1, -1] + [0] * (cols - width - 2)
            edits = [([(band + 1, [1] * cols)], band + 2 - width)]  # ([(row, its +1/-1 entries)], the row that fails)
            for row in (width - 1, band - 1 + width, band + width, band - 1, band, rows - 1):
                edits.append(([(row, pair)], max(row - width + 1, 0)))
            alone = 2 * band  # F row alone in the last band that the W(i, 0) failure at top row alone + 2 leaves
            edits.append(([(alone + width, pair), (alone + width + 1, [1] + [0] * (cols - 1))], alone + 1))
            end = 2 * band - 1 + width  # F row 2 band - 1, the last of band 1, differs only in its last column
            edits.append(([(end, [0] * (cols - 1) + [1])], end - width + 1))
            for changes, found in edits:
                grid = self.row_periodic_grid(rows, cols, width, rng)
                for row, change in changes:
                    grid[row] += change
                cases.append((grid, width, found))
            if width > 1:
                wrapped = self.row_periodic_grid(rows * width + 1, cols, width, rng)
                wrapped[:, :width] = 30
                cases.append((wrapped, width, rows * width + 2 - width))
        for grid, width, found in cases:
            target, lists = width * width * 30, grid.tolist()
            for toric in (False, True):
                expected = self.first_failing_top_row(lists, width, toric, target)
                if toric:
                    assert expected[0] == found
                got = properties._first_failing_row(grid, width, toric, target)
                assert (got is None) == (expected is None)
                if got is not None:
                    assert (got[0], got[1].tolist()) == expected
                reference = ref_window_sums_all_equal(ff.Grid(grid), width, toric)
                assert ff.window_sums_all_equal(grid, width, toric) == reference
            verdict = ff.check_pxp(ff.Grid(grid), width)
            assert verdict == ref_pxp(ff.Grid(grid), width)

    def test_window_wider_than_a_band(self):
        """4096 columns make a band of BAND_CELLS cells 16 rows, fewer than width 17, so each band reads its rows
        below from the bands after it: a +1, -1 pair in row 17 first changes F row 0, read in band 0 from row 17 of
        band 1, and fails top row 1."""
        from test_reference import ref_pxp

        rng = random.Random(17)
        assert -(-properties.BAND_CELLS // 4096) == 16
        grid = self.row_periodic_grid(51, 4096, 17, rng)
        assert ff.check_pxp(ff.Grid(grid), 17).passed
        for toric in (False, True):
            assert ff.window_sums_all_equal(grid, 17, toric)
        grid[17, [40, 41]] += [1, -1]
        verdict = ff.check_pxp(ff.Grid(grid), 17)
        assert verdict == ref_pxp(ff.Grid(grid), 17)
        assert verdict.witness.location == "window at (1, 24)"
        assert properties._first_failing_row(grid, 17, False, 17 * 17 * 30)[0] == 1

    def test_failing_grid_peaks_no_higher_than_a_passing_one(self):
        """The witness needs one row of windows, not a window table: a failing check_pxp allocates
        no more at its peak than a passing one of the same order. At n = 729 the scan takes 9 bands,
        and a passing one holds one band of F rows and its bool lag flags at once, never an n^2 array."""
        params = ff.TypeParams.for_power(3, 6)
        square = ff.generate_most_perfect(ff.GeneratorConfig(3, 6))
        swapped = square.entries.copy()
        swapped[[0, 0], [0, 1]] = swapped[[0, 0], [1, 0]]
        failing = ff.NaturalSquare(swapped)
        peaks = {True: [], False: []}
        gc.disable()  # a collection inside a call would free memory held before it and lower its peak
        tracemalloc.start()
        try:
            for grid, passes in ((square, True), (failing, False)) * 4:
                gc.collect()
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                assert ff.check_pxp(grid, params).passed == passes
                peaks[passes].append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
            gc.enable()
        passing, failing = min(peaks[True][1:]), min(peaks[False][1:])  # the warm rounds
        n, p = params.n, params.p
        band_bytes = (-(-properties.BAND_CELLS // n) + p - 1) * n * 8  # at most a band of F and its flags
        assert band_bytes <= passing <= 4 * band_bytes < n * n * 8  # a band's prefix is traced
        assert failing <= passing

    @staticmethod
    def row_periodic_grid(rows, cols, p, rng):
        """c + P(i mod p, j), P zero-sum down each column: every toric p x p window sums to p^2 c,
        whatever cols is, once p divides rows."""
        f = np.array([[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(p)])
        f[-1] = -f[:-1].sum(axis=0)
        return 30 + f[np.arange(rows) % p]

    def test_first_failing_window_matches_reference(self):
        """The witness is the first failing window of the first failing row, as ref_pxp finds it by
        brute force, in the typed and the bare-p mode: at j = 0, in a row after a passing row, only
        at the wrap (j = cols - 1), and on rectangular grids."""
        from test_reference import ref_pxp

        rng = random.Random(17)
        cases = []  # (grid, mode, location of the first failing window)
        for p, r in ((2, 3), (3, 2), (5, 2)):
            params = ff.TypeParams.for_power(p, r)
            mp = ff.generate_most_perfect(ff.GeneratorConfig(p, r, seed=rng.randrange(p ** (2 * r))))
            for (r0, c0), found in (((0, 0), (0, 0)), ((p, 0), (1, 0))):  # (1, 0) follows a passing row 0
                swapped = mp.entries.copy()
                swapped[[r0, 2 * p], [c0, p]] = swapped[[2 * p, r0], [p, c0]]
                cases += [(ff.NaturalSquare(swapped), params, found), (ff.Grid(swapped), params, None),
                          (ff.Grid(swapped), p, found if found != (0, 0) else (0, 1))]
        for rows, cols, p in ((4, 6, 2), (6, 9, 3), (9, 6, 3), (10, 5, 5)):
            bumped = self.row_periodic_grid(rows, cols, p, rng)
            bumped[p, 0] += 1
            cases.append((ff.Grid(bumped), p, (1, 0)))
        # With p dividing cols a row's vertical sums repeat with period p once its unwrapped steps
        # vanish, so only a grid whose width p does not divide can fail at the wrap alone. With
        # cols = 1 mod p, adding d(j) = 1, or 1 - p where j = p - 1 mod p, to one row changes the
        # window at cols - 1 of the rows that meet it, and no other window.
        for rows, cols, p in ((4, 5, 2), (6, 3, 2), (6, 7, 3), (3, 4, 3), (10, 11, 5), (2, 9, 2)):
            d = np.array([1 - p if j % p == p - 1 else 1 for j in range(cols)])
            for r0, found in ((0, (0, cols - 1)), (rows - 1, (rows - p, cols - 1))):
                grid = self.row_periodic_grid(rows, cols, p, rng)
                grid[r0] += d
                cases.append((ff.Grid(grid), p, found))
        for grid, mode, found in cases:
            verdict = ff.check_pxp(grid, mode)
            assert verdict == ref_pxp(grid, mode)
            if found is not None:
                assert verdict.witness.location == "window at ({}, {})".format(*found)

    def test_band_edges_match_reference(self):
        """check_pxp and window_sums_all_equal scan F rows in bands of about BAND_CELLS cells, each band read
        from a's rows and the rows p below them. At n = 729 (p = 3, bands of 90 rows) a swap of columns 0 and 3
        in row t + 2 first fails the windows at top row t, whose W(t, 0) misses, near the end of band 0: t = 89
        (a NaturalSquare, pinned target) and 90 (a plain Grid, bare p, target W(0, 0)). On 128-column grids
        (p = 2, bands of 512 rows), c + P(i mod 2, j) with a bump in row t + 1 fails first at top row t = 511 or
        512, found by F row 510 or 511 of band 0, which read rows 512 and 513 of band 1; with 515 rows it fails
        first at the wrapped top row 514, found by F row 513 of the last band, which reads row 0 below it, and
        passes without the wrap."""
        from test_reference import ref_pxp, ref_window_sums_all_equal

        params = ff.TypeParams.for_power(3, 6)
        assert -(-properties.BAND_CELLS // params.n) == 90
        mp = ff.generate_most_perfect(ff.GeneratorConfig(3, 6, seed=11))
        for top, wrap in ((89, ff.NaturalSquare), (90, ff.Grid)):
            swapped = mp.entries.copy()
            swapped[[top + 2, top + 2], [0, 3]] = swapped[[top + 2, top + 2], [3, 0]]
            grid, mode = wrap(swapped), params if wrap is ff.NaturalSquare else 3
            verdict = ff.check_pxp(grid, mode)
            assert verdict == ref_pxp(grid, mode)
            assert verdict.witness.location.startswith(f"window at ({top}, ")
        rng = random.Random(128)
        assert -(-properties.BAND_CELLS // 128) == 512
        cases = []  # (grid, first failing top row of the toric windows, the non-toric verdict)
        for top in (511, 512):
            bumped = self.row_periodic_grid(514, 128, 2, rng)
            bumped[top + 1, 7] += 1
            cases.append((ff.Grid(bumped), top, False))
        cases += [(ff.Grid(self.row_periodic_grid(514, 128, 2, rng)), None, True),
                  (ff.Grid(self.row_periodic_grid(515, 128, 2, rng)), 514, True)]
        for grid, top, contiguous in cases:
            verdict = ff.check_pxp(grid, 2)
            assert verdict == ref_pxp(grid, 2)
            assert verdict.passed == (top is None)
            if top is not None:
                assert verdict.witness.location.startswith(f"window at ({top}, ")
            assert ff.window_sums_all_equal(grid, 2, toric=True) == verdict.passed
            assert ff.window_sums_all_equal(grid, 2) == contiguous
        for grid, _, _ in cases[1:]:
            for toric in (False, True):
                assert ff.window_sums_all_equal(grid, 2, toric) == ref_window_sums_all_equal(grid, 2, toric)

    def test_natural_square_pinned_to_formula(self):
        # natural square whose windows are equal but is not symbol-complete
        # cannot arise; instead check a failing natural square reports the target
        verdict = ff.check_pxp(reading_order_square(4), ff.TypeParams(2, 4))
        assert not verdict.passed
        assert verdict.witness.expected == ff.TypeParams(2, 4).pxp_sum


class TestOneOverP:
    def test_figure1_half_rows(self, fig1):
        square, params = fig1
        assert params.segment_sum == 126
        assert square.entries[0, 0:4].sum() == 126  # 51+60+3+12
        assert ff.check_one_over_p(square, params, "rows").passed
        assert ff.check_one_over_p(square, params, "cols").passed

    def test_order27_column4_third_segment(self, f27):
        square, params = f27
        assert params.segment_sum == 3276
        assert square.entries[18:27, 4].sum() == 3276
        assert ff.check_one_over_p(square, params, "cols").passed

    def test_failure_names_line_and_segment(self):
        verdict = ff.check_one_over_p(reading_order_square(4), ff.TypeParams(2, 4), "rows")
        assert not verdict.passed
        assert verdict.witness.location.startswith("row 0, segment 0")

    def test_axis_validation(self, fig1):
        with pytest.raises(ValueError):
            ff.check_one_over_p(*fig1, axis="diagonals")


class TestFranklinPatterns:
    def test_figure1_all_32_patterns(self, fig1):
        assert ff.check_franklin_patterns(*fig1).passed

    def test_order27_strong_definition(self, f27):
        assert ff.check_franklin_patterns(*f27).passed

    def test_up_alpha1_offset2_is_the_boxed_pattern(self, f27):
        square, params = f27
        spec = ff.PatternSpec("up", 1, 2, params)
        total = sum(int(square.entries[r, c]) for r, c in ff.franklin_cells(spec))
        assert total == 9828

    def test_untransformed_most_perfect_square_fails(self, mp8):
        square, params = mp8
        verdict = ff.check_franklin_patterns(square, params)
        assert not verdict.passed
        w = verdict.witness
        # independent re-evaluation of the witnessed pattern
        assert sum(int(square.entries[r, c]) for r, c in w.cells) == w.actual != 252

    def test_alpha_restriction_controls_enumeration(self, f27):
        square, params = f27
        grid27 = ff.theta(square, params)  # most-perfect preimage, fails patterns
        verdict = ff.check_franklin_patterns(grid27, params, alphas=(2,))
        assert not verdict.passed
        assert "alpha=2" in verdict.witness.location

    def test_empty_alpha_selection_raises(self):
        mp = ff.generate_most_perfect(ff.GeneratorConfig(2, 3))
        params = ff.TypeParams.for_power(2, 3)
        assert not ff.check_franklin_patterns(mp, params).passed
        with pytest.raises(ValueError, match="empty"):
            ff.check_franklin_patterns(mp, params, alphas=())
        with pytest.raises(ValueError, match="empty"):
            ff.verify_all(mp, params, franklin_alphas=())

    def test_alpha_selection_checked_at_every_order(self, mp9):
        """verify_all refuses a bad alpha or an empty selection with the same message at an order
        without Franklin patterns as at one with them, and ignores a valid one there."""
        mp27 = ff.generate_most_perfect(ff.GeneratorConfig(3, 3)), ff.TypeParams.for_power(3, 3)
        for square, params in (mp9, mp27):
            for alphas, message in (((7,), "alpha=7 outside 1..2"), ((0,), "alpha=0 outside 1..2"),
                                    ((1, -3), "alpha=-3 outside 1..2"), ((), "the alpha selection is empty")):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    ff.verify_all(square, params, franklin_alphas=alphas)
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    ff.verify_all(square, params, franklin_alphas=iter(alphas), required_for="semi_magic")
        assert ff.verify_all(*mp9, franklin_alphas=(2,)) == ff.verify_all(*mp9)
        assert ff.verify_all(*mp27, franklin_alphas=iter((2, 2))) == ff.verify_all(*mp27, franklin_alphas=(2,))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 2.0, True], ids=["1.5", "1.0", "2.0", "True"])
    def test_float_or_bool_alpha_refused(self, f27, alpha):
        """As PatternSpec does, the selection refuses a float, whole or not, and a bool."""
        message = f"^alpha must be an integer, got {re.escape(repr(alpha))}$"
        with pytest.raises(ValueError, match=message):
            ff.verify_all(*f27, franklin_alphas=[alpha])
        with pytest.raises(ValueError, match=message):
            ff.check_franklin_patterns(*f27, alphas=[1, alpha])

    def test_numpy_integer_alpha_taken(self, f27):
        for alphas in ([np.int64(2)], (np.int32(1), 2)):
            expected = ff.verify_all(*f27, franklin_alphas=[int(a) for a in alphas])
            assert ff.verify_all(*f27, franklin_alphas=alphas) == expected

    def test_wrong_order_raises(self, mp9):
        square, params = mp9
        with pytest.raises(ValueError):
            ff.check_franklin_patterns(square, params)

    @pytest.fixture(scope="class")
    def mp343(self):
        params = ff.TypeParams.for_franklin(7, 1)
        return ff.generate_most_perfect(ff.GeneratorConfig(7, 3)), params

    def test_one_pattern_resolution_per_check(self, mp343, monkeypatch):
        """The blocks are walked once per order per process: once for every direction and alpha of a
        passing check, not again for a failing check at that order and its witness, and once for a
        spec at a fresh order."""
        square, params = mp343
        calls = count_calls(monkeypatch, "select_blocks", ff.patterns)
        split_rows.cache_clear()
        assert ff.check_franklin_patterns(ff.theta(square, params), params).passed
        assert len(calls) == 1
        verdict = ff.check_franklin_patterns(square, params)
        assert not verdict.passed and verdict.witness.cells
        assert len(calls) == 1
        ff.franklin_cells(ff.PatternSpec("left", 2, 5, params))
        ff.band_sums(square, params, 3, 7)
        assert len(calls) == 1  # a spec, its cells and its band sums read the same table
        ff.PatternSpec("up", 1, 0, ff.TypeParams.for_franklin(2, 1))
        assert len(calls) == 2

    def test_two_banded_passes_one_strided_sum_per_run_piece(self, mp343, monkeypatch):
        """A built check makes one column pass, for up and down, and one row pass, for right and left. Each
        copies its lines in bands of whole groups and sums each piece of a run that a band holds as one strided
        (count, p, n) view. At (7, 1) the 49 groups form 9 runs over five steps, +-1 outside the central band
        and 0, +-p in it. Bands of 22 groups cut two runs in each direction, so each direction sums 11 pieces.
        The rest columns of every alpha take one n-wide shift-add per step and direction."""
        square, params = mp343
        n, p = params.n, params.p
        runs = split_rows(params).runs
        assert len(runs) == 9 and sorted({step for *_, step in runs}) == [-p, -1, 0, 1, p]
        assert -(-properties.BAND_CELLS // (p * (n + 2 * (n // p - 1)))) == 22
        passes = count_calls(monkeypatch, "_franklin_pass", ff.properties)
        calls = count_calls(monkeypatch, "_shift_add", ff.properties)
        views = record_views(monkeypatch)
        assert ff.check_franklin_patterns(ff.theta(square, params), params).passed
        assert [columns for *_, columns in passes] == [True, False]
        assert len(views) == 4 * 11 and sum(count for count, _, _ in views) == 4 * 49
        assert {shape[1:] for shape in views} == {(p, n)}
        assert len(calls) == 4 * 5 and {acc.shape for acc, _, _ in calls} == {(p - 1, n)}
        # A square that fails among the probed first patterns builds no table: the untransformed
        # order-27 square fails the first up pattern, so no band is copied.
        params, mp27 = ff.TypeParams.for_franklin(3, 1), ff.generate_most_perfect(ff.GeneratorConfig(3, 3))
        passes.clear(), calls.clear(), views.clear()
        verdict = ff.check_franklin_patterns(mp27, params)
        assert verdict.witness.location == "up pattern, alpha=1, offset=0"
        assert passes == calls == views == []

    def test_one_pass_per_pair_of_directions(self, mp343, monkeypatch):
        """With no probe every direction's table is built in scan order: an up failure needs the column pass
        alone, a right failure both passes, and a passing check makes each pass once, down and left reading
        the pass that served up and right."""
        square, params = mp343
        n = params.n
        franklin = ff.theta(square, params).entries
        up = split_rows(params).rows[0]
        column_edit = franklin.copy()  # up pattern alpha=1, offset 10 holds the +1 in column 5, offset 10 + n/2 the -1
        column_edit[(up[5] + 10) % n, 5] += 1
        column_edit[(up[5] + 10 + n // 2) % n, 5] -= 1
        shift = np.random.default_rng(n).integers(-9, 10, n)
        shift[-1] -= shift.sum()
        column_shift = franklin + shift  # zero-sum over the columns: up and down keep their sums
        monkeypatch.setattr(properties, "PROBE", 0)
        passes = count_calls(monkeypatch, "_franklin_pass", ff.properties)
        for grid, location, built in ((column_edit, "up pattern, alpha=1, offset=10", [True]),
                                      (column_shift, "right pattern", [True, False]),
                                      (franklin, None, [True, False])):
            passes.clear()
            verdict = ff.check_franklin_patterns(ff.Grid(grid), params)
            assert verdict.passed if location is None else verdict.witness.location.startswith(location)
            assert [columns for *_, columns in passes] == built

    def test_peak_far_below_the_square(self):
        """No whole-square copy: at (3, 7), n = 2187, the check on θ of the seed-0 square peaks at a few
        band-sized buffers and the p-row sums, under 20 MiB where the square itself takes 36.5 MiB."""
        params = ff.TypeParams.for_power(3, 7)
        franklin = ff.theta(ff.generate_most_perfect(ff.GeneratorConfig(3, 7)), params)
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert ff.check_franklin_patterns(franklin, params).passed
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20 < franklin.entries.nbytes


class TestVerifyAll:
    def test_mp9_classification(self, mp9):
        report = ff.verify_all(*mp9)
        assert report.classification == "most_perfect_type_p"

    def test_order27_classification(self, f27):
        report = ff.verify_all(*f27)
        assert report.classification == "pandiagonal_franklin_type_p"

    def test_reading_order_classifies_none(self):
        report = ff.verify_all(reading_order_square(8), ff.TypeParams(2, 8))
        assert report.classification == "none"
        assert not report.verdict(SEMI_MAGIC).passed

    def test_figure1_classification(self, fig1):
        report = ff.verify_all(*fig1)
        assert report.classification == "franklin_type_p"
        assert not report.verdict(PANDIAGONAL).passed
        assert not report.verdict(COMPLEMENTARY).passed

    def test_non_natural_grid_reports_natural_failure(self):
        grid = ff.Grid([[0] * 8 for _ in range(8)])
        report = ff.verify_all(grid, ff.TypeParams(2, 8))
        assert not report.verdict(NATURAL).passed
        assert report.classification == "none"

    def test_reports_are_deterministic(self, fig1):
        assert ff.verify_all(*fig1) == ff.verify_all(*fig1)

    def test_inapplicable_checks_are_omitted(self):
        # order 54 with p=3 has no integral window/complement target
        rng = random.Random(1)
        square = random_natural_square(54, rng)
        report = ff.verify_all(square, ff.TypeParams(3, 54))
        names = {v.property_name for v in report.verdicts}
        assert PXP not in names and COMPLEMENTARY not in names
        assert FRANKLIN_PATTERNS in names  # geometry still applies at order 54


class TestWitnessReEvaluation:
    """A failing verdict's cells always re-sum to the reported actual value."""

    def collect_failures(self, square, params):
        return [v for v in ff.verify_all(square, params).verdicts if not v.passed]

    @pytest.mark.parametrize("case", ["fig1", "mp8", "reading"])
    def test_witness_cells_reproduce_actual(self, case, fig1, mp8, request):
        if case == "fig1":
            square, params = fig1
        elif case == "mp8":
            square, params = mp8
        else:
            square, params = reading_order_square(8), ff.TypeParams(2, 8)
        entries = square.entries
        failures = self.collect_failures(square, params)
        assert failures  # each case fails something
        for verdict in failures:
            w = verdict.witness
            if not w.cells:
                continue
            assert sum(int(entries[r, c]) for r, c in w.cells) == w.actual


class TestBandSums:
    def test_order27_band_sums_match_decomposition(self, f27):
        square, params = f27
        n = params.n
        for alpha in (1, 2):
            for offset in (0, 2, 13):
                sums = ff.band_sums(square, params, alpha, offset)
                assert sums == (n * (n * n - 1) // 3, n * (n * n - 1) // 6)
                assert sum(sums) == params.magic_sum

    def test_transformed_mp8_band_sum(self, mp8):
        square, params = mp8
        franklin = ff.theta(square, params)
        assert ff.band_sums(franklin, params, 1, 0) == (252,)

    def test_band_sums_respect_direction(self, f27):
        square, params = f27
        for direction in ff.DIRECTIONS:
            sums = ff.band_sums(square, params, 1, 7, direction=direction)
            assert sum(sums) == params.magic_sum

    def test_band_sums_reject_bad_alpha_and_direction(self, f27):
        """Offsets wrap instead (test_reference.test_band_sums_match_reference)."""
        square, params = f27
        for alpha in (0, params.p):
            with pytest.raises(ValueError, match="alpha"):
                ff.band_sums(square, params, alpha, 0)
        with pytest.raises(ValueError, match="direction"):
            ff.band_sums(square, params, 1, 0, direction="diagonal")

    def test_band_sums_reject_a_non_integer_offset(self, f27):
        """A float offset wraps to a float, which no row index takes."""
        square, params = f27
        with pytest.raises(ValueError, match="frame_offset must be an integer"):
            ff.band_sums(square, params, 1, 2.0)


class TestInt64Guard:
    """A generic Grid whose sums could leave int64 is rejected instead of reporting a wrapped sum."""

    @pytest.mark.parametrize(
        "row0",
        [[2**62, 2**62, 2**62 - 3], [2**62, 2**62, 12 - 2**63]],  # the second wraps onto the magic sum 12
    )
    def test_wrapping_rows_raise(self, row0):
        grid = ff.Grid([row0, [0, 1, 2], [3, 4, 5]])
        with pytest.raises(ValueError, match="64-bit"):
            ff.check_semi_magic(grid, ff.TypeParams(3, 3))
        with pytest.raises(ValueError, match="64-bit"):
            ff.verify_all(grid, ff.TypeParams(3, 3))

    def test_bound_is_max_entry_times_side_squared(self):
        limit = (2**63 - 1) // 9
        for edge in (limit, -limit):
            grid = ff.Grid([[edge, 0, 0], [0, 0, 0], [0, 0, 0]])
            verdict = ff.check_semi_magic(grid, ff.TypeParams(3, 3))
            assert verdict.witness.actual == edge  # exact, no wrap
            assert ff.check_pxp(grid, 3).passed
        for edge in (limit + 1, -limit - 1):
            with pytest.raises(ValueError):
                ff.check_pxp(ff.Grid([[edge, 0, 0], [0, 0, 0], [0, 0, 0]]), 3)
        assert ff.check_pxp(ff.Grid([[2**63 - 1]]), 1).passed  # exactly on the bound: accepted
        with pytest.raises(ValueError):  # |int64 min| is computed without wrapping
            ff.check_pxp(ff.Grid([[-(2**63)]]), 1)

    def test_guard_reads_the_range_recorded_at_build(self, mp8):
        square, _ = mp8
        grid = ff.Grid(square)
        assert type(grid) is ff.Grid
        assert grid.span == square.span == (0, 63)  # Grid(g) shares the range with the entries
        for held in (square, grid):
            assert properties._array(held) is square.entries
        for forged in (ff.Grid(square), ff.NaturalSquare(square)):
            forged._span = (0, 2**62)  # entries below 64, but the guard trusts the record
            with pytest.raises(ValueError, match="64-bit"):  # and exempts no type
                properties._array(forged)

    def test_rectangular_grid_uses_longer_side(self):
        limit = (2**63 - 1) // 16
        assert not ff.check_pxp(ff.Grid([[limit, 0, 0, 0]]), 1).passed  # in bound: checked, not rejected
        with pytest.raises(ValueError):
            ff.check_pxp(ff.Grid([[limit + 1, 0, 0, 0]]), 1)


class TestLemmaOracles:
    def test_smallest_case(self):
        rng = random.Random(2)
        grid = random_window_grid(3, 3, 2, rng)
        assert ff.lemma_diagsum_oracle(grid, 2)

    def test_random_5x5_with_window_property(self):
        rng = random.Random(3)
        for _ in range(20):
            grid = random_window_grid(5, 5, 2, rng)
            assert ff.window_sums_all_equal(grid, 2)
            assert ff.lemma_diagsum_oracle(grid, 2)

    def test_violating_grid_can_fail_identity(self):
        grid = ff.Grid([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert not ff.window_sums_all_equal(grid, 2)
        assert not ff.lemma_diagsum_oracle(grid, 2)

    def test_diagsum_dimension_check(self):
        with pytest.raises(ValueError):
            ff.lemma_diagsum_oracle(ff.Grid([[1, 2], [3, 4]]), 2)
        for p in (0, -1):  # no window size below 1, rather than a division by zero
            with pytest.raises(ValueError):
                ff.lemma_diagsum_oracle(ff.Grid([[1, 2], [3, 4]]), p)

    def test_split_identity_reduces_to_single_corner_form(self):
        # (p+1) x p grid: first entry plus trailing p-1 entries is the whole row
        rng = random.Random(4)
        for p in (2, 3):
            grid = random_window_grid(p + 1, p, p, rng)
            assert ff.lemma_moremoresums2_oracle(grid, p, 1)

    def test_split_identity_random_grids(self):
        rng = random.Random(5)
        for _ in range(20):
            grid = random_window_grid(7, 6, 3, rng)
            for k_split in (1, 2):
                assert ff.lemma_moremoresums2_oracle(grid, 3, k_split)
            # the remark after the proof: k may run past p in blocks of p
            for k_split in (3, 4, 5, 6):
                assert ff.lemma_moremoresums2_oracle(grid, 3, k_split)

    def test_split_identity_can_fail_without_window_property(self):
        grid = ff.Grid([[9, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert not ff.window_sums_all_equal(grid, 2)
        assert not ff.lemma_moremoresums2_oracle(grid, 2, 1)

    def test_identities_are_exact_past_int64(self):
        """Entries whose int64 sums wrap to equal values: the exact sums differ, so both identities fail."""
        corners = ff.Grid([[2**62, 0, 0], [0, 0, 0], [-2**63, 0, 2**62]])  # 2^63 against -2^63
        assert not ff.lemma_diagsum_oracle(corners, 2)
        split = ff.Grid([[2**62, 2**62, 0, 0], [0] * 4, [-2**63, 0, 0, 0]])
        assert not ff.lemma_moremoresums2_oracle(split, 2, 2)

    def test_split_identity_dimension_checks(self):
        grid = ff.Grid([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        with pytest.raises(ValueError):
            ff.lemma_moremoresums2_oracle(grid, 2, 1)  # 3 columns, not a multiple of 2
        ok = ff.Grid([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError):
            ff.lemma_moremoresums2_oracle(ok, 2, 3)  # no room for the trailer
        for p in (0, -1):
            with pytest.raises(ValueError):
                ff.lemma_moremoresums2_oracle(ok, p, 1)


class TestInputValidation:
    """The refusals of malformed verdicts, inputs and arguments, each with its message."""

    def test_verdict_carries_a_witness_exactly_when_it_fails(self):
        witness = ff.Witness("row 0", 3, 1)
        for passed, carried in ((True, witness), (False, None)):
            with pytest.raises(ValueError, match="^verdict must carry a witness exactly when it fails$"):
                ff.PropertyVerdict(SEMI_MAGIC, passed, carried)

    def test_report_verdict_of_an_absent_name_is_none(self, mp9):
        report = ff.verify_all(*mp9)  # order 9 is no Franklin order, so that check is omitted
        assert report.verdict(SEMI_MAGIC).passed
        assert report.verdict(FRANKLIN_PATTERNS) is None and report.verdict("no such property") is None

    def test_non_grid_refused(self):
        with pytest.raises(TypeError, match="^expected NaturalSquare or Grid, got list$"):
            ff.check_semi_magic([[0]], ff.TypeParams(2, 1))

    def test_complementary_direction_refused(self, mp8):
        with pytest.raises(ValueError, match="^direction must be 'main' or 'anti'$"):
            ff.check_complementary(*mp8, direction="up")

    def test_p_that_does_not_divide_the_order_refused(self):
        square, params = ff.NaturalSquare([[0]]), ff.TypeParams(2, 1)
        for check in (ff.check_complementary, ff.check_one_over_p):
            with pytest.raises(ValueError, match="^p=2 does not divide order 1$"):
                check(square, params)

    def test_split_identity_refuses_an_empty_split(self):
        with pytest.raises(ValueError, match="^k_split must be at least 1$"):
            ff.lemma_moremoresums2_oracle(ff.Grid([[1, 2], [3, 4], [5, 6]]), 2, 0)


class TestTransversals:
    def test_cross_identity_grids_have_constant_transversal_sums(self):
        rng = random.Random(6)
        for m in (2, 3, 4, 5):
            grid = random_cross_identity_grid(m, rng)
            assert ff.cross_identity_holds(grid)
            sums = set()
            for _ in range(100):
                perm = list(range(m))
                rng.shuffle(perm)
                sums.add(ff.transversal_sum(grid, perm))
            assert len(sums) == 1

    def test_cross_identity_detects_violation(self):
        grid = ff.Grid([[0, 0], [0, 1]])
        assert not ff.cross_identity_holds(grid)

    def test_exact_past_int64(self):
        """Python-int sums: the transversal is 2^63, and 2^62 + 2^62 is not 0 + (-2^63)."""
        assert ff.transversal_sum(ff.Grid([[2**62, 0], [0, 2**62]]), [0, 1]) == 2**63
        assert not ff.cross_identity_holds(ff.Grid([[2**62, 0], [-2**63, 2**62]]))

    def test_transversal_requires_permutation(self):
        grid = ff.Grid([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            ff.transversal_sum(grid, [0, 0])
