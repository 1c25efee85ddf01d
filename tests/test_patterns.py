import re
from collections import Counter

import numpy as np
import pytest

import franklin_forge as ff
from franklin_forge.core import MAX_ORDER, is_prime
from franklin_forge.patterns import SIDE_LEFT, SIDE_RIGHT, SIDE_SOLE, split_rows

from conftest import BOXED_W_CELLS
from test_reference import FRANKLIN_ORDERS, all_pattern_cells, ref_franklin_cells, turned_block_cells

FIG1_UP_DIAGONAL = {(1, 0), (2, 1), (3, 2), (4, 3), (4, 4), (3, 5), (2, 6), (1, 7)}

# Asterisk positions of the p=5 frame diagram: (T row, T column) per band row.
P5_BLOCK_POSITIONS = {
    (0, 0), (0, 9), (0, 10), (0, 14), (0, 15), (0, 24),
    (1, 1), (1, 8), (1, 10), (1, 14), (1, 16), (1, 23),
    (2, 2), (2, 7), (2, 11), (2, 13), (2, 17), (2, 22),
    (3, 3), (3, 6), (3, 11), (3, 13), (3, 18), (3, 21),
    (4, 4), (4, 5), (4, 12), (4, 19), (4, 20),
}


def up_spec(p, k, alpha, offset):
    return ff.PatternSpec("up", alpha, offset, ff.TypeParams.for_franklin(p, k))


class TestSelectBlocks:
    def test_p2_frame(self):
        params = ff.TypeParams(2, 8)
        blocks = ff.select_blocks(params, 0)
        positions = {(b.address.block_row, b.address.block_col) for b in blocks}
        assert positions == {(0, 0), (1, 1), (0, 3), (1, 2)}

    def test_p3_frame(self):
        params = ff.TypeParams(3, 27)
        blocks = ff.select_blocks(params, 0)
        positions = {(b.address.block_row, b.address.block_col) for b in blocks}
        outer = {(0, 0), (1, 1), (2, 2), (0, 8), (1, 7), (2, 6)}
        central = {(0, 4), (1, 3), (1, 5), (2, 3), (2, 5)}
        assert positions == outer | central
        sole = [b for b in blocks if b.side == SIDE_SOLE and b.band == 1]
        assert len(sole) == 1 and sole[0].address.block_col == 4

    def test_p5_frame_matches_diagram(self):
        params = ff.TypeParams(5, 125)
        blocks = ff.select_blocks(params, 0)
        positions = {(b.address.block_row, b.address.block_col) for b in blocks}
        assert positions == P5_BLOCK_POSITIONS
        assert len(blocks) == 29
        sole = [b for b in blocks if b.side == SIDE_SOLE and b.band == 2]
        assert [(b.row_in_band, b.address.block_col) for b in sole] == [(4, 12)]

    def test_rejects_non_franklin_order(self):
        with pytest.raises(ValueError):
            ff.select_blocks(ff.TypeParams(3, 9), 0)


class TestBlockIntersection:
    def test_p2_band0_block(self):
        params = ff.TypeParams(2, 8)
        blocks = {(b.band, b.row_in_band): b for b in ff.select_blocks(params, 1)}
        assert ff.block_intersection(blocks[(0, 0)], alpha=1) == [(0, 0), (1, 1)]

    def test_p3_central_right_block(self):
        params = ff.TypeParams(3, 27)
        blocks = {
            (b.band, b.row_in_band, b.side): b for b in ff.select_blocks(params, 0)
        }
        right = blocks[(1, 2, SIDE_RIGHT)]
        assert ff.block_intersection(right, alpha=1) == [(2, 1), (2, 2)]

    def test_p3_central_sole_block_takes_whole_bottom_row(self):
        params = ff.TypeParams(3, 27)
        blocks = {(b.band, b.side): b for b in ff.select_blocks(params, 0) if b.band == 1}
        sole = blocks[(1, SIDE_SOLE)]
        assert ff.block_intersection(sole, alpha=1) == [(2, 0), (2, 1), (2, 2)]

    def test_alpha_validation(self):
        params = ff.TypeParams(3, 27)
        block = ff.select_blocks(params, 0)[0]
        with pytest.raises(ValueError):
            ff.block_intersection(block, alpha=3)


class TestFranklinCells:
    def test_figure1_up_diagonal(self, fig1):
        square, _ = fig1
        cells = ff.franklin_cells(up_spec(2, 1, 1, 1))
        assert cells.cells == frozenset(FIG1_UP_DIAGONAL)
        assert sum(int(square.entries[r, c]) for r, c in cells) == 252

    def test_beta_is_p_minus_alpha(self):
        assert [up_spec(5, 1, alpha, 0).beta for alpha in range(1, 5)] == [4, 3, 2, 1]

    def test_order27_boxed_pattern(self, f27):
        square, _ = f27
        cells = ff.franklin_cells(up_spec(3, 1, 1, 2))
        assert cells.cells == BOXED_W_CELLS
        assert sum(int(square.entries[r, c]) for r, c in cells) == 9828

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_cardinality_is_order(self, p, k):
        n = k * p**3
        for alpha in range(1, p):
            assert len(ff.franklin_cells(up_spec(p, k, alpha, 3))) == n

    def test_offsets_translate_the_offset_zero_pattern(self):
        for p, k in [(2, 1), (3, 1), (3, 2)]:
            n = k * p**3
            base = ff.franklin_cells(up_spec(p, k, 1, 0)).cells
            for offset in (1, n // 2, n - 1):
                shifted = {((r + offset) % n, c) for r, c in base}
                assert ff.franklin_cells(up_spec(p, k, 1, offset)).cells == shifted

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_split_rows_build_every_alpha(self, p):
        """Every k with n <= 1400 (odd and even k), and (13, 1): for each alpha and offset o
        the up cells of the paper's block walk are each column's split row (first below
        alpha, rest from alpha on) moved down o."""
        for k in range(1, max(1400 // p**3, 1) + 1):
            params = ff.TypeParams.for_franklin(p, k)
            n = params.n
            table = split_rows(params)
            first, rest = table.first, table.rest
            assert len(first) == len(rest) == n // p
            assert table.rows.shape == (p - 1, n) and not table.rows.flags.writeable
            for alpha in range(1, p):
                rows = [first[c // p] if c % p < alpha else rest[c // p] for c in range(n)]
                assert table.rows[alpha - 1].tolist() == rows
                for offset in (0, 1, n // 2, n - 1):
                    expected = {((r + offset) % n, c) for c, r in enumerate(rows)}
                    assert ref_franklin_cells(up_spec(p, k, alpha, offset)) == expected

    def test_rotation_coherence(self):
        params = ff.TypeParams(3, 27)
        up = ff.franklin_cells(ff.PatternSpec("up", 1, 5, params)).cells
        down = ff.franklin_cells(ff.PatternSpec("down", 1, 5, params)).cells
        right = ff.franklin_cells(ff.PatternSpec("right", 1, 5, params)).cells
        left = ff.franklin_cells(ff.PatternSpec("left", 1, 5, params)).cells
        assert down == {(26 - r, 26 - c) for r, c in up}
        assert right == {(c, 26 - r) for r, c in up}
        assert left == {(26 - c, r) for r, c in up}

    def test_spec_validation(self):
        params = ff.TypeParams(3, 27)
        with pytest.raises(ValueError):
            ff.PatternSpec("diagonal", 1, 0, params)
        with pytest.raises(ValueError):
            ff.PatternSpec("up", 3, 0, params)
        with pytest.raises(ValueError):
            ff.PatternSpec("up", 1, 27, params)
        with pytest.raises(ValueError):
            ff.PatternSpec("up", 1, 0, ff.TypeParams(3, 9))

    @pytest.mark.parametrize("alpha,offset", [(1, 2.5), (1.0, 2), (True, 2), (1, False)])
    def test_spec_refuses_a_non_integer_alpha_or_offset(self, alpha, offset):
        """A float would resolve to cells in row 2.5 or fail later in franklin_cells; a bool is refused
        as the JSON and CSV readers refuse it."""
        with pytest.raises(ValueError, match="must be an integer"):
            ff.PatternSpec("up", alpha, offset, ff.TypeParams.for_franklin(3, 1))

    def test_numpy_integers_resolve_to_python_int_cells(self):
        spec = ff.PatternSpec("up", np.int64(1), np.int64(5), ff.TypeParams.for_franklin(3, 1))
        assert {type(v) for cell in ff.franklin_cells(spec) for v in cell} == {int}


@pytest.mark.parametrize("p,k,near", [(2, 4, 16), (3, 1, 6), (3, 2, 12), (3, 27, 162), (5, 2, 40), (5, 5, 100),
                                      (7, 1, 42), (13, 1, 156)])
def test_step_marks_the_groups_outside_the_central_band(p, k, near):
    """rest[g] - first[g] is +-1 for the groups outside the odd-p central band (at p = 2, every group),
    and 0 or +-p for the central ones, at odd and even k; a band is n/p^2 groups."""
    params = ff.TypeParams.for_franklin(p, k)
    table = split_rows(params)
    first, rest = table.first, table.rest
    band_groups = params.n // p**2
    steps = np.subtract(rest, first).tolist()
    for g, step in enumerate(steps):
        central = p % 2 == 1 and g // band_groups == (p - 1) // 2
        assert step in ((0, p, -p) if central else (1, -1))
    assert sum(step in (1, -1) for step in steps) == near


def test_every_franklin_order_steps_by_0_1_or_p():
    """At every Franklin order up to MAX_ORDER (521 of them) each group's rest row is its first row
    plus 0, +-1 or +-p, so the Franklin check keeps at most five p-row sums. Every first row lies in the
    frame, 0..n/p - 1, which the Franklin passes' margins of n/p - 1 cells rely on, and the runs list
    every group once, in order, with its first row and step."""
    orders = [(p, k) for p in range(2, MAX_ORDER + 1) if is_prime(p) for k in range(1, MAX_ORDER // p**3 + 1)]
    assert len(orders) == 521
    try:
        for p, k in orders:
            table = split_rows(ff.TypeParams.for_franklin(p, k))
            first, rest = table.first, table.rest
            assert set(np.subtract(rest, first).tolist()) <= {0, 1, -1, p, -p}, (p, k)
            assert 0 <= min(first) and max(first) < k * p**2, (p, k)
            listed = [(g + j, f + slope * j, step) for g, count, f, slope, step in table.runs for j in range(count)]
            assert listed == [(g, f, r - f) for g, (f, r) in enumerate(zip(first, rest))], (p, k)
    finally:
        split_rows.cache_clear()  # later tests see a cold memo, as before this sweep


class TestCellSet:
    """Two lines, cell i being (rows[i], cols[i]); the frozenset is built only when cells is read."""

    @pytest.mark.parametrize("p,k", FRANKLIN_ORDERS)
    def test_cells_eq_and_hash_match_the_reference_walk(self, p, k):
        for spec, cells in all_pattern_cells(ff.TypeParams.for_franklin(p, k)):
            resolved, expected = ff.franklin_cells(spec), frozenset(cells)
            assert resolved.cells == expected
            rows, cols = zip(*cells)
            other = ff.CellSet(list(rows), list(cols))  # the same cells, in another line order
            assert resolved == other and hash(resolved) == hash(other) == hash(expected)
            assert resolved != ff.CellSet([(row + 1) % len(rows) for row in rows], list(cols))

    def test_iteration_is_line_order_in_python_ints_and_builds_no_set(self):
        params = ff.TypeParams.for_franklin(3, 1)
        n = params.n
        columns = {"up": (1, range(n)), "right": (0, range(n)), "down": (1, range(n - 1, -1, -1)),
                   "left": (0, range(n - 1, -1, -1))}
        for direction, (axis, line) in columns.items():
            cells = ff.franklin_cells(ff.PatternSpec(direction, 1, 4, params))
            listed = list(cells)
            assert [cell[axis] for cell in listed] == list(line)  # the range line, in order
            assert listed == list(zip(cells.rows, cells.cols))
            assert {type(v) for cell in listed for v in cell} == {int}
            assert sorted(cells) == sorted(listed) and len(cells) == n
            assert "cells" not in vars(cells)  # iterating and sorting built no frozenset
            assert cells.cells == frozenset(listed) and "cells" in vars(cells)

    def test_lines_of_different_lengths_raise(self):
        with pytest.raises(ValueError, match="pattern lines of 2 and 3 cells"):
            ff.CellSet([0, 1], range(3))
        with pytest.raises(ValueError, match="pattern lines of 3 and 0 cells"):
            ff.CellSet(range(3), [])


def reference_split_rows(params):
    """(first, rest) by definition: the rows of the reference up walk at alpha 1, offset 0, in
    columns g*p (the first alpha = 1 cells of group g) and g*p + 1 (the rest)."""
    row = {c: r for _, (r, c) in turned_block_cells(params, 0, 1, "up")}
    groups = range(0, params.n, params.p)
    return tuple(row[c] for c in groups), tuple(row[c + 1] for c in groups)


class TestSplitRowsMemo:
    """split_rows is memoized per order, with a fixed bound, and hands every caller one immutable table."""

    ORDERS = [ff.TypeParams.for_franklin(p, k) for p, k in FRANKLIN_ORDERS]

    def test_table_is_the_reference_walk_cold_and_after_eviction(self):
        """Every reference order, (3, 2) included, where first is not a permutation."""
        split_rows.cache_clear()
        for params in self.ORDERS:
            assert split_rows(params)[:2] == reference_split_rows(params)
        bound = split_rows.cache_info().maxsize
        sweep = [(2, k) for k in range(4, 4 + 2 * bound) if (2, k) not in FRANKLIN_ORDERS][: bound + 1]
        assert len(sweep) > bound and not set(sweep) & set(FRANKLIN_ORDERS)  # more than the bound, none a reference
        for p, k in sweep:
            split_rows(ff.TypeParams.for_franklin(p, k))
        misses = split_rows.cache_info().misses
        for params in self.ORDERS:
            assert split_rows(params)[:2] == reference_split_rows(params)
        assert split_rows.cache_info().misses == misses + len(self.ORDERS)  # evicted, so walked again

    def test_equal_params_share_one_tuple_table(self):
        a, b = ff.TypeParams(3, 54), ff.TypeParams(3, 54)
        assert a is not b
        table = split_rows(a)
        assert split_rows(b) is table
        assert [type(rows) for rows in (table.first, table.rest)] == [tuple, tuple]

    def test_table_fields_cannot_be_assigned(self):
        """The one memoized table every caller shares: no field can be rebound, nor its rows written."""
        table = split_rows(ff.TypeParams.for_franklin(3, 1))
        for name in ("first", "rest", "rows", "runs"):
            with pytest.raises(AttributeError):
                setattr(table, name, getattr(table, name)[:1])
        with pytest.raises(ValueError, match="read-only"):
            table.rows[0, 0] = 1
        assert split_rows(ff.TypeParams.for_franklin(3, 1)) is table

    def test_spec_refuses_a_non_franklin_order_through_the_table(self):
        with pytest.raises(ValueError, match=re.escape("order 9 is not of the form k*p^3 for p=3")):
            ff.PatternSpec("up", 1, 0, ff.TypeParams(3, 9))


class TestGeometryInvariants:
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)])
    def test_column_coverage_and_row_multiplicity(self, p, k):
        n = k * p**3
        frame_rows = n // p
        for alpha in range(1, p):
            cells = ff.franklin_cells(up_spec(p, k, alpha, 0)).cells
            col_counts = Counter(c for _, c in cells)
            assert all(col_counts[c] == 1 for c in range(n))
            row_counts = Counter(r for r, _ in cells)
            assert all(r < frame_rows for r in row_counts)  # pattern stays inside its frame
            per_row = [row_counts.get(r, 0) for r in range(frame_rows)]
            if p % 2 == 1 and k % 2 == 0:
                # even k: the adjacency row doubles up and one row is skipped
                assert per_row.count(2 * p) == 1
                assert per_row.count(0) == 1
                assert per_row.count(p) == frame_rows - 2
            else:
                assert all(x == p for x in per_row)

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 2), (5, 1), (5, 2)])
    def test_midline_block_symmetry(self, p, k):
        n = k * p**3
        params = ff.TypeParams.for_franklin(p, k)
        spans = Counter()
        for block in ff.select_blocks(params, 0):
            addr = block.address
            spans[(addr.col_origin, addr.block_size)] += 1
        reflected = Counter()
        for (origin, size), count in spans.items():
            reflected[((n - origin - size) % n, size)] += count
        assert spans == reflected


class TestEnumerate:
    def test_counts(self):
        assert sum(1 for _ in ff.enumerate_patterns(ff.TypeParams(2, 8))) == 32
        assert sum(1 for _ in ff.enumerate_patterns(ff.TypeParams(3, 27))) == 216
        assert sum(1 for _ in ff.enumerate_patterns(ff.TypeParams(2, 8), alphas=(1,))) == 32

    def test_order_is_direction_alpha_offset(self):
        specs = list(ff.enumerate_patterns(ff.TypeParams(3, 27)))
        assert [s.direction for s in specs[:54]] == ["up"] * 54
        assert [s.alpha for s in specs[:27]] == [1] * 27
        assert [s.frame_offset for s in specs[:3]] == [0, 1, 2]
        assert specs[27].alpha == 2 and specs[54].direction == "right"

    def test_alphas_ascend_once_each(self):
        params = ff.TypeParams(3, 27)
        alphas = [s.alpha for s in ff.enumerate_patterns(params, (2, 1, 1)) if s.direction == "up"]
        assert alphas == [1] * 27 + [2] * 27
        with pytest.raises(ValueError, match="empty"):
            list(ff.enumerate_patterns(params, ()))

    def test_rejects_non_franklin_order(self):
        with pytest.raises(ValueError):
            list(ff.enumerate_patterns(ff.TypeParams(3, 9)))
