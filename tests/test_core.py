import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import franklin_forge as ff
from franklin_forge.core import MAX_ORDER

from conftest import BOXED_W_CELLS


class TestTypeParams:
    def test_magic_sum_degenerate_order(self):
        assert ff.TypeParams(2, 1).magic_sum == 0

    def test_magic_sum_order8_matches_symbol_average(self):
        # independent oracle: total of symbols 0..63 spread over 8 rows
        assert ff.TypeParams(2, 8).magic_sum == sum(range(64)) // 8 == 252

    def test_magic_sum_order27_matches_pattern_cells(self, f27):
        square, params = f27
        boxed_total = sum(int(square.entries[r, c]) for r, c in BOXED_W_CELLS)
        assert params.magic_sum == boxed_total == 9828

    @pytest.mark.parametrize(
        "p,n,magic,segment,window,complement",
        [
            (2, 8, 252, 126, 126, 63),
            (3, 9, 360, 120, 360, 120),
            (3, 27, 9828, 3276, 3276, 1092),
            (2, 16, 2040, 1020, 510, 255),
        ],
    )
    def test_derived_targets(self, p, n, magic, segment, window, complement):
        params = ff.TypeParams(p, n)
        assert params.magic_sum == magic
        assert params.segment_sum == segment
        assert params.pxp_sum == window
        assert params.complement_sum == complement

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ff.TypeParams(4, 8)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            ff.TypeParams(3, 8)

    def test_non_integral_targets_are_inaccessible(self):
        # odd p with even order: half-integer window/complement targets, so the
        # corresponding properties are unsatisfiable and the targets refuse access
        params = ff.TypeParams(3, 54)
        assert params.magic_sum == 78705 and params.segment_sum == 26235
        assert not params.has_pxp_sum and not params.has_complement_sum
        with pytest.raises(ValueError):
            params.pxp_sum
        with pytest.raises(ValueError):
            params.complement_sum

    def test_rejects_oversize_order(self):
        with pytest.raises(ValueError):
            ff.TypeParams(2, MAX_ORDER + 2)

    def test_bounds_are_checked_before_primality(self):
        # a huge prime p or exponent r is refused at once, not after trial division or p**r
        assert ff.TypeParams(2999, 1).magic_sum == 0  # the largest prime allowed at order 1
        cases = [(ff.TypeParams, 3001, 1), (ff.TypeParams, 2**61 - 1, 1),
                 (ff.TypeParams.for_power, 2**61 - 1, 2), (ff.TypeParams.for_power, 3, 10**8)]
        for make, p, m in cases:
            with pytest.raises(ValueError):
                make(p, m)

    def test_power_order_needs_a_positive_exponent(self):
        for r in (0, -1):
            with pytest.raises(ValueError, match="^r must be positive$"):
                ff.TypeParams.for_power(2, r)

    def test_one_integer_rule_at_the_library_boundary(self):
        """TypeParams' p and n, GeneratorConfig's p, r and seed and check_pxp's bare p take any non-bool integer,
        a NumPy one included, as a Python int, and refuse a float or a bool: NumPy-integer params give the same
        squares and certificate bytes as ints."""
        square = ff.generate_most_perfect(ff.GeneratorConfig(np.int64(2), np.int32(3), np.uint8(5)))
        assert square == ff.generate_most_perfect(ff.GeneratorConfig(2, 3, 5))
        numpy_params, params = ff.TypeParams(np.int64(2), np.int16(8)), ff.TypeParams(2, 8)
        assert (type(numpy_params.p), type(numpy_params.n)) == (int, int) and numpy_params == params
        certificate = json.dumps(ff.verify_all(square, numpy_params).to_json_dict())
        assert certificate == json.dumps(ff.verify_all(square, params).to_json_dict())
        assert ff.check_pxp(square, np.int64(2)) == ff.check_pxp(square, 2)
        refused = [lambda: ff.TypeParams(2.0, 8), lambda: ff.TypeParams(2, 8.0), lambda: ff.TypeParams(True, 8),
                   lambda: ff.TypeParams.for_power(2, 3.0), lambda: ff.GeneratorConfig(2.0, 3),
                   lambda: ff.GeneratorConfig(2, True), lambda: ff.GeneratorConfig(2, 3, 1.0),
                   lambda: ff.check_pxp(square, 2.5), lambda: ff.check_pxp(square, True)]
        for make in refused:
            with pytest.raises(ValueError, match="must be an integer, got"):
                make()

    def test_franklin_k(self):
        assert ff.TypeParams(2, 8).franklin_k == 1
        assert ff.TypeParams(2, 16).franklin_k == 2
        assert ff.TypeParams(3, 9).franklin_k is None
        assert ff.TypeParams.for_franklin(3, 1).n == 27
        assert ff.TypeParams.for_power(2, 4).n == 16


class TestGrid:
    def test_rejects_entry_beyond_int64(self):
        with pytest.raises((OverflowError, ValueError)):
            ff.Grid([[2**70]])

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            ff.Grid([])
        with pytest.raises(ValueError):
            ff.Grid([[1, 2], [3]])

    def test_entries_are_read_only(self):
        g = ff.Grid([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            g.entries[0, 0] = 9

    def test_entries_are_c_ordered(self):
        a = np.arange(12).reshape(3, 4)
        for entries in (np.asfortranarray(a), a.T, a[:, ::-1], a.tolist()):
            grid = ff.Grid(entries)
            assert grid.entries.flags.c_contiguous
            assert np.array_equal(grid.entries, entries)

    def test_equality_and_lists(self):
        g = ff.Grid([[1, 2], [3, 4]])
        assert g == ff.Grid([[1, 2], [3, 4]])
        assert g != ff.Grid([[1, 2, 3], [4, 5, 6]])
        assert g.entries.tolist() == [[1, 2], [3, 4]]

    def test_grid_of_a_grid_shares_its_read_only_entries(self):
        g = ff.Grid([[1, 2], [3, 4]])
        assert ff.Grid(g).entries is g.entries
        assert not ff.Grid(g).entries.flags.writeable

    def test_never_equals_its_rows_as_lists(self):
        assert ff.Grid([[1, 2]]).__eq__([[1, 2]]) is NotImplemented
        assert (ff.Grid([[1, 2]]) == [[1, 2]]) is False

    def test_reprs_give_the_shape(self):
        assert repr(ff.Grid([[1, 2]])) == "Grid(1x2)"
        assert repr(ff.NaturalSquare([[3, 1], [2, 0]])) == "NaturalSquare(order=2)"


class TestNaturalSquare:
    def test_is_a_grid_sharing_the_grid_it_proves(self):
        g = ff.Grid([[3, 1], [2, 0]])
        square = ff.NaturalSquare(g)
        assert isinstance(square, ff.Grid)
        assert square.entries is g.entries

    def test_equals_and_hashes_as_a_grid_with_the_same_entries(self, fig1):
        square, _ = fig1
        grid = ff.Grid(square.entries.tolist())
        assert square == grid and grid == square
        assert hash(square) == hash(grid)
        assert len({square, grid}) == 1
        assert square != ff.Grid([[0, 1], [2, 3]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ff.NaturalSquare([[0, 1], [2, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ff.NaturalSquare([[0, 1, 2], [3, 4, 5]])

    def test_rejects_an_order_past_the_cap(self):
        """The order is refused before the naturalness proof, and the owned zeros are adopted uncopied."""
        n = MAX_ORDER + 1
        with pytest.raises(ValueError, match=f"^order {n} exceeds supported maximum {MAX_ORDER}$"):
            ff.NaturalSquare(ff.core._Owned(np.zeros((n, n), np.int64)))

    @pytest.mark.parametrize(
        "rows",
        [[[0, 1], [2, -1]], [[0, 1], [2, 4]], [[0, 1], [2, -(2**63)]]],
        ids=["negative-entry-aliases-3", "entry-n-squared", "int64-min"],
    )
    def test_rejects_entries_outside_the_symbol_range(self, rows):
        with pytest.raises(ValueError, match="not a permutation"):
            ff.NaturalSquare(rows)

    def test_entries_are_exact_symbol_range(self, fig1):
        square, _ = fig1
        assert sorted(square.entries.flatten().tolist()) == list(range(64))


class TestGetToric:
    def test_figure1_examples(self, fig1):
        square, _ = fig1
        assert ff.get_toric(square, 0, 0) == 51
        assert ff.get_toric(square, 8, 8) == 51  # full wraparound is the identity
        assert ff.get_toric(square, -1, -1) == 16  # bottom-right via mathematical modulus

    @given(
        row=st.integers(-100, 100),
        col=st.integers(-100, 100),
        dr=st.integers(-3, 3),
        dc=st.integers(-3, 3),
    )
    def test_periodicity(self, row, col, dr, dc):
        grid = ff.Grid([[3 * i + j for j in range(3)] for i in range(4)])
        assert ff.get_toric(grid, row, col) == ff.get_toric(grid, row + dr * 4, col + dc * 3)


class TestRotate:
    def test_zero_turns_is_identity(self, fig1):
        square, _ = fig1
        assert ff.rotate_cw(square, 0) == square

    def test_single_turn_2x2(self):
        square = ff.NaturalSquare([[0, 1], [2, 3]])
        assert ff.rotate_cw(square, 1).entries.tolist() == [[2, 0], [3, 1]]

    @given(seed=st.integers(0, 10**6))
    def test_rotation_has_order_four(self, seed):
        import random

        from conftest import random_natural_square

        square = random_natural_square(4, random.Random(seed))
        out = square
        for _ in range(4):
            out = ff.rotate_cw(out, 1)
        assert out == square

    def test_rotation_is_position_bijection(self, mp8):
        square, _ = mp8
        rotated = ff.rotate_cw(square, 1)
        assert sorted(rotated.entries.flatten().tolist()) == list(range(64))


class TestBlockAt:
    def test_figure1_frame_block(self):
        params = ff.TypeParams(2, 8)
        addr = ff.block_at(params, 1, 0, 0, 2)
        assert (addr.row_origin, addr.col_origin) == (1, 0)
        rows = {(addr.row_origin + t) % 8 for t in range(2)}
        cols = {(addr.col_origin + t) % 8 for t in range(2)}
        assert rows == {1, 2} and cols == {0, 1}

    def test_order27_block(self):
        params = ff.TypeParams(3, 27)
        addr = ff.block_at(params, 0, 2, 8, 3)
        assert {(addr.row_origin + t) % 27 for t in range(3)} == {6, 7, 8}
        assert {(addr.col_origin + t) % 27 for t in range(3)} == {24, 25, 26}

    def test_wraparound_origin(self):
        params = ff.TypeParams(3, 27)
        addr = ff.block_at(params, 26, 0, 0, 3)
        assert {(addr.row_origin + t) % 27 for t in range(3)} == {26, 0, 1}

    def test_rejects_bad_block_size(self):
        params = ff.TypeParams(3, 27)
        with pytest.raises(ValueError):
            ff.block_at(params, 0, 0, 0, 4)

    def test_rejects_out_of_bounds_index(self):
        params = ff.TypeParams(3, 27)
        with pytest.raises(ValueError):
            ff.block_at(params, 0, 0, 9, 3)
