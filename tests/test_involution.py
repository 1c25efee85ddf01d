import gc
import random
import tracemalloc

import numpy as np
import pytest

import franklin_forge as ff
from franklin_forge.properties import (
    COMPLEMENTARY,
    ONE_OVER_P_COLS,
    ONE_OVER_P_ROWS,
    PANDIAGONAL,
    PXP,
    SEMI_MAGIC,
)

from conftest import random_natural_square, random_toric_window_grid


def test_digit_swap_is_involution():
    for p in (2, 3, 5):
        for i in range(p * p):
            assert ff.digit_swap(ff.digit_swap(i, p), p) == i
    fixed = [i for i in range(9) if ff.digit_swap(i, 3) == i]
    assert fixed == [0, 4, 8]  # equal base-p digits


def test_digit_swap_range_check():
    with pytest.raises(ValueError):
        ff.digit_swap(4, 2)


def test_theta_on_order4_single_cell_blocks():
    square = ff.NaturalSquare(
        [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
    )
    out = ff.theta(square, ff.TypeParams(2, 4))
    assert out.entries.tolist() == [[0, 2, 1, 3], [8, 10, 9, 11], [4, 6, 5, 7], [12, 14, 13, 15]]


def test_theta_requires_p_squared_divisor():
    square = ff.NaturalSquare([[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        ff.theta(square, ff.TypeParams(2, 2))


def test_theta_requires_matching_order(mp8):
    square, _ = mp8
    with pytest.raises(ValueError):
        ff.theta(square, ff.TypeParams(2, 16))


@pytest.mark.parametrize("transform", [ff.theta, ff.theta_row, ff.theta_col])
def test_theta_returns_the_input_type(transform, mp8):
    square, params = mp8
    grid = ff.Grid(square.entries.tolist())
    assert type(transform(grid, params)) is ff.Grid
    assert type(transform(square, params)) is ff.NaturalSquare
    assert transform(grid, params) == transform(square, params)


def rotate_once(square, params):
    return ff.rotate_cw(square, 1)


def count_proofs(monkeypatch):
    proofs, prove = [], ff.core._is_permutation
    monkeypatch.setattr(ff.core, "_is_permutation", lambda a: proofs.append(a.shape) or prove(a))
    return proofs


@pytest.mark.parametrize("transform", [ff.theta, ff.theta_row, ff.theta_col, rotate_once])
def test_rearrangements_keep_the_proof_and_the_range(transform, monkeypatch):
    """An output that only rearranges a NaturalSquare's entries is a NaturalSquare holding the input's
    recorded range, the same tuple, so no range scan ran, and no mark scatter ran either."""
    params = ff.TypeParams.for_power(3, 3)
    square = ff.generate_most_perfect(ff.GeneratorConfig(3, 3))
    proofs = count_proofs(monkeypatch)
    out = transform(square, params)
    assert type(out) is ff.NaturalSquare and out.span is square.span and proofs == []
    assert sorted(out.entries.ravel().tolist()) == list(range(params.n**2)) and not out.entries.flags.writeable
    grid = ff.Grid(square)
    if transform is rotate_once:  # a plain Grid's rotation is a NaturalSquare only once proved
        assert type(transform(grid, params)) is ff.NaturalSquare and proofs == [(27, 27)]
        with pytest.raises(ValueError, match="not a permutation"):
            ff.rotate_cw(ff.Grid([[0, 0], [1, 2]]), 1)
    else:
        out = transform(grid, params)
        assert type(out) is ff.Grid and out.span is grid.span and proofs == []
    assert ff.theta(ff.theta(square, params), params) == square


def test_theta_of_theta_is_the_square_with_its_proof_and_range(monkeypatch):
    params = ff.TypeParams.for_power(2, 6)
    square = ff.generate_most_perfect(ff.GeneratorConfig(2, 6))
    proofs = count_proofs(monkeypatch)
    back = ff.theta(ff.theta(square, params), params)
    assert type(back) is ff.NaturalSquare and back == square and back.span is square.span and proofs == []


@pytest.mark.parametrize("transform", [ff.theta, ff.theta_row, ff.theta_col])
def test_transform_peaks_at_about_one_square(transform):
    """The reshape's C-ordered copy becomes the output's entries, with no second copy, and a NaturalSquare's
    output keeps the input's proof, with no mark byte per cell: the peak is one square."""
    params = ff.TypeParams.for_power(3, 6)
    square = ff.generate_most_perfect(ff.GeneratorConfig(3, 6))
    for held in (square, ff.Grid(square)):
        transform(held, params)  # warm
        gc.collect()
        tracemalloc.start()
        try:
            transform(held, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * params.n**2 * 8, (type(held).__name__, peak / (params.n**2 * 8))


class TestInvolutionAlgebra:
    def algebra_holds(self, square, params):
        assert ff.theta(ff.theta(square, params), params) == square
        assert ff.theta_row(ff.theta_row(square, params), params) == square
        assert ff.theta_col(ff.theta_col(square, params), params) == square
        assert ff.theta_col(ff.theta_row(square, params), params) == ff.theta(square, params)

    def test_on_fixtures(self, fixture_map):
        for square, params in fixture_map.values():
            if params.n % (params.p**2) == 0:
                self.algebra_holds(square, params)

    def test_on_random_squares(self):
        rng = random.Random(20240421)
        for _ in range(50):
            p, n = rng.choice([(2, 4), (2, 8), (2, 12), (2, 16), (3, 9), (3, 27)])
            square = random_natural_square(n, rng)
            self.algebra_holds(square, ff.TypeParams(p, n))

    def test_preserves_naturality(self):
        rng = random.Random(7)
        square = random_natural_square(8, rng)
        out = ff.theta(square, ff.TypeParams(2, 8))
        assert isinstance(out, ff.NaturalSquare)
        assert sorted(out.entries.flatten().tolist()) == list(range(64))

    def test_fixed_blocks(self):
        p = 3
        fixed_positions = [
            (i, j)
            for i in range(p * p)
            for j in range(p * p)
            if ff.digit_swap(i, p) == i and ff.digit_swap(j, p) == j
        ]
        assert len(fixed_positions) == p * p  # p^2 of p^4 block positions
        rng = random.Random(11)
        square = random_natural_square(9, rng)  # order 9: blocks are single cells
        out = ff.theta(square, ff.TypeParams(3, 9))
        for i, j in fixed_positions:
            assert int(out.entries[i, j]) == int(square.entries[i, j])


class TestTransport:
    """Properties carried from a most-perfect square to its transform."""

    def test_theta_row_preserves_window_property(self):
        # random square grids with the toric window property, all triply divisible orders
        rng = random.Random(999)
        for _ in range(200):
            p = rng.choice([2, 3])
            n = p**3 * (rng.choice([1, 2]) if p == 2 else 1)
            grid = random_toric_window_grid(n, p, rng)
            params = ff.TypeParams(p, n)
            assert ff.check_pxp(grid, params).passed
            assert ff.check_pxp(ff.theta_row(grid, params), params).passed
            assert ff.check_pxp(ff.theta(grid, params), params).passed

    def test_transform_of_mp8_is_pandiagonal_franklin(self, mp8):
        square, params = mp8
        report = ff.verify_all(ff.theta(square, params), params)
        assert report.classification == "pandiagonal_franklin_type_p"
        for name in (PXP, ONE_OVER_P_ROWS, ONE_OVER_P_COLS, PANDIAGONAL, SEMI_MAGIC):
            assert report.verdict(name).passed

    def test_transform_of_franklin27_is_most_perfect(self, f27):
        # the order-27 square is itself a transform; applying the involution
        # again recovers its most-perfect preimage
        square, params = f27
        report = ff.verify_all(ff.theta(square, params), params)
        assert report.verdict(COMPLEMENTARY).passed
        assert report.classification == "most_perfect_type_p"

    def test_order9_transport_boundary(self, mp9):
        # order 9 is not triply divisible by 3: only semi-magic and the
        # complementary property survive the transform
        square, params = mp9
        report = ff.verify_all(ff.theta(square, params), params)
        assert report.verdict(SEMI_MAGIC).passed
        assert report.verdict(COMPLEMENTARY).passed
        assert not report.verdict(PXP).passed
        assert not report.verdict(PANDIAGONAL).passed
        assert not report.verdict(ONE_OVER_P_ROWS).passed


def test_involutions_refuse_a_non_square_grid():
    grid, params = ff.Grid(np.zeros((4, 8), dtype=np.int64)), ff.TypeParams(2, 4)
    for transform in (ff.theta, ff.theta_row, ff.theta_col):
        with pytest.raises(ValueError, match="^involution requires a square grid$"):
            transform(grid, params)
