"""Hadamard matrices and strength-2 orthogonal arrays."""

import numpy as np
import pytest

from orthoplan import (
    OrthogonalArray,
    arrays,
    construct_potp,
    field_new,
    hadamard,
    hadamard_to_oa,
    oa_rao_hamming,
    q_extend,
)
from orthoplan.errors import OrderTooSmall, UnsupportedOrder


def count_pairs(grid, i, j, s):
    """Ordered symbol-pair counts of two rows, length s*s."""
    return np.bincount(s * grid[i] + grid[j], minlength=s * s)


# ---------------------------------------------------------------------------
# Hadamard construction

@pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 48, 64])
def test_hadamard_exact(order):
    h = hadamard(order)
    assert h.shape == (order, order)
    assert (np.abs(h) == 1).all()
    assert (h[0] == 1).all()
    assert (h @ h.T == order * np.eye(order, dtype=np.int64)).all()


@pytest.mark.parametrize("order", [3, 6, 10, 92])
def test_hadamard_unsupported(order):
    # 3, 6, 10 violate the order condition; 92 exists but is outside the
    # built-in constructions
    with pytest.raises(UnsupportedOrder):
        hadamard(order)


def test_hadamard_order_limit_is_the_largest_a_family_asks_for():
    """potp at s = 3 is the built family with the largest Hadamard order
    under the gram limit: its gram check passes at the order limit (the
    order is then refused as not divisible by 4) and fails one above."""
    limit = arrays.MAX_HADAMARD_ORDER
    with pytest.raises(UnsupportedOrder, match="divisible by 4"):
        construct_potp(limit, 3)
    with pytest.raises(UnsupportedOrder, match="gram size"):
        construct_potp(limit + 1, 3)


# ---------------------------------------------------------------------------
# two-symbol arrays from Hadamard matrices

@pytest.mark.parametrize("order", [4, 8, 12, 16])
def test_hadamard_to_oa_strength2(order):
    oa = hadamard_to_oa(hadamard(order))
    assert oa.rows == order - 1 and oa.columns == order
    assert oa.symbols == 2 and not oa.zero_row
    want = order // 4
    for i in range(oa.rows):
        for j in range(i + 1, oa.rows):
            assert (count_pairs(oa.grid, i, j, 2) == want).all()


def test_hadamard_to_oa_too_small():
    with pytest.raises(OrderTooSmall):
        hadamard_to_oa(hadamard(2))


def test_hadamard_to_oa_rejects_unnormalized():
    with pytest.raises(ValueError):
        hadamard_to_oa(-hadamard(4))


# ---------------------------------------------------------------------------
# affine-plane arrays

@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_rao_hamming_exhaustive(s):
    oa = oa_rao_hamming(field_new(s))
    assert oa.rows == s + 1 and oa.columns == s * s
    for i in range(oa.rows):
        for j in range(i + 1, oa.rows):
            assert (count_pairs(oa.grid, i, j, s) == 1).all()


# ---------------------------------------------------------------------------
# zero-row extension

def test_q_extend():
    oa = oa_rao_hamming(field_new(3))
    q = q_extend(oa)
    assert q.zero_row and q.rows == 5 and q.columns == 9
    assert not q.grid[0].any()
    assert (q.grid[1:] == oa.grid).all()
    with pytest.raises(ValueError):
        q_extend(q)


def test_zero_row_single_effective_row():
    # with one effective row only the per-row balance condition applies
    q = OrthogonalArray(grid=np.array([[0, 0], [0, 1]]), symbols=2, zero_row=True)
    assert q.rows == 2 and q.columns == 2


# ---------------------------------------------------------------------------
# validation on construction

def test_rejects_symbol_out_of_range():
    with pytest.raises(ValueError):
        OrthogonalArray(grid=np.array([[0, 2], [0, 1]]), symbols=2)


def test_rejects_unbalanced_row():
    with pytest.raises(ValueError):
        OrthogonalArray(grid=np.array([[0, 0, 0, 1], [0, 1, 0, 1]]), symbols=2)


def test_rejects_unbalanced_pair():
    grid = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
    with pytest.raises(ValueError):
        OrthogonalArray(grid=grid, symbols=2)


def test_rejects_false_zero_row_flag():
    with pytest.raises(ValueError):
        OrthogonalArray(grid=np.array([[0, 1], [0, 1]]), symbols=2, zero_row=True)


def test_strength_survives_row_deletion():
    oa = hadamard_to_oa(hadamard(8))
    OrthogonalArray(grid=oa.grid[:4], symbols=2)  # any subset of rows still works
