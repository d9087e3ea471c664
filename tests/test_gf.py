"""Field tables: axioms checked exhaustively for every supported order."""

import numpy as np
import pytest

from orthoplan import field_new, square_classes, supported_orders
from orthoplan.gf import prime_power


# ---------------------------------------------------------------------------
# axioms, exhaustively and vectorized (s^3 triples per order)

@pytest.mark.parametrize("order", supported_orders())
def test_field_axioms_exhaustive(order):
    f = field_new(order)
    s = f.order
    add = f.add_table.astype(np.int64)
    mul = f.mul_table.astype(np.int64)
    idx = np.arange(s)

    # closure and commutativity
    for t in (add, mul):
        assert t.min() >= 0 and t.max() < s
        assert (t == t.T).all()
    # identities
    assert (add[0] == idx).all()
    assert (mul[1] == idx).all()
    assert (mul[0] == 0).all()
    # inverses
    assert (add[idx, f.neg_table[idx]] == 0).all()
    assert ((mul[1:] == 1).sum(axis=1) == 1).all()     # one inverse per unit
    # associativity: t[t[a,b],c] == t[a,t[b,c]] over all triples
    for t in (add, mul):
        assert (t[t, :] == t[:, t]).all()
    # distributivity: a(b+c) == ab + ac
    assert (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()


def test_characteristic_and_degree():
    assert (field_new(7).char, field_new(7).degree) == (7, 1)
    assert (field_new(8).char, field_new(8).degree) == (2, 3)
    assert (field_new(81).char, field_new(81).degree) == (3, 4)


# ---------------------------------------------------------------------------
# pinned labels (depend on the fixed modulus polynomials)

def test_extension_field_products_pinned():
    # GF(4): x * x = x + 1
    assert field_new(4).mul_table[2, 2] == 3
    # GF(8): x * x^2 = x^3 = x + 1
    assert field_new(8).mul_table[2, 4] == 3
    # GF(9): x * x = x + 1
    assert field_new(9).mul_table[3, 3] == 4


# ---------------------------------------------------------------------------
# errors

@pytest.mark.parametrize("order", [0, 1, 6, 12, 100])
def test_not_a_prime_power(order):
    with pytest.raises(ValueError, match=f"^{order} is not a prime power$"):
        field_new(order)


@pytest.mark.parametrize("order", [131, 169, 256, 1000, 10 ** 18 + 3])
def test_order_above_limit(order):
    """The bound comes first: a composite order above it is refused for its
    size, and a huge order is never factored."""
    with pytest.raises(ValueError, match=f"^field order {order} exceeds 128$"):
        field_new(order)


# ---------------------------------------------------------------------------
# square / non-square partition

def test_square_classes_gf7():
    sq = square_classes(field_new(7))
    assert sq.c0 == (1, 2, 4)
    assert sq.c1 == (3, 5, 6)


def test_square_classes_gf11():
    sq = square_classes(field_new(11))
    assert sq.c0 == (1, 3, 4, 5, 9)
    assert sq.c1 == (2, 6, 7, 8, 10)


@pytest.mark.parametrize("order", [3, 5, 7, 9, 11, 13, 19, 23, 27, 49])
def test_square_class_structure(order):
    """Both classes have (s-1)/2 elements; products of two non-squares
    are squares; -1 lands in C1 exactly when s = 3 (mod 4)."""
    f = field_new(order)
    sq = square_classes(f)
    assert len(sq.c0) == len(sq.c1) == (order - 1) // 2
    for a in sq.c1[:3]:
        for b in sq.c1[:3]:
            assert f.mul_table[a, b] in sq.c0
    if order % 4 == 3:
        assert f.neg_table[1] in sq.c1
    else:
        assert f.neg_table[1] in sq.c0


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_square_classes_need_odd_characteristic(order):
    with pytest.raises(ValueError, match="square classes need odd characteristic"):
        square_classes(field_new(order))


# ---------------------------------------------------------------------------
# order catalogue

def test_supported_orders():
    orders = supported_orders()
    assert len(orders) == 44
    assert orders[0] == 2 and orders[-1] == 128
    assert 121 in orders and 125 in orders
    assert all(prime_power(s) for s in orders)
    assert 6 not in orders and 12 not in orders
