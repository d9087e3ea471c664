"""Field tables: axioms checked exhaustively for every supported order."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from orthoplan import field_new, gf, square_classes, supported_orders
from orthoplan.errors import VerificationFailed
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


# Every table of every supported field, recorded while prime and prime-power
# fields were still built by two separate table builders.
FIELD_DIGESTS = {   # order: sha256 of its add, mul and neg tables as little-endian int16
    2: "206ecf267c739b22daa0cd67fc7a8b54a98c4945319f3ac56e44a502b93d4152",
    3: "2feae3f3231e2884c7b9137d4e9ccabe8b2e0eca8006da2f719892fa314dc0a6",
    4: "11c75e17a7c414acbb0ed1cb7949c61ba2edd62b6fb01550066f844f8b44af2e",
    5: "43fa6424495101df45f78c0631f5e46381b172b9ceae8708e9ae8dccc1a15981",
    7: "16729c9e9ecde83891c742a39381833253031f8a3025b7fb157d08474ec632c7",
    8: "19d07b2ff0466b0497ff6dfdc1836fac1945d18b54d9323e6f016a85f5c2d3b6",
    9: "86cf7b58877276b02cdc113928a61dd829ccbbbc1b8b1f2a6949057a1a9a5788",
    11: "7280b4fd039c20d67f6635688b393617fb2cafe075218396e3499340a4a3c1f4",
    13: "9357c0f9e13ddf1cfeb8e108921ce927654985d73a09e14192f5e40ed493c8ed",
    16: "7eb08d9d14ff86f5979ddb76d741581e92298393a2438bd3bd9c425ad5e8f9c8",
    17: "ccab2d1c51b09396e97fa7b99bf2b4704e02fe72e25517d674fa27031c7ff4b6",
    19: "6e3a84574f473ca38a813cb4ef13ffdfe96982e7ead4de5817507c6a30aa0839",
    23: "ee4a83113ac756350f15d2fbfd8fbe123657b866eb32570d4862bc49a6532837",
    25: "76b8de15f18535fabd0e7d578f16dc4efc302b7530213e1ec7a912c4909e108c",
    27: "3fdef5ca2c83cfc5169c5df02327e38e5e3b03bebe8366c5fc08497f30116608",
    29: "7aa92828fe145351c2fcd55641325eaebe41eb7b86186ec0b44cbe7c103d135e",
    31: "5769082e3545c7abe497785774d9f011cec1d9c0c5ecafc17fbaa4763944709c",
    32: "ff2308dc235af6e86d95ac71b98eb915ad3245673b8cb621cd97f0ec4beb4d56",
    37: "a8d3697cf4632f30bca335104c44cdc07c8a41727e0538f79fe8cee85e8e6f89",
    41: "f3d53ed6249f59f0120f919cc3be9f6d570abda87d11ef353ab866a91823caae",
    43: "aed3f19feffa88a81f2eeb1942e8f6189148c3f9c8e6232c4d7d0fcb4d2961a6",
    47: "800614402d44ea8dc4e003816be71a256474849d17f6208f23b6f15fe5a807e7",
    49: "b94a1a128f79af8874144015ef85d61185c099fdc5ec51570cbc91b53d9c61dd",
    53: "bf4b8df830ca2b09b9b9826b643dbdddb405ba84ccf60054cf65bc1882b9c8c3",
    59: "41dce577abda2c19a505d47cc5d5b1aa1b6839476239a607d9e7e882e3ebce4d",
    61: "ba3794af2dcbfcba79ab43236335f45bfa96b08e416fd96f6343b3fcfdd81430",
    64: "25140bf95af859580050f68798643e46d60d39d84fe84e665b8874df123c6f70",
    67: "a68447e275f589eb3bc6be406cb8814648c4e75925551ac083aa353cc02f2a28",
    71: "dc3d9ac42129771e21829e75c614cd5c302bd49ff4d43a14043326dfdbefde87",
    73: "c150d5e4389e3ad926deb221eb2df113082b5577a2925c5ea602600c2eef0256",
    79: "1fbe0b9a8c1612f320aa839ea88fbb639d450a8ea73269849f1e3b561418b9c6",
    81: "05d2a4aa19498150b8cf095ffe256df138ccdb56479502007643eeabd0109e0f",
    83: "3b07b29b36fdaf800f14c173ab20caf82f65d06afafcb0833d37cacab6cba582",
    89: "629c0e6d8d854e5c9ff99257acc45622b002fb15071adcfefa0db2c294fa43df",
    97: "de1eb5d0c84456cd0cf6e06f847fa943a30f7da11860254f33454535f178435a",
    101: "178239fe80cdb4a69bc1f32c8ac9f5ba9d567951bcea8d0480a0b5b2489dcef5",
    103: "9f31962b7401bab5f2f1fdc006cdcc8d4b052321892c8f4604044e61a1638b95",
    107: "a3b78a91203bbcb1bc693c7db0750f10d0a76a826d729d2ab11df01f3a01dcf1",
    109: "4b484eb3ecd9d2b45b34feb12db0c2534209562d6400a59b2857094b9d76f45a",
    113: "2c0d64d52300b02626073cfb5a8210e3388905b3de34c702ee142baa73a663a8",
    121: "ef2f01eca29f557936f9303e4dbdad40b76a039100bc2bc8708c5aec3482d1cf",
    125: "764402fe6daa7cdbb66530a6ac5cafda36bd2957f6f24495967c92a3cde2fecc",
    127: "19140dc968928781f09441bb5090a6a9346be5c6828ec949a04a0503a2704f08",
    128: "a04d10428f87defe4ba8bba7cd7630ceda8c8a5ef1c3d33446aeceb6ba3d6406",
}


def table_digest(field):
    tables = (field.add_table, field.mul_table, field.neg_table)
    return hashlib.sha256(b"".join(t.astype("<i2").tobytes() for t in tables)).hexdigest()


def test_field_tables_pinned():
    assert {s: table_digest(field_new(s)) for s in supported_orders()} == FIELD_DIGESTS


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


def test_reducible_modulus_is_a_failed_self_check(monkeypatch):
    """Over x^2 + 2 = (x + 1)(x + 2) the unit x + 1 has no inverse, which
    the field's one structural check refuses."""
    monkeypatch.setitem(gf._MODULUS, 9, (2, 0, 1))
    with pytest.raises(VerificationFailed,
                       match=r"^GF\(9\): every unit has an inverse does not hold$"):
        field_new(9)


def test_square_classes_require_two_halves():
    """A multiplication table whose unit squares are all 1 leaves C0 = {1},
    which the square-class check refuses."""
    f7 = field_new(7)
    mul = f7.mul_table.copy()
    units = np.arange(1, 7)
    mul[units, units] = 1
    with pytest.raises(VerificationFailed, match=r"^GF\(7\): squares and non-squares each "
                                                 r"fill half the units does not hold$"):
        square_classes(replace(f7, mul_table=mul))


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
