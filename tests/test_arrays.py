"""Hadamard matrices and strength-2 orthogonal arrays."""

import hashlib

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
from orthoplan.errors import VerificationFailed


def count_pairs(grid, i, j, s):
    """Ordered symbol-pair counts of two rows, length s*s."""
    return np.bincount(s * grid[i] + grid[j], minlength=s * s)


# ---------------------------------------------------------------------------
# Hadamard construction

# 400 = 20 x 20 and 528 = 12 x 44 are reached only by the Kronecker product
@pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 48, 64, 400, 528])
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
    reason = "not reachable by the built-in constructions" if order == 92 else "no Hadamard matrix"
    with pytest.raises(ValueError, match=reason):
        hadamard(order)


def test_hadamard_order_limit_is_the_largest_a_family_asks_for():
    """potp at s = 3 is the built family with the largest Hadamard order
    under the gram limit: its gram check passes at the order limit (the
    order is then refused as not divisible by 4) and fails one above."""
    limit = arrays.MAX_HADAMARD_ORDER
    with pytest.raises(ValueError, match="divisible by 4"):
        construct_potp(limit, 3)
    with pytest.raises(ValueError, match="gram size"):
        construct_potp(limit + 1, 3)


# Every order up to the limit that the built-in constructions reach, with
# its matrix, recorded while the builder still had a doubling branch
# beside Paley and the Kronecker product.
HADAMARD_DIGESTS = {   # order: sha256 of hadamard(order) as int8
    1: "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    2: "ae0c359ec39763b63fab5028b9c20bdc187b02cf0b81eed343de9b44a84c32c1",
    4: "1e31379be54ef12b103eeb53944e8fa1605651dae053cd80ddf6077e76e86231",
    8: "b77a97f1e7ccb00a3aabd689fc2d67722826d2f6995b5f4bd4f94b8e5fe40a77",
    12: "db7478025ce74776a8a2669368885b71737288dabf1e23985366a367b4f78ab9",
    16: "af4560d6cd506e5032ad7ff691024cad5ac92dad86d748a5e60f57352de315f7",
    20: "d04b560308676ee7cb59dd0f11653ead6c5f5efcbe97f1b57fe11bd39ee46faa",
    24: "1b6d8ae9dab6cce76d17eb65ca904b3f64159d48a7ee1835f6a8ec99e629cfdd",
    28: "3ec6c53133760a03e1b5a4e9c15c83dd33a4a51d0bc97bffc2618262d0b06676",
    32: "9e3ea5468d1ed7e9772d410759f95f8bd7055e065ffeb8d87ec515e63d423c28",
    40: "3c2e966aff899a31dcc64a9536d7f95ee8b86b6b1d0f35991fef2de1b351cf96",
    44: "7608149d896734a0526d38f2538474511db07117b2551d012c30cd4f07e6a477",
    48: "bec212a1e86c9aeb9c17b535432e179af7839cc9d15cbcab8874b2b576a67732",
    56: "64d45028d9edb451ff1476624c7add8d51925202e172f0082f4e68e65c750ffb",
    60: "91a505ae266d3871fefff665af8234c0af0e225d5b5438311f0a63a803939a2f",
    64: "da36f4646c6a4b670d0475d013b23d3843b64120f569ac5b9dca3bd2a71e2f93",
    68: "90f5a68830fdaf41fbf7fbc86f90268423e06537197f01c2266ba95671be2d23",
    72: "a73fb3d0ea2ac002c24b6866009cc874a4d05de6596c866c7ffe1b91c53bbb7f",
    80: "a20b74d8edca3569b964cbc4557fa794b56ef6d821577f3318b37e2ef4df25e7",
    84: "698e79250ff2545aa3b67b5f7670ecab8f67b9ecd74d8ad790c681345c033ec6",
    88: "0d8079c59166e29c7f64c1546f799bb4a8b9cbabdedb06164965908f1662b917",
    96: "4f80ce30bdc45b44cada3fa21d69f226bbd1fb4542edb4504ae8c8f83c69fe44",
    104: "f8007b07261281d17aa798b418f74428384e74680311ce065a325e09f496b22b",
    108: "7deb180ca8331131e11b581731bbc5a32d5d2c0a6c1e19b9e79c1a6718fee996",
    112: "4a2cf9c35b7d8b27f78866924ff88a4ab1298aefd5d22a6de8636ccdecf70245",
    120: "2dda9de3135eefdcc4524951afca925eb3c9fdc665cc158a89aadcfdf211b084",
    128: "5e690eda13356657b66263a8c71e63e81ba419c9429f35e716e4f044d420d6af",
    136: "8956d8771454fc9a0131e26b8dc4f8f4353a51154dc81fbfa094dd546bc7bd4b",
    144: "4de8fb9c23e3a1b915af4f95bff88dfbd97b8488b5b6e005a9f40d675ca110db",
    160: "d622ce47379dc1bef87336433ba69a91dbf037ef04ecfe0fbdb5e5c0e199c44d",
    168: "ce2b3d88430fba99865e95d44ad210381dea1485671ca2821ed9df4063e559c1",
    176: "9aad40d1f74a2e586bb970d13be1c70c8f49fb0e0a75dc5a6aca5e85fdb970b8",
    192: "412199e30040f7b2dabcf804719b07f895b07b65591a4fe49fd1798d4b7b6b6a",
    208: "21c02c993461948acab4e05a51eb827c24b6df09978ed18914b56c07479f1780",
    216: "b0858300c4fb74ac61328fbf227fb5a4e1809becb54dd02c452bfece444d486a",
    224: "94c081a1bb1a3c71bf46224be482a19ef8c0dac6c78f566d3d5b5f9fdb76de2e",
    240: "63cb7ed0a60f58ee049b64f8adb6b2d02640c5f7a2000f00ccf7d5be12612255",
    256: "1b6f6787fea268d819e77cab1ffd7ba53a338cbaf87c587f37b9cc334dbabda7",
    272: "12919bf2f5507f97deb45e0e0b3294e5cffa88c601f04fb468757f741f7d5846",
    288: "2416594cb5ce8ce720887cd1727de98482c8e8b70db26f45ce6c97eff1e20282",
    320: "ef56dc72b6d0caf46b9f84ae115d59ece4282df9d7c974fb0920a861cfb68334",
    336: "1b29bb988dd3bd657dbe08725d4a1c04d2d2250bb5b32c69a93121f302db9df7",
    352: "de474f1df53e4df06e9ba6e554122bd59e04f4cb784ac96b1c82244eab342e18",
    384: "1b0e118ba324c50069596646360ad61c0390fb9c0d0abfbdb27713c16e77922e",
    400: "a27140cce9e8cec744c591e5980bdc1fb04e2f355a2783c0bf54892bed2103c8",
    416: "9712f41fa78f0fe053fa2155cbc22f2441da6ad9d72412f1b890b2fd3325a034",
    432: "4cf5084e1199f639d8e3a39f041e8882980fe29f842fbe9122423373c289efba",
    448: "f92c06127576e8c4b5441a29a4231f052de40a7cb91c1c1d12b018ef21d410a0",
    480: "24460f59fddc3a0143b7aacd755bb9d4679b2fb4a61d1c02c79b88c8e4f3cf3f",
    512: "688d06a79118eac10793d3ef514383cd9b74686a6beb1ba466bbd5b4fc51ec6d",
    528: "a96a9756041aea4bbfec5d10a5ac7f9ee719a15d84942db1ee662b74e37b6a4d",
    544: "6fd21155602af0406780882991750dc44a124bbc8cf1651be789ead03fba41d2",
    560: "0a741174a16e400339124d01416cd653d93988a603a48dbf44f5f6465dc72ad3",
    576: "a4604113d36d08de7ed9e6d528bdd2b564d7a3bbcda5c7b11bcb082ac83fc923",
    640: "0293c11dcf7ae8d3e1ba8fff238cf74ce9e484f74bd313d5d77a7a4c072ab2f7",
    672: "2b0fd621bcfa57affa5966f4b1fe52f898938e97cadbb77db680e7a0132f72cc",
    704: "13cbf89c1182dffd2ad585301222bcbd9d699ac41437697cd4516902091810d2",
    720: "7cc794702ce0e03f3e42c3ec36b74c83df13f6678bddca63546489663993f011",
    768: "dfae031c81f43e15a92e5aac7651c34561dfeab7cfc8ae486ab10b0f9839fe69",
    784: "e37fe388de5b7d2207e912a4066504b72f9874830dccc65f6f573d3fa75b8abe",
    800: "33907ba7e969ec37a484035eecf449db7733456a1532ab6dc59a5996cc42d463",
    816: "228d6c40ea9037e07af017b4f1bb8fe5b0962391399fa619526ab61ee3701d5d",
    832: "b1a91dc59b1b34f55c0bb3e30a1873fde6c2503ba7978941ad96cc32e6c293a3",
    864: "27fbdd6f92f6b2969ed538c8a0249348e60a5ff96284a5ffbb4d73771c5a3606",
    880: "c23c565e017c3d0d64206ab6b1ff8d49d40a27ee9ced2b08fb5b8a85e063c4f2",
    896: "7902fd8bdb0d851b506f34226de50640d867e2d016a451bbd2075b8f1f64bcd0",
    960: "d4e868764d01096b1e54330f5ffad12c96917da6efe0e518d5cafbd8ac34de23",
    1008: "3d5598b0b6a6cb5625d5380b8c0574511d91bf8012ce7e6c5ea336563eeef545",
    1024: "abb62bb8fb9d1ae317a12a0dc6f89a93038c3fe84d1613bff7246b93f9da1d6e",
    1056: "53367a512afd07d9a050ae0dd5711393616b5f1212b6a272c22b1f467840080d",
    1088: "b692355e1a38b3b128f8881781109f734c8f2b4287f904ebf24d0d44c3819aca",
    1120: "5a93721feb424bb17a0c2545bb2649dcd970fc1b0524771f20287e2073d203f2",
    1152: "30791b9bd69a9bdca40439d7fcc9ab8a1d37f88fcd6c5afee35acd1be555f3e9",
    1200: "64141c1a5772c69d45787f4c2d5215aad98d94333f4b91c932bb81004db472f1",
    1232: "d731470de55cacbea106d6772f90ca684bb01f881f1b3065f4b3544087533733",
    1248: "8ff3ad3935ebb9613c2aada0da7c8dc376504fbbad2361c44545492cda793c94",
    1280: "cee6411c2a2190315e439df8503f1fd83ed666854ae808ca298b36b2ba91d0ed",
    1296: "204ad340f29afac1810fef6fe969cc4cadc872dab13997c96df28470de188060",
    1344: "c5be05b8a38600f1bc522e7a376103b613331ffd6ede2f53d41afb38c9a15a00",
    1360: "afc2e436e7d209be8712c718420735ec72d79b436aa7dedf0733b7b39c2034b2",
}


def test_hadamard_matrices_pinned():
    """``hadamard`` at every order the builder reaches, its exact H H'
    check included."""
    got = {}
    for order in range(1, arrays.MAX_HADAMARD_ORDER + 1):
        if arrays._build_hadamard(order) is not None:
            got[order] = hashlib.sha256(hadamard(order).astype("i1").tobytes()).hexdigest()
    assert got == HADAMARD_DIGESTS


@pytest.mark.parametrize("order", [12, 16])     # Paley and Kronecker
def test_hadamard_refuses_a_matrix_that_fails_the_identity(monkeypatch, order):
    build = arrays._build_hadamard

    def one_entry_flipped(n):
        h = build(n).copy()
        h[1, 1] *= -1
        return h

    monkeypatch.setattr(arrays, "_build_hadamard", one_entry_flipped)
    with pytest.raises(VerificationFailed, match=f"hadamard\\({order}\\): H H' = {order} I"):
        hadamard(order)


# ---------------------------------------------------------------------------
# two-symbol arrays from Hadamard matrices

@pytest.mark.parametrize("order", [2, 4, 8, 12, 16])     # order 2 gives one row
def test_hadamard_to_oa_strength2(order):
    oa = hadamard_to_oa(hadamard(order))
    assert oa.rows == order - 1 and oa.columns == order
    assert oa.symbols == 2
    want = order // 4
    for i in range(oa.rows):
        for j in range(i + 1, oa.rows):
            assert (count_pairs(oa.grid, i, j, 2) == want).all()


def test_hadamard_to_oa_too_small():
    with pytest.raises(ValueError, match="order 1 leaves no row"):
        hadamard_to_oa(hadamard(1))


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
# the product's zero row, above an array's grid

def test_q_extend():
    oa = oa_rao_hamming(field_new(3))
    q = q_extend(oa)
    assert isinstance(q, np.ndarray) and q.dtype == np.int64 and q.shape == (5, 9)
    assert not q[0].any()
    assert (q[1:] == oa.grid).all()


def test_zero_row_single_effective_row():
    # the grid potb2 translates by at h = 2 is no array: its zero row is
    # unbalanced like any other constant row
    with pytest.raises(ValueError, match=r"column count not divisible by s\^2"):
        OrthogonalArray(grid=q_extend(hadamard_to_oa(hadamard(2))), symbols=2)
    with pytest.raises(ValueError, match="rows 0,1: pair counts"):
        OrthogonalArray(grid=q_extend(oa_rao_hamming(field_new(3))), symbols=3)


# ---------------------------------------------------------------------------
# validation on construction

def test_rejects_a_grid_that_is_not_two_dimensional():
    with pytest.raises(ValueError, match="grid must be two-dimensional"):
        OrthogonalArray(grid=np.array([0, 1]), symbols=2)


def test_rejects_a_column_count_not_divisible_by_s_squared():
    with pytest.raises(ValueError, match=r"column count not divisible by s\^2"):
        OrthogonalArray(grid=np.array([[0, 1, 0, 1, 2, 2], [0, 1, 2, 2, 0, 1]]), symbols=3)


def test_rejects_an_unbalanced_single_row():
    # one row has no pair to count, so only its balance is checked
    assert OrthogonalArray(grid=np.array([[0, 1]]), symbols=2).rows == 1
    with pytest.raises(ValueError, match="row 0 not symbol-balanced"):
        OrthogonalArray(grid=np.array([[0, 0]]), symbols=2)


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


def test_strength_survives_row_deletion():
    oa = hadamard_to_oa(hadamard(8))
    OrthogonalArray(grid=oa.grid[:4], symbols=2)  # any subset of rows still works
