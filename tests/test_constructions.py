"""Seed plans, translation orbits, the signed-seed expansion, the
block-multiplying product, and the asymmetric family."""

from dataclasses import replace

import numpy as np
import pytest

from orthoplan import (
    Factor,
    OrthogonalArray,
    Plan,
    bibd_check,
    c0_expand,
    diamond,
    field_new,
    is_potb,
    is_potp,
    orbit,
    power_plan,
    seed_plans,
    translate,
    validate_signed_seed,
)
from orthoplan import constructions, orthogonality, plan as plan_module
from orthoplan.constructions import (
    _asym,
    _potb2,
    _potb3,
    _potp,
    asym_report,
    construct_asym,
    construct_potb2,
    construct_potp,
    _signed_seed,
)
from orthoplan.errors import (
    BadCongruence,
    DimensionMismatch,
    EvenCharacteristic,
    SymbolMismatch,
    UnsupportedOrder,
    VerificationFailed,
)
from orthoplan.plan import block_incidence, incidence


# ---------------------------------------------------------------------------
# seed plan integrity

def test_seed_catalogue(seeds):
    assert sorted(seeds) == ["ico_2_6", "potb_2_7", "potb_3_3", "potp_3_4"]


def test_two_level_seed_shape(potb27):
    assert (potb27.n, potb27.m, potb27.block_sizes) == (10, 7, (5, 5))
    # replication is deliberately unequal ...
    assert potb27.column("A1").count(0) == 4
    # ... and the second block repeats one run
    assert potb27.runs[8] == potb27.runs[9]


def test_three_level_seed_shape(potb33):
    assert (potb33.n, potb33.m, potb33.block_sizes) == (10, 3, (4, 4, 2))


def test_pair_seed_shape(potp34):
    assert (potp34.n, potp34.m, potp34.blocked) == (12, 4, False)


def test_interchanged_seed_shares_first_block(ico26):
    assert ico26.block_sizes == (5, 5)
    first = [r[:3] for r in ico26.runs[:5]]
    second = [r[3:] for r in ico26.runs[:5]]
    assert first == second   # the two classes agree on block one


# ---------------------------------------------------------------------------
# translation

def test_translate_identity(potb33):
    f3 = field_new(3)
    out = translate(potb33, [(0, 0, 0)], f3)
    assert out.runs == potb33.runs
    assert out.name == "potb_3_3_t1"
    assert out.block_sizes == potb33.block_sizes


def test_translate_shifts_elementwise(potb33):
    f3 = field_new(3)
    out = translate(potb33, [(1, 2, 0)], f3)
    assert out.runs[0] == (1, 2, 0)
    assert out.runs[3] == (0, 1, 0)    # (2,2,0) + (1,2,0)


def test_translate_errors(potb33):
    f3 = field_new(3)
    with pytest.raises(DimensionMismatch):
        translate(potb33, [(0, 0)], f3)
    with pytest.raises(SymbolMismatch):
        translate(potb33, [(0, 0, 3)], f3)


def test_translate_absorbing_level():
    f3 = field_new(3)
    p = Plan("mix", (Factor("a", 3), Factor("e", 4)), ((0, 3), (1, 2)))
    out = translate(p, [(1, 1)], f3)
    assert out.runs == ((1, 3), (2, 0))   # top level of "e" absorbs


def test_translate_incompatible_levels():
    f3 = field_new(3)
    p = Plan("bad", (Factor("w", 5),), ((0,), (4,)))
    with pytest.raises(SymbolMismatch):
        translate(p, [(1,)], f3)


def test_orbit(potb33):
    f3 = field_new(3)
    out = orbit(potb33, f3)
    assert out.n == 30 and out.b == 9
    assert out.runs[:10] == potb33.runs              # u = 0 copy first
    assert out.runs[10] == (1, 1, 1)                 # u = 1 applied to (0,0,0)


def test_c0_expand():
    f7 = field_new(7)
    arr = np.array([[0, 1], [3, 6]])
    out = c0_expand(arr, f7)                         # C0 = {1, 2, 4}
    assert out.tolist() == [[0, 1, 0, 2, 0, 4], [3, 6, 6, 5, 5, 3]]
    f3 = field_new(3)
    assert c0_expand(arr % 3, f3).tolist() == (arr % 3).tolist()


# ---------------------------------------------------------------------------
# signed seed arrays

@pytest.mark.parametrize("h", [4, 8])
def test_signed_seed_valid(h):
    seed = _signed_seed(h)
    assert seed.shape == (2 * h, 2 * h)
    assert validate_signed_seed(seed)


def test_signed_seed_counts():
    seed = _signed_seed(4)
    n = seed.shape[1]
    diff = seed[1] - seed[0]
    assert (diff == 1).sum() == n // 2 and (diff == -1).sum() == n // 2
    diff = seed[3] - seed[2]
    assert (diff == 1).sum() == n // 4 and (diff == -1).sum() == n // 4


@pytest.mark.parametrize("bad,msg", [
    (np.zeros((2, 6), dtype=int), "divisible by 4"),
    (np.ones((1, 4), dtype=int), "must be zero"),
    (np.array([[0, 0, 0, 0], [2, 0, 0, -2]]), "entries must lie"),
    (np.array([[0, 0, 0, 0], [1, 1, -1, -1], [1, -1, 0, 0]]), "leaves"),
    (np.array([[0, 0, 0, 0], [1, 1, 1, -1]]), "occurs 3 times, expected 2"),
])
def test_validate_signed_seed_rejects(bad, msg):
    with pytest.raises(ValueError, match=msg):
        validate_signed_seed(bad)


# ---------------------------------------------------------------------------
# the expanded pair-orthogonal families

def test_potp_structure(potp43):
    assert (potp43.n, potp43.m, potp43.blocked) == (24, 8, False)
    eye, jay = np.eye(3, dtype=int), np.ones((3, 3), dtype=int)
    n12 = incidence(potp43, "A1", "A2")
    assert (n12 == 4 * (jay - eye)).all()
    n34 = incidence(potp43, "A3", "A4")
    assert (n34 == 2 * (eye + jay)).all()
    assert is_potp(potp43, ("A1", "A2")).passed


def test_potp_seven_levels(potp47):
    assert (potp47.n, potp47.m) == (168, 8)
    eye, jay = np.eye(7, dtype=int), np.ones((7, 7), dtype=int)
    n12 = incidence(potp47, "A1", "A2")
    assert (n12 == 4 * (jay - eye)).all()
    n27 = incidence(potp47, "A2", "A7")
    assert (n27 == 2 * (5 * eye + jay)).all()


def test_potp_errors():
    with pytest.raises(BadCongruence):
        construct_potp(4, 5)
    with pytest.raises(BadCongruence):
        construct_potp(4, 4)
    with pytest.raises(UnsupportedOrder):
        construct_potp(6, 3)


# ---------------------------------------------------------------------------
# powers and the block-multiplying product

def test_power_plan_identity(potb33):
    assert power_plan(potb33, 1) is potb33


def test_power_plan(potb33):
    p2 = power_plan(potb33, 2)
    assert p2.m == 6 and p2.n == potb33.n
    assert p2.factor_names == ("A1_1", "A2_1", "A3_1", "A1_2", "A2_2", "A3_2")
    assert p2.runs[0] == potb33.runs[0] * 2
    assert p2.block_sizes == potb33.block_sizes
    with pytest.raises(ValueError):
        power_plan(potb33, 0)


def test_diamond_contains_untranslated_copy(potb27, potb2_14):
    # the column aligned with the zero row reproduces the seed runs
    assert [r[:7] for r in potb2_14.runs[:10]] == list(potb27.runs)


def test_diamond_errors(potb27, potb33):
    f2, f3 = field_new(2), field_new(3)
    plain = OrthogonalArray(grid=np.array([[0, 0, 1, 1], [0, 1, 0, 1]]), symbols=2)
    with pytest.raises(ValueError, match="zero-row"):
        diamond(plain, potb27, f2)
    q = OrthogonalArray(grid=np.array([[0, 0], [0, 1]]), symbols=2, zero_row=True)
    with pytest.raises(SymbolMismatch):
        diamond(q, potb27, f3)
    with pytest.raises(SymbolMismatch):
        diamond(q, potb33, f2)


def test_potb2_families(potb2_14, potb2_28):
    assert (potb2_14.m, potb2_14.block_sizes) == (14, (5,) * 4)
    assert (potb2_28.m, potb2_28.b, potb2_28.n) == (28, 8, 40)
    ok, val = is_potb(potb2_28).c_matrix.scalar_identity()
    assert ok and val == 16


@pytest.mark.parametrize("build,check", [
    (lambda: _potb2(2), is_potb),
    (lambda: _potb2(4), is_potb),
    (_potb3, is_potb),
    (lambda: _potp(4, 3), lambda plan: is_potp(plan, ("A1", "A2"))),
    (lambda: _asym(7), asym_report),
], ids=["potb2-h2", "potb2-h4", "potb3", "potp-4-3", "asym-7"])
def test_builder_report_is_a_fresh_check(build, check):
    plan, report = build()
    assert report.to_json() == check(plan).to_json()
    assert report.passed


@pytest.mark.parametrize("build,heads", [
    (lambda: construct_asym(7), [("block",), ("block",), ("G",)]),
    (lambda: construct_potp(4, 3), [(), (), ("G",)]),
], ids=["asym-7", "potp-4-3"])
def test_incidence_self_checks_count_once(record_calls, build, heads):
    """Every incidence the asym and potp self-checks compare is a slice of
    one gram matrix (``incidence`` and ``block_incidence`` count one gram
    each).  Each builder's report counts two more: the asym report's for
    its pairs through the block and through G, the potp report's for its
    pairs and for its contrast C-matrix."""
    calls = record_calls(orthogonality, "gram", record_calls(plan_module, "gram"))
    plan = build()
    assert [idents for _, idents in calls] == [head + plan.factor_names for head in heads]


def test_asym_checks_its_one_level_by_block_matrix_once(record_calls):
    """The halves check pins one L for every s-level factor, so the asym
    self-check makes one BIBD check for them and one for the extended factor."""
    calls = record_calls(constructions, "bibd_check")
    construct_asym(7)
    assert len(calls) == 2


def test_asym_requires_the_report_it_hands_over(monkeypatch):
    """A report with a failing s-level pair fails the asym builder."""
    real = constructions.is_potb

    def failing_level_pair(plan):
        rep = real(plan)
        return replace(rep, pairs=(replace(rep.pairs[0], passed=False),) + rep.pairs[1:])

    monkeypatch.setattr(constructions, "is_potb", failing_level_pair)
    with pytest.raises(VerificationFailed, match="asym s=7: s-level pairs orthogonal"):
        construct_asym(7)


def test_potb2_bad_order():
    with pytest.raises(UnsupportedOrder):
        construct_potb2(3)


def test_potb3_family(potb3_15):
    assert (potb3_15.n, potb3_15.m, potb3_15.b) == (90, 15, 27)
    assert potb3_15.block_sizes == (4, 4, 2) * 9


# ---------------------------------------------------------------------------
# the asymmetric family

def test_asym3_frozen_runs(asym3):
    assert asym3.factor_names == ("x1", "inf")
    assert asym3.block_sizes == (2,) * 6
    assert asym3.runs == ((1, 2), (0, 0), (2, 1), (0, 3), (2, 0), (1, 1),
                          (0, 2), (1, 3), (0, 1), (2, 2), (1, 0), (2, 3))


def test_asym3_incidence(asym3):
    assert (incidence(asym3, "x1", "inf") == np.ones((3, 4), dtype=int)).all()
    assert bibd_check(block_incidence(asym3, "x1"), v=3, b=6, r=4, k=2, lam=2)
    assert bibd_check(block_incidence(asym3, "inf"), v=4, b=6, r=3, k=2, lam=1)


def test_asym7_identities(asym7):
    assert asym7.factor_names == ("x1", "x2", "x4", "inf")
    assert asym7.block_sizes == (4,) * 14
    eye, jay = np.eye(7, dtype=int), np.ones((7, 7), dtype=int)
    xs = ["x1", "x2", "x4"]
    for i, a in enumerate(xs):
        for b in xs[i + 1:]:
            n_ab = incidence(asym7, a, b)
            assert (n_ab == eye + jay).all()
            la, lb = block_incidence(asym7, a), block_incidence(asym7, b)
            assert (la @ lb.T == 4 * n_ab).all()
        assert bibd_check(block_incidence(asym7, a), v=7, b=14, r=8, k=4, lam=4)
    assert bibd_check(block_incidence(asym7, "inf"), v=8, b=14, r=7, k=4, lam=3)


def test_asym_report_dual_status(asym3):
    rep = asym_report(asym3)
    assert rep.check == "asym-dual"
    assert len(rep.pairs) == 1
    pair = rep.pair("x1", "inf")
    assert pair.informational and pair.pfc and not pair.passed
    assert rep.passed          # informational pairs do not gate the report


def test_asym_report_seven(asym7):
    rep = asym_report(asym7)
    level_pairs = [p for p in rep.pairs if not p.informational]
    ext_pairs = [p for p in rep.pairs if p.informational]
    assert len(level_pairs) == 3 and len(ext_pairs) == 3
    assert all(p.passed for p in level_pairs)
    assert all(p.pfc and not p.passed for p in ext_pairs)


def test_asym_errors():
    with pytest.raises(EvenCharacteristic):
        construct_asym(2)
    with pytest.raises(EvenCharacteristic):
        construct_asym(4)


def test_asym_warns_then_fails_off_congruence():
    """For s = 1 (mod 4) the family's claims genuinely do not hold: the
    constructor warns and its self-verification fails."""
    with pytest.warns(UserWarning, match="only established"):
        with pytest.raises(VerificationFailed):
            construct_asym(5)
