"""End-to-end acceptance checks, one test per headline claim.

Each test re-verifies a catalogue plan (or family member) from scratch:
structure, exact orthogonality-through-conditioning, contrast information
matrices, optimality conditions, and the adjusted-SS equivalence.  All
identities are exact (Fraction arithmetic) except eigenvalue statements,
which carry a 1e-9 tolerance.

One test is expected to fail and is kept failing on purpose; see
``test_c05_documented_pair_coefficient_formula`` and the README note on
the pair-coefficient discrepancy.
"""

from fractions import Fraction

import numpy as np
from oracles import is_idempotent, projector

from orthoplan import (
    BLOCK,
    Factor,
    Plan,
    estssq_equivalence,
)
from orthoplan.constructions import asym_report
from orthoplan.optimality import (
    a_value,
    bibd_check,
    check_universal_factor,
    e_value,
    universal_ledger,
)
from orthoplan.orthogonality import contrast_c_matrix, is_potb, is_potp
from orthoplan.plan import block_incidence, incidence

TOL = 1e-9


def test_c01_ten_run_plan_for_seven_two_level_factors(potb27):
    """21 factor pairs orthogonal through blocks; information matrix 4*I."""
    assert potb27.n == 10 and potb27.m == 7 and potb27.block_sizes == (5, 5)
    rep = is_potb(potb27)
    assert rep.passed is True
    assert len(rep.pairs) == 21
    assert all(p.passed for p in rep.pairs)
    cm = rep.c_matrix
    assert cm.dim == 7
    assert cm.scalar_identity() == (True, Fraction(4))
    assert abs(e_value(potb27) - 4) <= TOL


def test_c02_ten_run_plan_for_three_three_level_factors(potb33):
    """All pairs orthogonal through blocks, scalar information, optimality."""
    assert potb33.n == 10 and potb33.block_sizes == (4, 4, 2)
    rep = is_potb(potb33)
    assert rep.passed is True
    cm = rep.c_matrix
    assert cm.dim == 6
    assert cm.scalar_identity() == (True, Fraction(3))
    # under the doubled contrast normalisation the same identity reads 6*I
    assert cm.scaled(2).scalar_identity() == (True, Fraction(6))
    ledger = universal_ledger(potb33)
    assert all(f.count_pass for f in ledger.factors)
    assert all(f.passed for f in ledger.factors)
    assert ledger.global_pass is True and ledger.global_a == 3


def test_c03_twelve_run_plan_orthogonal_through_leading_pair(potp34):
    """Four three-level factors; A3, A4 orthogonal through (A1, A2)."""
    assert potp34.n == 12 and potp34.m == 4
    rep = is_potp(potp34, ("A1", "A2"))
    assert rep.passed is True
    i3 = np.eye(3, dtype=int)
    j3 = np.ones((3, 3), dtype=int)
    assert (incidence(potp34, "A1", "A2") == 2 * (j3 - i3)).all()
    assert (incidence(potp34, "A3", "A4") == i3 + j3).all()


def test_c04_interchanged_classes_trade_scalar_form_for_efficiency(potb27, ico26):
    """Class-interchanged 6-factor plan: block-diagonal information matrix,
    same smallest eigenvalue as the plain 6-factor plan, strictly better
    A-value."""
    classes = {"A1": 0, "B1": 0, "C1": 0, "A2": 1, "B2": 1, "C2": 1}
    names = ico26.factor_names
    assert sorted(names) == sorted(classes)
    cm = contrast_c_matrix(ico26)
    expected = [
        [
            Fraction(24, 5) if i == j
            else Fraction(4, 5) if classes[names[i]] == classes[names[j]]
            else Fraction(0)
            for j in range(6)
        ]
        for i in range(6)
    ]
    assert cm.entries_json() == [[str(x) for x in row] for row in expected]
    spectrum = sorted(cm.eigenvalues())
    for got, want in zip(spectrum, [4, 4, 4, 4, 6.4, 6.4]):
        assert abs(got - want) <= TOL

    # reference: the same ten runs carrying only the six plain factors
    minus7 = Plan("potb_2_6", potb27.factors[:6],
                  tuple(r[:6] for r in potb27.runs), potb27.block_sizes)
    assert contrast_c_matrix(minus7).scalar_identity() == (True, Fraction(4))
    assert abs(e_value(ico26) - e_value(minus7)) <= TOL
    assert abs(e_value(ico26) - 4) <= TOL
    assert abs(a_value(ico26) - 21 / 16) <= TOL
    assert abs(a_value(minus7) - 3 / 2) <= TOL
    assert a_value(ico26) < a_value(minus7)


def test_c05_doubled_order_plans_keep_the_pattern(potp43, potp47):
    """24-run and 168-run doubled constructions stay orthogonal through the
    leading pair with incidence coefficient 2."""
    assert potp43.n == 24 and potp43.m == 8
    assert is_potp(potp43, ("A1", "A2")).passed is True
    i3 = np.eye(3, dtype=int)
    j3 = np.ones((3, 3), dtype=int)
    assert (incidence(potp43, "A1", "A2") == 4 * (j3 - i3)).all()
    assert (incidence(potp43, "A3", "A4") == 2 * (i3 + j3)).all()

    assert potp47.n == 168 and potp47.m == 8
    assert is_potp(potp47, ("A1", "A2")).passed is True
    i7 = np.eye(7, dtype=int)
    j7 = np.ones((7, 7), dtype=int)
    assert (incidence(potp47, "A1", "A2") == 4 * (j7 - i7)).all()
    assert (incidence(potp47, "A2", "A7") == 2 * (5 * i7 + j7)).all()


def test_c05_documented_pair_coefficient_formula(potp43, potp47):
    """Documented closed form for the pair-incidence coefficient.

    Kept failing on purpose: the leading-pair incidence entries must sum
    to the run count h*s*(s-1) no matter the construction, which forces
    the coefficient h/2, while the documented formula evaluates to
    2*h*s*(s-1)/8.  The README records the accounting in full.
    """
    for plan, h, s in ((potp43, 4, 3), (potp47, 4, 7)):
        observed = Fraction(int(incidence(plan, "A1", "A2")[0, 1]), 2)
        documented = Fraction(2 * h * s * (s - 1), 8)
        assert observed == documented, (
            f"{plan.name}: coefficient {observed} != documented {documented}")


def test_c06_twenty_run_plan_for_fourteen_two_level_factors(potb2_14):
    assert potb2_14.m == 14 and potb2_14.block_sizes == (5, 5, 5, 5)
    rep = is_potb(potb2_14)
    assert rep.passed is True
    cm = rep.c_matrix
    assert cm.dim == 14
    assert cm.scalar_identity() == (True, Fraction(8))


def test_c07_ninety_run_plan_for_fifteen_three_level_factors(potb3_15):
    assert potb3_15.n == 90 and potb3_15.m == 15 and potb3_15.b == 27
    assert potb3_15.block_sizes == (4, 4, 2) * 9
    rep = is_potb(potb3_15)
    assert rep.passed is True
    cm = rep.c_matrix
    assert cm.dim == 30
    assert cm.scalar_identity() == (True, Fraction(27))
    # doubled normalisation reads 54*I
    assert cm.scaled(2).scalar_identity() == (True, Fraction(54))


def test_c08_twelve_run_mixed_level_plan(asym3):
    """One 3-level factor plus a 4-level extension in six blocks of two."""
    assert asym3.n == 12 and asym3.block_sizes == (2,) * 6
    assert asym3.factor_names == ("x1", "inf")
    n = incidence(asym3, "x1", "inf")
    assert n.shape == (3, 4) and (n == 1).all()
    assert bibd_check(block_incidence(asym3, "x1"), v=3, b=6, r=4, k=2, lam=2)
    assert bibd_check(block_incidence(asym3, "inf"), v=4, b=6, r=3, k=2, lam=1)

    rep = asym_report(asym3)
    assert rep.passed is True          # no same-level pair exists to fail
    (pair,) = rep.pairs
    assert pair.informational is True
    assert pair.pfc is True            # proportional frequencies hold
    assert pair.passed is False        # ...but not the blocked identity
    half = Fraction(1, 2)
    expected = [
        [half, 0, -half, 0],
        [-half, half, 0, 0],
        [0, -half, half, 0],
    ]
    assert [[Fraction(x) for x in row] for row in pair.residual] == expected


def test_c09_fifty_six_run_mixed_level_plan(asym7):
    """Three 7-level factors plus an 8-level extension in 14 blocks of 4."""
    assert asym7.n == 56 and asym7.block_sizes == (4,) * 14
    xs = [f for f in asym7.factor_names if f != "inf"]
    assert xs == ["x1", "x2", "x4"]   # labelled by square-class representatives
    assert all(asym7.factor(f).levels == 7 for f in xs)
    assert asym7.factor("inf").levels == 8
    i7 = np.eye(7, dtype=int)
    j7 = np.ones((7, 7), dtype=int)
    for i, a in enumerate(xs):
        for b in xs[i + 1:]:
            n = incidence(asym7, a, b)
            assert (n == i7 + j7).all()
            la = block_incidence(asym7, a)
            lb = block_incidence(asym7, b)
            assert (la @ lb.T == 4 * n).all()
    for a in xs:
        assert bibd_check(block_incidence(asym7, a), v=7, b=14, r=8, k=4, lam=4)
        assert check_universal_factor(asym7, a).count_pass is True
    assert bibd_check(block_incidence(asym7, "inf"), v=8, b=14, r=7, k=4, lam=3)


def test_c10_adjusted_ss_equivalence_is_biconditional(potp34, potb27):
    """SS adjusted for the conditioning set equals the fully adjusted SS
    exactly when orthogonality through the set holds — observed on exact
    integer responses, with a witness in the failing case."""
    rep = estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=50, seed=42)
    assert rep.condition_holds is True
    assert rep.equal_trials == rep.trials == 50
    assert rep.first_trial == {"ss_fully_adjusted": "763/6", "ss_adjusted": "763/6"}
    assert rep.biconditional_observed is True

    rep2 = estssq_equivalence(potb27, "A1", (BLOCK,), trials=50, seed=42)
    assert rep2.condition_holds is True and rep2.equal_trials == 50
    assert rep2.first_trial == {"ss_fully_adjusted": "512/25", "ss_adjusted": "512/25"}
    assert rep2.biconditional_observed is True

    aliased = Plan("aliased", (Factor("A", 2), Factor("B", 2)),
                   ((0, 0), (1, 1), (0, 0), (1, 1)))
    rep3 = estssq_equivalence(aliased, "A", (), trials=20, seed=0)
    assert rep3.condition_holds is False
    assert not rep3.all_equal
    assert rep3.witness is not None and rep3.witness["trial"] == 0
    assert rep3.biconditional_observed is True


def test_c11_infrastructure_identities():
    """Field tables, orthogonal arrays, Hadamard matrices, and exact linear
    algebra hold on every supported input; projector and adjusted-SS results
    are invariant to the g-inverse choice on 100 seeded instances."""
    from orthoplan import ss_adjusted
    from orthoplan.arrays import hadamard, oa_rao_hamming
    from orthoplan.constructions import seed_plans
    from orthoplan.gf import field_new, supported_orders

    orders = supported_orders()
    assert len(orders) == 44
    for q in orders:
        f = field_new(q)
        add = np.asarray(f.add_table, dtype=np.int64)
        mul = np.asarray(f.mul_table, dtype=np.int64)
        idx = np.arange(q)
        for t in (add, mul):
            assert ((0 <= t) & (t < q)).all()
            assert (t == t.T).all()
        assert (add[0] == idx).all() and (mul[1] == idx).all()
        assert (add[idx, np.asarray(f.neg_table)] == 0).all()
        units = idx[1:]
        inv = np.asarray(f.inv_table)[units]
        assert (mul[units, inv] == 1).all()
        assert (add[add, :] == add[:, add]).all()
        assert (mul[mul, :] == mul[:, mul]).all()
        assert (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()

    for s in (2, 3, 4, 5):
        oa = oa_rao_hamming(field_new(s))
        g = oa.grid
        for i in range(oa.rows):
            for j in range(i + 1, oa.rows):
                counts = np.bincount(s * g[i] + g[j], minlength=s * s)
                assert (counts == oa.columns // (s * s)).all()

    for order in (1, 2, 4, 8, 12, 16, 20, 24, 28, 32):
        h = hadamard(order)
        assert (h @ h.T == order * np.eye(order, dtype=h.dtype)).all()

    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = rng.integers(-3, 4, size=(6, 3)).astype(object)
        p = projector(m)
        assert (p == p.T).all() and is_idempotent(p)
        assert (p == projector(m, reverse=True)).all()

    potb33 = seed_plans()["potb_3_3"]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        y = [int(v) for v in rng.integers(-9, 10, size=potb33.n)]
        # every call checks L L' = C and evaluates Q' C^- Q under both pivot orders
        res = ss_adjusted(potb33, y, "A1", (BLOCK, "A2"))
        assert res.value >= 0
