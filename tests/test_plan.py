"""Plan data model, derived matrices, and serialization."""

import gc
import json
import weakref

import numpy as np
import pytest

from orthoplan import (
    BLOCK,
    GENERAL,
    Factor,
    Plan,
    block_diagonal,
    block_incidence,
    design_matrix,
    incidence,
    plan_from_json,
    plan_to_csv,
    plan_to_json,
    replication,
    universal_ledger,
)
from orthoplan.errors import (
    BlockSizeMismatch,
    LevelOutOfRange,
    NoBlocks,
    NotAnInteger,
    SchemaViolation,
    UnknownFactor,
)
from orthoplan.plan import MAX_GRAM_SIZE, levels_of, plan_dumps, plan_loads


def tiny(blocked=False):
    return Plan(
        name="tiny",
        factors=(Factor("A", 2), Factor("B", 3)),
        runs=((0, 0), (1, 1), (0, 2), (1, 0)),
        block_sizes=(2, 2) if blocked else None,
    )


# ---------------------------------------------------------------------------
# validation

def test_factor_validation():
    with pytest.raises(ValueError):
        Factor("", 2)
    with pytest.raises(ValueError):
        Factor("G", 2)      # reserved
    with pytest.raises(ValueError):
        Factor("block", 2)  # reserved
    with pytest.raises(ValueError):
        Factor("A", 1)
    with pytest.raises(NotAnInteger, match="factor A levels"):
        Factor("A", 2.5)
    assert type(Factor("A", np.int64(3)).levels) is int


def test_plan_validation():
    with pytest.raises(ValueError, match="unique"):
        Plan("p", (Factor("A", 2), Factor("A", 2)), ((0, 0),))
    with pytest.raises(ValueError, match="at least one run"):
        Plan("p", (Factor("A", 2),), ())
    with pytest.raises(ValueError, match="coordinates"):
        Plan("p", (Factor("A", 2),), ((0, 1),))
    with pytest.raises(LevelOutOfRange, match="run 1, factor A: symbol 2"):
        Plan("p", (Factor("A", 2),), ((0,), (2,)))


def test_non_integer_runs_and_block_sizes_are_refused_not_truncated():
    factors = (Factor("A", 2), Factor("B", 2))
    with pytest.raises(NotAnInteger, match="run 0"):
        Plan("p", factors, ((0.9, 1.99), (1, 0)), block_sizes=(1.7, 1))
    with pytest.raises(NotAnInteger, match="block sizes"):
        Plan("p", factors, ((0, 1), (1, 0)), block_sizes=(1.7, 1))
    p = Plan("p", factors, ((np.int64(0), np.int32(1)), (1, 0)), block_sizes=(np.int64(1), 1))
    assert p.runs == ((0, 1), (1, 0)) and p.block_sizes == (1, 1)
    assert {type(x) for x in (*p.runs[0], *p.block_sizes)} == {int}


def test_bool_symbols_levels_and_block_sizes_are_refused():
    """``plan_from_json`` refuses a bool, and so does the data model."""
    with pytest.raises(NotAnInteger, match="run 0"):
        Plan("p", (Factor("A", 2),), ((True,), (False,)))
    with pytest.raises(NotAnInteger, match="factor A levels"):
        Factor("A", True)
    with pytest.raises(NotAnInteger, match="block sizes"):
        Plan("p", (Factor("A", 2),), ((1,), (0,)), block_sizes=(True, True))


def test_block_size_validation():
    with pytest.raises(BlockSizeMismatch):
        Plan("p", (Factor("A", 2),), ((0,), (1,)), block_sizes=(1,))
    with pytest.raises(BlockSizeMismatch):
        Plan("p", (Factor("A", 2),), ((0,), (1,)), block_sizes=(2, 0))


def test_basic_accessors():
    p = tiny(blocked=True)
    assert (p.n, p.m, p.b) == (4, 2, 2)
    assert p.factor_names == ("A", "B")
    assert p.column("B") == (0, 1, 2, 0)
    assert p.factor("A").levels == 2
    with pytest.raises(UnknownFactor):
        p.factor("C")
    assert p.block_of(0) == 0 and p.block_of(3) == 1
    assert p.block_labels() == (0, 0, 1, 1)


def test_unblocked_guards():
    p = tiny()
    assert not p.blocked and p.b == 0
    with pytest.raises(NoBlocks):
        p.block_labels()
    with pytest.raises(NoBlocks):
        block_diagonal(p)
    with pytest.raises(NoBlocks):
        levels_of(p, BLOCK)


# ---------------------------------------------------------------------------
# derived matrices

def test_design_matrix_one_hot():
    p = tiny()
    xb = design_matrix(p, "B")
    assert xb.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert (xb.sum(axis=1) == 1).all()
    assert design_matrix(p, GENERAL).tolist() == [[1], [1], [1], [1]]


def test_design_matrix_block():
    p = tiny(blocked=True)
    assert design_matrix(p, BLOCK).tolist() == [[1, 0], [1, 0], [0, 1], [0, 1]]
    assert levels_of(p, BLOCK) == 2 and levels_of(p, GENERAL) == 1


def test_derived_matrices_are_fresh_and_plans_are_not_retained():
    p = tiny(blocked=True)
    x = design_matrix(p, "A")
    x[0, 0] = 7
    assert design_matrix(p, "A")[0, 0] == 1
    n = incidence(p, "A", "B")
    n[0, 0] = 7
    assert incidence(p, "A", "B")[0, 0] == 1

    universal_ledger(p)
    ref = weakref.ref(p)
    del p, x, n
    gc.collect()
    assert ref() is None


def test_incidence_matches_definition():
    p = tiny(blocked=True)
    xa, xb = design_matrix(p, "A"), design_matrix(p, "B")
    assert (incidence(p, "A", "B") == xa.T @ xb).all()
    assert replication(p, "B").T.tolist() == [[2, 1, 1]]
    assert block_incidence(p, "A").tolist() == [[1, 1], [1, 1]]
    assert block_diagonal(p).tolist() == [[2, 0], [0, 2]]


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip(seeds):
    for plan in seeds.values():
        assert plan_from_json(plan_to_json(plan)) == plan


def test_json_round_trip_via_text():
    p = tiny(blocked=True)
    assert plan_loads(plan_dumps(p)) == p


@pytest.mark.parametrize("doc,path", [
    ([], "$"),
    ({"factors": [], "runs": []}, "$.name"),
    ({"name": "p", "factors": 3, "runs": []}, "$.factors"),
    ({"name": "p", "factors": [3], "runs": []}, "$.factors[0]"),
    ({"name": "p", "factors": [{"name": "A"}], "runs": []}, "$.factors[0].levels"),
    ({"name": "p", "factors": [{"name": "A", "levels": True}], "runs": []},
     "$.factors[0].levels"),
    ({"name": "p", "factors": [{"name": "A", "levels": 1}], "runs": []},
     "$.factors[0]"),
    ({"name": "p", "factors": [{"name": "A", "levels": 2}], "runs": [0]},
     "$.runs[0]"),
    ({"name": "p", "factors": [{"name": "A", "levels": 2}], "runs": [[True]]},
     "$.runs[0][0]"),
    ({"name": "p", "factors": [{"name": "A", "levels": 2}], "runs": [[0]],
      "block_sizes": [True]}, "$.block_sizes[0]"),
])
def test_schema_violations_carry_paths(doc, path):
    with pytest.raises(SchemaViolation) as err:
        plan_from_json(doc)
    assert err.value.path == path


def test_loads_rejects_bad_json():
    with pytest.raises(SchemaViolation, match=r"\$: not valid JSON"):
        plan_loads("{nope")


def test_csv_rendering():
    assert plan_to_csv(tiny()) == "A,B\n0,0\n1,1\n0,2\n1,0\n"
    assert plan_to_csv(tiny(blocked=True)) == (
        "block,A,B\n0,0,0\n0,1,1\n1,0,2\n1,1,0\n")


# ---------------------------------------------------------------------------
# input limit

def sized_doc(levels, blocks=0):
    """A one-run-per-block plan document whose gram size is
    sum(levels) + blocks + 1."""
    doc = {"name": "big", "factors": [{"name": f"A{i}", "levels": s}
                                      for i, s in enumerate(levels)],
           "runs": [[0] * len(levels)] * max(blocks, 1)}
    if blocks:
        doc["block_sizes"] = [1] * blocks
    return json.dumps(doc)


def test_gram_size_limit_admits_the_largest_asym_plan(asym7):
    def asym_size(s):
        return (s - 1) // 2 * s + (s + 1) + 2 * s + 1

    assert sum(f.levels for f in asym7.factors) + asym7.b + 1 == asym_size(7)
    assert asym_size(127) == MAX_GRAM_SIZE == 8_384


@pytest.mark.parametrize("levels,blocks", [
    ([MAX_GRAM_SIZE - 1], 0),
    ([MAX_GRAM_SIZE - 3], 2),
    ([2, 3, MAX_GRAM_SIZE - 8], 2),
])
def test_gram_size_limit_at_the_boundary(levels, blocks):
    plan = plan_loads(sized_doc(levels, blocks))
    assert sum(f.levels for f in plan.factors) + plan.b + 1 == MAX_GRAM_SIZE
    over = [*levels[:-1], levels[-1] + 1]
    with pytest.raises(SchemaViolation, match=f"gram size {MAX_GRAM_SIZE + 1} "
                                              r"\(levels \+ blocks \+ 1\) exceeds the limit"):
        plan_loads(sized_doc(over, blocks))


def test_gram_size_limit_checks_before_the_runs():
    doc = json.loads(sized_doc([10 ** 12]))
    doc["runs"] = "not even a list"
    with pytest.raises(SchemaViolation) as err:
        plan_from_json(doc)
    assert err.value.path == "$" and "exceeds the limit 8384" in str(err.value)
