"""Plan data model, derived matrices, and serialization."""

import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import design_matrix, dumps, gram_oracle

from orthoplan import (
    BLOCK,
    GENERAL,
    Factor,
    Plan,
    construct_potp,
    incidence,
    is_potb,
    plan_from_json,
    plan_to_csv,
    plan_to_json,
    universal_ledger,
)
from orthoplan.arrays import MAX_HADAMARD_ORDER
from orthoplan.gf import supported_orders
from orthoplan.plan import (_DUMP_BATCH, MAX_GRAM_SIZE, MAX_RUNS, _dump, gram,
                            levels_of, plan_loads)


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
    with pytest.raises(ValueError, match="invalid factor name ''"):
        Factor("", 2)
    with pytest.raises(ValueError, match="invalid factor name 'G'"):
        Factor("G", 2)      # reserved
    with pytest.raises(ValueError, match="invalid factor name 'block'"):
        Factor("block", 2)  # reserved
    with pytest.raises(ValueError, match="factor A: needs >= 2 levels"):
        Factor("A", 1)
    with pytest.raises(ValueError, match="factor A levels: "):
        Factor("A", 2.5)
    assert type(Factor("A", np.int64(3)).levels) is int


def test_plan_validation():
    with pytest.raises(ValueError, match="unique"):
        Plan("p", (Factor("A", 2), Factor("A", 2)), ((0, 0),))
    with pytest.raises(ValueError, match="at least one run"):
        Plan("p", (Factor("A", 2),), ())
    with pytest.raises(ValueError, match="coordinates"):
        Plan("p", (Factor("A", 2),), ((0, 1),))
    with pytest.raises(ValueError, match="run 1, factor A: symbol 2"):
        Plan("p", (Factor("A", 2),), ((0,), (2,)))


def test_non_integer_runs_and_block_sizes_are_refused_not_truncated():
    factors = (Factor("A", 2), Factor("B", 2))
    with pytest.raises(ValueError, match="run 0: "):
        Plan("p", factors, ((0.9, 1.99), (1, 0)), block_sizes=(1.7, 1))
    with pytest.raises(ValueError, match="block sizes: "):
        Plan("p", factors, ((0, 1), (1, 0)), block_sizes=(1.7, 1))
    p = Plan("p", factors, ((np.int64(0), np.int32(1)), (1, 0)), block_sizes=(np.int64(1), 1))
    assert p.runs == ((0, 1), (1, 0)) and p.block_sizes == (1, 1)
    assert {type(x) for x in (*p.runs[0], *p.block_sizes)} == {int}


def test_bool_symbols_levels_and_block_sizes_are_refused():
    """``plan_from_json`` refuses a bool, and so does the data model."""
    with pytest.raises(ValueError, match="run 0: a bool is not an integer"):
        Plan("p", (Factor("A", 2),), ((True,), (False,)))
    with pytest.raises(ValueError, match="factor A levels: a bool is not an integer"):
        Factor("A", True)
    with pytest.raises(ValueError, match="block sizes: a bool is not an integer"):
        Plan("p", (Factor("A", 2),), ((1,), (0,)), block_sizes=(True, True))


def test_block_size_validation():
    with pytest.raises(ValueError, match="block sizes sum to 1, plan has 2 runs"):
        Plan("p", (Factor("A", 2),), ((0,), (1,)), block_sizes=(1,))
    with pytest.raises(ValueError, match="block sizes must be positive"):
        Plan("p", (Factor("A", 2),), ((0,), (1,)), block_sizes=(2, 0))


def test_basic_accessors():
    p = tiny(blocked=True)
    assert (p.n, p.m, p.b) == (4, 2, 2)
    assert p.factor_names == ("A", "B")
    assert p.column("B") == (0, 1, 2, 0)
    assert p.factor("A").levels == 2
    with pytest.raises(ValueError, match="no factor named 'C' in plan 'tiny'"):
        p.factor("C")
    assert p.block_labels() == (0, 0, 1, 1)


def test_unblocked_guards():
    p = tiny()
    assert not p.blocked and p.b == 0
    with pytest.raises(ValueError, match="plan 'tiny' has no blocks"):
        p.block_labels()
    with pytest.raises(ValueError, match="plan 'tiny' has no blocks"):
        incidence(p, "A", BLOCK)
    with pytest.raises(ValueError, match="plan 'tiny' has no blocks"):
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
    # replication r_B, the level-by-block counts L_A and D_k = diag(block sizes)
    assert incidence(p, "B", GENERAL).T.tolist() == [[2, 1, 1]]
    assert incidence(p, "A", BLOCK).tolist() == [[1, 1], [1, 1]]
    assert incidence(p, BLOCK, BLOCK).tolist() == [[2, 0], [0, 2]]


def test_gram_counts_chunks_of_runs_no_larger_than_its_result(record_calls):
    """potp h=8 s=7 has 336 runs on 16 seven-level factors: each stack
    below spans several chunks, and no array of codes handed to
    ``np.bincount`` exceeds the size x size result."""
    plan = construct_potp(8, 7)
    names = plan.factor_names
    counted = record_calls(np, "bincount")
    for idents in [(GENERAL,) + names, names, names + names[:2] + (GENERAL, GENERAL)]:
        counted.clear()
        g = gram(plan, idents)
        codes = [args[0].size for args in counted]
        assert g.dtype == object and (g == gram_oracle(plan, idents)).all()
        assert len(codes) > 1 and max(codes) <= g.size
        assert sum(codes) == plan.n * len(idents) ** 2


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip(seeds):
    for plan in seeds.values():
        assert plan_from_json(plan_to_json(plan)) == plan


def test_json_round_trip_via_text():
    p = tiny(blocked=True)
    assert plan_loads(dumps(plan_to_json(p))) == p


# Characters the encoder escapes or that look like JSON syntax, beside any other.
AWKWARD = '"\\/[]{},: \n\r\t\x00\x1f\x7fé€\u2028😀'
texts = st.text(st.sampled_from(AWKWARD) | st.characters(), max_size=6)
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | texts
           | st.sampled_from([1e-300, -0.0, 5e-324, 1.7976931348623157e308, 2 ** 80]))
documents = st.recursive(
    scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(texts, kids, max_size=4)),
    max_leaves=40)


def dump_pieces(doc):
    pieces = []
    _dump(doc, pieces.append)
    return pieces


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(documents)
@example({})
@example([])
@example([[], {}, [[]], {"": {}}, ((),), {"a": [{}]}])
@example({"b": (1, ("x",)), "a": {"q\"\\[,]\n": "é😀"}, "": [1e-300, -0.0, True, None]})
def test_dump_writes_the_text_of_json_dumps(doc):
    """The pieces of ``_dump`` join to the text ``json.dumps`` gives with
    sorted keys and a two-space indent, and one closing newline."""
    pieces = dump_pieces(doc)
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert pieces[-1] == "\n" and "" not in pieces


def test_a_large_report_reaches_write_in_batches(potb2_28):
    """A report of many chunks, here the pair report of potb2 h=4, is written
    a batch of ``_DUMP_BATCH`` encoder chunks at a time, then the newline."""
    doc = is_potb(potb2_28).to_json()
    chunks = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc))
    pieces = dump_pieces(doc)
    assert chunks > 2 * _DUMP_BATCH
    assert len(pieces) == -(-chunks // _DUMP_BATCH) + 1
    assert "".join(pieces) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: "):
        plan_from_json(doc)


def test_loads_rejects_bad_json():
    with pytest.raises(ValueError, match=r"^\$: not valid JSON"):
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
    with pytest.raises(ValueError, match=f"gram size {MAX_GRAM_SIZE + 1} "
                                              r"\(levels \+ blocks \+ 1\) exceeds the limit"):
        plan_loads(sized_doc(over, blocks))


def test_run_limit_is_the_most_runs_a_builder_writes(potp43, asym7, potb2_28, potb3_15):
    """Every family a builder writes within MAX_GRAM_SIZE, by its run-count
    formula (checked on small builds): the most runs, and so the run limit,
    are those of potp h=32 s=127, so every built plan file reads back."""
    assert (potp43.n, asym7.n, potb2_28.n, potb3_15.n) == (4 * 3 * 2, 7 * 8, 10 * 4, 90)
    odd = [s for s in supported_orders() if s % 2]
    runs = [h * s * (s - 1) for s in odd if s % 4 == 3
            for h in range(4, MAX_HADAMARD_ORDER + 1, 4) if 2 * h * s + 1 <= MAX_GRAM_SIZE]
    runs += [s * (s + 1) for s in odd]      # asym: gram size at most that of s = 127
    runs += [10 * h for h in range(1, MAX_HADAMARD_ORDER + 1) if 16 * h + 1 <= MAX_GRAM_SIZE]
    assert max(runs) == MAX_RUNS == 32 * 127 * 126 == 512_064


def test_run_limit_checks_before_any_run():
    doc = json.loads(sized_doc([2]))
    doc["runs"] = ["not a run"] * (MAX_RUNS + 1)
    with pytest.raises(ValueError,
                       match=rf"^\$\.runs: {MAX_RUNS + 1} runs exceed the limit {MAX_RUNS}$"):
        plan_from_json(doc)
    doc["runs"] = doc["runs"][1:]
    with pytest.raises(ValueError, match=r"^\$\.runs\[0\]: expected a list$"):
        plan_from_json(doc)


def test_gram_size_limit_checks_before_the_runs():
    doc = json.loads(sized_doc([10 ** 12]))
    doc["runs"] = "not even a list"
    with pytest.raises(ValueError, match=r"^\$: gram size \d+ .* exceeds the limit 8384$"):
        plan_from_json(doc)
