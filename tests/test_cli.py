"""Command-line interface: verbs, exit codes, determinism, file outputs."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from orthoplan import arrays, cli, constructions, orthogonality, ratmat
from orthoplan.cli import main
from orthoplan.errors import VerificationFailed
from orthoplan import plan as plan_module
from orthoplan.plan import plan_dumps
from orthoplan import Factor, Plan, construct_potp, seed_plans


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_plan(tmp_path, plan, name="plan.json"):
    path = tmp_path / name
    path.write_text(plan_dumps(plan))
    return str(path)


# ---------------------------------------------------------------------------
# construct

def test_construct_seed_report(capsys):
    code, out, err = run(capsys, "construct", "--family", "seed", "--name", "potb_2_7")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["plan"]["name"] == "potb_2_7"
    assert doc["report"]["pass"] is True
    assert [c["label"] for c in doc["claims"]] == [
        "potb-2-7-all-pairs-through-block",
        "potb-2-7-contrast-scalar-4",
        "potb-2-7-leading-pair-pfc-fails",
    ]
    assert all(c["pass"] for c in doc["claims"])
    assert doc["optimality"]["global"]["pass"] is True


def test_construct_is_deterministic(capsys):
    _, out1, _ = run(capsys, "construct", "--family", "seed", "--name", "potb_3_3")
    _, out2, _ = run(capsys, "construct", "--family", "seed", "--name", "potb_3_3")
    assert out1 == out2


def test_construct_interchanged_expected_failures(capsys):
    code, out, _ = run(capsys, "construct", "--family", "seed", "--name", "ico_2_6")
    assert code == 0    # the failing claim is expected to fail
    doc = json.loads(out)
    by_label = {c["label"]: c for c in doc["claims"]}
    bad = by_label["ico-2-6-not-potb-overall"]
    assert bad["pass"] is False and bad["expect"] is False


def test_construct_unknown_seed(capsys):
    code, out, err = run(capsys, "construct", "--family", "seed", "--name", "nope")
    assert code == 2 and "unknown seed plan" in err


def test_construct_potp_with_files(capsys, tmp_path):
    plan_file = tmp_path / "p.json"
    report_file = tmp_path / "r.json"
    csv_file = tmp_path / "p.csv"
    code, out, _ = run(capsys, "construct", "--family", "potp", "--h", "4", "--s", "3",
                       "--out", str(plan_file), "--report", str(report_file),
                       "--csv", str(csv_file))
    assert code == 0 and out == ""
    plan_doc = json.loads(plan_file.read_text())
    assert plan_doc["name"] == "potp_3_8" and len(plan_doc["runs"]) == 24
    report_doc = json.loads(report_file.read_text())
    assert report_doc["claims"][0]["label"] == "potp-3-8-orthogonal-through-leading-pair"
    header = csv_file.read_text().splitlines()[0]
    assert header == "A1,A2,A3,A4,A5,A6,A7,A8"


def test_construct_potp_missing_parameter(capsys):
    code, _, err = run(capsys, "construct", "--family", "potp", "--s", "3")
    assert code == 2 and "--h is required" in err


IGNORED_OPTIONS = [
    (["potb3", "--h", "5"], "--h does not apply to --family potb3"),
    (["potb3", "--s", "3"], "--s does not apply to --family potb3"),
    (["potb2", "--h", "2", "--s", "3"], "--s does not apply to --family potb2"),
    (["potb2", "--h", "2", "--name", "potb_2_7"], "--name does not apply to --family potb2"),
    (["potp", "--h", "4", "--s", "3", "--order", "8"], "--order does not apply to --family potp"),
    (["asym", "--s", "3", "--h", "4"], "--h does not apply to --family asym"),
    (["seed", "--name", "potb_2_7", "--s", "3"], "--s does not apply to --family seed"),
    (["hadamard", "--order", "8", "--h", "4"], "--h does not apply to --family hadamard"),
    (["hadamard", "--order", "8", "--report", "{tmp}/r.json"],
     "--report does not apply to --family hadamard"),
    (["oa", "--order", "8", "--s", "3"], "--s does not apply to --family oa with --order"),
    (["qarray", "--order", "8", "--s", "3"],
     "--s does not apply to --family qarray with --order"),
    (["qarray", "--s", "3", "--name", "x"], "--name does not apply to --family qarray"),
    (["oa", "--s", "3", "--report", "{tmp}/r.json"], "--report does not apply to --family oa"),
]


@pytest.mark.parametrize("argv,message", IGNORED_OPTIONS,
                         ids=[f"{argv[0]}{msg.split()[0]}" for argv, msg in IGNORED_OPTIONS])
def test_construct_refuses_options_its_family_ignores(capsys, tmp_path, argv, message):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, "construct", "--family", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,size", [
    (["potb2", "--h", "524"], 8385),
    (["potb2", "--h", "4000000"], 64000001),
    (["potp", "--h", "1400", "--s", "3"], 8401),
], ids=["potb2-h524", "potb2-h4000000", "potp-h1400"])
def test_construct_refuses_an_oversized_family_before_building(capsys, record_calls, argv, size):
    """A family whose gram matrix would exceed the plan-file limit is a
    usage error, raised before the Hadamard matrix it starts from is built."""
    calls = record_calls(constructions, "hadamard")
    code, out, err = run(capsys, "construct", "--family", *argv)
    assert (code, out, calls) == (2, "", [])
    assert f"gram size {size} exceeds the limit {plan_module.MAX_GRAM_SIZE}" in err


@pytest.mark.parametrize("order", [1400, 2048])
@pytest.mark.parametrize("family", ["hadamard", "oa", "qarray"])
def test_construct_refuses_an_oversized_order_before_building(capsys, record_calls, family,
                                                              order):
    """An --order above the largest Hadamard order a built family asks for
    is a usage error, raised before any matrix is built."""
    calls = record_calls(arrays, "_build_hadamard")
    code, out, err = run(capsys, "construct", "--family", family, "--order", str(order))
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: Hadamard order {order} exceeds the limit {arrays.MAX_HADAMARD_ORDER}\n"


def test_construct_hadamard(capsys, tmp_path):
    csv_file = tmp_path / "h.csv"
    code, out, _ = run(capsys, "construct", "--family", "hadamard", "--order", "8",
                       "--csv", str(csv_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "hadamard" and doc["order"] == 8
    assert len(doc["grid"]) == 8
    assert len(csv_file.read_text().splitlines()) == 8


def test_construct_hadamard_unsupported(capsys):
    code, _, err = run(capsys, "construct", "--family", "hadamard", "--order", "6")
    assert code == 2 and "no Hadamard matrix of order 6" in err


def test_construct_qarray(capsys):
    code, out, _ = run(capsys, "construct", "--family", "qarray", "--s", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_row"] is True and doc["rows"] == 5 and doc["columns"] == 9


@pytest.mark.parametrize("op,argv", [
    ("catalog", ["catalog"]),
    ("construct-asym-s11", ["construct", "--family", "asym", "--s", "11"]),
    ("construct-potb2-h4", ["construct", "--family", "potb2", "--h", "4"]),
])
def test_stdout_matches_the_benchmark_reference_digest(capsys, op, argv):
    """The byte-identity gate of the benchmark, in process: each verb's
    stdout has the sha256 recorded in ``bench/reference.json``."""
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == reference["digests"][op]


PINNED = {   # op: (argv, sha256 of stdout); a last argument {name} is that plan's file
    "asym-19": (["construct", "--family", "asym", "--s", "19"],
                "2863babc831e68924e892b162f9784a12542d56e6aa90531ba10507dde89e255"),
    "ico-2-6": (["construct", "--family", "seed", "--name", "ico_2_6"],
                "e26d4043d6b4984e716e31bef8f8593ab426b2b000a6c6b3d936883cf031fc4f"),
    "potp-h8-s7": (["verify", "--check", "potp", "--through", "A1,A2", "--plan", "{potp_h8_s7}"],
                   "83e28cf316e1ce122ad4ec86b7cc23b1372de549b1b8485e879f5b8f79a53749"),
    # every claim path of construct, recorded before the claims had one writer
    "asym-3": (["construct", "--family", "asym", "--s", "3"],
               "bd73b8807bd3ae4efba887886604a9683dfefc98e055dfae33bc6cf355554f3f"),
    "asym-7": (["construct", "--family", "asym", "--s", "7"],
               "64287de1000f39a2b59c16ff516a54a5058de82507fbed272b2adced62a5a463"),
    "potb2-h2": (["construct", "--family", "potb2", "--h", "2"],
                 "ce76a0d3c68a88afc03a1a76da5711ead95b52974aa04237024939adca7ccfe8"),
    "potb3": (["construct", "--family", "potb3"],
              "29d1bce306bec78d21567164c9f9689210cdd7bc790c8d867bb9dae3cfca911e"),
    "potp-h4-s3": (["construct", "--family", "potp", "--h", "4", "--s", "3"],
                   "3fe013bdec9abd7a0aadc578debde195a37f4499557fa5310a0a16aedee7cade"),
    "seed-potb-2-7": (["construct", "--family", "seed", "--name", "potb_2_7"],
                      "87b0c3e1a2e7091972176cabed5cdc5a3bb3dd2c1221fb1e257535c553d675b8"),
    "seed-potb-3-3": (["construct", "--family", "seed", "--name", "potb_3_3"],
                      "270c36f87406f91c8a1d54fb580c94dcefe398f6a5b4a3745b8ffba8ab51cbad"),
    "seed-potp-3-4": (["construct", "--family", "seed", "--name", "potp_3_4"],
                      "9a0812655e5155a62f9e79a97ae48e5eadc6297a27254e52af628dc9c3ca4e15"),
    # the benchmark's anova ops on the unrelabelled plans
    "anova-potb-2-7": (["anova", "--target", "A1", "--adjust", "block", "--trials", "50",
                        "--plan", "{potb_2_7}"],
                       "36a6f1d470640255dcd7a70cf8777c6ce96d6557149d6218f052284b950ffd95"),
    "anova-ico-2-6": (["anova", "--target", "A1", "--adjust", "block", "--trials", "50",
                       "--plan", "{ico_2_6}"],
                      "5bb3e323c4079d86448f3913251b5bef162240019d1d4424176b8d312f888afb"),
    "anova-potp-3-4": (["anova", "--target", "A3", "--adjust", "A1,A2", "--trials", "50",
                        "--plan", "{potp_3_4}"],
                       "4154a2968e184e6f6d8ea4bc70663cb6838deab870151161ce2fe27073961d57"),
}


@pytest.mark.parametrize("op", sorted(PINNED))
def test_stdout_beyond_the_benchmark_digests_is_pinned(capsys, tmp_path, op):
    """Outputs the benchmark does not pin: irrational C-matrix entries
    (asym 19), coupling components that are not stars (ico_2_6), pairs
    through a factor pair on the unrelabelled potp h=8 s=7 plan, the claim
    list of every built family and seed, and the anova reports."""
    argv, digest = PINNED[op]
    if argv[-1].startswith("{"):
        name = argv[-1].strip("{}")
        plan = construct_potp(8, 7) if name == "potp_h8_s7" else seed_plans()[name]
        argv = argv[:-1] + [write_plan(tmp_path, plan)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_asym(capsys):
    code, out, _ = run(capsys, "construct", "--family", "asym", "--s", "3")
    assert code == 0
    doc = json.loads(out)
    labels = {c["label"]: c for c in doc["claims"]}
    assert labels["asym-3-extended-pairs-proportional"]["pass"] is True
    assert labels["asym-3-extended-pairs-blocked-identity"]["pass"] is False
    assert labels["asym-3-extended-pairs-blocked-identity"]["expect"] is False


# ---------------------------------------------------------------------------
# verify

def test_verify_potb_passes(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, _ = run(capsys, "verify", "--check", "potb", "--plan", path)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_potb_fails(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["ico_2_6"])
    code, out, _ = run(capsys, "verify", "--check", "potb", "--plan", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    failing = [p for p in doc["pairs"] if not p["pass"]]
    assert failing and all("residual" in p for p in failing)


def test_verify_potb_unblocked_is_usage_error(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potp_3_4"])
    code, _, err = run(capsys, "verify", "--check", "potb", "--plan", path)
    assert code == 2 and "has no blocks" in err


def test_verify_potp(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potp_3_4"])
    code, out, _ = run(capsys, "verify", "--check", "potp", "--plan", path,
                       "--through", "A1,A2")
    assert code == 0 and json.loads(out)["pass"] is True
    code, _, err = run(capsys, "verify", "--check", "potp", "--plan", path)
    assert code == 2 and "--through is required" in err


def test_verify_potp_prints_the_c_matrix_adjusted_for_the_mean(capsys, tmp_path):
    """Each factor has replications (2, 3) on five runs: its contrast
    information adjusted for G is (5 - 1/5) / 2 = 12/5, not X'X's 5/2."""
    plan = Plan("unequal", (Factor("A", 2), Factor("B", 2), Factor("C", 2)),
                ((0, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 1)))
    _, out, err = run(capsys, "verify", "--check", "potp", "--through", "A",
                      "--plan", write_plan(tmp_path, plan))
    entries = json.loads(out)["c_matrix"]["entries"]
    assert err == "" and [row[i] for i, row in enumerate(entries)] == ["12/5"] * 3


def test_verify_potp_through_block(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["ico_2_6"])
    code, out, err = run(capsys, "verify", "--check", "potp", "--through", "block",
                         "--plan", path)
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["pass"] is False
    assert not next(p for p in doc["pairs"] if (p["a"], p["b"]) == ("A1", "B1"))["pass"]
    code, _, err = run(capsys, "verify", "--check", "potp", "--through", "block",
                       "--plan", write_plan(tmp_path, seed_plans()["potp_3_4"], "u.json"))
    assert code == 2 and "has no blocks" in err


def test_verify_refuses_a_repeated_through_identifier(capsys, tmp_path):
    """The conditioning set echoed in the report is the set used, so a
    repeated identifier is refused rather than dropped or echoed twice."""
    path = write_plan(tmp_path, seed_plans()["potp_3_4"])
    code, out, err = run(capsys, "verify", "--check", "potp", "--through", "A1,A2, A1",
                         "--plan", path)
    assert (code, out, err) == (2, "", "error: --through names 'A1' twice\n")


@pytest.mark.parametrize("through", [",", " ", " , "])
def test_verify_potp_through_that_names_nothing(capsys, tmp_path, through):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, err = run(capsys, "verify", "--check", "potp", "--through", through,
                         "--plan", path)
    assert code == 2 and out == ""
    assert err == "error: --through is required for --check potp\n"


@pytest.mark.parametrize("check", ["potb", "pfc"])
def test_verify_through_only_for_potp(capsys, tmp_path, check):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, err = run(capsys, "verify", "--check", check, "--through", "A1",
                         "--plan", path)
    assert code == 2 and out == ""
    assert err == "error: --through applies only to --check potp\n"


def test_verify_pfc(capsys, tmp_path):
    ff = Plan("ff22", (Factor("A", 2), Factor("B", 2)),
              ((0, 0), (0, 1), (1, 0), (1, 1)))
    path = write_plan(tmp_path, ff)
    code, out, _ = run(capsys, "verify", "--check", "pfc", "--plan", path)
    assert code == 0 and json.loads(out)["check"] == "pfc"
    path2 = write_plan(tmp_path, seed_plans()["potb_2_7"], "b.json")
    code2, _, _ = run(capsys, "verify", "--check", "pfc", "--plan", path2)
    assert code2 == 1


def test_verify_rejects_bad_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "verify", "--check", "potb", "--plan", str(path))
    assert code == 2 and "$: not valid JSON" in err


@pytest.mark.parametrize("verb", [["verify", "--check", "potb"], ["optimality"],
                                  ["anova", "--target", "A1", "--adjust", "block"]],
                         ids=["verify", "optimality", "anova"])
def test_deeply_nested_plan_is_an_input_error(capsys, tmp_path, verb):
    """JSON nested past the parser's recursion limit is refused like any
    other malformed plan: exit 2, not the exit 1 of a failed claim."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, *verb, "--plan", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("verb", [["verify", "--check", "potb"], ["optimality"]])
def test_plan_without_factors_is_rejected(capsys, tmp_path, verb):
    path = tmp_path / "empty.json"
    path.write_text('{"name": "empty", "factors": [], "runs": [[]], "block_sizes": [1]}')
    code, out, err = run(capsys, *verb, "--plan", str(path))
    assert code == 2 and out == ""
    assert "plan needs at least one factor, factors is empty" in err


# ---------------------------------------------------------------------------
# optimality / anova

def test_optimality_verb(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_3_3"])
    code, out, _ = run(capsys, "optimality", "--plan", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["global"] == {"pass": True, "a": "3"}
    assert all(f["pass"] for f in doc["factors"])


def test_anova_verb(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, _ = run(capsys, "anova", "--plan", path, "--target", "A1",
                       "--adjust", "block", "--trials", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["adjust_for"] == ["block"]
    assert doc["trials"]["all_equal"] is True


def test_anova_refuses_a_repeated_adjust_identifier(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, err = run(capsys, "anova", "--plan", path, "--target", "A3",
                         "--adjust", "block,A1,block")
    assert (code, out, err) == (2, "", "error: --adjust names 'block' twice\n")


def test_anova_unknown_target(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, _, err = run(capsys, "anova", "--plan", path, "--target", "Z9",
                       "--adjust", "block")
    assert code == 2 and "no factor named 'Z9'" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_anova_needs_a_trial(capsys, tmp_path, trials):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, err = run(capsys, "anova", "--plan", path, "--target", "A1",
                         "--adjust", "block", "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"error: trials must be at least 1, got {trials}\n"


def test_anova_seed_must_be_non_negative(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, err = run(capsys, "anova", "--plan", path, "--target", "A1",
                         "--adjust", "block", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be non-negative, got -1\n"


# ---------------------------------------------------------------------------
# catalog and argument handling

def test_catalog(capsys, tmp_path):
    out_file = tmp_path / "catalog.json"
    code, out, _ = run(capsys, "catalog", "--out", str(out_file))
    assert code == 0 and out == ""
    doc = json.loads(out_file.read_text())
    assert doc["pass"] is True
    assert len(doc["claims"]) == 18
    assert all(c["pass"] == c["expect"] for c in doc["claims"])
    assert set(doc["plans"]) == {
        "potp_3_4", "potb_2_7", "ico_2_6", "potb_3_3",
        "potp_3_8", "potb_2_14", "potb_3_15", "asym_3", "asym_7",
    }
    assert set(doc["optimality"]) == {
        "potb_2_7", "ico_2_6", "potb_3_3",
        "potb_2_14", "potb_3_15", "asym_3", "asym_7",
    }


CATALOG_PLANS = {   # catalog plan: the construct options that build it
    "potp_3_4": ["seed", "--name", "potp_3_4"],
    "potb_2_7": ["seed", "--name", "potb_2_7"],
    "ico_2_6": ["seed", "--name", "ico_2_6"],
    "potb_3_3": ["seed", "--name", "potb_3_3"],
    "potp_3_8": ["potp", "--h", "4", "--s", "3"],
    "potb_2_14": ["potb2", "--h", "2"],
    "potb_3_15": ["potb3"],
    "asym_3": ["asym", "--s", "3"],
    "asym_7": ["asym", "--s", "7"],
}


@pytest.fixture(scope="module")
def catalog_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("catalog") / "catalog.json"
    assert main(["catalog", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(CATALOG_PLANS))
def test_catalog_restates_what_construct_prints(capsys, catalog_doc, name):
    """``catalog`` is ``construct`` over its nine plans: the same plan,
    report and ledger, and each catalog claim has the pass and expect of
    the construct claim it renames.  A built plan's catalog label uses
    underscores and drops the potb scalar suffix; the one construct claim
    it leaves out is the asym blocked-identity claim."""
    code, out, err = run(capsys, "construct", "--family", *CATALOG_PLANS[name])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert catalog_doc["plans"][name] == doc["plan"]
    assert catalog_doc["reports"][name] == doc["report"]
    assert catalog_doc["optimality"].get(name) == doc.get("optimality")
    tag = name.replace("_", "-")
    mine = [c for c in catalog_doc["claims"] if c["label"].startswith((name + "-", tag + "-"))]
    renamed = set()
    for claim in mine:
        label = claim["label"].replace(name, tag, 1)
        match = [c for c in doc["claims"] if (c["label"] + "-").startswith(label + "-")]
        assert len(match) == 1
        assert (match[0]["pass"], match[0]["expect"]) == (claim["pass"], claim["expect"])
        renamed.add(match[0]["label"])
    left_out = {c["label"] for c in doc["claims"]} - renamed
    assert left_out == ({f"{tag}-extended-pairs-blocked-identity"} if tag.startswith("asym")
                        else set())


def test_catalog_contrast_scalar_claim_checks_the_value(capsys, tmp_path, monkeypatch):
    """A C-matrix that is a scalar identity with the wrong scalar fails
    the catalog's contrast-scalar claim.  The wrong scalar enters through
    the report that the potb2 builder hands to the catalog."""
    real_potb2 = constructions._potb2

    def wrong_scalar(h):
        plan, rep = real_potb2(h)
        return plan, replace(rep, c_matrix=rep.c_matrix.scaled(Fraction(9, 8)))

    monkeypatch.setattr(constructions, "_potb2", wrong_scalar)
    out_file = tmp_path / "catalog.json"
    code, _, _ = run(capsys, "catalog", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    failed = [c["label"] for c in doc["claims"] if c["pass"] != c["expect"]]
    assert failed == ["potb_2_14-contrast-scalar"]
    assert code == 1 and doc["pass"] is False


@pytest.mark.parametrize("argv,checks,decompositions", [
    (["catalog"], 16, 9),
    (["construct", "--family", "potb2", "--h", "4"], 2, 1),
    (["construct", "--family", "potp", "--h", "4", "--s", "3"], 1, 1),
    (["construct", "--family", "asym", "--s", "7"], 2, 1),
], ids=["catalog", "potb2", "potp", "asym"])
def test_each_built_plan_is_checked_once(capsys, record_calls, argv, checks, decompositions):
    """``is_potb`` makes two ``pair_checks`` calls and ``is_potp`` one.  A
    built plan is checked by its builder only, whose report is printed;
    seeds are checked by the verb.  Each contrast C-matrix is decomposed
    once, for its report and its ledger together."""
    pairs = record_calls(orthogonality, "pair_checks")
    eigh = record_calls(ratmat, "checked_eigenvalues")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert (len(pairs), len(eigh)) == (checks, decompositions)


@pytest.mark.parametrize("argv,most_solves,widest,grams", [
    (["catalog"], 20, None, 28),
    (["construct", "--family", "potb2", "--h", "4"], 0, 0, 3),
    (["construct", "--family", "asym", "--s", "7"], None, None, 4),
    (["construct", "--family", "asym", "--s", "11"], None, 12, 4),
], ids=["catalog", "potb2", "asym-7", "asym-11"])
def test_exact_layers_follow_the_structure_of_their_matrices(capsys, record_calls, argv,
                                                             most_solves, widest, grams):
    """Deterministic work counts of whole verbs.  A diagonal X_T'X_T (T the
    blocks or G) is solved without elimination, so the potb2 report and
    ledger eliminate nothing; the asym ledger solves its star leaf by leaf,
    each system at most as wide as the s + 1 levels of ``inf``; the gram
    matrices counted stay as they were."""
    solves = record_calls(ratmat, "_eliminate")
    counted = record_calls(orthogonality, "gram", record_calls(plan_module, "gram"))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(counted) == grams
    if most_solves is not None:
        assert len(solves) <= most_solves
    if widest is not None:
        assert max((ncol for _, ncol, *_ in solves), default=0) <= widest


def test_failed_self_check_exits_one(capsys, tmp_path, monkeypatch):
    def broken(plan):
        raise VerificationFailed("M Z = d RHS does not hold")

    monkeypatch.setattr(cli, "is_potb", broken)
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, _, err = run(capsys, "verify", "--check", "potb", "--plan", path)
    assert code == 1 and err == "claim failed: M Z = d RHS does not hold\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_construction_check_exits_one_under_any_flags(src_env, flags):
    """The asym family's claims fail for s = 1 (mod 4); the construction's
    self-check says which one, and ``python -O`` does not switch it off."""
    proc = subprocess.run(
        [sys.executable, *flags, "-W", "ignore", "-m", "orthoplan.cli",
         "construct", "--family", "asym", "--s", "5"],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("claim failed: asym s=5: L(inf) is a BIBD(v=6, b=10, r=5, k=3, "
                           "lambda=2) does not hold\n")


def test_unknown_verb(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_family(capsys):
    assert run(capsys, "construct", "--family", "nope")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
