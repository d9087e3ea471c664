"""Command-line interface: verbs, exit codes, determinism, file outputs."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from orthoplan import cli, constructions, orthogonality, ratmat
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


PINNED = {   # sha256 of stdout, recorded before the exact layers followed their structure
    "asym-19": "2863babc831e68924e892b162f9784a12542d56e6aa90531ba10507dde89e255",
    "ico-2-6": "e26d4043d6b4984e716e31bef8f8593ab426b2b000a6c6b3d936883cf031fc4f",
    "potp-h8-s7": "83e28cf316e1ce122ad4ec86b7cc23b1372de549b1b8485e879f5b8f79a53749",
}


@pytest.mark.parametrize("op", sorted(PINNED))
def test_stdout_beyond_the_benchmark_digests_is_pinned(capsys, tmp_path, op):
    """Outputs the benchmark does not pin: irrational C-matrix entries
    (asym 19), coupling components that are not stars (ico_2_6) and pairs
    through a factor pair on the unrelabelled potp h=8 s=7 plan."""
    argv = {
        "asym-19": ["construct", "--family", "asym", "--s", "19"],
        "ico-2-6": ["construct", "--family", "seed", "--name", "ico_2_6"],
        "potp-h8-s7": ["verify", "--check", "potp", "--through", "A1,A2",
                       "--plan", write_plan(tmp_path, construct_potp(8, 7))],
    }[op]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[op]


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
