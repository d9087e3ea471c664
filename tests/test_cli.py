"""Command-line interface: verbs, exit codes, determinism, file outputs."""

import gc
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from oracles import dumps

from orthoplan import arrays, cli, constructions, contrasts, orthogonality, ratmat
from orthoplan.cli import main
from orthoplan.errors import VerificationFailed
from orthoplan import plan as plan_module
from orthoplan.plan import plan_to_json
from orthoplan import Factor, Plan, construct_potp, seed_plans


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_plan(tmp_path, plan, name="plan.json"):
    path = tmp_path / name
    path.write_text(dumps(plan_to_json(plan)))
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
    # one line per row, entries (-1 among them) joined by commas
    assert csv_file.read_text() == "".join(",".join(map(str, row)) + "\n" for row in doc["grid"])


def test_construct_hadamard_unsupported(capsys):
    code, _, err = run(capsys, "construct", "--family", "hadamard", "--order", "6")
    assert code == 2 and "no Hadamard matrix of order 6" in err


def test_construct_qarray(capsys):
    code, out, _ = run(capsys, "construct", "--family", "qarray", "--s", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_row"] is True and doc["rows"] == 5 and doc["columns"] == 9


@pytest.mark.parametrize("family,rows,zero_row,grid", [
    ("oa", 1, False, [[0, 1]]),
    ("qarray", 2, True, [[0, 0], [0, 1]]),     # the translations of potb2 at h = 2
])
def test_construct_arrays_of_order_2(capsys, family, rows, zero_row, grid):
    code, out, _ = run(capsys, "construct", "--family", family, "--order", "2")
    assert code == 0
    assert json.loads(out) == {"kind": family, "rows": rows, "columns": 2, "symbols": 2,
                               "zero_row": zero_row, "grid": grid}
    code, out, err = run(capsys, "construct", "--family", family, "--order", "1")
    assert (code, out) == (2, "") and "order 1 leaves no row" in err


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


PINNED = {   # op: (argv, sha256 of stdout[, exit code when not 0]); a last argument {name}
             # is that plan's file
    "asym-19": (["construct", "--family", "asym", "--s", "19"],
                "2863babc831e68924e892b162f9784a12542d56e6aa90531ba10507dde89e255"),
    "ico-2-6": (["construct", "--family", "seed", "--name", "ico_2_6"],
                "e26d4043d6b4984e716e31bef8f8593ab426b2b000a6c6b3d936883cf031fc4f"),
    "potp-h8-s7": (["verify", "--check", "potp", "--through", "A1,A2", "--plan", "{potp_h8_s7}"],
                   "83e28cf316e1ce122ad4ec86b7cc23b1372de549b1b8485e879f5b8f79a53749"),
    # the residuals of the failing pairs, printed from integer pairs
    "pfc-potp-h8-s7": (["verify", "--check", "pfc", "--plan", "{potp_h8_s7}"],
                       "a72658466db31f649b36c804785dade1305f1b00374ffee3505aa2c4bfe67239", 1),
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
    # prime-power fields and Paley at q = 27 and q = 127, before the builders read tables
    "potp-h4-s27": (["construct", "--family", "potp", "--h", "4", "--s", "27"],
                    "6e80da2fadc7fbc8925f2c90152c3ff620a800014108c9dfa50b592b7d7a1216"),
    "asym-27": (["construct", "--family", "asym", "--s", "27"],
                "a760e928abde5009523f54f1e0143e7b21adb15bb66f7c03f5b9ffdce8bcebfd"),
    "oa-s9": (["construct", "--family", "oa", "--s", "9"],
              "2696a76f139cc4f73248fb0bcfc2c58c5062672bff33aaeb1d4437bdd011093d"),
    "qarray-s27": (["construct", "--family", "qarray", "--s", "27"],
                   "0a6b918b3dc8c50c543b3d7abf54c1022ac79203ebe2109cf1d68f8e90726e97"),
    "hadamard-28": (["construct", "--family", "hadamard", "--order", "28"],
                    "aa683c1e31b217442c3c310a385c7bdd5d5abcc2725731e8c261703aa396db1a"),
    "hadamard-128": (["construct", "--family", "hadamard", "--order", "128"],
                     "37a9d500e88bc42b091aa658efa8ef6e0f03a2011d05dff8b37811479f674a4f"),
    # a Kronecker-built Hadamard matrix of order 16 through the product and
    # the zero-row array, recorded before the product prepended its own copy
    "potb2-h16": (["construct", "--family", "potb2", "--h", "16"],
                  "ddba8fb910a21f8da4489471535afabe18ca34804d10da2ff98b96ac3d7828b3"),
    "qarray-order16": (["construct", "--family", "qarray", "--order", "16"],
                       "b7d9ce718293c8c3a4ba09f196fc2bab4bb7aaac3e5b9b563b31eabd96863ac3"),
}


@pytest.mark.parametrize("op", sorted(PINNED))
def test_stdout_beyond_the_benchmark_digests_is_pinned(capsys, tmp_path, op):
    """Outputs the benchmark does not pin: irrational C-matrix entries
    (asym 19), coupling components that are not stars (ico_2_6), pairs
    through a factor pair on the unrelabelled potp h=8 s=7 plan and the
    residuals of its failing pfc pairs, the claim list of every built
    family and seed, the anova reports, and the outputs built over
    prime-power fields and by the Paley construction."""
    argv, digest, exit_code = (*PINNED[op], 0)[:3]
    if argv[-1].startswith("{"):
        name = argv[-1].strip("{}")
        plan = construct_potp(8, 7) if name == "potp_h8_s7" else seed_plans()[name]
        argv = argv[:-1] + [write_plan(tmp_path, plan)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REPORTS = {   # op: argv of a verb, covering every kind of document the CLI writes;
              # {tmp} is a scratch directory and a last argument {name} that seed's file
    "catalog": ["catalog"],
    "seed": ["construct", "--family", "seed", "--name", "ico_2_6"],
    "potp": ["construct", "--family", "potp", "--h", "4", "--s", "3"],
    "potp-files": ["construct", "--family", "potp", "--h", "4", "--s", "3", "--out",
                   "{tmp}/plan.json", "--report", "{tmp}/report.json", "--csv", "{tmp}/plan.csv"],
    "potb2": ["construct", "--family", "potb2", "--h", "2"],
    "potb3": ["construct", "--family", "potb3"],
    "asym": ["construct", "--family", "asym", "--s", "7"],
    "hadamard": ["construct", "--family", "hadamard", "--order", "12", "--out", "{tmp}/h.json"],
    "oa": ["construct", "--family", "oa", "--s", "3"],
    "qarray": ["construct", "--family", "qarray", "--order", "8"],
    "verify-potb": ["verify", "--check", "potb", "--plan", "{potb_2_7}"],
    "verify-potp": ["verify", "--check", "potp", "--through", "A1,A2", "--plan", "{potp_3_4}"],
    "verify-pfc": ["verify", "--check", "pfc", "--plan", "{potp_3_4}"],
    "optimality": ["optimality", "--plan", "{ico_2_6}"],
    "anova": ["anova", "--target", "A1", "--adjust", "block", "--trials", "5",
              "--plan", "{ico_2_6}"],
}


@pytest.mark.parametrize("op", sorted(REPORTS))
def test_every_report_is_written_as_the_text_of_json_dumps(capsys, tmp_path, record_calls, op):
    """Each document a verb emits reaches its file or stdout as the text
    ``json.dumps`` gives it with sorted keys and a two-space indent, and
    one closing newline: writing it in pieces changes no byte."""
    argv = [a.replace("{tmp}", str(tmp_path)) for a in REPORTS[op]]
    if argv[-1].startswith("{"):
        argv = argv[:-1] + [write_plan(tmp_path, seed_plans()[argv[-1].strip("{}")])]
    emitted = record_calls(cli, "_emit")
    _, out, err = run(capsys, *argv)
    assert err == "" and emitted
    for doc, path in emitted:
        text = out if path is None else Path(path).read_text()
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def test_anova_adjusting_a_blocked_plan_for_the_mean_checks_the_block(capsys, tmp_path):
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, out, _ = run(capsys, "anova", "--plan", path, "--target", "A1",
                       "--adjust", "G", "--trials", "20", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["condition"] == {"checked_against": ["A2", "A3", "A4", "A5", "A6", "A7", "block"],
                                "holds": False}
    assert doc["trials"]["equal"] == 0 and doc["biconditional_observed"] is True


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
def test_catalog_restates_what_construct_prints(capsys, tmp_path, catalog_doc, name):
    """``catalog`` is ``construct`` over its nine plans: the same plan,
    report and ledger, and each catalog claim has the pass and expect of
    the construct claim it renames.  A blocked plan's ledger is also the one
    the ``optimality`` verb prints for construct's plan document.  A built
    plan's catalog label uses underscores and drops the potb scalar suffix;
    the one construct claim it leaves out is the asym blocked-identity claim."""
    code, out, err = run(capsys, "construct", "--family", *CATALOG_PLANS[name])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert catalog_doc["plans"][name] == doc["plan"]
    assert catalog_doc["reports"][name] == doc["report"]
    assert catalog_doc["optimality"].get(name) == doc.get("optimality")
    if "optimality" in doc:
        path = tmp_path / "plan.json"
        path.write_text(dumps(doc["plan"]))
        assert run(capsys, "optimality", "--plan", str(path)) == (0, dumps(doc["optimality"]), "")
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
        plan, rep, scalar = real_potb2(h)
        cm = rep.c_matrix    # the same matrix times 9/8
        return plan, replace(rep, c_matrix=replace(cm, num=cm.num * 9, d=cm.d * 8)), scalar

    monkeypatch.setattr(constructions, "_potb2", wrong_scalar)
    out_file = tmp_path / "catalog.json"
    code, _, _ = run(capsys, "catalog", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    failed = [c["label"] for c in doc["claims"] if c["pass"] != c["expect"]]
    assert failed == ["potb_2_14-contrast-scalar"]
    assert code == 1 and doc["pass"] is False


@pytest.mark.parametrize("argv,checks,pair_objects,decompositions", [
    (["catalog"], 9, 262, 9),
    (["construct", "--family", "potb2", "--h", "4"], 1, 378, 1),
    (["construct", "--family", "potp", "--h", "4", "--s", "3"], 1, 15, 1),
    (["construct", "--family", "asym", "--s", "7"], 1, 9, 1),
    (["construct", "--family", "asym", "--s", "11"], 1, 20, 1),
], ids=["catalog", "potb2", "potp", "asym", "asym-11"])
def test_each_built_plan_is_checked_once(capsys, record_calls, argv, checks, pair_objects,
                                         decompositions):
    """``is_potb`` and ``is_potp`` each make one ``pair_checks`` call, and
    each pair's ``PairCheck`` is made once, its PFC flag included (the asym
    report makes one more per extended pair to mark it informational).  A built plan
    is checked by its builder only, whose report is printed; seeds are
    checked by the verb.  Each contrast C-matrix is decomposed once, for
    its report and its ledger together."""
    pairs = record_calls(orthogonality, "pair_checks")
    made = record_calls(orthogonality.PairCheck, "__init__")
    eigh = record_calls(contrasts, "checked_eigenvalues")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert (len(pairs), len(made), len(eigh)) == (checks, pair_objects, decompositions)


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "potb2", "--h", "4"],
    ["construct", "--family", "potb3"],
    ["construct", "--family", "qarray", "--s", "9"],
], ids=["potb2", "potb3", "qarray"])
def test_each_array_is_verified_once(capsys, record_calls, argv):
    """Each verb builds one strength-2 array, verified when it is made; the
    zero row ``q_extend`` puts above its grid makes no second array."""
    checks = record_calls(arrays, "verify_strength2")
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(checks) == 1


@pytest.mark.parametrize("argv,most_solves,widest,grams,zero_tests", [
    (["catalog"], 4, None, 28, 757),
    (["construct", "--family", "potb2", "--h", "4"], 0, 0, 3, 1135),
    (["construct", "--family", "asym", "--s", "7"], 0, 0, 4, 19),
    (["construct", "--family", "asym", "--s", "11"], 0, 0, 4, 46),
], ids=["catalog", "potb2", "asym-7", "asym-11"])
def test_exact_layers_follow_the_structure_of_their_matrices(capsys, record_calls, argv,
                                                             most_solves, widest, grams,
                                                             zero_tests):
    """Deterministic work counts of whole verbs.  A diagonal X_T'X_T (T the
    blocks or G) is solved without elimination, so the potb2 report and
    ledger eliminate nothing.  The ledger reads the contrast C-matrix, where
    every system the asym star solves is diagonal, so the asym ledger
    eliminates nothing either; the gram matrices counted stay as they were.
    Each stacked information matrix has its pair blocks tested for zero
    once, by its coupling map, and the ledger maps the contrast C-matrix it
    reads: potb2 h=4 makes 378 tests through G, 378 through the blocks and
    378 on the contrast C-matrix, and one test that the rows of
    X'(I - P_block)X sum to zero over each factor."""
    solves = record_calls(ratmat, "_eliminate")
    zeros = record_calls(ratmat, "is_zero")
    counted = record_calls(orthogonality, "gram", record_calls(plan_module, "gram"))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(counted) == grams and len(zeros) == zero_tests
    if most_solves is not None:
        assert len(solves) <= most_solves
    if widest is not None:
        assert max((ncol for _, ncol, *_ in solves), default=0) <= widest


def test_failed_self_check_exits_one(capsys, tmp_path, monkeypatch):
    def broken(plan):
        raise VerificationFailed("M Z = d RHS does not hold")

    monkeypatch.setattr(orthogonality, "is_potb", broken)
    path = write_plan(tmp_path, seed_plans()["potb_2_7"])
    code, _, err = run(capsys, "verify", "--check", "potb", "--plan", path)
    assert code == 1 and err == "claim failed: M Z = d RHS does not hold\n"


def test_a_seed_breaking_the_theorem_fails_the_potp_pattern_check(capsys, monkeypatch):
    """The potp builder checks the theorem's conclusion on its plan, not the
    seed's conditions on their own: a seed with two entries of its third
    row swapped fails the pattern check, a failed claim (exit 1), not bad
    input."""
    real = constructions._signed_seed

    def swapped(h):
        seed = real(h)
        seed[2, [0, 1]] = seed[2, [1, 0]]
        return seed

    monkeypatch.setattr(constructions, "_signed_seed", swapped)
    code, out, err = run(capsys, "construct", "--family", "potp", "--h", "4", "--s", "3")
    assert (code, out) == (1, "")
    assert err == "claim failed: potp h=4 s=3: incidence pattern at A3,A4 does not hold\n"


@pytest.mark.parametrize("family", ["oa", "qarray", "asym"])
def test_a_huge_field_order_fails_fast(src_env, family):
    """The field-size bound is checked before the order is factored, so an
    order of nineteen digits is refused at once, not after a trial division."""
    proc = subprocess.run(
        [sys.executable, "-m", "orthoplan.cli", "construct", "--family", family,
         "--s", "1000000000000000003"],
        capture_output=True, text=True, env=src_env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: field order 1000000000000000003 exceeds 128\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_construction_check_exits_one_under_any_flags(src_env, flags):
    """The asym family's claims fail for s = 1 (mod 4); the construction's
    self-check says which one in the only line on stderr, and ``python -O``
    does not switch it off."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "orthoplan.cli",
         "construct", "--family", "asym", "--s", "5"],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("claim failed: asym s=5: L(inf) is a BIBD(v=6, b=10, r=5, k=3, "
                           "lambda=2) does not hold\n")


# What main() produces in-process, the process entry produces in a process.
ENTRY_OPS = {
    "construct": ["construct", "--family", "potb2", "--h", "2", "--out", "{dir}/plan.json",
                  "--report", "{dir}/report.json", "--csv", "{dir}/plan.csv"],
    "verify": ["verify", "--check", "potb", "--plan", "{plan}"],
    "optimality": ["optimality", "--plan", "{plan}"],
    "anova": ["anova", "--plan", "{plan}", "--target", "A1", "--adjust", "block"],
    "catalog": ["catalog"],
}


@pytest.mark.parametrize("verb", ENTRY_OPS)
def test_the_process_entry_changes_only_time(capsys, src_env, tmp_path, potb27, verb):
    """``python -m orthoplan.cli`` runs ``cli._run``, which freezes the
    collector after ``main`` returns: stdout, stderr, exit code and every
    written file are those of ``main`` called in-process."""
    plan = write_plan(tmp_path, potb27)
    sides = []
    for side in ("process", "main"):
        out_dir = tmp_path / side
        out_dir.mkdir()
        argv = [arg.format(dir=out_dir, plan=plan) for arg in ENTRY_OPS[verb]]
        if side == "process":
            proc = subprocess.run([sys.executable, "-m", "orthoplan.cli", *argv],
                                  capture_output=True, env=src_env, timeout=120)
            result = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        else:
            result = run(capsys, *argv)
        sides.append((result, {f.name: f.read_bytes() for f in out_dir.iterdir()}))
    assert sides[0] == sides[1]
    assert sides[0][0][0] == 0 and len(sides[0][1]) == (3 if verb == "construct" else 0)


def test_main_leaves_the_collector_alone(capsys):
    """Only the process entry freezes: an in-process caller runs ``main``
    many times and collects what each run leaves."""
    before = gc.get_freeze_count()
    assert run(capsys, "catalog")[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("verb", ["anova", "catalog"])
def test_a_failed_stdout_write_exits_two_with_one_line(src_env, tmp_path, potb27, verb,
                                                       buffered):
    """Buffered stdout (no PYTHONUNBUFFERED) holds a short report until a
    flush: ``_emit`` flushes, so the failure is an ``OSError`` of ``main``,
    and the process entry keeps the exit flush from failing a second time."""
    argv = {"anova": ["anova", "--target", "A1", "--adjust", "block",
                      "--plan", write_plan(tmp_path, potb27)],
            "catalog": ["catalog"]}[verb]
    env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "orthoplan.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
@pytest.mark.parametrize("to_file", [False, True])
def test_a_closed_stdout_exits_two_only_when_the_report_goes_there(src_env, tmp_path,
                                                                   to_file):
    """A process started with fd 1 closed has ``sys.stdout`` None: a report
    meant for stdout is an I/O error (exit 2, one line), while one written
    with --out needs no stdout at all, nor does ``construct --out`` without
    --report, which writes the plan to its file and prints no report."""
    ops = {   # argv, and a (key, value) of the document written to {out}
        False: [(["catalog"], None)],
        True: [(["catalog", "--out", "{out}"], ("pass", True)),
               (["construct", "--family", "potb2", "--h", "2", "--out", "{out}"],
                ("name", "potb_2_14"))],
    }[to_file]
    for argv, written in ops:
        out = tmp_path / f"{argv[0]}.json"
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m orthoplan.cli "$@" >&-',
                               sys.executable, *(a.format(out=out) for a in argv)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              env=src_env, timeout=120)
        if to_file:
            key, value = written
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(out.read_text())[key] == value
        else:
            assert (proc.returncode, proc.stderr) == (2, "error: [Errno 9] stdout is closed\n")


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["construct", "--family", "potb3"],
    ["construct", "--family", "seed", "--name", "potb_2_7", "--csv", "{out}"],
    ["verify", "--check", "pfc", "--plan", "{out}"],
], ids=["catalog", "construct", "construct-csv", "verify"])
def test_a_closed_stdout_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv):
    """With ``sys.stdout`` None, an invocation whose document goes to
    stdout exits 2 before it builds, reads or writes anything."""
    def unbuildable(*args, **kwargs):
        raise AssertionError("a plan was built with stdout closed")

    monkeypatch.setattr(constructions, "seed_plans", unbuildable)
    monkeypatch.setattr(cli, "_built", unbuildable)
    monkeypatch.setattr(sys, "stdout", None)
    out = tmp_path / "written"
    code = main([a.format(out=out) for a in argv])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 9] stdout is closed\n")
    assert not out.exists()


def test_unknown_verb(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "") and err.startswith("usage: orthoplan")
    assert "error: argument verb: invalid choice: 'frobnicate'" in err


def test_unknown_family(capsys):
    assert run(capsys, "construct", "--family", "nope")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ---------------------------------------------------------------------------
# input errors: exit 2, nothing on stdout, one line on stderr

UNBLOCKED = {"name": "p", "factors": [{"name": "A", "levels": 2}, {"name": "B", "levels": 2}],
             "runs": [[0, 0], [1, 1]]}
BLOCKED = dict(UNBLOCKED, block_sizes=[1, 1])
VERIFY = ["verify", "--check", "potb", "--plan", "{plan}"]
ANOVA = ["anova", "--plan", "{plan}", "--target", "A"]


def with_factor(**fields):
    return dict(BLOCKED, factors=[dict(UNBLOCKED["factors"][0], **fields),
                                  UNBLOCKED["factors"][1]])


INPUT_ERRORS = {   # id: (argv, plan document or raw text, the message after "error: ")
    # the plan-file schema, every "path: message" kind
    "json-invalid": (VERIFY, "{nope",
                     "$: not valid JSON (Expecting property name enclosed in double quotes)"),
    "json-too-deep": (VERIFY, "[" * 200_000, "$: nested too deeply"),
    "doc-not-object": (VERIFY, [], "$: expected an object"),
    "name-missing": (VERIFY, {}, "$.name: missing"),
    "name-not-str": (VERIFY, {"name": 3}, "$.name: expected str"),
    "factors-missing": (VERIFY, {"name": "p"}, "$.factors: missing"),
    "factors-not-list": (VERIFY, {"name": "p", "factors": {}}, "$.factors: expected list"),
    "factor-not-object": (VERIFY, dict(BLOCKED, factors=[3]),
                          "$.factors[0]: expected an object"),
    "factor-name-missing": (VERIFY, dict(BLOCKED, factors=[{"levels": 2}]),
                            "$.factors[0].name: missing"),
    "levels-missing": (VERIFY, dict(BLOCKED, factors=[{"name": "A"}]),
                       "$.factors[0].levels: missing"),
    "levels-bool": (VERIFY, with_factor(levels=True), "$.factors[0].levels: expected an integer"),
    "levels-float": (VERIFY, with_factor(levels=2.0), "$.factors[0].levels: expected int"),
    "factor-reserved-name": (VERIFY, with_factor(name="G"),
                             "$.factors[0]: invalid factor name 'G'"),
    "factor-one-level": (VERIFY, with_factor(levels=1),
                         "$.factors[0]: factor A: needs >= 2 levels"),
    "blocks-not-list": (VERIFY, dict(BLOCKED, block_sizes=2), "$.block_sizes: expected list"),
    "block-not-int": (VERIFY, dict(BLOCKED, block_sizes=[1, "1"]),
                      "$.block_sizes[1]: expected an integer"),
    "gram-too-large": (VERIFY, with_factor(levels=8383),
                       "$: gram size 8388 (levels + blocks + 1) exceeds the limit 8384"),
    "runs-missing": (VERIFY, {k: v for k, v in BLOCKED.items() if k != "runs"},
                     "$.runs: missing"),
    "run-not-list": (VERIFY, dict(BLOCKED, runs=[[0, 0], 1]), "$.runs[1]: expected a list"),
    "symbol-not-int": (VERIFY, dict(BLOCKED, runs=[[0, False], [1, 1]]),
                       "$.runs[0][1]: expected an integer"),
    # an integer longer than int() converts, wherever it stands
    "int-too-long": (VERIFY, '{"name": "p", "runs": [[' + "7" * (sys.get_int_max_str_digits() + 1)
                     + "]]}", f"$: an integer exceeds {sys.get_int_max_str_digits()} digits"),
    # plan values the schema lets through
    "names-repeat": (VERIFY, with_factor(name="B"), "factor names must be unique"),
    "no-factors": (VERIFY, dict(BLOCKED, factors=[]),
                   "plan needs at least one factor, factors is empty"),
    "no-runs": (VERIFY, dict(BLOCKED, runs=[]), "plan needs at least one run"),
    "run-length": (VERIFY, dict(BLOCKED, runs=[[0, 0], [1]]),
                   "run 1 has 1 coordinates, expected 2"),
    "symbol-range": (VERIFY, dict(BLOCKED, runs=[[0, 2], [1, 1]]),
                     "run 0, factor B: symbol 2 outside 0..1"),
    "block-size-zero": (VERIFY, dict(BLOCKED, block_sizes=[2, 0]), "block sizes must be positive"),
    "block-sizes-sum": (VERIFY, dict(BLOCKED, block_sizes=[1, 2]),
                        "block sizes sum to 3, plan has 2 runs"),
    # the run count of construct_potp(32, 127) passes the limit, one more run does not
    "runs-at-limit": (VERIFY, dict(BLOCKED, runs=[[0, 0]] * plan_module.MAX_RUNS),
                      f"block sizes sum to 2, plan has {plan_module.MAX_RUNS} runs"),
    "runs-too-many": (VERIFY, dict(BLOCKED, runs=[[0, 0]] * (plan_module.MAX_RUNS + 1)),
                      f"$.runs: {plan_module.MAX_RUNS + 1} runs exceed "
                      f"the limit {plan_module.MAX_RUNS}"),
    # construct options
    "potp-needs-h": (["construct", "--family", "potp", "--s", "3"],
                     None, "--h is required for family 'potp'"),
    "asym-needs-s": (["construct", "--family", "asym"], None, "--s is required for family 'asym'"),
    "seed-needs-name": (["construct", "--family", "seed"],
                        None, "--name is required for family 'seed'"),
    "hadamard-needs-order": (["construct", "--family", "hadamard"],
                             None, "--order is required for family 'hadamard'"),
    "oa-needs-s": (["construct", "--family", "oa"], None, "--s is required for family 'oa'"),
    "option-unread": (["construct", "--family", "potb3", "--h", "5"],
                      None, "--h does not apply to --family potb3"),
    "seed-unknown": (["construct", "--family", "seed", "--name", "nope"], None,
                     "unknown seed plan 'nope'; have ['ico_2_6', 'potb_2_7', 'potb_3_3', "
                     "'potp_3_4']"),
    # field and Hadamard limits
    "field-composite": (["construct", "--family", "oa", "--s", "6"],
                        None, "6 is not a prime power"),
    "field-one": (["construct", "--family", "qarray", "--s", "1"],
                  None, "1 is not a prime power"),
    "field-too-large": (["construct", "--family", "oa", "--s", "256"],
                        None, "field order 256 exceeds 128"),
    "field-large-composite": (["construct", "--family", "asym", "--s", "1000"],
                              None, "field order 1000 exceeds 128"),
    "field-even": (["construct", "--family", "asym", "--s", "8"],
                   None, "square classes need odd characteristic"),
    "hadamard-order-6": (["construct", "--family", "hadamard", "--order", "6"],
                         None, "no Hadamard matrix of order 6"),
    "hadamard-order-0": (["construct", "--family", "hadamard", "--order", "0"],
                         None, "no Hadamard matrix of order 0"),
    "hadamard-unreachable": (["construct", "--family", "hadamard", "--order", "92"],
                             None, "order 92 not reachable by the built-in constructions"),
    "hadamard-too-large": (["construct", "--family", "oa", "--order", "1400"],
                           None, "Hadamard order 1400 exceeds the limit 1397"),
    "oa-order-1": (["construct", "--family", "oa", "--order", "1"],
                   None, "need order >= 2; order 1 leaves no row"),
    "potb2-h6": (["construct", "--family", "potb2", "--h", "6"],
                 None, "no Hadamard matrix of order 6"),
    "potb2-gram": (["construct", "--family", "potb2", "--h", "524"],
                   None, "potb2 h=524: gram size 8385 exceeds the limit 8384"),
    "potp-gram": (["construct", "--family", "potp", "--h", "1400", "--s", "3"],
                  None, "potp h=1400 s=3: gram size 8401 exceeds the limit 8384"),
    "potp-h2": (["construct", "--family", "potp", "--h", "2", "--s", "3"],
                None, "seed needs a Hadamard order divisible by 4, got 2"),
    "potp-congruence": (["construct", "--family", "potp", "--h", "4", "--s", "5"],
                        None, "s = 5 fails s = 3 (mod 4)"),
    # verify, optimality and anova on a plan that cannot answer the question
    "potb-no-blocks": (VERIFY, UNBLOCKED, "plan 'p' has no blocks"),
    "through-block-no-blocks": (["verify", "--check", "potp", "--through", "block",
                                 "--plan", "{plan}"], UNBLOCKED, "plan 'p' has no blocks"),
    "optimality-no-blocks": (["optimality", "--plan", "{plan}"], UNBLOCKED,
                             "the per-factor conditions are about blocked plans"),
    "anova-no-blocks": (ANOVA + ["--adjust", "block"], UNBLOCKED, "plan 'p' has no blocks"),
    "through-unknown": (["verify", "--check", "potp", "--through", "Z", "--plan", "{plan}"],
                        BLOCKED, "no factor named 'Z' in plan 'p'"),
    "through-missing": (["verify", "--check", "potp", "--plan", "{plan}"], BLOCKED,
                        "--through is required for --check potp"),
    "through-not-potp": (["verify", "--check", "pfc", "--through", "A", "--plan", "{plan}"],
                         BLOCKED, "--through applies only to --check potp"),
    "through-twice": (["verify", "--check", "potp", "--through", "A,A", "--plan", "{plan}"],
                      BLOCKED, "--through names 'A' twice"),
    "target-unknown": (["anova", "--plan", "{plan}", "--target", "Z9", "--adjust", "block"],
                       BLOCKED, "no factor named 'Z9' in plan 'p'"),
    "adjust-unknown": (ANOVA + ["--adjust", "Z"], BLOCKED, "no factor named 'Z' in plan 'p'"),
    "adjust-target": (ANOVA + ["--adjust", "A"], BLOCKED, "'A' cannot be adjusted for itself"),
    "adjust-twice": (ANOVA + ["--adjust", "B,B"], BLOCKED, "--adjust names 'B' twice"),
    "anova-trials": (ANOVA + ["--adjust", "block", "--trials", "0"], BLOCKED,
                     "trials must be at least 1, got 0"),
    "anova-seed": (ANOVA + ["--adjust", "block", "--seed", "-1"], BLOCKED,
                   "seed must be non-negative, got -1"),
    "plan-file-missing": (["optimality", "--plan", "{tmp}/missing.json"], None,
                          "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
}


def input_error(tmp_path, case):
    """The argv of the ``INPUT_ERRORS`` case ``case``, with its plan file
    written under ``tmp_path``, and the whole stderr it must print."""
    argv, plan, message = INPUT_ERRORS[case]
    if plan is not None:
        path = tmp_path / "plan.json"
        path.write_text(plan if isinstance(plan, str) else json.dumps(plan))
        argv = [a.replace("{plan}", str(path)) for a in argv]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    return argv, f"error: {message.replace('{tmp}', str(tmp_path))}\n"


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_every_input_error_prints_one_line_and_exits_two(capsys, tmp_path, case):
    """Each bad input or usage exits 2 with its own message on stderr,
    byte for byte, and nothing on stdout."""
    argv, err = input_error(tmp_path, case)
    assert run(capsys, *argv) == (2, "", err)


# ---------------------------------------------------------------------------
# start-up: what the CLI decides itself, it refuses before numpy loads

# The INPUT_ERRORS cases that cli and plan decide: argparse, the options of
# a family, --through and --adjust, and the whole plan file.
FRONT_END_ERRORS = ("json-invalid", "json-too-deep", "doc-not-object", "runs-too-many",
                    "plan-file-missing", "potp-needs-h", "seed-needs-name",
                    "hadamard-needs-order", "oa-needs-s", "option-unread", "adjust-twice")
# The process entry on the child's argv; the last line of stderr says whether numpy loaded.
NUMPY_PROBE = ("import sys\nfrom orthoplan.cli import _run\ncode = _run()\n"
               "sys.stderr.write(f'numpy loaded: {\"numpy\" in sys.modules}\\n')\n"
               "sys.exit(code)\n")


def probe_numpy(src_env, argv):
    """(exit code, stdout, stderr, whether numpy loaded) of the process
    entry run on ``argv`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True,
                          text=True, env=src_env, timeout=120)
    err, _, loaded = proc.stderr.rpartition("numpy loaded: ")
    return proc.returncode, proc.stdout, err, {"True\n": True, "False\n": False}[loaded]


def test_importing_the_cli_loads_no_numpy(src_env):
    proc = subprocess.run([sys.executable, "-c",
                           "import sys\nimport orthoplan.cli\nprint('numpy' in sys.modules)"],
                          capture_output=True, text=True, env=src_env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_help_loads_no_numpy(src_env):
    code, out, err, loaded = probe_numpy(src_env, ["--help"])
    assert (code, err, loaded) == (0, "", False) and out.startswith("usage: orthoplan")


@pytest.mark.parametrize("case", FRONT_END_ERRORS)
def test_a_front_end_refusal_exits_before_numpy_loads(src_env, tmp_path, case):
    """Exit code, stdout and stderr are those the in-process sweep pins."""
    argv, err = input_error(tmp_path, case)
    assert probe_numpy(src_env, argv) == (2, "", err, False)


@pytest.mark.parametrize("verb", ENTRY_OPS)
def test_a_verb_that_computes_loads_numpy(src_env, tmp_path, potb27, verb):
    """The probe sees numpy when a verb forms its matrices, so the refusals
    above cannot pass for a probe that never sees it."""
    plan = write_plan(tmp_path, potb27)
    argv = [arg.format(dir=tmp_path, plan=plan) for arg in ENTRY_OPS[verb]]
    code, _, err, loaded = probe_numpy(src_env, argv)
    assert (code, err, loaded) == (0, "", True)
