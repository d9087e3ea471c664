"""Tests of the benchmark itself: the plan-file generator, the correctness
gate, the traced op and the run's refusals.

    python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads as wl

sys.path.insert(0, str(run.SRC))

import orthoplan  # noqa: E402

SMALL = ("potb_2_7", "ico_2_6", "potp_3_4")


def _plan(path):
    return orthoplan.plan_from_json(json.loads(Path(path).read_text()))


def _write(tmp_path, seed, names=SMALL):
    out = tmp_path / f"seed-{seed}"
    out.mkdir()
    wl.write_plan_files(out, seed, names)
    return out


def test_generated_plan_is_a_valid_relabelling(tmp_path):
    names = SMALL + ("potb2_h2",)
    src = _write(tmp_path, None, names)
    gen = _write(tmp_path, 7, names)
    for name in names:
        a, b = _plan(src / f"{name}.json"), _plan(gen / f"{name}.json")
        assert (b.n, len(b.factors)) == (a.n, len(a.factors))
        assert sorted(b.factor_names) == sorted(a.factor_names)
        assert Counter(b.block_sizes or ()) == Counter(a.block_sizes or ())
        for f in a.factor_names:
            assert (sorted(Counter(b.column(f)).values())
                    == sorted(Counter(a.column(f)).values()))


def test_two_seeds_give_different_files(tmp_path):
    one, two = _write(tmp_path, 1), _write(tmp_path, 2)
    for name in SMALL:
        assert (one / f"{name}.json").read_text() != (two / f"{name}.json").read_text()


def test_same_seed_gives_same_files(tmp_path):
    one, two = _write(tmp_path, 3), tmp_path / "again"
    two.mkdir()
    wl.write_plan_files(two, 3, SMALL)
    for name in SMALL:
        assert (one / f"{name}.json").read_text() == (two / f"{name}.json").read_text()


def _cli_verdicts(op, plan_dir, tmp_path):
    rc, out, _, _ = run.spawn(run.cli_argv(op, plan_dir), tmp_path / "op.err")
    return rc, wl.verdicts(op, json.loads(out))


@pytest.mark.parametrize("seed", [1, 2])
def test_verdicts_match_the_source_plan(tmp_path, seed):
    src, gen = _write(tmp_path, None), _write(tmp_path, seed)
    ops = [op for op in wl.WORKLOADS["verify-files"] if op["plan"] in SMALL]
    ops += [{"verb": "verify", "check": "potb", "plan": "potb_2_7"},
            {"verb": "verify", "check": "potb", "plan": "ico_2_6"},
            {"verb": "verify", "check": "potp", "through": "A1,A2", "plan": "potp_3_4"}]
    for op in ops:
        assert _cli_verdicts(op, gen, tmp_path) == _cli_verdicts(op, src, tmp_path), op


def test_gate_accepts_the_reference_and_names_a_failed_op():
    ref = wl.load_reference()
    op = {"verb": "anova", "target": "A1", "adjust": "block", "trials": 50,
          "plan": "potb_2_7"}
    good = json.dumps({"condition": {"holds": True}, "biconditional_observed": True})
    assert wl.check(op, 0, good.encode(), ref) is None

    bad = json.loads(json.dumps(ref))
    bad["verdicts"]["anova-potb_2_7"]["verdicts"]["holds"] = False
    reason = wl.check(op, 0, good.encode(), bad)
    assert reason.startswith("anova-potb_2_7:") and "holds" in reason
    assert "exit code" in wl.check(op, 1, good.encode(), ref)

    catalog = {"verb": "catalog"}
    bad["digests"]["catalog"] = "0" * 64
    reason = wl.check(catalog, 0, b"{}\n", bad)
    assert reason.startswith("catalog:") and "sha256" in reason


def test_end_to_end_scales_times_by_the_median_calibration(tmp_path):
    ref = run.REFERENCE_CALIBRATION_S
    runner = run.Run("catalog", tmp_path, wl.load_reference())
    runner.passes = [{"wall": w0 + w1, "ops": [w0, w1], "cpu": 1.0, "rss_kb": kb,
                      "verbs": {"catalog": [w0, w1]}}
                     for w0, w1, kb in ((2.0, 6.0, 1024), (1.0, 1.0, 2048), (4.0, 8.0, 1024))]
    # The machine ran at half the reference speed for most of the run.
    runner.calibrations = [2 * ref, ref, 2 * ref, 2 * ref, ref]
    metrics, _ = run.end_to_end(runner, [0.5, 0.25, 0.5])
    # Each op's median (2 and 6) summed, then halved.
    assert metrics["wall_ref_s"] == pytest.approx((2.0 + 6.0) / 2)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"] == 2


def test_run_counts_a_corrupted_reference_as_failed(tmp_path):
    ref = json.loads(json.dumps(wl.load_reference()))
    ref["verdicts"]["anova-ico_2_6"]["verdicts"]["biconditional_observed"] = False
    wl.write_plan_files(tmp_path, 5, ("ico_2_6",))
    runner = run.Run("verify-files", tmp_path, ref)
    runner.ops = [op for op in runner.ops if op.get("plan") == "ico_2_6"]
    runner.untraced_pass()
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and runner.failures[0].startswith("anova-ico_2_6:")


def test_traced_op_spans_and_output(tmp_path):
    op = {"verb": "construct", "family": "seed", "name": "potb_2_7"}
    spans_path = tmp_path / "spans.jsonl"
    argv = [sys.executable, str(Path(run.__file__).with_name("traced_op.py")),
            json.dumps(op), str(tmp_path), str(spans_path),
            json.dumps(["plan.load", "anova.experiment"])]
    rc, traced_out, wall, _ = run.spawn(argv, tmp_path / "traced.err")
    assert rc == 0, (tmp_path / "traced.err").read_text()
    rc, cli_out, _, _ = run.spawn(run.cli_argv(op, tmp_path), tmp_path / "cli.err")
    assert rc == 0 and traced_out == cli_out

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert names >= {"op", "probe", "cli.import", "constructions.build",
                     "orthogonality.report", "optimality.ledger", "cli.serialize",
                     "orthogonality.c_matrix_factor", "ratmat.g_inverse", "ratmat.rank",
                     "contrasts.spectrum", "plan.load", "anova.experiment"}
    assert {s["op"] for s in spans} == {"construct-seed-potb_2_7"}
    root = next(s for s in spans if s["name"] == "op")
    layers = sum(own for _, own, in_probe in run.self_times(spans) if not in_probe)
    assert 0 < layers <= root["end"] - root["start"] <= wall


def _bench(args, cwd, env=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_run_refuses_optimized_children():
    env = dict(os.environ, PYTHONOPTIMIZE="1")
    res = _bench(["--workload", "catalog", "--seed", "1", "--seconds", "1"],
                 run.ROOT, env)
    assert res.returncode == 2 and "optimize" in res.stderr
    assert '"correct"' not in res.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench(["--workload", "catalog", "--seed", "1", "--seconds", "1"], tmp_path)
    assert res.returncode != 0 and res.stdout == ""
