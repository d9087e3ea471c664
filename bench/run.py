"""End-to-end benchmark of the orthoplan CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``python -m orthoplan.cli`` invocation in a fresh
interpreter, run from ``src/``, so every ``lru_cache`` starts cold as it
does for a user.  One client issues the ops of a workload back to back
(closed loop, no concurrency); one pass runs every op of the workload
once, and passes repeat while the next one is expected to end within S
seconds.  Every op's exit code and output are checked against
``reference.json``.

``--trace 0`` reports the end-to-end metrics, scaled to a reference
machine speed by a calibration task timed around the set-up and after
every pass (see ``CALIBRATION_TERMS``).  ``--trace 1`` alternates an
untraced pass with a traced pass, in which ``traced_op.py`` runs each op
through the public API with layer spans, and reports per-layer self times
and counts.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and a readable summary.  All files go to a
temporary directory inside the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
# The machine's speed drifts by up to a third within minutes, and CLI ops
# slow down and speed up with it.  A fixed piece of exact arithmetic from
# the standard library, so no change to orthoplan can move it, is timed
# before and after the set-up samples and after every pass.  A time
# divided by the run's median calibration time, times the calibration's
# time on the machine the baseline was recorded on, reads in seconds at
# that machine's speed.  The run pins itself, and so the children it
# starts, to one CPU, so that the ops and the calibration see one CPU's
# speed.
CALIBRATION_TERMS = 150_000
CALIBRATION_REPEATS = 6
REFERENCE_CALIBRATION_S = 3.3

LAYER_TIMES = (
    "cli.import",
    "constructions.build",
    "orthogonality.report",
    "optimality.ledger",
    "orthogonality.c_matrix_factor",
    "ratmat.g_inverse",
    "ratmat.rank",
    "contrasts.spectrum",
    "anova.experiment",
    "plan.load",
    "cli.serialize",
)
# Counts that spans carry as attributes, and how the spans of a pass combine.
LAYER_COUNTS = {
    "orthogonality.pairs": sum,
    "optimality.factors": sum,
    "ratmat.system_dim": max,
    "anova.trials": sum,
    "plan.runs": sum,
    "plan.factors": sum,
    "cli.out_bytes": sum,
}
UNITS = {"count": ("orthogonality.pairs", "optimality.factors", "ratmat.system_dim",
                   "anova.trials", "plan.runs", "plan.factors"),
         "bytes": ("cli.out_bytes",),
         "1/s": ("orthogonality.pairs_per_s", "anova.trials_per_s"),
         "MB": ("peak_rss_mb",)}


def unit_of(name):
    for unit, names in UNITS.items():
        if name in names:
            return unit
    return "s"


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


def spawn(argv, err_path):
    """Run one child from ``src/``; return (exit code, stdout, wall s, rusage)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage


def cli_argv(op, tmp):
    return [sys.executable, "-m", "orthoplan.cli", *wl.cli_argv(op, tmp)]


def environment(tmp):
    """One untimed warm-up spawn that also checks how the child runs."""
    code = ("import json, sys, numpy, orthoplan.cli, orthoplan; print(json.dumps("
            "{'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'optimize': sys.flags.optimize, 'orthoplan': orthoplan.__file__}))")
    rc, out, _, _ = spawn([sys.executable, "-c", code], tmp / "env.err")
    if rc != 0:
        raise Refused(f"cannot import orthoplan.cli from {SRC}: "
                      + (tmp / "env.err").read_text().strip())
    env = json.loads(out)
    if env["optimize"] > 0:
        raise Refused("the child runs with sys.flags.optimize > 0, which strips "
                      "the asserts that carry self-verification")
    if not Path(env["orthoplan"]).resolve().is_relative_to(SRC.resolve()):
        raise Refused(f"orthoplan imports from {env['orthoplan']}, not from {SRC}")
    env["nproc"] = os.cpu_count()
    env["cpu"] = sorted(os.sched_getaffinity(0))
    env["commit"], env["dirty"] = git_state()
    return env


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            capture_output=True, text=True)
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def setup_times(tmp):
    """Wall time of fresh interpreters that import orthoplan.cli."""
    times = []
    for _ in range(SETUP_SAMPLES):
        rc, _, wall, _ = spawn([sys.executable, "-c", "import orthoplan.cli"],
                               tmp / "setup.err")
        if rc != 0:
            raise Refused("import orthoplan.cli failed")
        times.append(wall)
    return times


def calibrate():
    """Wall time of the fixed calibration task."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        total = Fraction(0)
        for i in range(1, CALIBRATION_TERMS):
            total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Run:
    """Passes of one workload with their gate results."""

    def __init__(self, workload, tmp, reference):
        self.ops = wl.WORKLOADS[workload]
        self.probes = wl.probes_for(workload)
        self.tmp = tmp
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.passes = []
        self.traced = []
        self.calibrations = []

    def gate(self, op, rc, out, err_path):
        self.attempted += 1
        reason = wl.check(op, rc, out, self.reference)
        if reason is not None:
            err = err_path.read_text().strip().splitlines()
            if err:
                reason += f" [stderr: {err[-1]}]"
            self.failures.append(reason)
            print(f"FAILED {reason}", file=sys.stderr)

    def untraced_pass(self):
        rec = {"wall": 0.0, "cpu": 0.0, "rss_kb": 0, "ops": [], "verbs": {}}
        for op in self.ops:
            err = self.tmp / "op.err"
            rc, out, wall, usage = spawn(cli_argv(op, self.tmp), err)
            self.gate(op, rc, out, err)
            rec["wall"] += wall
            rec["ops"].append(wall)
            rec["cpu"] += usage.ru_utime + usage.ru_stime
            rec["rss_kb"] = max(rec["rss_kb"], usage.ru_maxrss)
            rec["verbs"].setdefault(op["verb"], []).append(wall)
        self.passes.append(rec)
        return rec["wall"]

    def calibrated_pass(self):
        """An untraced pass followed by a calibration; returns their time."""
        wall = self.untraced_pass()
        self.calibrations.append(calibrate())
        return wall + self.calibrations[-1]

    def traced_pass(self):
        rec = {"op_time": 0.0, "layers": {}, "counts": {}, "unattributed": 0.0}
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            err = self.tmp / "op.err"
            spans_path = self.tmp / "spans.jsonl"
            probes = self.probes if i == 0 else []
            argv = [sys.executable, str(Path(__file__).with_name("traced_op.py")),
                    json.dumps(op), str(self.tmp), str(spans_path), json.dumps(probes)]
            spans_path.unlink(missing_ok=True)
            rc, out, wall, _ = spawn(argv, err)
            self.gate(op, rc, out, err)
            spans = ([json.loads(line) for line in spans_path.read_text().splitlines()]
                     if spans_path.exists() else [])
            probe_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "probe")
            covered = 0.0
            for name, self_s, in_probe in self_times(spans):
                rec["layers"][name] = rec["layers"].get(name, 0.0) + self_s
                if not in_probe:
                    covered += self_s
            for span in spans:
                for metric, combine in LAYER_COUNTS.items():
                    if metric in span:
                        rec["counts"][metric] = combine(
                            [rec["counts"].get(metric, 0), span[metric]])
            rec["op_time"] += wall - probe_s
            rec["unattributed"] += wall - probe_s - covered
        rec["wall"] = time.perf_counter() - start
        self.traced.append(rec)
        return rec["wall"]


def self_times(spans):
    """(name, self time, inside the probe root) for every layer span."""
    by_id = {s["id"]: s for s in spans}
    child_s = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = []
    for s in spans:
        if s["name"] in ("op", "probe"):
            continue
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        own = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
        out.append((s["name"], own, root["name"] == "probe"))
    return out


def run_for(seconds, step):
    """Call ``step`` (which returns its duration) at least once, and again
    while another step of the same length would end within ``seconds``."""
    start = time.perf_counter()
    while True:
        last = step()
        if time.perf_counter() - start + last > seconds:
            return


def summary(name, values, unit):
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.4f} {unit}, n={n}"
    pct = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if pct > 50:
        q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        line += f", p{pct} {q:.4f} {unit}"
    return line


def end_to_end(run, setup):
    """Metrics of calibrated passes, at the reference speed.  ``wall_ref_s``
    is one pass of typical ops: the sum over the workload's ops of each
    op's median time."""
    med = statistics.median
    scale = REFERENCE_CALIBRATION_S / med(run.calibrations)
    walls = [p["wall"] for p in run.passes]
    ref_wall = scale * sum(med(op_walls) for op_walls in zip(*(p["ops"] for p in run.passes)))
    lines = [summary("setup_s", [t * scale for t in setup], "s")
             + " at reference speed; " + summary("raw", setup, "s"),
             f"wall_ref_s: {ref_wall:.4f} s; " + summary("raw wall_s", walls, "s"),
             summary("calibration", run.calibrations, "s")
             + f", reference {REFERENCE_CALIBRATION_S} s"]
    for verb in sorted({v for p in run.passes for v in p["verbs"]}):
        per_pass = [sum(p["verbs"][verb]) for p in run.passes]
        per_op = [t for p in run.passes for t in p["verbs"][verb]]
        lines.append(summary(f"{verb}_s", per_pass, "s")
                     + f"; per op {summary(verb, per_op, 's')}")
    metrics = {
        "setup_s": scale * med(setup),
        "wall_ref_s": ref_wall,
        "peak_rss_mb": max(p["rss_kb"] for p in run.passes) / 1024,
    }
    return metrics, lines


def per_layer(run):
    traced = run.traced
    per_pass = {f"{name}_s": [t["layers"].get(name, 0.0) for t in traced]
                for name in LAYER_TIMES}
    for metric in LAYER_COUNTS:
        per_pass[metric] = [t["counts"].get(metric, 0) for t in traced]
    for rate, count, layer in (("orthogonality.pairs_per_s", "orthogonality.pairs",
                                "orthogonality.report_s"),
                               ("anova.trials_per_s", "anova.trials", "anova.experiment_s")):
        per_pass[rate] = [n / s if s > 0 else 0.0
                          for n, s in zip(per_pass[count], per_pass[layer])]
    per_pass["cli.cpu_s"] = [p["cpu"] for p in run.passes]
    per_pass["trace.unattributed_s"] = [t["unattributed"] for t in traced]
    lines = [summary(k, v, unit_of(k)) for k, v in per_pass.items()]
    metrics = {k: statistics.median(v) for k, v in per_pass.items()}
    metrics["trace.overhead_s"] = (statistics.median([t["op_time"] for t in traced])
                                   - statistics.median([p["wall"] for p in run.passes]))
    lines.append(f"trace.overhead_s: {metrics['trace.overhead_s']:.4f} s "
                 "(median traced op time minus median untraced pass)")
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "orthoplan" / "cli.py").is_file():
        print(f"error: no orthoplan package under {SRC}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp_name:
        tmp = Path(tmp_name)
        try:
            env = environment(tmp)
            calibrations = [calibrate()]
            setup = setup_times(tmp)
            calibrations.append(calibrate())
        except Refused as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"environment": env, "workload": args.workload,
                          "seed": args.seed, "trace": args.trace}), flush=True)
        if any("plan" in op for op in wl.WORKLOADS[args.workload]):
            sys.path.insert(0, str(SRC))
            wl.write_plan_files(tmp, args.seed)
        run = Run(args.workload, tmp, wl.load_reference())
        if args.trace:
            run_for(args.seconds, lambda: run.untraced_pass() + run.traced_pass())
            metrics, lines = per_layer(run)
        else:
            run.calibrations += calibrations
            run_for(args.seconds, run.calibrated_pass)
            metrics, lines = end_to_end(run, setup)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
