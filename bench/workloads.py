"""Workload definitions, the seeded plan-file generator and the
correctness gate of the orthoplan CLI benchmark.

An op is one CLI invocation, described as a dict: ``verb`` plus the
verb's options.  ``cli_argv`` turns it into the argument list of
``python -m orthoplan.cli``; ``traced_op.py`` runs the same op through
the package's public functions.  An op's ``plan`` option names a plan
file that ``write_plan_files`` generates before the run.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Plan files of the verify-files workload: name -> (family, options).
PLAN_SOURCES = {
    "potb2_h4": ("potb2", {"h": 4}),
    "potp_h8_s7": ("potp", {"h": 8, "s": 7}),
    "potb2_h2": ("potb2", {"h": 2}),
    "asym_7": ("asym", {"s": 7}),
    "potb_2_7": ("seed", {"name": "potb_2_7"}),
    "ico_2_6": ("seed", {"name": "ico_2_6"}),
    "potp_3_4": ("seed", {"name": "potp_3_4"}),
}

WORKLOADS = {
    # The paper's headline claims in one op: every layer in the CLI's own
    # order; the ledger on potb_3_15 (27 blocks) dominates.
    "catalog": [
        {"verb": "catalog"},
    ],
    # The two opposite shapes of the exact-information layers: many small
    # two-level pairs (potb2 h=4: n=40, m=28, 378 pairs) and few pairs over
    # large fraction-free systems (asym 11: n=132, 22 blocks).
    "construct-scale": [
        {"verb": "construct", "family": "potb2", "h": 4},
        {"verb": "construct", "family": "asym", "s": 11},
    ],
    # The read side: the user brings plan files, so nothing is built or
    # self-verified.  The only workload with the anova g-inverse route and
    # through-pair solves at large n (potp h=8 s=7: n=336, unblocked).
    "verify-files": [
        {"verb": "verify", "check": "potb", "plan": "potb2_h4"},
        {"verb": "verify", "check": "potp", "through": "A1,A2", "plan": "potp_h8_s7"},
        {"verb": "verify", "check": "pfc", "plan": "potp_h8_s7"},
        {"verb": "optimality", "plan": "potb2_h2"},
        {"verb": "optimality", "plan": "asym_7"},
        {"verb": "anova", "target": "A1", "adjust": "block", "trials": 50,
         "plan": "potb_2_7"},
        {"verb": "anova", "target": "A1", "adjust": "block", "trials": 50,
         "plan": "ico_2_6"},
        {"verb": "anova", "target": "A3", "adjust": "A1,A2", "trials": 50,
         "plan": "potp_3_4"},
    ],
}

# Layers a verb runs in its pipeline (besides serialization).
VERB_LAYERS = {
    "catalog": {"constructions.build", "orthogonality.report", "optimality.ledger"},
    "construct": {"constructions.build", "orthogonality.report", "optimality.ledger"},
    "verify": {"plan.load", "orthogonality.report"},
    "optimality": {"plan.load", "optimality.ledger"},
    "anova": {"plan.load", "anova.experiment"},
}
# Layers probed once per traced pass when no op of the workload runs them.
PROBED_LAYERS = ("constructions.build", "plan.load", "anova.experiment")


def op_id(op):
    parts = [op["verb"]]
    for key in ("family", "h", "s", "name", "check", "plan"):
        if key in op:
            parts.append(f"{key}{op[key]}" if key in ("h", "s") else str(op[key]))
    return "-".join(parts)


def cli_argv(op, plan_dir):
    argv = [op["verb"]]
    for key, val in op.items():
        if key == "verb":
            continue
        if key == "plan":
            val = str(Path(plan_dir) / f"{val}.json")
        argv += [f"--{key}", str(val)]
    return argv


def probes_for(workload):
    """The layers that no op of ``workload`` runs."""
    run = set().union(*(VERB_LAYERS[op["verb"]] for op in WORKLOADS[workload]))
    return [layer for layer in PROBED_LAYERS if layer not in run]


# ---------------------------------------------------------------------------
# plan files

def build_source(name):
    """Build the source plan of a plan file with the package's public API."""
    import orthoplan

    family, opts = PLAN_SOURCES[name]
    if family == "seed":
        return orthoplan.seed_plans()[opts["name"]]
    return getattr(orthoplan, f"construct_{family}")(*opts.values())


def relabel(doc, rng):
    """A plan document equivalent to ``doc`` under a random relabelling:
    factor order, level labels, block order and run order within blocks
    (all runs, for an unblocked plan)."""
    factors = doc["factors"]
    order = list(range(len(factors)))
    rng.shuffle(order)
    perms = []
    for f in factors:
        perm = list(range(f["levels"]))
        rng.shuffle(perm)
        perms.append(perm)
    runs = [[perms[j][run[j]] for j in order] for run in doc["runs"]]
    sizes = doc.get("block_sizes", [len(runs)])
    blocks = []
    start = 0
    for k in sizes:
        block = runs[start:start + k]
        rng.shuffle(block)
        blocks.append(block)
        start += k
    rng.shuffle(blocks)
    out = {"name": doc["name"], "factors": [factors[j] for j in order],
           "runs": [run for block in blocks for run in block]}
    if "block_sizes" in doc:
        out["block_sizes"] = [len(block) for block in blocks]
    return out


def write_plan_files(plan_dir, seed, names=tuple(PLAN_SOURCES)):
    """Write one plan file per name into ``plan_dir``: the built plan
    relabelled by ``random.Random(seed)``, or unchanged when ``seed`` is
    None."""
    import orthoplan

    rng = random.Random(seed)
    for name in names:
        doc = orthoplan.plan_to_json(build_source(name))
        if seed is not None:
            doc = relabel(doc, rng)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        (Path(plan_dir) / f"{name}.json").write_text(text)


# ---------------------------------------------------------------------------
# correctness gate

def _pair_key(pair):
    return "|".join(sorted((pair["a"], pair["b"])))


def verdicts(op, doc):
    """The relabelling-invariant verdicts of a verify, optimality or anova
    report: compared by factor name and by unordered pair."""
    verb = op["verb"]
    if verb == "verify":
        return {"pass": doc["pass"],
                "pairs": {_pair_key(p): [p["pass"], p.get("pfc")]
                          for p in doc["pairs"]}}
    if verb == "optimality":
        return {"global": doc["global"],
                "factors": {f["factor"]: f["pass"] for f in doc["factors"]}}
    if verb == "anova":
        return {"holds": doc["condition"]["holds"],
                "biconditional_observed": doc["biconditional_observed"]}
    raise ValueError(f"no verdicts for verb {verb!r}")


def load_reference():
    return json.loads(REFERENCE.read_text())


def check(op, rc, out, reference):
    """None when the op's exit code and output match the reference, else
    a one-line reason naming the op."""
    oid = op_id(op)
    if "plan" not in op:
        want = reference["digests"].get(oid)
        got = hashlib.sha256(out).hexdigest()
        if rc != 0:
            return f"{oid}: exit code {rc}, expected 0"
        if got != want:
            return f"{oid}: stdout sha256 {got[:16]}, expected {str(want)[:16]}"
        return None
    want = reference["verdicts"].get(oid)
    if want is None:
        return f"{oid}: no reference verdicts"
    if rc != want["rc"]:
        return f"{oid}: exit code {rc}, expected {want['rc']}"
    try:
        got = verdicts(op, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return f"{oid}: unreadable report ({exc})"
    got = json.loads(json.dumps(got))
    if got != want["verdicts"]:
        diff = sorted(k for k in set(got) | set(want["verdicts"])
                      if got.get(k) != want["verdicts"].get(k))
        return f"{oid}: verdicts differ in {diff}"
    return None
