"""Run one benchmark op in this fresh interpreter with layer spans.

    python traced_op.py OP_JSON PLAN_DIR SPANS_OUT PROBES_JSON

The op runs through the functions that ``orthoplan/__init__.py`` exports,
in the order ``orthoplan.cli`` calls them, and prints the same document
the CLI prints, so the correctness gate applies unchanged.  Each call into
a layer is one span; spans are kept in memory and written to SPANS_OUT as
JSON lines when the process ends.  The exit code is the CLI's.

After the op's root span closes, a ``probe`` root span times the units of
work that the pipeline spans cannot separate: one fully adjusted solve for
the first factor of each plan (``c_matrix_factor``, then ``g_inverse`` and
``rank`` of its result), the eigenvalues of each plan's contrast C-matrix,
and each layer named in PROBES_JSON, once, on the op's first plan.
"""

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
orthoplan = None  # imported by main() inside the cli.import span


class Tracer:
    def __init__(self, op):
        self.op = op
        self.spans = []
        self.stack = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self.stack[-1]["id"] if self.stack else None}
        self.spans.append(record)
        self.stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _claim(label, passed, expect=True):
    return {"label": label, "pass": bool(passed), "expect": expect}


def _split_idents(text):
    return [tok.strip() for tok in text.split(",") if tok.strip()]


class Pipeline:
    """The CLI verbs, one method each, spanned at every layer call."""

    def __init__(self, tr, op, plan_dir):
        self.tr = tr
        self.op = op
        self.plan_dir = plan_dir
        self.touched = []          # (plan, report or None) in call order

    def build(self, fn, *args):
        with self.tr.span("constructions.build"):
            return fn(*args)

    def report(self, fn, *args):
        with self.tr.span("orthogonality.report") as sp:
            rep = fn(*args)
            sp["orthogonality.pairs"] = len(rep.pairs)
        return rep

    def ledger(self, plan):
        with self.tr.span("optimality.ledger") as sp:
            ledger = orthoplan.universal_ledger(plan)
            sp["optimality.factors"] = len(ledger.factors)
        return ledger

    def serialize(self, fn, *args):
        with self.tr.span("cli.serialize"):
            return fn(*args)

    def load(self):
        path = Path(self.plan_dir) / f"{self.op['plan']}.json"
        with self.tr.span("plan.load") as sp:
            plan = orthoplan.plan_from_json(json.loads(path.read_text()))
            sp["plan.runs"], sp["plan.factors"] = plan.n, len(plan.factors)
        return plan

    def emit(self, doc):
        with self.tr.span("cli.serialize") as sp:
            text = _dump(doc)
            sys.stdout.write(text)
            sp["cli.out_bytes"] = len(text.encode())

    # -- claims, as orthoplan.cli states them --------------------------------

    def pair_claims(self, name, plan):
        if name == "potp_3_4":
            rep = self.report(orthoplan.is_potp, plan, ("A1", "A2"))
            return rep, [_claim("potp-3-4-orthogonal-through-leading-pair", rep.passed)]
        rep = self.report(orthoplan.is_potb, plan)
        if name == "potb_2_7":
            ok, val = rep.c_matrix.scalar_identity()
            return rep, [
                _claim("potb-2-7-all-pairs-through-block", rep.passed),
                _claim("potb-2-7-contrast-scalar-4", ok and val == 4),
                _claim("potb-2-7-leading-pair-pfc-fails", not rep.pair("A1", "A2").pfc),
            ]
        if name == "ico_2_6":
            classes = {"A1": 1, "B1": 1, "C1": 1, "A2": 2, "B2": 2, "C2": 2}
            cross = [p for p in rep.pairs if classes[p.a] != classes[p.b]]
            within = [p for p in rep.pairs if classes[p.a] == classes[p.b]]
            return rep, [
                _claim("ico-2-6-cross-class-pairs-through-block",
                       all(p.passed for p in cross)),
                _claim("ico-2-6-within-class-pairs-fail",
                       not any(p.passed for p in within)),
                _claim("ico-2-6-not-potb-overall", rep.passed, expect=False),
            ]
        if name == "potb_3_3":
            ok, val = rep.c_matrix.scalar_identity()
            return rep, [
                _claim("potb-3-3-all-pairs-through-block", rep.passed),
                _claim("potb-3-3-contrast-scalar-3", ok and val == 3),
            ]
        raise ValueError(f"no claims for seed plan {name!r}")

    def asym_claims(self, label, rep):
        ext = [p for p in rep.pairs if p.informational]
        return [
            _claim(f"{label}-level-pairs-through-block", rep.passed),
            _claim(f"{label}-extended-pairs-proportional", all(p.pfc for p in ext)),
        ]

    # -- verbs -----------------------------------------------------------------

    def catalog(self):
        plans, reports, ledgers, claims = {}, {}, {}, []

        def record(name, plan, rep):
            self.touched.append((plan, rep))
            if plan.blocked:
                ledger = self.ledger(plan)
                ledgers[name] = self.serialize(ledger.to_json)

        seeds = self.build(orthoplan.seed_plans)
        for name, plan in sorted(seeds.items()):
            rep, cl = self.pair_claims(name, plan)
            plans[name] = self.serialize(orthoplan.plan_to_json, plan)
            reports[name] = self.serialize(rep.to_json)
            claims.extend(cl)
            record(name, plan, rep)

        built = [
            ("potp_3_8", orthoplan.construct_potp, 4, 3),
            ("potb_2_14", orthoplan.construct_potb2, 2),
            ("potb_3_15", orthoplan.construct_potb3),
            ("asym_3", orthoplan.construct_asym, 3),
            ("asym_7", orthoplan.construct_asym, 7),
        ]
        for name, fn, *args in built:
            plan = self.build(fn, *args)
            plans[name] = self.serialize(orthoplan.plan_to_json, plan)
            if name.startswith("potp"):
                rep = self.report(orthoplan.is_potp, plan, ("A1", "A2"))
                claims.append(_claim(f"{name}-orthogonal-through-leading-pair",
                                     rep.passed))
            elif name.startswith("asym"):
                rep = self.report(orthoplan.asym_report, plan)
                claims.extend(self.asym_claims(name, rep))
            else:
                rep = self.report(orthoplan.is_potb, plan)
                ok, _ = rep.c_matrix.scalar_identity()
                claims.append(_claim(f"{name}-all-pairs-through-block", rep.passed))
                claims.append(_claim(f"{name}-contrast-scalar", ok))
            reports[name] = self.serialize(rep.to_json)
            record(name, plan, rep)

        overall = all(c["pass"] == c["expect"] for c in claims)
        self.emit({"plans": plans, "reports": reports, "optimality": ledgers,
                   "claims": claims, "pass": overall})
        return 0 if overall else 1

    def construct(self):
        fam = self.op["family"]
        if fam == "seed":
            name = self.op["name"]
            plan = self.build(orthoplan.seed_plans)[name]
            rep, claims = self.pair_claims(name, plan)
        elif fam == "potb2":
            h = self.op["h"]
            plan = self.build(orthoplan.construct_potb2, h)
            rep = self.report(orthoplan.is_potb, plan)
            ok, val = rep.c_matrix.scalar_identity()
            claims = [
                _claim(f"potb-2-{7 * h}-all-pairs-through-block", rep.passed),
                _claim(f"potb-2-{7 * h}-contrast-scalar-{4 * h}", ok and val == 4 * h),
            ]
        elif fam == "asym":
            s = self.op["s"]
            plan = self.build(orthoplan.construct_asym, s)
            rep = self.report(orthoplan.asym_report, plan)
            ext = [p for p in rep.pairs if p.informational]
            claims = self.asym_claims(f"asym-{s}", rep) + [
                _claim(f"asym-{s}-extended-pairs-blocked-identity",
                       any(p.passed for p in ext), expect=False)]
        else:
            raise ValueError(f"family {fam!r} is not traced")
        self.touched.append((plan, rep))
        doc = self.serialize(lambda: {"plan": orthoplan.plan_to_json(plan),
                                      "report": rep.to_json(), "claims": claims})
        if plan.blocked:
            ledger = self.ledger(plan)
            doc["optimality"] = self.serialize(ledger.to_json)
        self.emit(doc)
        return 0 if all(c["pass"] == c["expect"] for c in claims) else 1

    def verify(self):
        plan = self.load()
        check = self.op["check"]
        if check == "potb":
            rep = self.report(orthoplan.is_potb, plan)
        elif check == "potp":
            rep = self.report(orthoplan.is_potp, plan, _split_idents(self.op["through"]))
        else:
            def pfc():
                names = plan.factor_names
                pairs = [orthoplan.orth_through(plan, a, b, (orthoplan.GENERAL,))
                         for i, a in enumerate(names) for b in names[i + 1:]]
                return orthoplan.OrthReport(plan_name=plan.name, check="pfc",
                                     pairs=tuple(pairs))
            rep = self.report(pfc)
        self.touched.append((plan, rep))
        self.emit(self.serialize(rep.to_json))
        return 0 if rep.passed else 1

    def optimality(self):
        plan = self.load()
        self.touched.append((plan, None))
        ledger = self.ledger(plan)
        self.emit(self.serialize(ledger.to_json))
        return 0

    def anova(self):
        plan = self.load()
        self.touched.append((plan, None))
        with self.tr.span("anova.experiment") as sp:
            report = orthoplan.estssq_equivalence(
                plan, self.op["target"], tuple(_split_idents(self.op["adjust"])),
                trials=self.op["trials"], seed=42)
            sp["anova.trials"] = report.trials
        self.emit(self.serialize(report.to_json))
        return 0 if report.biconditional_observed else 1

    # -- probes ----------------------------------------------------------------

    def probe(self, layers):
        tr = self.tr
        for plan, rep in self.touched:
            first = plan.factor_names[0]
            with tr.span("orthogonality.c_matrix_factor") as sp:
                c_mat = orthoplan.c_matrix_factor(plan, first)
                sp["ratmat.system_dim"] = (sum(f.levels for f in plan.factors[1:])
                                           + 1 + (plan.b if plan.blocked else 0))
            with tr.span("ratmat.g_inverse"):
                orthoplan.g_inverse(c_mat)
            with tr.span("ratmat.rank"):
                orthoplan.rank(c_mat)
            c_con = getattr(rep, "c_matrix", None) or orthoplan.contrast_c_matrix(plan)
            with tr.span("contrasts.spectrum"):
                c_con.eigenvalues()
        plan = self.touched[0][0]
        if "constructions.build" in layers:
            import workloads
            self.build(workloads.build_source, self.op["plan"])
        if "plan.load" in layers:
            text = _dump(orthoplan.plan_to_json(plan))
            with tr.span("plan.load") as sp:
                loaded = orthoplan.plan_from_json(json.loads(text))
                sp["plan.runs"], sp["plan.factors"] = loaded.n, len(loaded.factors)
        if "anova.experiment" in layers:
            adjust = (orthoplan.BLOCK,) if plan.blocked else (orthoplan.GENERAL,)
            with tr.span("anova.experiment") as sp:
                orthoplan.estssq_equivalence(plan, plan.factor_names[0], adjust,
                                             trials=1, seed=42)
                sp["anova.trials"] = 1


def main(argv):
    global orthoplan
    spec, plan_dir, spans_out, probes = argv
    spec = json.loads(spec)
    from workloads import op_id

    tr = Tracer(op_id(spec))
    with tr.span("op"):
        with tr.span("cli.import"):
            import orthoplan
        pipe = Pipeline(tr, spec, plan_dir)
        rc = getattr(pipe, spec["verb"])()
        sys.stdout.flush()
    with tr.span("probe"):
        pipe.probe(json.loads(probes))
    tr.write(spans_out)
    return rc


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
