"""Command-line interface.

Verbs: construct, verify, optimality, anova, catalog.  Every invocation
prints one JSON document (or writes it with --out) and exits with

    0  all verified claims hold,
    1  a verified claim failed,
    2  usage or input error (diagnostic on stderr).

Reports are deterministic (``plan._dumps``: keys sorted, two-space
indent, no timestamps), so identical invocations are byte-identical.
Each verb imports the modules it runs inside its own function, so that
no invocation pays to load the layers it does not use.  ``catalog`` is
``construct`` over the seed plans and five built plans, through one family
dispatch (``_built``), one claim writer (``_claims``; ``catalog`` only
renames labels) and one document assembly (``_documents``).  A built
plan's report is the one its builder verified it with.
"""

from __future__ import annotations

import argparse
import sys

from .errors import UnknownFactor, VerificationFailed
from .orthogonality import OrthReport, is_potb, is_potp, pair_checks
from .plan import GENERAL, _dumps, plan_loads, plan_to_csv, plan_to_json

__all__ = ["main"]


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_plan(path):
    with open(path) as fh:
        return plan_loads(fh.read())


def _claim(label, passed, expect=True):
    return {"label": label, "pass": bool(passed), "expect": expect}


def _claims(tag, rep, scalar=None):
    """The claim list of a built potp, potb or asym plan tagged ``tag``,
    chosen by the kind of its report ``rep``; ``scalar`` is the contrast
    scalar a potb plan must reach."""
    if rep.check == "potp":
        return [_claim(f"{tag}-orthogonal-through-leading-pair", rep.passed)]
    if rep.check == "asym-dual":
        ext = [p for p in rep.pairs if p.informational]
        return [
            _claim(f"{tag}-level-pairs-through-block", rep.passed),
            _claim(f"{tag}-extended-pairs-proportional", all(p.pfc for p in ext)),
            _claim(f"{tag}-extended-pairs-blocked-identity",
                   any(p.passed for p in ext), expect=False),
        ]
    ok, val = rep.c_matrix.scalar_identity()
    return [
        _claim(f"{tag}-all-pairs-through-block", rep.passed),
        _claim(f"{tag}-contrast-scalar-{scalar}", ok and val == scalar),
    ]


def _pair_claims(name, plan):
    """Verification report + claim list for a named built-in plan."""
    if name == "potp_3_4":
        rep = is_potp(plan, ("A1", "A2"))
        return rep, _claims("potp-3-4", rep)
    rep = is_potb(plan)
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
        return rep, _claims("potb-3-3", rep, 3)
    return rep, _claims("potb-2-7", rep, 4) + [
        _claim("potb-2-7-leading-pair-pfc-fails", not rep.pair("A1", "A2").pfc)]


# The options each construct family reads; a matrix family writes no report.
_FAMILY_OPTIONS = {
    "hadamard": {"order"},
    "oa": {"order", "s"},
    "qarray": {"order", "s"},
    "seed": {"name", "report"},
    "potp": {"h", "s", "report"},
    "potb2": {"h", "report"},
    "potb3": {"report"},
    "asym": {"s", "report"},
}


def _refuse_unread_options(args):
    """A usage error for the first option given that the family would ignore."""
    fam, reads, which = args.family, _FAMILY_OPTIONS[args.family], ""
    if fam in ("oa", "qarray") and args.order is not None:
        reads, which = {"order"}, " with --order"    # the array comes from the order alone
    for opt in ("h", "s", "order", "name", "report"):
        if getattr(args, opt) is not None and opt not in reads:
            raise ValueError(f"--{opt} does not apply to --family {fam}{which}")


def _built(family, h=None, s=None):
    """A built family's (plan, report its builder verified, potb contrast
    scalar or None); the one place the CLI names the builders."""
    from .constructions import _asym, _potb2, _potb3, _potp

    if family == "potp":
        return (*_potp(h, s), None)
    if family == "potb2":
        return (*_potb2(h), 4 * h)
    if family == "potb3":
        return (*_potb3(), 27)
    return (*_asym(s), None)


def _matrix(args):
    """The document of a hadamard, oa or qarray matrix, its grid included."""
    from .arrays import hadamard, hadamard_to_oa, oa_rao_hamming, q_extend
    from .gf import field_new

    if args.family == "hadamard":
        h = hadamard(_require(args, "order"))
        return {"kind": "hadamard", "order": int(h.shape[0]), "grid": h.tolist()}
    if args.order is not None:
        oa = hadamard_to_oa(hadamard(args.order))
    else:
        oa = oa_rao_hamming(field_new(_require(args, "s")))
    if args.family == "qarray":
        oa = q_extend(oa)
    return {"kind": args.family, "rows": oa.rows, "columns": oa.columns,
            "symbols": oa.symbols, "zero_row": oa.zero_row, "grid": oa.grid.tolist()}


def _documents(plan, rep):
    """Plan, report and ledger JSON of a verified plan; ledger None if unblocked."""
    from .optimality import _ledger

    plan_doc, rep_doc, ledger = plan_to_json(plan), rep.to_json(), None
    if plan.blocked:
        ledger = _ledger(plan, rep._block_information, rep.c_matrix).to_json()
    return plan_doc, rep_doc, ledger


def _require(args, attr):
    val = getattr(args, attr, None)
    if val is None:
        raise ValueError(f"--{attr} is required for family {args.family!r}")
    return val


def _cmd_construct(args):
    fam = args.family
    _refuse_unread_options(args)
    if fam in ("hadamard", "oa", "qarray"):
        doc = _matrix(args)
        if args.csv:
            _emit("".join(",".join(map(str, row)) + "\n" for row in doc["grid"]), args.csv)
        _emit(_dumps(doc), args.out)
        return 0
    if fam == "seed":
        from .constructions import seed_plans

        name, plans = _require(args, "name"), seed_plans()
        if name not in plans:
            raise UnknownFactor(f"unknown seed plan {name!r}; have {sorted(plans)}")
        plan = plans[name]
        rep, claims = _pair_claims(name, plan)
    else:
        options = {o: _require(args, o) for o in ("h", "s") if o in _FAMILY_OPTIONS[fam]}
        plan, rep, scalar = _built(fam, **options)
        claims = _claims(plan.name.replace("_", "-"), rep, scalar)
    plan_doc, rep_doc, ledger = _documents(plan, rep)
    doc = {"plan": plan_doc, "report": rep_doc, "claims": claims}
    if ledger is not None:
        doc["optimality"] = ledger
    if args.csv:
        _emit(plan_to_csv(plan), args.csv)
    if args.out:
        _emit(_dumps(plan_doc), args.out)
    if args.report or not args.out:
        _emit(_dumps(doc), args.report)
    return 0 if all(c["pass"] == c["expect"] for c in claims) else 1


def _split_idents(text, option):
    """Comma-separated identifiers; 'block' and 'G' are the pseudo-factors.
    A repeated identifier is refused, so that the set echoed is the set used."""
    idents = [tok.strip() for tok in text.split(",") if tok.strip()]
    for i, ident in enumerate(idents):
        if ident in idents[:i]:
            raise ValueError(f"{option} names {ident!r} twice")
    return idents


def _cmd_verify(args):
    if args.through is not None and args.check != "potp":
        raise ValueError("--through applies only to --check potp")
    plan = _load_plan(args.plan)
    if args.check == "potb":
        rep = is_potb(plan)
    elif args.check == "potp":
        through = _split_idents(args.through or "", "--through")
        if not through:
            raise ValueError("--through is required for --check potp")
        rep = is_potp(plan, through)
    else:
        pairs, _ = pair_checks(plan, plan.factor_names, (GENERAL,))
        rep = OrthReport(plan_name=plan.name, check="pfc", pairs=pairs)
    _emit(_dumps(rep.to_json()), args.out)
    return 0 if rep.passed else 1


def _cmd_optimality(args):
    from .optimality import universal_ledger

    plan = _load_plan(args.plan)
    ledger = universal_ledger(plan)
    _emit(_dumps(ledger.to_json()), args.out)
    return 0


def _cmd_anova(args):
    from .anova import estssq_equivalence

    plan = _load_plan(args.plan)
    adjust = tuple(_split_idents(args.adjust, "--adjust"))
    report = estssq_equivalence(plan, args.target, adjust,
                                trials=args.trials, seed=args.seed)
    _emit(_dumps(report.to_json()), args.out)
    return 0 if report.biconditional_observed else 1


def _cmd_catalog(args):
    from .constructions import seed_plans

    def verified():
        for name, plan in sorted(seed_plans().items()):
            yield (plan, *_pair_claims(name, plan))
        for family, h, s in [("potp", 4, 3), ("potb2", 2, None), ("potb3", None, None),
                             ("asym", None, 3), ("asym", None, 7)]:
            plan, rep, scalar = _built(family, h, s)
            # the catalog digest pins shorter labels for these plans (ROADMAP item 4)
            yield plan, rep, [dict(c, label=c["label"].removesuffix(f"-{scalar}"))
                              for c in _claims(plan.name, rep, scalar)
                              if not c["label"].endswith("-blocked-identity")]

    plans, reports, ledgers, claims = {}, {}, {}, []
    for plan, rep, plan_claims in verified():
        plans[plan.name], reports[plan.name], ledger = _documents(plan, rep)
        if ledger is not None:
            ledgers[plan.name] = ledger
        claims.extend(plan_claims)
    overall = all(c["pass"] == c["expect"] for c in claims)
    doc = {"plans": plans, "reports": reports, "optimality": ledgers,
           "claims": claims, "pass": overall}
    _emit(_dumps(doc), args.out)
    return 0 if overall else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="orthoplan",
        description="Construct and verify main-effect plans orthogonal "
                    "through a factor (block or otherwise).")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a plan or matrix family")
    p.add_argument("--family", required=True,
                   choices=["potp", "potb2", "potb3", "asym", "seed",
                            "hadamard", "oa", "qarray"])
    p.add_argument("--h", type=int, default=None, help="Hadamard order parameter")
    p.add_argument("--s", type=int, default=None, help="level count / field order")
    p.add_argument("--order", type=int, default=None, help="matrix order")
    p.add_argument("--name", default=None, help="seed plan name")
    p.add_argument("--out", default=None, help="write the plan JSON here")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--csv", default=None, help="write a CSV rendering here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check orthogonality claims on a plan file")
    p.add_argument("--check", required=True, choices=["potb", "potp", "pfc"])
    p.add_argument("--plan", required=True)
    p.add_argument("--through", default=None,
                   help="comma-separated conditioning set for --check potp")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("optimality", help="evaluate the optimality conditions")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimality)

    p = sub.add_parser("anova", help="adjusted-SS equivalence experiment")
    p.add_argument("--plan", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--adjust", required=True,
                   help="comma-separated adjusting set ('block', 'G', factor names)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_anova)

    p = sub.add_parser("catalog", help="rebuild every built-in plan with reports")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:  # a self-verification failed
        print(f"claim failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
