"""Command-line interface.

Verbs: construct, verify, optimality, anova, catalog.  Every invocation
prints one JSON document (or writes it with --out) and exits with

    0  all verified claims hold,
    1  a verified claim failed,
    2  usage or input error (diagnostic on stderr).

Reports are deterministic (``plan._dump``: keys sorted, two-space
indent, no timestamps), so identical invocations are byte-identical.
Every document is complete before ``_emit`` writes it, in bounded pieces,
to its file or to stdout, so a run that fails prints no report.
Each verb imports the modules it runs inside its own function, so that
no invocation pays to load the layers it does not use.

What loads when: ``import orthoplan.cli`` loads the standard library,
``errors`` and ``plan`` and no numpy (``plan.gram`` imports numpy when
it is called; every other layer imports it with the module).  ``main`` and
each verb decide every refusal of their own, and of ``plan``, before a
verb imports its first numeric layer: argparse (``--help`` included), a
stdout closed at start when the document goes there, the options of a
``construct`` family, ``--through`` and ``--adjust``, and the whole plan
file (missing, invalid or too deep, schema, run and gram-size limits,
symbols, block sizes).  So these exit without loading numpy.  A refusal
that a numeric layer decides (an unknown factor or seed, ``--trials``,
a field or Hadamard limit, a plan without the blocks a check needs)
comes after numpy loads.

``catalog`` is ``construct`` over the seed plans and five built plans,
through one family dispatch (``_built``), one claim writer (``_claims``;
``catalog`` only renames labels) and one document assembly
(``_documents``).  A built plan's report is the one its builder verified
it with.

``main(argv)`` is the whole CLI for an in-process caller.  A process
enters through ``_run`` (``python -m orthoplan.cli`` and the ``orthoplan``
script), which calls ``main`` and then freezes the garbage collector, so
that interpreter exit skips its full collection over every object numpy,
the package and the standard library left: it would free memory that the
OS takes back a moment later anyway.  It freezes after ``main`` returns,
once every report file is closed, so every collection during the run
still happens and peak memory cannot move; stdio flushing and ``atexit``
still run, which ``os._exit`` would skip.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from pathlib import Path

from .errors import VerificationFailed
from .plan import GENERAL, _csv, _dump, plan_loads, plan_to_csv, plan_to_json

__all__ = ["main"]


def _emit(doc, out_path):
    """Write the JSON document ``doc`` to ``out_path``, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as fh:
            _dump(doc, fh.write)
    else:
        _dump(doc, sys.stdout.write)
        sys.stdout.flush()    # a failed write is an OSError of main, not of exit


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
    from .orthogonality import is_potb, is_potp

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


def _built(family, **options):
    """A built family's (plan, report its builder verified, potb contrast
    scalar it verified or None); the one place the CLI names the builders."""
    from .constructions import _asym, _potb2, _potb3, _potp

    return {"potp": _potp, "potb2": _potb2, "potb3": _potb3, "asym": _asym}[family](**options)


def _matrix(args):
    """The document of a hadamard, oa or qarray matrix, its grid included."""
    order = _require(args, "order") if args.family == "hadamard" else args.order
    s = _require(args, "s") if order is None else None
    from .arrays import hadamard, hadamard_to_oa, oa_rao_hamming, q_extend
    from .gf import field_new

    if args.family == "hadamard":
        h = hadamard(order)
        return {"kind": "hadamard", "order": int(h.shape[0]), "grid": h.tolist()}
    oa = hadamard_to_oa(hadamard(order)) if order is not None else oa_rao_hamming(field_new(s))
    grid = q_extend(oa) if args.family == "qarray" else oa.grid
    return {"kind": args.family, "rows": len(grid), "columns": oa.columns, "symbols": oa.symbols,
            "zero_row": args.family == "qarray", "grid": grid.tolist()}


def _documents(plan, rep):
    """Plan, report and ledger JSON of a verified plan; ledger None if unblocked."""
    from .optimality import _ledger

    return (plan_to_json(plan), rep.to_json(),
            _ledger(plan, rep.c_matrix).to_json() if plan.blocked else None)


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
            Path(args.csv).write_text(_csv(doc["grid"]))
        _emit(doc, args.out)
        return 0
    if fam == "seed":
        name = _require(args, "name")
        from .constructions import seed_plans

        plans = seed_plans()
        if name not in plans:
            raise ValueError(f"unknown seed plan {name!r}; have {sorted(plans)}")
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
        Path(args.csv).write_text(plan_to_csv(plan))
    if args.out:
        _emit(plan_doc, args.out)
    if args.report or not args.out:
        _emit(doc, args.report)
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
    through = _split_idents(args.through or "", "--through")
    if args.check == "potp" and not through:
        raise ValueError("--through is required for --check potp")
    from .orthogonality import OrthReport, is_potb, is_potp, pair_checks

    if args.check == "potb":
        rep = is_potb(plan)
    elif args.check == "potp":
        rep = is_potp(plan, through)
    else:
        pairs = pair_checks(plan, plan.factor_names, (GENERAL,))[0]
        rep = OrthReport(plan_name=plan.name, check="pfc", pairs=pairs)
    _emit(rep.to_json(), args.out)
    return 0 if rep.passed else 1


def _cmd_optimality(args):
    plan = _load_plan(args.plan)
    from .optimality import universal_ledger

    ledger = universal_ledger(plan)
    _emit(ledger.to_json(), args.out)
    return 0


def _cmd_anova(args):
    plan = _load_plan(args.plan)
    adjust = tuple(_split_idents(args.adjust, "--adjust"))
    from .anova import estssq_equivalence

    report = estssq_equivalence(plan, args.target, adjust,
                                trials=args.trials, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.biconditional_observed else 1


def _cmd_catalog(args):
    from .constructions import seed_plans

    def verified():
        for name, plan in sorted(seed_plans().items()):
            yield (plan, *_pair_claims(name, plan))
        for family, options in [("potp", {"h": 4, "s": 3}), ("potb2", {"h": 2}), ("potb3", {}),
                                ("asym", {"s": 3}), ("asym", {"s": 7})]:
            plan, rep, scalar = _built(family, **options)
            # the catalog digest pins shorter labels for these plans (ROADMAP item 8)
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
    _emit(doc, args.out)
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
        if sys.stdout is None and not (args.out or getattr(args, "report", None)):
            raise OSError(errno.EBADF, "stdout is closed")    # fd 1 was closed at start
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:  # a self-verification failed
        print(f"claim failed: {exc}", file=sys.stderr)
        return 1


def _run():
    """The process entry: ``main()``, then ``gc.freeze()``, then its exit code.

    The freeze moves every tracked object into the permanent generation,
    which the full collection at interpreter exit does not traverse; it is
    the only work skipped.  ``main`` never freezes, since an in-process
    caller runs it many times and collects what it leaves.  ``os._exit``
    would skip the collection too, but with it the flush of stdio and
    ``atexit``.  A report ``main`` could not write (and exited 2 for) stays
    buffered, so fd 1 is pointed at ``os.devnull`` (the ``signal`` module's
    "Note on SIGPIPE") and the exit flush cannot fail a second time.
    """
    code = main()
    try:
        if sys.stdout is not None:    # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(_run())
