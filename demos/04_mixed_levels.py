"""Mixed-level plans from square classes of a finite field.

For a prime power s = 3 (mod 4) and t = (s - 1)/2 the construction
yields t factors at s levels plus one factor at s + 1 levels ("inf",
whose top symbol absorbs the field labels that have nowhere else to go),
arranged in 2s blocks of size t + 1.

The s-level pairs are orthogonal through blocks in the strict sense.  The
pairs involving the extended factor satisfy proportional frequencies --
the classical (unblocked) notion -- but *not* the blocked identity, and
the report marks them informational rather than failing the plan.
"""

from fractions import Fraction

from orthoplan.constructions import asym_report, construct_asym
from orthoplan.optimality import bibd_check
from orthoplan.plan import block_incidence, incidence

for s in (3, 7):
    plan = construct_asym(s)
    print("%s: %d runs, blocks %s, factors %s"
          % (plan.name, plan.n, plan.block_sizes[:4] + ("...",), plan.factor_names))

    report = asym_report(plan)
    for pair in report.pairs:
        kind = "informational" if pair.informational else "strict"
        print("  %-4s vs %-4s %-13s pass=%-5s pfc=%s"
              % (pair.a, pair.b, kind, pair.passed, pair.pfc))

    # Each factor's level-by-block incidence is a balanced incomplete
    # block design; the two parameter sets interlock.
    t = (s - 1) // 2
    for name in plan.factor_names:
        l_mat = block_incidence(plan, name)
        if name == "inf":
            ok = bibd_check(l_mat, v=s + 1, b=2 * s, r=s, k=t + 1, lam=t)
        else:
            ok = bibd_check(l_mat, v=s, b=2 * s, r=s + 1, k=t + 1, lam=t + 1)
        print("  %-4s level/block incidence is a BIBD: %s" % (name, ok))
    print()

# The exact residual of an informational pair, for the curious: the
# blocked identity misses by a lattice of +-1/2 entries.
plan3 = construct_asym(3)
pair = asym_report(plan3).pair("x1", "inf")
print("x1 vs inf residual:")
for row in pair.residual:
    print("  ", [str(Fraction(x)) for x in row])
