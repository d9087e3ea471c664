"""Why orthogonality through a set matters for analysis, not just design.

For a factor A and conditioning set T, the sum of squares of A adjusted
for T equals the fully adjusted sum of squares (adjusted for *everything*
else in the model) precisely when A is orthogonal through T to all other
terms.  Both quantities are computed exactly here, so "equal" means
equal as rational numbers, not up to rounding.
"""

from orthoplan import estssq_equivalence, seed_plans, ss_adjusted
from orthoplan.plan import BLOCK, Factor, Plan

plans = seed_plans()

# Positive case: in the 12-run plan, A3 is orthogonal to A4 (and to the
# mean) through the pair (A1, A2) -- so adjusting for the pair is as good
# as adjusting for the full model.
potp = plans["potp_3_4"]
rep = estssq_equivalence(potp, "A3", ("A1", "A2"), trials=50, seed=42)
print("plan %s, target A3, adjust for (A1, A2)" % potp.name)
print("  condition holds:", rep.condition_holds,
      " checked against:", rep.checked_against)
print("  equal trials: %d/%d" % (rep.equal_trials, rep.trials))
print("  first trial:", rep.first_trial)

# Negative case: two fully aliased factors.  The condition fails, and a
# single trial already witnesses unequal sums of squares.
aliased = Plan("aliased", (Factor("A", 2), Factor("B", 2)),
               ((0, 0), (1, 1), (0, 0), (1, 1)))
rep = estssq_equivalence(aliased, "A", (), trials=10, seed=0)
print("\naliased plan, target A, no adjustment")
print("  condition holds:", rep.condition_holds)
print("  witness:", rep.witness)
print("  biconditional observed:", rep.biconditional_observed)

# ss_adjusted is also a user-facing primitive; responses may be exact.
y = list(range(1, 11))
print("\nSS(A1 adjusted for block) on %s with y = 1..10: %s"
      % ("potb_2_7", ss_adjusted(plans["potb_2_7"], y, "A1", (BLOCK,))))
