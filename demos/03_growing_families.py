"""Three recipes that grow small seed plans into whole families.

1. construct_potp(h, s): signed Hadamard seed x translation -> h s (s-1) runs,
   2h factors at s levels, orthogonal through the leading pair.
2. construct_potb2(h): power-and-translate (diamond) on the 10-run seed
   -> 10h runs, 7h factors, 2h blocks, information matrix 4h * I.
3. construct_potb3(): same diamond idea over GF(3) -> 90 runs, fifteen
   3-level factors in 27 blocks, information matrix 27 * I.
"""

from orthoplan.constructions import construct_potb2, construct_potb3, construct_potp
from orthoplan.orthogonality import is_potb, is_potp
from orthoplan.plan import incidence

# --- doubling the run count of the translation family --------------------
potp = construct_potp(4, 3)
rep = is_potp(potp, ("A1", "A2"))
print(potp.name, "runs:", potp.n, "factors:", potp.m,
      "orthogonal through (A1, A2):", rep.passed)
print("N(A1,A2):")
print(incidence(potp, "A1", "A2"))
print("N(A3,A4):")
print(incidence(potp, "A3", "A4"))

# The same recipe with 7-level factors; 168 runs, still exact.
potp7 = construct_potp(4, 7)
print("\n%s runs: %d  pattern holds: %s"
      % (potp7.name, potp7.n, is_potp(potp7, ("A1", "A2")).passed))

# --- diamonds: replicate, then translate by orthogonal-array columns -----
for builder, label in ((lambda: construct_potb2(2), "two-level"),
                       (construct_potb3, "three-level")):
    plan = builder()
    report = is_potb(plan)
    ok, value = report.c_matrix.scalar_identity()
    print("\n%s diamond: %s" % (label, plan.name))
    print("  runs %d, factors %d, blocks %d" % (plan.n, plan.m, plan.b))
    print("  all pairs through block: %s, C = %s * I (dim %d)"
          % (report.passed, value, report.c_matrix.dim))
