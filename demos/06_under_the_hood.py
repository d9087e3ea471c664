"""The exact machinery the constructions stand on.

Everything upstream of a verification verdict is integer or rational:
finite-field tables, Hadamard matrices, orthogonal arrays, and a small
fraction-free linear algebra kit over integers (rank, g-inverse, and
the Schur complement behind every adjusted information matrix, whose
value does not depend on the pivoting order).
"""

import numpy as np

from orthoplan import seed_plans
from orthoplan.arrays import hadamard, hadamard_to_oa, oa_rao_hamming, q_extend
from orthoplan.gf import field_new, square_classes, supported_orders
from orthoplan.orthogonality import adjusted_information

# Finite fields up to order 128, prime and prime-power alike.
print("supported field orders:", supported_orders()[:10], "...",
      len(supported_orders()), "total")
f9 = field_new(9)
print("GF(9): 3 * 3 =", f9.mul_table[3, 3], " (char %d, degree %d)" % (f9.char, f9.degree))

# Square classes drive the mixed-level construction.
sq = square_classes(field_new(7))
print("GF(7) squares:", sq.c0, " non-squares:", sq.c1)

# Hadamard matrices come out exact; the classic identity is re-checked here.
h12 = hadamard(12)
assert (h12 @ h12.T == 12 * np.eye(12, dtype=int)).all()
print("\nH(12) @ H(12)' == 12 * I: verified")

# Strength-2 orthogonal arrays, two ways.
oa = hadamard_to_oa(hadamard(8))          # 7 two-level rows, 8 columns
rao = oa_rao_hamming(field_new(3))        # 4 three-level rows, 9 columns
print("from H(8):       %d rows x %d columns" % (oa.rows, oa.columns))
print("Rao-Hamming GF3: %d rows x %d columns" % (rao.rows, rao.columns))
print("with zero row:   %d rows" % len(q_extend(rao)))

# The rational kit: information adjusted for the general effect and a
# second factor is the same matrix whichever order the conditioning
# columns come in, although X_T'X_T is singular (the A2 columns sum to
# the general one) and the elimination, with its one pivot order, picks
# different g-inverses for the two column orders -- that invariance is
# what makes 'adjusted for' well defined.
plan = seed_plans()["potb_3_3"]
fwd = adjusted_information(plan, "A1", "A1", ("G", "A2"))
swapped = adjusted_information(plan, "A1", "A1", ("A2", "G"))
assert (fwd == swapped).all()
print("\nA1 adjusted for G and A2 (exact, either column order):")
for row in fwd:
    print("  ", [str(x) for x in row])
