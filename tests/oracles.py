"""Dense projector oracles for the exact linear algebra.

They build n x n projectors explicitly, which the package never does, and
serve only as independent references for its small-matrix identities.
"""

import numpy as np

from orthoplan import ratmat


def is_idempotent(m):
    return bool((m @ m == m).all())


def projector(m, reverse=False):
    """Orthogonal projector onto the column space, P = M (M'M)^- M'.

    Exact, and invariant to the g-inverse route (checked by tests).  A
    matrix with no columns projects onto {0}.
    """
    n = m.shape[0]
    if m.shape[1] == 0:
        return ratmat.zeros(n, n)
    g = ratmat.g_inverse(m.T @ m, reverse=reverse)
    p = m @ g @ m.T
    assert ratmat.is_symmetric(p) and is_idempotent(p)
    return p


def projector_decompose(u, v):
    """Residual projector P_Z with Z = (I - P_V) U, satisfying
    P_[U V] = P_V + P_Z.  The identity is asserted exactly."""
    pv = projector(v)
    z = u - pv @ u
    pz = projector(z)
    whole = projector(np.hstack([u, v]))
    assert (whole == pv + pz).all()
    return pz
