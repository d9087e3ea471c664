"""Exact linear algebra over integers: ranks, the solve kernel and its
inverses, generalized inverses, projectors, and the eigenvalue bridge to
floats."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from oracles import g_inverse_reversed, is_idempotent, projector, projector_decompose

from orthoplan import ratmat
from orthoplan.errors import VerificationFailed


def ints(rows, ncol=None):
    """An integer object matrix (Python ints), as the package's kernels take."""
    return np.array(rows, dtype=object).reshape(len(rows), ncol if ncol is not None else -1)


def random_rational(rng, rows, cols, den=3):
    return np.array([[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, den + 1)))
                      for _ in range(cols)] for _ in range(rows)], dtype=object)


def random_low_rank(rng, n, m, r):
    a = random_rational(rng, n, r)
    b = random_rational(rng, r, m)
    return a @ b


# ---------------------------------------------------------------------------
# predicates

def test_predicates_return_plain_bool():
    z = ints([[0, 0], [0, 0]])
    for val in (ratmat.is_zero(z), is_idempotent(z)):
        assert val is True
    assert ratmat.is_zero(np.eye(2, dtype=object)) is False


def test_to_float():
    f = ratmat.to_float(np.array([[Fraction(1, 2), 3]], dtype=object))
    assert f.dtype == np.float64 and f[0, 0] == 0.5


# ---------------------------------------------------------------------------
# rank / inverse

def test_rank():
    assert ratmat.rank(np.eye(3, dtype=object)) == 3
    assert ratmat.rank(np.ones((3, 3), dtype=object)) == 1
    assert ratmat.rank(ints([[0, 0], [0, 0]])) == 0
    rng = np.random.default_rng(7)
    m = random_low_rank(rng, 5, 4, 2)
    assert ratmat.rank(m) <= 2


def test_inverse_exact():
    """M Z = d I through the kernel, as ``_g_inverse`` inverts its pivot
    block: the 3x3 Hilbert matrix, scaled to ints, has an integral inverse."""
    hilbert = np.array([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)],
                       dtype=object)
    rows, s = ratmat._scaled_ints(hilbert)        # hilbert = rows / s
    z, d = ratmat._solve_scaled(ints(rows), np.eye(3, dtype=object))
    inv = s * z / d                                # Fraction entries
    assert (hilbert @ inv == np.eye(3, dtype=object)).all()
    assert inv[0, 0] == 9 and inv[2, 2] == 180


def test_inverse_errors():
    """A singular M has no inverse: M Z = I is inconsistent."""
    with pytest.raises(ArithmeticError, match="inconsistent"):
        ratmat._solve_scaled(ints([[1, 2], [2, 4]]), np.eye(2, dtype=object))


# ---------------------------------------------------------------------------
# generalized inverse

def test_g_inverse_diagonal():
    g = ratmat.g_inverse(ints([[2, 0], [0, 0]]))
    assert isinstance(g[0, 0], Fraction)
    assert (g == np.array([[Fraction(1, 2), 0], [0, 0]], dtype=object)).all()


@pytest.mark.parametrize("seed", range(20))
def test_g_inverse_property(seed):
    rng = np.random.default_rng(seed)
    m = random_low_rank(rng, 5, 4, int(rng.integers(1, 4)))
    for g_inverse in (ratmat.g_inverse, g_inverse_reversed):
        g = g_inverse(m)
        assert (m @ g @ m == m).all()


# ---------------------------------------------------------------------------
# consistent solves

@pytest.mark.parametrize("seed", range(25))
def test_solve_consistent_matches_g_inverse_products(seed):
    """M = A'A of rank at most two, so singular, solved by elimination.
    Solutions may differ between routes, but A Z is pinned, since the rows
    of A lie in the row space of M: it equals A G RHS for the g-inverse G
    under either pivot order."""
    rng = np.random.default_rng(seed)
    a = ints(rng.integers(-4, 5, size=(4, 2)) @ rng.integers(-4, 5, size=(2, 3)))
    m = a.T @ a
    rhs = m @ ints(rng.integers(-4, 5, size=(3, 2)))
    z, d = ratmat._solve_scaled(m, rhs)
    assert (m @ z == d * rhs).all()
    for g_inverse in (ratmat.g_inverse, g_inverse_reversed):
        assert (a @ z == d * (a @ g_inverse(m) @ rhs)).all()


def test_solve_consistent_inconsistent_raises():
    with pytest.raises(ArithmeticError, match="inconsistent"):
        ratmat._solve_scaled(ints([[1, 1], [1, 1]]), ints([[1], [0]]))


def test_solve_consistent_shape_error():
    with pytest.raises(ValueError):
        ratmat._solve_scaled(np.eye(2, dtype=object), ints([[1], [2], [3]]))


def test_schur_complement_takes_integer_matrices():
    """The kernel does not rescale: a Fraction matrix is refused up front
    instead of failing inside the integer elimination."""
    m = np.array([[Fraction(1, 2), 0], [0, 3]], dtype=object)
    corner = ints([[5]])
    left = ints([[1, 1]])
    with pytest.raises(TypeError, match="integer matrices"):
        ratmat.schur_complement(corner, left, m, left.T)
    num, d = ratmat.schur_complement(corner, left, ints([[1, 0], [0, 6]]), left.T)
    assert d == 6 and num.tolist() == [[23]]  # 5 - (1 + 1/6)


def test_diagonal_system_is_solved_without_elimination(record_calls):
    """Z = D^+ RHS for a diagonal M with a zero diagonal entry and a zero
    RHS row there, with no call of the elimination."""
    calls = record_calls(ratmat, "_eliminate")
    m, rhs = ints([[2, 0, 0], [0, 0, 0], [0, 0, -3]]), ints([[1, 4], [0, 0], [5, -1]])
    z, d = ratmat._solve_scaled(m, rhs)
    d_plus = np.array([[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, Fraction(-1, 3)]], dtype=object)
    assert d == 6 and (z == d * (d_plus @ rhs)).all()
    assert calls == []


def test_diagonal_system_with_a_nonzero_rhs_on_a_zero_pivot_is_inconsistent(record_calls):
    calls = record_calls(ratmat, "_eliminate")
    with pytest.raises(ArithmeticError, match="inconsistent"):
        ratmat._solve_scaled(ints([[2, 0], [0, 0]]), ints([[1], [1]]))
    assert calls == []


def test_empty_system_takes_the_general_path(record_calls):
    calls = record_calls(ratmat, "_eliminate")
    z, d = ratmat._solve_scaled(ints([], 0), ints([], 2))
    assert z.shape == (0, 2) and d == 1 and len(calls) == 1


def test_solve_consistent_fractional_entries():
    """A singular M with fractional entries, scaled to ints with its RHS,
    solved by elimination: M Z equals M G RHS = RHS for the g-inverse G of
    the Fraction M under either pivot order."""
    m = np.array([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 9)]],
                 dtype=object)
    rhs = m @ np.array([[Fraction(5, 7)], [Fraction(-2, 3)]], dtype=object)
    rows, s = ratmat._scaled_ints(np.hstack([m, rhs]))   # [M | RHS] = rows / s
    system = ints(rows)
    z, d = ratmat._solve_scaled(system[:, :2], system[:, 2:])
    assert ratmat.rank(m) == 1 and d != 1
    for g_inverse in (ratmat.g_inverse, g_inverse_reversed):
        assert (m @ z == d * (m @ g_inverse(m) @ rhs)).all()


# ---------------------------------------------------------------------------
# projectors

@pytest.mark.parametrize("seed", range(10))
def test_projector_properties(seed):
    rng = np.random.default_rng([11, seed])
    m = random_low_rank(rng, 6, 3, int(rng.integers(1, 4)))
    p = projector(m)
    assert (p == p.T).all() and is_idempotent(p)
    assert (p @ m == m).all()
    # invariant to the g-inverse route
    assert (p == projector(m, reverse=True)).all()


def test_projector_empty_columns():
    m = np.empty((3, 0), dtype=object)
    assert ratmat.is_zero(projector(m))


def test_projector_decompose():
    rng = np.random.default_rng(3)
    u = random_rational(rng, 6, 2)
    v = random_rational(rng, 6, 2)
    pz = projector_decompose(u, v)
    pv = projector(v)
    assert ratmat.is_zero(pv @ pz)
    assert is_idempotent(pz)


# ---------------------------------------------------------------------------
# eigenvalues

def test_sym_eigenvalues():
    """``checked_eigenvalues``, the one eigenvalue routine, on symmetric floats."""
    assert ratmat.checked_eigenvalues(np.diag([2.0, 5.0])) == [2.0, 5.0]
    w = ratmat.checked_eigenvalues(np.ones((3, 3)))
    assert abs(w[0]) < 1e-9 and abs(w[2] - 3.0) < 1e-9


def test_sym_eigenvalues_requires_symmetry():
    """``eigh`` reads one triangle only; the residual check of every
    eigenpair against the whole matrix refuses an asymmetric one."""
    with pytest.raises(VerificationFailed, match="eigen residual"):
        ratmat.checked_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# self-checks that python -O keeps

OPTIMIZED_SCRIPT = """
import numpy as np
from orthoplan import ratmat, seed_plans
from orthoplan.errors import VerificationFailed
from orthoplan.orthogonality import contrast_c_matrix

assert False, "asserts are live"     # -O strips this line

real_back_substitute = ratmat._back_substitute

def off_by_one(*args):
    z = real_back_substitute(*args)
    z[0][0] += 1
    return z

ratmat._back_substitute = off_by_one
m = np.array([[2, 1], [1, 1]], dtype=object)
try:
    ratmat._solve_scaled(m, m)
except VerificationFailed as exc:
    print("solve:", exc)
ratmat._back_substitute = real_back_substitute

real_lcm = ratmat.lcm
ratmat.lcm = lambda *xs: real_lcm(*xs) + 1     # a wrong d, so a wrong diagonal Z
try:
    ratmat._solve_scaled(np.array([[2, 0], [0, 3]], dtype=object),
                         np.array([[1], [1]], dtype=object))
except VerificationFailed as exc:
    print("diagonal:", exc)
ratmat.lcm = real_lcm

cm = contrast_c_matrix(seed_plans()["potb_2_7"])
real_eigh = np.linalg.eigh
np.linalg.eigh = lambda f: (real_eigh(f)[0] + 1.0, real_eigh(f)[1])
try:
    cm.eigenvalues()
except VerificationFailed as exc:
    print("eigen:", str(exc).split()[0])
"""


def test_self_checks_survive_python_O(src_env):
    """A wrong kernel solution, general or diagonal, and a wrong eigenpair
    are caught even when the interpreter strips asserts."""
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("solve: M Z = d RHS does not hold\n"
                           "diagonal: M Z = d RHS does not hold\neigen: eigen\n")
