"""Exact rational linear algebra: ranks, (generalized) inverses,
projectors, consistent solves, and the eigenvalue bridge to floats."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from oracles import (g_inverse_reversed, is_idempotent, projector, projector_decompose,
                     solve_reversed)

from orthoplan import ratmat
from orthoplan.errors import NotSymmetric


def random_rational(rng, rows, cols, den=3):
    return ratmat.rational([[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, den + 1)))
                             for _ in range(cols)] for _ in range(rows)])


def random_low_rank(rng, n, m, r):
    a = random_rational(rng, n, r)
    b = random_rational(rng, r, m)
    return a @ b


# ---------------------------------------------------------------------------
# constructors and predicates

def test_constructors():
    m = ratmat.rational([[1, 2], [3, 4]])
    assert m[0, 1] == Fraction(2) and isinstance(m[0, 1], Fraction)
    v = ratmat.vector([1, 2, 3])
    assert v.shape == (3, 1)
    assert (ratmat.eye(2) == ratmat.rational([[1, 0], [0, 1]])).all()
    assert ratmat.ones(2, 3).sum() == 6
    assert ratmat.zeros(2, 2).sum() == 0


def test_predicates_return_plain_bool():
    z = ratmat.zeros(2, 2)
    for val in (ratmat.is_zero(z), ratmat.is_symmetric(z), is_idempotent(z)):
        assert val is True
    assert ratmat.is_zero(ratmat.eye(2)) is False


def test_to_float():
    f = ratmat.to_float(ratmat.rational([[Fraction(1, 2), 3]]))
    assert f.dtype == np.float64 and f[0, 0] == 0.5


# ---------------------------------------------------------------------------
# rank / inverse

def test_rank():
    assert ratmat.rank(ratmat.eye(3)) == 3
    assert ratmat.rank(ratmat.ones(3, 3)) == 1
    assert ratmat.rank(ratmat.zeros(2, 2)) == 0
    rng = np.random.default_rng(7)
    m = random_low_rank(rng, 5, 4, 2)
    assert ratmat.rank(m) <= 2


def test_inverse_exact():
    hilbert = ratmat.rational([[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)])
    inv = ratmat.inverse(hilbert)
    assert (hilbert @ inv == ratmat.eye(3)).all()
    # the 3x3 Hilbert inverse is integral
    assert inv[0, 0] == 9 and inv[2, 2] == 180


def test_inverse_errors():
    with pytest.raises(ValueError):
        ratmat.inverse(ratmat.ones(2, 3))
    with pytest.raises(ValueError):
        ratmat.inverse(ratmat.ones(2, 2))


# ---------------------------------------------------------------------------
# generalized inverse

def test_g_inverse_diagonal():
    m = ratmat.rational([[2, 0], [0, 0]])
    g = ratmat.g_inverse(m)
    assert g[0, 0] == Fraction(1, 2) and ratmat.is_zero(g - ratmat.rational([[Fraction(1, 2), 0], [0, 0]]))


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
    """Solutions may differ between pivot orders, but P @ Z is pinned for
    any P whose rows lie in the row space of M (here P = M itself)."""
    rng = np.random.default_rng(seed)
    a = random_rational(rng, 4, 3)
    m = a.T @ a
    w = random_rational(rng, 3, 2)
    rhs = m @ w
    z1 = ratmat.solve_consistent(m, rhs)
    z2 = solve_reversed(m, rhs)
    assert (m @ z1 == rhs).all()
    assert (m @ z2 == rhs).all()
    assert (m @ z1 == m @ z2).all()
    g = ratmat.g_inverse(m)
    assert (m @ (g @ rhs) == rhs).all()


def test_solve_consistent_inconsistent_raises():
    m = ratmat.rational([[1, 1], [1, 1]])
    rhs = ratmat.rational([[1], [0]])
    with pytest.raises(ArithmeticError):
        ratmat.solve_consistent(m, rhs)


def test_solve_consistent_shape_error():
    with pytest.raises(ValueError):
        ratmat.solve_consistent(ratmat.eye(2), ratmat.rational([[1], [2], [3]]))


def test_schur_complement_takes_integer_matrices():
    """The kernel does not rescale: a Fraction matrix is refused up front
    instead of failing inside the integer elimination."""
    m = ratmat.rational([[Fraction(1, 2), 0], [0, 3]])
    corner = np.array([[5]], dtype=object)
    left = np.array([[1, 1]], dtype=object)
    with pytest.raises(TypeError, match="integer matrices"):
        ratmat.schur_complement(corner, left, m, left.T)
    num, d = ratmat.schur_complement(corner, left, np.array([[1, 0], [0, 6]], dtype=object),
                                     left.T)
    assert d == 6 and num.tolist() == [[23]]  # 5 - (1 + 1/6)


def ints(rows, ncol=None):
    """An integer object matrix (Python ints), as the package's kernels take."""
    return np.array(rows, dtype=object).reshape(len(rows), ncol if ncol is not None else -1)


def test_diagonal_system_is_solved_without_elimination(record_calls):
    """Z = D^+ RHS for a diagonal M with a zero diagonal entry and a zero
    RHS row there, with no call of the elimination."""
    calls = record_calls(ratmat, "_eliminate")
    m, rhs = ints([[2, 0, 0], [0, 0, 0], [0, 0, -3]]), ints([[1, 4], [0, 0], [5, -1]])
    z, d = ratmat._solve_scaled(m, rhs)
    d_plus = ratmat.rational([[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, Fraction(-1, 3)]])
    assert d == 6 and (ratmat.rational(z) / d == d_plus @ ratmat.rational(rhs)).all()
    assert (ratmat.solve_consistent(ratmat.rational(m), ratmat.rational(rhs))
            == d_plus @ ratmat.rational(rhs)).all()
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
    m = ratmat.rational([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 9)]])
    w = ratmat.rational([[Fraction(5, 7)], [Fraction(-2, 3)]])
    rhs = m @ w
    z = ratmat.solve_consistent(m, rhs)
    assert (m @ z == rhs).all()


# ---------------------------------------------------------------------------
# projectors

@pytest.mark.parametrize("seed", range(10))
def test_projector_properties(seed):
    rng = np.random.default_rng([11, seed])
    m = random_low_rank(rng, 6, 3, int(rng.integers(1, 4)))
    p = projector(m)
    assert ratmat.is_symmetric(p) and is_idempotent(p)
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
    m = ratmat.rational([[2, 0], [0, 5]])
    assert ratmat.sym_eigenvalues(m) == [2.0, 5.0]
    w = ratmat.sym_eigenvalues(ratmat.ones(3, 3))
    assert abs(w[0]) < 1e-9 and abs(w[2] - 3.0) < 1e-9


def test_sym_eigenvalues_requires_symmetry():
    with pytest.raises(NotSymmetric):
        ratmat.sym_eigenvalues(ratmat.rational([[0, 1], [0, 0]]))


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
m = ratmat.rational([[2, 1], [1, 1]])
try:
    ratmat.solve_consistent(m, m)
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
