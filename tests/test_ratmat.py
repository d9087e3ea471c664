"""Exact linear algebra over integers: ranks, the solve kernel and its
inverses, generalized inverses, the kernel against ordinary Gaussian
elimination over Fractions on random matrices, projectors, and the
eigenvalue bridge to floats."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (gauss_pivots, g_inverse_reversed, is_idempotent, projector,
                     projector_decompose, to_float)

from orthoplan import contrasts, ratmat
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
    f = to_float(np.array([[Fraction(1, 2), 3]], dtype=object))
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
    system, s = ratmat._scaled_ints(hilbert)      # hilbert = system / s
    z, d = ratmat._solve_scaled(system, np.eye(3, dtype=object))
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


def test_a_wrong_g_inverse_is_a_failed_self_check(monkeypatch):
    """A back substitution one off in one entry gives a G with M G M != M,
    which the g-inverse refuses."""
    real = ratmat._back_substitute

    def off_by_one(*args):
        g = real(*args)
        g[0, 0] += 1
        return g

    monkeypatch.setattr(ratmat, "_back_substitute", off_by_one)
    with pytest.raises(VerificationFailed, match="^M G M = M does not hold$"):
        ratmat.g_inverse(ints([[2, 1], [1, 1]]))


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


@pytest.mark.parametrize("m", [[[1, 1], [1, 1]], [[1, 0], [0, 0]]], ids=["eliminated", "diagonal"])
def test_an_inconsistent_system_is_a_failed_self_check(m):
    """Both routes refuse an inconsistent system through ``require``, so the
    CLI reports it as a failed claim (exit 1), not as a traceback."""
    with pytest.raises(VerificationFailed, match="^no inconsistent equation does not hold$"):
        ratmat._solve_scaled(ints(m), ints([[0], [1]]))


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
    system, s = ratmat._scaled_ints(np.hstack([m, rhs]))   # [M | RHS] = system / s
    z, d = ratmat._solve_scaled(system[:, :2], system[:, 2:])
    assert ratmat.rank(m) == 1 and d != 1
    for g_inverse in (ratmat.g_inverse, g_inverse_reversed):
        assert (m @ z == d * (m @ g_inverse(m) @ rhs)).all()


# ---------------------------------------------------------------------------
# the kernel against ordinary Gaussian elimination over Fractions

def fractions(num, d):
    """num / d entry by entry, as Fractions."""
    return np.array([Fraction(x, d) for x in num.flat], dtype=object).reshape(num.shape)


def python_ints(*matrices):
    return all(type(x) is int for m in matrices for x in m.flat)


def assert_kernel_matches_oracle(m, rhs):
    """Pivots, rank, Z / d and G / d of the integer matrix ``m`` (and of
    the system M Z = RHS) against the Fraction elimination."""
    pivots = gauss_pivots(m)
    a, got, d = ratmat._eliminate(m, m.shape[1])
    assert got == pivots and ratmat.rank(m) == len(pivots)
    assert python_ints(a) and type(d) is int
    system, scale = ratmat._scaled_ints(m)
    assert scale == 1 and python_ints(system) and (system == m).all()
    consistent = len(gauss_pivots(np.hstack([system, rhs]))) == len(pivots)
    try:
        z, d = ratmat._solve_scaled(system, rhs)
    except ArithmeticError:
        assert not consistent
    else:
        assert consistent and python_ints(z) and type(d) is int
        assert (system @ fractions(z, d) == rhs).all()
    g, d = ratmat._g_inverse(system)
    assert python_ints(g) and type(d) is int
    assert (system @ fractions(g, d) @ system == system).all()


@st.composite
def systems(draw):
    """An integer matrix of 0-6 rows and 0-6 columns, of any rank up to
    full (a product of random factors), with entries up to 10^30 in size or
    small ones, and a right-hand side of 0-2 columns that is M X for an
    integer X or drawn at random (mostly inconsistent when M is singular)."""
    nrow, ncol, t = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 2))
    k = draw(st.integers(0, min(nrow, ncol)))
    entries = st.integers(-10 ** 30, 10 ** 30) | st.integers(-3, 3)

    def matrix(r, c):
        return np.array(draw(st.lists(entries, min_size=r * c, max_size=r * c)),
                        dtype=object).reshape(r, c)

    m = matrix(nrow, k) @ matrix(k, ncol) if nrow and ncol else matrix(nrow, ncol)
    rhs = m @ matrix(ncol, t) if draw(st.booleans()) else matrix(nrow, t)
    return m, rhs


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(systems())
def test_kernel_matches_gaussian_elimination(case):
    assert_kernel_matches_oracle(*case)


NEAR_LIMIT = (st.integers(2 ** 62 - 2 ** 10, 2 ** 62) | st.integers(-2 ** 62, -2 ** 62 + 2 ** 10)
              | st.integers(-3, 3))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(NEAR_LIMIT, min_size=c, max_size=c), min_size=1, max_size=4)))
@example([[2 ** 62, 1], [1, 2 ** 62]])
def test_kernel_takes_int64_near_the_limit_exactly(rows):
    """int64 input whose Bareiss intermediates pass 2^63 is eliminated over
    Python ints, not in wrapping int64."""
    m = np.array(rows, dtype=np.int64)
    assert_kernel_matches_oracle(m, m @ np.ones((m.shape[1], 1), dtype=object))
    if rows == [[2 ** 62, 1], [1, 2 ** 62]]:
        assert ratmat._eliminate(m, 2)[0][1, 1] == 2 ** 124 - 1


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
    assert contrasts.checked_eigenvalues(np.diag([2.0, 5.0])) == [2.0, 5.0]
    w = contrasts.checked_eigenvalues(np.ones((3, 3)))
    assert abs(w[0]) < 1e-9 and abs(w[2] - 3.0) < 1e-9


def test_sym_eigenvalues_requires_symmetry():
    """``eigh`` reads one triangle only; the residual check of every
    eigenpair against the whole matrix refuses an asymmetric one."""
    with pytest.raises(VerificationFailed, match="eigen residual"):
        contrasts.checked_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
