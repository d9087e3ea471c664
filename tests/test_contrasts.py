"""Helmert contrast bases and the exact C-matrix representation."""

from fractions import Fraction

import numpy as np
import pytest

from orthoplan import (ContrastMatrix, helmert_raw, is_potb, orthonormal_contrasts, ratmat,
                       rational)
from orthoplan.contrasts import helmert_norms
from orthoplan.errors import ShapeMismatch


@pytest.mark.parametrize("s", [2, 3, 4, 7])
def test_helmert_raw_structure(s):
    raw = helmert_raw(s)
    assert raw.shape == (s - 1, s)
    assert all(sum(row) == 0 for row in raw)
    gram = raw @ raw.T
    norms = helmert_norms(s)
    for i in range(s - 1):
        for j in range(s - 1):
            assert gram[i, j] == (norms[i] if i == j else 0)


def test_helmert_raw_needs_two_levels():
    with pytest.raises(ValueError):
        helmert_raw(1)


@pytest.mark.parametrize("s", [2, 3, 5])
def test_orthonormal_rows(s):
    o = orthonormal_contrasts(s)
    assert np.abs(o @ o.T - np.eye(s - 1)).max() < 1e-12
    assert np.abs(o.sum(axis=1)).max() < 1e-12


def scalar_cm(value, s=3):
    """ContrastMatrix of value * I built from a congruence with X = v I."""
    raw = helmert_raw(s)
    m = rational(np.diag([Fraction(value)] * s))
    return ContrastMatrix.from_rational(raw @ m @ raw.T, norms=helmert_norms(s),
                                        labels=tuple(f"A[{j}]" for j in range(1, s)))


def test_scalar_identity():
    cm = scalar_cm(Fraction(7, 2))
    ok, val = cm.scalar_identity()
    assert ok and val == Fraction(7, 2)
    assert cm.dim == 2


def test_entry_exact_and_equals_rational():
    cm = scalar_cm(2)
    assert cm.entry_exact(0, 0) == 2
    assert cm.entry_exact(0, 1) == 0
    expected = rational([[2, 0], [0, 2]])
    assert cm.equals_rational(expected)
    assert not cm.equals_rational(rational([[2, 0], [0, 3]]))
    assert not cm.equals_rational(rational([[2]]))


def test_entry_exact_irrational_is_none():
    # congruence with distinct norms: entry 1/sqrt(2*6) is irrational
    raw = rational([[1, 0], [0, 1]])
    cm = ContrastMatrix.from_rational(raw, norms=(2, 6), labels=("a", "b"))
    assert cm.entry_exact(0, 1) == 0        # zero stays exact
    cm2 = ContrastMatrix.from_rational(rational([[1, 1], [1, 1]]), norms=(2, 6),
                                       labels=("a", "b"))
    assert cm2.entry_exact(0, 1) is None
    assert "0.2886" in cm2.entries_json()[0][1]


def test_as_float_and_eigenvalues():
    cm = scalar_cm(3)
    f = cm.as_float()
    assert np.abs(f - 3 * np.eye(2)).max() < 1e-12
    assert cm.eigenvalues() == pytest.approx([3.0, 3.0])


def test_one_decomposition_per_instance(record_calls):
    """The float matrix and the spectrum are formed once per instance; a
    copy of each is handed out."""
    calls = record_calls(ratmat, "checked_eigenvalues")
    cm = ContrastMatrix.from_rational(rational([[2, 1], [1, 2]]), norms=(2, 2),
                                      labels=("a", "b"))
    cm.as_float()[0, 0] = 99.0
    first = cm.eigenvalues()
    first.append(0.0)
    assert cm.eigenvalues() == pytest.approx([0.5, 1.5])
    assert len(calls) == 1
    assert cm.entries_json() == [["1", "1/2"], ["1/2", "1"]]
    assert cm.scaled(2).eigenvalues() == pytest.approx([1.0, 3.0]) and len(calls) == 2


def test_scaled():
    cm = scalar_cm(3)
    ok, val = cm.scaled(Fraction(1, 3)).scalar_identity()
    assert ok and val == 1


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ContrastMatrix.from_rational(rational([[1, 0], [0, 1]]), norms=(2,), labels=("a",))


def test_potb_report_makes_no_fractions(potb2_28, record_calls):
    """The report's contrast C-matrix stays an integer pair up to its
    printed text: no Fraction matrix is formed for a passing report."""
    calls = record_calls(ratmat, "_over")
    is_potb(potb2_28).to_json()
    assert calls == []
