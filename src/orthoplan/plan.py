"""Plan data model: factors, runs, optional blocking, derived matrices,
and JSON / CSV serialization.

A plan is n runs on m >= 1 factors.  Factor A with s_A levels produces
the n x s_A design matrix X_A (0/1, one unit entry per row).  Two
pseudo-factors are addressable wherever a factor identifier is accepted:
``GENERAL`` ("G", the all-ones column) and ``BLOCK`` (the n x b block
indicator, only for blocked plans).

Every identifier reads as one symbol per run, so the gram matrix X'X of
any stack of identifiers is counted in one pass over the runs, and
incidence matrices are its slices.  Nothing is cached: each call builds
a fresh exact integer matrix.  ``plan_from_json`` refuses a document
whose gram size exceeds ``MAX_GRAM_SIZE`` before it builds anything.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    BlockSizeMismatch,
    LevelOutOfRange,
    NoBlocks,
    NotAnInteger,
    SchemaViolation,
    UnknownFactor,
)

GENERAL = "G"
BLOCK = "block"
RESERVED = (GENERAL, BLOCK)

# The largest gram matrix a plan document may ask for.  Its size, the sum
# of the factors' levels plus the blocks plus one (for G), bounds every
# exact system the package forms for the plan, and ``gram`` allocates its
# square.  8,384 is the size of ``construct_asym(127)``, the asymmetric
# family over the largest supported field.
MAX_GRAM_SIZE = 8_384


def _ints(values, what):
    """``values`` as a tuple of Python ints.  Python and numpy integers
    pass (``operator.index``); a bool, a float or anything else is refused
    rather than truncated."""
    values = tuple(values)
    try:
        if bool in map(type, values):
            raise TypeError("a bool is not an integer")
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise NotAnInteger(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class Factor:
    name: str
    levels: int

    def __post_init__(self):
        if not self.name or self.name in RESERVED:
            raise ValueError(f"invalid factor name {self.name!r}")
        object.__setattr__(self, "levels", _ints((self.levels,), f"factor {self.name} levels")[0])
        if self.levels < 2:
            raise ValueError(f"factor {self.name}: needs >= 2 levels")


@dataclass(frozen=True)
class Plan:
    name: str
    factors: tuple
    runs: tuple
    block_sizes: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "runs",
                           tuple(_ints(r, f"run {i}") for i, r in enumerate(self.runs)))
        if self.block_sizes is not None:
            object.__setattr__(self, "block_sizes", _ints(self.block_sizes, "block sizes"))
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")
        if not self.factors:
            raise ValueError("plan needs at least one factor, factors is empty")
        if not self.runs:
            raise ValueError("plan needs at least one run")
        m = len(self.factors)
        for i, run in enumerate(self.runs):
            if len(run) != m:
                raise ValueError(f"run {i} has {len(run)} coordinates, expected {m}")
            for f, x in zip(self.factors, run):
                if not 0 <= x < f.levels:
                    raise LevelOutOfRange(
                        f"run {i}, factor {f.name}: symbol {x} outside 0..{f.levels - 1}")
        if self.block_sizes is not None:
            if any(k < 1 for k in self.block_sizes):
                raise BlockSizeMismatch("block sizes must be positive")
            if sum(self.block_sizes) != len(self.runs):
                raise BlockSizeMismatch(
                    f"block sizes sum to {sum(self.block_sizes)}, plan has {len(self.runs)} runs")

    @property
    def n(self):
        return len(self.runs)

    @property
    def m(self):
        return len(self.factors)

    @property
    def b(self):
        return len(self.block_sizes) if self.block_sizes else 0

    @property
    def blocked(self):
        return self.block_sizes is not None

    @property
    def factor_names(self):
        return tuple(f.name for f in self.factors)

    def factor(self, name):
        for f in self.factors:
            if f.name == name:
                return f
        raise UnknownFactor(f"no factor named {name!r} in plan {self.name!r}")

    def column(self, name):
        """Symbols of one factor across runs, in run order."""
        j = self.factor_names.index(self.factor(name).name)
        return tuple(run[j] for run in self.runs)

    def block_of(self, run_index):
        return self.block_labels()[run_index]

    def block_labels(self):
        """Block index of every run (requires blocking)."""
        if not self.blocked:
            raise NoBlocks(f"plan {self.name!r} has no blocks")
        return tuple(j for j, k in enumerate(self.block_sizes) for _ in range(k))


def _as_tuple(t):
    """Identifier set as a tuple: None is empty, a string is one identifier."""
    if t is None:
        return ()
    if isinstance(t, str):
        return (t,)
    return tuple(t)


def levels_of(plan, name):
    """Level count of a factor identifier, pseudo-factors included."""
    if name == GENERAL:
        return 1
    if name == BLOCK:
        if not plan.blocked:
            raise NoBlocks(f"plan {plan.name!r} has no blocks")
        return plan.b
    return plan.factor(name).levels


def _symbols(plan, name):
    """Symbol of a factor identifier in every run, in run order: the
    factor's column, the block labels, or all zeros for GENERAL."""
    if name == GENERAL:
        return (0,) * plan.n
    if name == BLOCK:
        return plan.block_labels()
    return plan.column(name)


def design_matrix(plan, name):
    """n x s indicator matrix of a factor, or of GENERAL / BLOCK."""
    s = levels_of(plan, name)
    return np.array([[int(x == lvl) for lvl in range(s)] for x in _symbols(plan, name)],
                    dtype=object)


def gram(plan, idents):
    """X' X for the stacked design matrices X = [X_u1 X_u2 ...] of
    ``idents``, counted in one pass over the runs: each run adds 1 at
    every pair of its column indices.  Exact Python ints; a repeated
    identifier gives repeated blocks."""
    idents = _as_tuple(idents)
    *offsets, size = accumulate((levels_of(plan, u) for u in idents), initial=0)
    counts = [[0] * size for _ in range(size)]
    for symbols in zip(*(_symbols(plan, u) for u in idents)):
        hit = [o + x for o, x in zip(offsets, symbols)]
        for i in hit:
            row = counts[i]
            for j in hit:
                row[j] += 1
    return np.array(counts, dtype=object).reshape(size, size)


def incidence(plan, a, b):
    """s_A x s_B count matrix N_AB = X_A' X_B (exact integers)."""
    s = levels_of(plan, a)
    return gram(plan, (a, b))[:s, s:]


def replication(plan, a):
    """Level replication counts r_A as an s_A x 1 column."""
    return incidence(plan, a, GENERAL)


def block_incidence(plan, a):
    """L_A = X_A' X_block, the s_A x b level-by-block counts."""
    return incidence(plan, a, BLOCK)


def block_diagonal(plan):
    """D_k = diag(block sizes) as an exact matrix."""
    if not plan.blocked:
        raise NoBlocks(f"plan {plan.name!r} has no blocks")
    return np.array([[k if i == j else 0 for j in range(plan.b)]
                     for i, k in enumerate(plan.block_sizes)], dtype=object)


# ---------------------------------------------------------------------------
# serialization

def plan_to_json(plan):
    doc = {
        "name": plan.name,
        "factors": [{"name": f.name, "levels": f.levels} for f in plan.factors],
        "runs": [list(run) for run in plan.runs],
    }
    if plan.blocked:
        doc["block_sizes"] = list(plan.block_sizes)
    return doc


def _dumps(doc):
    """The JSON text of every document the package writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plan_dumps(plan):
    return _dumps(plan_to_json(plan))


def _expect(doc, key, typ, path):
    if key not in doc:
        raise SchemaViolation(f"{path}.{key}", "missing")
    val = doc[key]
    if typ is int and isinstance(val, bool):
        raise SchemaViolation(f"{path}.{key}", "expected an integer")
    if not isinstance(val, typ):
        raise SchemaViolation(f"{path}.{key}", f"expected {typ.__name__}")
    return val


def plan_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaViolation("$", "expected an object")
    name = _expect(doc, "name", str, "$")
    raw_factors = _expect(doc, "factors", list, "$")
    factors = []
    for i, fd in enumerate(raw_factors):
        if not isinstance(fd, dict):
            raise SchemaViolation(f"$.factors[{i}]", "expected an object")
        fname = _expect(fd, "name", str, f"$.factors[{i}]")
        levels = _expect(fd, "levels", int, f"$.factors[{i}]")
        try:
            factors.append(Factor(fname, levels))
        except ValueError as exc:
            raise SchemaViolation(f"$.factors[{i}]", str(exc)) from exc
    block_sizes = None
    if "block_sizes" in doc:
        raw_blocks = _expect(doc, "block_sizes", list, "$")
        for i, k in enumerate(raw_blocks):
            if isinstance(k, bool) or not isinstance(k, int):
                raise SchemaViolation(f"$.block_sizes[{i}]", "expected an integer")
        block_sizes = tuple(raw_blocks)
    size = sum(f.levels for f in factors) + len(block_sizes or ()) + 1
    if size > MAX_GRAM_SIZE:
        raise SchemaViolation("$", f"gram size {size} (levels + blocks + 1) exceeds "
                                   f"the limit {MAX_GRAM_SIZE}")
    raw_runs = _expect(doc, "runs", list, "$")
    runs = []
    for i, run in enumerate(raw_runs):
        if not isinstance(run, list):
            raise SchemaViolation(f"$.runs[{i}]", "expected a list")
        for j, x in enumerate(run):
            if isinstance(x, bool) or not isinstance(x, int):
                raise SchemaViolation(f"$.runs[{i}][{j}]", "expected an integer")
        runs.append(tuple(run))
    return Plan(name=name, factors=tuple(factors), runs=tuple(runs), block_sizes=block_sizes)


def plan_loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("$", f"not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise SchemaViolation("$", "nested too deeply") from exc
    return plan_from_json(doc)


def plan_to_csv(plan):
    """One run per line; blocked plans carry a leading block-index column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if plan.blocked:
        writer.writerow(["block", *plan.factor_names])
        for lbl, run in zip(plan.block_labels(), plan.runs):
            writer.writerow([lbl, *run])
    else:
        writer.writerow(list(plan.factor_names))
        for run in plan.runs:
            writer.writerow(list(run))
    return buf.getvalue()
