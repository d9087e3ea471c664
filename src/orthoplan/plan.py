"""Plan data model: factors, runs, optional blocking, derived matrices,
and JSON / CSV serialization.

A plan is n runs on m >= 1 factors.  Factor A with s_A levels stands for
the n x s_A design matrix X_A (0/1, one unit entry per row), which the
package never forms.  Two pseudo-factors are addressable wherever a
factor identifier is accepted: ``GENERAL`` ("G", the all-ones column)
and ``BLOCK`` (the n x b block indicator, only for blocked plans).

Every identifier reads as one symbol per run, so the gram matrix X'X of
any stack of identifiers is one int64 ``np.bincount`` of the column-index
pairs each run hits, and incidence matrices are its slices.  Nothing is
cached: each call builds a fresh exact integer matrix.
``plan_from_json`` refuses a document over ``MAX_GRAM_SIZE`` or
``MAX_RUNS`` before it builds anything.

``gram`` is the one function that computes with numpy, and it imports
numpy itself: loading a plan file, checking it and writing a document
load no numpy, so the CLI refuses a bad plan file before numpy's import.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate, islice

GENERAL = "G"
BLOCK = "block"
RESERVED = (GENERAL, BLOCK)

# The largest gram matrix and the most runs a plan document may ask for.
# The gram size, levels + blocks + 1 (for G), bounds every exact system
# the package forms for the plan, and ``gram`` allocates its square;
# 8,384 is that of ``construct_asym(127)``.  The run limit is the most a
# builder writes within it: ``construct_potp(32, 127)``, as potp has
# h s (s-1) runs at gram size 2 h s + 1, the most at s = 127, h = 32.
MAX_GRAM_SIZE = 8_384
MAX_RUNS = 32 * 127 * 126


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
        raise ValueError(f"{what}: {exc}") from exc


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
                    raise ValueError(
                        f"run {i}, factor {f.name}: symbol {x} outside 0..{f.levels - 1}")
        if self.block_sizes is not None:
            if any(k < 1 for k in self.block_sizes):
                raise ValueError("block sizes must be positive")
            if sum(self.block_sizes) != len(self.runs):
                raise ValueError(
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
        raise ValueError(f"no factor named {name!r} in plan {self.name!r}")

    def column(self, name):
        """Symbols of one factor across runs, in run order."""
        j = self.factor_names.index(self.factor(name).name)
        return tuple(run[j] for run in self.runs)

    def block_labels(self):
        """Block index of every run (requires blocking)."""
        if not self.blocked:
            raise ValueError(f"plan {self.name!r} has no blocks")
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
            raise ValueError(f"plan {plan.name!r} has no blocks")
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


def gram(plan, idents):
    """X' X of the stacked design matrices [X_u1 X_u2 ...] of ``idents``:
    an int64 ``np.bincount`` of codes size * i + j over the column pairs
    each run hits, in chunks of no more codes than the size x size result.
    Exact Python ints; a repeated identifier gives repeated blocks.  numpy
    is imported here, when ``gram`` is called, not with the module."""
    import numpy as np

    idents = _as_tuple(idents)
    *offsets, size = accumulate((levels_of(plan, u) for u in idents), initial=0)
    hit = np.array([np.add(_symbols(plan, u), o) for u, o in zip(idents, offsets)],
                   dtype=np.int64).reshape(-1, plan.n).T          # n x k column indices
    step = size * size // len(idents) ** 2 if idents else plan.n
    counts = np.zeros(size * size, dtype=np.int64)
    for part in np.split(hit, range(step, plan.n, step)):
        counts += np.bincount((size * part[:, :, None] + part[:, None, :]).ravel(),
                              minlength=size * size)
    return counts.reshape(size, size).astype(object)


def incidence(plan, a, b):
    """s_A x s_B count matrix N_AB = X_A' X_B (exact integers)."""
    s = levels_of(plan, a)
    return gram(plan, (a, b))[:s, s:]


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


# How many encoder chunks ``_dump`` joins into one write: about 40 kB of
# report text, so a write-through stream makes a few syscalls per document
# rather than one per chunk, and no more than one batch is held as text.
_DUMP_BATCH = 4096


def _dump(doc, write):
    """Write the JSON text of ``doc`` through ``write`` in bounded pieces:
    the text of every document the package writes (keys sorted, two-space
    indent, one closing newline).  The chunks of the encoder are joined a
    batch at a time, so the whole text is never held at once."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while batch := list(islice(chunks, _DUMP_BATCH)):
        write("".join(batch))
    write("\n")


def _expect(doc, key, typ, path):
    if key not in doc:
        raise ValueError(f"{path}.{key}: missing")
    val = doc[key]
    if typ is int and isinstance(val, bool):
        raise ValueError(f"{path}.{key}: expected an integer")
    if not isinstance(val, typ):
        raise ValueError(f"{path}.{key}: expected {typ.__name__}")
    return val


def plan_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("$: expected an object")
    name = _expect(doc, "name", str, "$")
    raw_factors = _expect(doc, "factors", list, "$")
    factors = []
    for i, fd in enumerate(raw_factors):
        if not isinstance(fd, dict):
            raise ValueError(f"$.factors[{i}]: expected an object")
        fname = _expect(fd, "name", str, f"$.factors[{i}]")
        levels = _expect(fd, "levels", int, f"$.factors[{i}]")
        try:
            factors.append(Factor(fname, levels))
        except ValueError as exc:
            raise ValueError(f"$.factors[{i}]: {exc}") from exc
    block_sizes = None
    if "block_sizes" in doc:
        raw_blocks = _expect(doc, "block_sizes", list, "$")
        for i, k in enumerate(raw_blocks):
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(f"$.block_sizes[{i}]: expected an integer")
        block_sizes = tuple(raw_blocks)
    size = sum(f.levels for f in factors) + len(block_sizes or ()) + 1
    if size > MAX_GRAM_SIZE:
        raise ValueError(f"$: gram size {size} (levels + blocks + 1) exceeds "
                         f"the limit {MAX_GRAM_SIZE}")
    raw_runs = _expect(doc, "runs", list, "$")
    if len(raw_runs) > MAX_RUNS:
        raise ValueError(f"$.runs: {len(raw_runs)} runs exceed the limit {MAX_RUNS}")
    runs = []
    for i, run in enumerate(raw_runs):
        if not isinstance(run, list):
            raise ValueError(f"$.runs[{i}]: expected a list")
        for j, x in enumerate(run):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"$.runs[{i}][{j}]: expected an integer")
        runs.append(tuple(run))
    return Plan(name=name, factors=tuple(factors), runs=tuple(runs), block_sizes=block_sizes)


def plan_loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"$: not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise ValueError("$: nested too deeply") from exc
    except ValueError as exc:      # an integer longer than int() converts
        raise ValueError(f"$: an integer exceeds {sys.get_int_max_str_digits()} digits") from exc
    return plan_from_json(doc)


def _csv(rows):
    """The CSV text of ``rows``, one line each ending in a newline: the text
    of every CSV file the package writes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def plan_to_csv(plan):
    """One run per line; blocked plans carry a leading block-index column."""
    if plan.blocked:
        return _csv([("block", *plan.factor_names),
                     *((lbl, *run) for lbl, run in zip(plan.block_labels(), plan.runs))])
    return _csv([plan.factor_names, *plan.runs])
