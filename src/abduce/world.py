"""Finite relational worlds with known and unknown atoms.

A world has a domain a0..a(n-1) and, per predicate, a set of atoms known
true and a set of atoms whose truth value is unobserved.  Everything not
listed in either set is known false.  Worlds and completions are immutable;
evaluation is pure.  Sampling requires exclusive access to its rng.

Sampling marks cells: a block of complete worlds is drawn into one bool
array per domain size and predicate, a world's true atoms marked in its
row-major cells (draw_candidates), and a World is built from a row
(complete_world) only when one is needed.  Candidate screening in the
generator reads the arrays directly, so a rejected candidate never
becomes a World.  draw_candidates is the one sampling entry point:
sample_complete_world draws a block of one.  Every draw without
replacement, of true atoms and of masked atoms alike, goes through one
range sampler, _mark_range, which marks the set random.sample(range(n), k)
picks and consumes the rng the same way.

A draw also counts the 32-bit Mersenne Twister words it consumed, as
CPython's random uses them (3.10 to 3.13): one per getrandbits(k) call
with k <= 32, rejected redraws included, and two per uniform.  Since
getrandbits(32 * w) consumes exactly w words, a caller holding the rng
state from before some draws reaches the state after them by skipping
their words, without drawing any of them again.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import cache
from itertools import compress, product
from math import ceil, log
from random import Random
from typing import AbstractSet, Iterator, Mapping, Optional

import numpy as np

from .formula import (
    And,
    Atom,
    BINARY_PREDICATES,
    Equal,
    Exists,
    Forall,
    Formula,
    Hypothesis,
    Implies,
    Not,
    Or,
    PREDICATES,
)

OBSERVABLE_PREDICATES = ("P", "Q", "R", "S")


# Unknown atoms beyond which exhaustive completion enumeration is refused.
DEFAULT_ENUMERATION_CAP = 24

# The largest domain size a world may have; World rejects a larger n.  The
# evaluator holds up to n^4 cells per formula node for one world
# (engine._CELL_BUDGET is one world at this size), so an unchecked n could
# ask for terabytes.  Generated n <= 12.
MAX_DOMAIN_SIZE = 32


class EnumerationCapError(RuntimeError):
    """Too many unknown atoms for exhaustive completion enumeration."""


class EvalError(ValueError):
    """Formula evaluation hit an unbound variable or missing context."""


def _check_domain_size(n) -> None:
    """ValueError unless n is an int in 1..MAX_DOMAIN_SIZE."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"domain size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("domain size must be >= 1")
    if n > MAX_DOMAIN_SIZE:
        raise ValueError(f"domain size {n} exceeds MAX_DOMAIN_SIZE {MAX_DOMAIN_SIZE}")


@cache  # at most 2 * MAX_DOMAIN_SIZE tables, since n is checked first
def _atom_table(n: int, arity: int) -> dict:
    """Every ground atom of one domain size and arity, row-major, mapped to
    itself: an int for arity 1, an (int, int) pair for arity 2.  Looking up
    any equal value (numpy integers, True, 1.0) returns the one canonical
    atom that every world of this domain size shares."""
    return {a: a for a in (range(n) if arity == 1 else product(range(n), repeat=2))}


@cache
def _population(n: int, arity: int) -> tuple:
    """The atom table's keys, indexable: the sampling population, so
    sampled atoms are canonical already."""
    return tuple(_atom_table(n, arity))


def _as_atom_set(pred: str, n: int, atoms) -> frozenset:
    """Validate and intern a predicate's atoms: each must equal a key of the
    atom table, a list pair counting as a tuple."""
    table = _atom_table(n, PREDICATES[pred].arity)
    if not isinstance(atoms, (frozenset, set, list, tuple)):
        atoms = tuple(atoms)  # the slow path below iterates a second time
    try:
        return frozenset(map(table.__getitem__, atoms))
    except (KeyError, TypeError):  # a bad atom, or list pairs read from JSON
        pass
    out = []
    for atom in atoms:
        try:
            atom = atom if isinstance(atom, Hashable) else tuple(atom)
            out.append(table[atom])
        except (KeyError, TypeError):
            raise ValueError(f"{pred}: atom {atom!r} is malformed or outside the domain of size {n}") from None
    return frozenset(out)


def atoms_to_json(atoms) -> list:
    """An atom set as a JSON list in row-major order, pairs as two-element lists."""
    return [a if isinstance(a, int) else list(a) for a in sorted(atoms)]


@dataclass(frozen=True, eq=False)
class World:
    """Compared with worlds_equivalent; hashed by identity so groundings cache.

    The domain size n is an int in 1..MAX_DOMAIN_SIZE.  An atom is an int
    for P and Q and an (int, int) pair for R and S, each index in range(n).
    Any value equal to one is accepted (numpy integers, True, 1.0, list
    pairs) and stored as the canonical Python object, which every world of
    the same domain size shares; anything else raises ValueError, and so
    does a predicate key other than P, Q, R and S.  The number of unknown
    atoms is counted once, at construction.
    """

    n: int
    true_atoms: Mapping[str, frozenset] = field(default_factory=dict)
    unknown_atoms: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        _check_domain_size(n)
        true = {p: _as_atom_set(p, n, self.true_atoms.get(p, ())) for p in OBSERVABLE_PREDICATES}
        unk = {p: _as_atom_set(p, n, self.unknown_atoms.get(p, ())) for p in OBSERVABLE_PREDICATES}
        stray = {*self.true_atoms, *self.unknown_atoms}.difference(OBSERVABLE_PREDICATES)
        if stray:
            raise ValueError(f"unknown predicate key(s): {', '.join(sorted(map(repr, stray)))}")
        for p in OBSERVABLE_PREDICATES:
            if not true[p].isdisjoint(unk[p]):
                raise ValueError(f"{p}: true and unknown atom sets overlap")
        object.__setattr__(self, "true_atoms", true)
        object.__setattr__(self, "unknown_atoms", unk)
        object.__setattr__(self, "_num_unknowns", sum(map(len, unk.values())))

    def unknown_order(self) -> list[tuple[str, object]]:
        """All unknown atoms, sorted by predicate name then row-major index
        (the natural order of ints and of pairs).

        This order underlies completion bit patterns and serialization.
        """
        return [(p, a) for p in sorted(OBSERVABLE_PREDICATES) for a in sorted(self.unknown_atoms[p])]

    def num_unknowns(self) -> int:
        return self._num_unknowns

    def elements(self) -> range:
        return range(self.n)


@dataclass(frozen=True, eq=False)
class Completion:
    """Truth values for exactly the unknown atoms of one world."""

    assignment: Mapping[tuple[str, object], bool]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def value(self, pred: str, atom) -> bool:
        return self.assignment[(pred, atom)]

    def _key(self):
        return tuple(sorted(self.assignment.items()))

    def __eq__(self, other):
        return isinstance(other, Completion) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class DensityRanges:
    """Closed density interval per predicate; true count = max(1, floor(n^arity * rho))."""

    ranges: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        given = dict(self.ranges)
        if sorted(given) != sorted(OBSERVABLE_PREDICATES):
            missing = sorted(set(OBSERVABLE_PREDICATES) - set(given))
            unknown = sorted(set(given) - set(OBSERVABLE_PREDICATES), key=str)
            raise ValueError(
                f"density ranges must name exactly {', '.join(OBSERVABLE_PREDICATES)}: "
                f"missing {missing}, unknown {unknown}"
            )
        rngs = {}
        for p, (lo, hi) in given.items():
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{p}: density interval [{lo}, {hi}] invalid")
            rngs[p] = (float(lo), float(hi))
        object.__setattr__(self, "ranges", rngs)


# Partial worlds are drawn as full ones are, and masked afterwards.
_OBSERVED_DENSITIES = DensityRanges({"P": (0.20, 0.60), "Q": (0.20, 0.60), "R": (0.12, 0.25), "S": (0.08, 0.18)})
DENSITY_RANGES = {
    "full": _OBSERVED_DENSITIES,
    "partial": _OBSERVED_DENSITIES,
    "skeptical": DensityRanges({"P": (0.40, 0.60), "Q": (0.20, 0.50), "R": (0.15, 0.30), "S": (0.10, 0.25)}),
}

DOMAIN_SIZES = {"full": (9, 10, 11), "partial": (9, 10, 11), "skeptical": (10, 11, 12)}


# ---------------------------------------------------------------------------
# Evaluation


def eval_formula(
    world: World,
    completion: Optional[Completion],
    env: Mapping[str, int],
    f: Formula,
    ab_rule: Optional[Hypothesis] = None,
    abnormal: Optional[AbstractSet[int]] = None,
) -> bool:
    """Standard first-order satisfaction over the completed world.

    Quantifiers range over the full domain.  An atom is true if listed true,
    else its completion value if unknown, else false (closed world).  Ab(a)
    holds iff a is in ``abnormal`` when that set is given (the free-Ab
    reading), else evaluates as the ab_rule formula instantiated at a.
    """
    if isinstance(f, Atom):
        if f.pred == "Ab":
            if ab_rule is None and abnormal is None:
                raise EvalError("Ab encountered with no ab_rule")
            elem = _lookup(env, f.args[0].name)
            if abnormal is not None:
                return elem in abnormal
            return eval_formula(world, completion, {"x": elem}, ab_rule.formula, None)
        elems = [_lookup(env, v.name) for v in f.args]
        atom = elems[0] if len(elems) == 1 else tuple(elems)
        if atom in world.true_atoms[f.pred]:
            return True
        if atom in world.unknown_atoms[f.pred]:
            if completion is None:
                raise EvalError(f"unknown atom {f.pred}{atom} needs a completion")
            return completion.value(f.pred, atom)
        return False
    if isinstance(f, Equal):
        return _lookup(env, f.left.name) == _lookup(env, f.right.name)
    if isinstance(f, Not):
        return not eval_formula(world, completion, env, f.child, ab_rule, abnormal)
    if isinstance(f, And):
        return all(eval_formula(world, completion, env, c, ab_rule, abnormal) for c in f.children)
    if isinstance(f, Or):
        return any(eval_formula(world, completion, env, c, ab_rule, abnormal) for c in f.children)
    if isinstance(f, Implies):
        return (not eval_formula(world, completion, env, f.lhs, ab_rule, abnormal)) or eval_formula(
            world, completion, env, f.rhs, ab_rule, abnormal
        )
    if isinstance(f, (Forall, Exists)):
        results = (
            eval_formula(world, completion, {**env, f.var.name: e}, f.body, ab_rule, abnormal)
            for e in world.elements()
        )
        return all(results) if isinstance(f, Forall) else any(results)
    raise TypeError(f"not a Formula: {f!r}")


def _lookup(env: Mapping[str, int], name: str) -> int:
    try:
        return env[name]
    except KeyError:
        raise EvalError(f"unbound variable {name!r}") from None


# ---------------------------------------------------------------------------
# Completion enumeration


def enumerate_completions(world: World, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Completion]:
    """Yield all 2^|unknowns| completions in deterministic bit-pattern order.

    Completion index i assigns atom j the value of bit j of i over
    world.unknown_order(), so the first completion is all-false and the last
    all-true.  Raises EnumerationCapError instead of silently truncating.
    """
    order = world.unknown_order()
    k = len(order)
    if k > cap:
        raise EnumerationCapError(f"{k} unknown atoms exceed the enumeration cap {cap}")
    for i in range(1 << k):
        yield Completion({order[j]: bool((i >> j) & 1) for j in range(k)})


# ---------------------------------------------------------------------------
# Sampling


# random.sample's setsize per k <= MAX_DOMAIN_SIZE^2 (small set minus empty list, plus table size)
_SETSIZE = tuple(21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0) for k in range(MAX_DOMAIN_SIZE**2 + 1))


def _mark_range(getrandbits, n: int, k: int, marks: bytearray, off: int) -> int:
    """Set marks[off + j] to 1 for the k distinct indices j of range(n)
    that rng.sample(range(n), k) picks, leaving rng (whose getrandbits this
    is) in exactly the state that call leaves it in; returns the number of
    32-bit words drawn.  marks[off:off + n] must be zero on entry.

    This is CPython's algorithm (the same in 3.10 to 3.13) with getrandbits
    inlined and without the per-draw call overhead of Random.sample: a
    shrinking pool of indices when an n-length list is smaller than a
    k-length set, else redraws against the selections, which the marks
    themselves record; each index is drawn as getrandbits(m's bit length)
    and redrawn while it is not below the bound m.  Each call takes one
    word while n < 2^32 (callers pass n <= MAX_DOMAIN_SIZE^2), so the count
    is k plus the redraws.  The generated data depend on every draw;
    tests/test_world.py pins the marked set and the rng state to
    Random.sample over both branches.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    words = k
    if n <= _SETSIZE[k]:
        pool = list(range(off, off + n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
                words += 1
            marks[pool[j]] = 1
            pool[j] = pool[m - 1]
        return words
    bits = n.bit_length()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or marks[off + j]:
            j = getrandbits(bits)
            words += 1
        marks[off + j] = 1
    return words


def draw_candidates(
    n_range, densities: DensityRanges, rng: Random, count: int
) -> tuple[dict[int, dict[str, np.ndarray]], list[tuple[int, int, int]]]:
    """The random draws of `count` fully observed worlds, one after another:
    per world, n uniform over n_range, drawn as rng.choice does, and per
    predicate rho uniform on its interval and max(1, floor(n^arity * rho))
    true atoms drawn without replacement.

    The true atoms are marked in one bytearray per domain size and
    predicate.  Returned are, per drawn size n, each predicate's (m, n) or
    (m, n, n) bool view of its bytearray (m worlds of size n, row-major
    atoms), and per world in draw order (n, its row in those views, the
    32-bit words its draws consumed)."""
    sizes = list(n_range)
    if not sizes:
        raise ValueError("empty n_range")
    getrandbits, random = rng.getrandbits, rng.random
    bits = len(sizes).bit_length()
    spans = [(p, *densities.ranges[p], PREDICATES[p].arity) for p in OBSERVABLE_PREDICATES]
    layout: dict[int, list] = {}  # per size n, per predicate: (lo, hi - lo, n^arity, its cells)
    rows: dict[int, int] = {}  # per size n, the worlds drawn so far
    drawn = []
    for _ in range(count):
        # rng.choice(sizes): CPython's _randbelow, one word per getrandbits call
        j = getrandbits(bits)
        words = 1
        while j >= len(sizes):
            j = getrandbits(bits)
            words += 1
        n = sizes[j]
        if n not in layout:
            _check_domain_size(n)  # before n^2 cells are allocated
            layout[n] = [(lo, hi - lo, n**a, bytearray(count * n**a)) for _, lo, hi, a in spans]
        row = rows.get(n, 0)
        rows[n] = row + 1
        for lo, span, total, cells in layout[n]:
            # rho = rng.uniform(lo, hi) spelled out, two words; rho <= hi <= 1
            # (to within a rounding), so int(total * rho) <= total
            k = int(total * (lo + span * random())) or 1
            words += 2 + _mark_range(getrandbits, total, k, cells, row * total)
        drawn.append((n, row, words))
    blocks = {
        n: {p: np.frombuffer(cells, dtype=bool).reshape((count,) + (n,) * a)[: rows[n]]
            for (p, *_, a), (*_, cells) in zip(spans, preds)}
        for n, preds in layout.items()
    }
    return blocks, drawn


def complete_world(n: int, relations: Mapping[str, np.ndarray]) -> World:
    """The fully observed World whose true atoms are marked in relations
    (per predicate, a bool array over its row-major atoms)."""
    true = {
        p: frozenset(map(_population(n, PREDICATES[p].arity).__getitem__, np.flatnonzero(a).tolist()))
        for p, a in relations.items()
    }
    return World(n, true, {})


def sample_complete_world(n_range, densities: DensityRanges, rng: Random) -> World:
    """Sample one fully observed world: a block of one from draw_candidates,
    built as a World."""
    blocks, ((n, row, _),) = draw_candidates(n_range, densities, rng, 1)
    return complete_world(n, {p: a[row] for p, a in blocks[n].items()})


def mask_world(
    world: World,
    unknown_rates: Mapping[str, float],
    rng: Random,
    mask_basis: str = "grid",
) -> World:
    """Move binary atoms of a complete world into its unknown sets.

    With mask_basis "grid" the per-predicate count is round(rate * n^2),
    with "true_count" it is round(rate * #true atoms); either way the masked
    cells are drawn uniformly from all n^2 ground atoms, so hidden-true and
    hidden-false atoms both occur.
    """
    if mask_basis not in ("grid", "true_count"):
        raise ValueError(f"unknown mask_basis {mask_basis!r}")
    n = world.n
    true = {p: world.true_atoms[p] for p in OBSERVABLE_PREDICATES}
    unknown = {p: world.unknown_atoms[p] for p in OBSERVABLE_PREDICATES}
    for p in BINARY_PREDICATES:
        rate = float(unknown_rates.get(p, 0.0))
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"{p}: unknown rate {rate} outside [0, 1]")
        base = n * n if mask_basis == "grid" else len(true[p])
        count = min(n * n, round(rate * base))
        if count:
            marks = bytearray(n * n)
            _mark_range(rng.getrandbits, n * n, count, marks, 0)
            masked = frozenset(compress(_population(n, 2), marks))
            unknown[p] = unknown[p] | masked
            true[p] = true[p] - masked
    return World(n, true, unknown)


def sample_world(
    n_range,
    densities: DensityRanges,
    unknown_rates: Mapping[str, float],
    rng: Random,
    mask_basis: str = "grid",
) -> World:
    """Sample one world and mask binary atoms into the unknown sets."""
    complete = sample_complete_world(n_range, densities, rng)
    return mask_world(complete, unknown_rates, rng, mask_basis=mask_basis)


def worlds_equivalent(w1: World, w2: World) -> bool:
    """Identical domain size and per-predicate true and unknown extensions."""
    if w1.n != w2.n:
        return False
    return all(
        w1.true_atoms[p] == w2.true_atoms[p] and w1.unknown_atoms[p] == w2.unknown_atoms[p]
        for p in OBSERVABLE_PREDICATES
    )
