"""Finite relational worlds with known and unknown atoms.

A world has a domain a0..a(n-1) and, per predicate, a set of atoms known
true and a set of atoms whose truth value is unobserved.  Everything not
listed in either set is known false.  Worlds and completions are immutable;
evaluation is pure.  Sampling requires exclusive access to its rng.

Sampling is done by index draws: a complete world is drawn as its domain
size plus, per predicate, the row-major indices of its true atoms
(draw_complete_world), and a World is built from those indices only when
one is needed.  Candidate screening in the generator reads the indices
directly, so a rejected candidate never becomes a World.  Every draw
without replacement, of true atoms and of masked atoms alike, goes through
one range sampler, _sample_range, which returns what
random.sample(range(n), k) returns and consumes the rng the same way.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import ceil, log
from random import Random
from typing import AbstractSet, Iterator, Mapping, Optional

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


class EnumerationCapError(RuntimeError):
    """Too many unknown atoms for exhaustive completion enumeration."""


class EvalError(ValueError):
    """Formula evaluation hit an unbound variable or missing context."""


class _AtomTable(dict):
    """Canonical ground atoms of one domain size and arity.

    Looking up a value equal to a ground atom returns its one canonical
    ``int`` or ``(int, int)``; a value equal to none raises ValueError.  The
    table fills on demand, so a large domain costs only the atoms it uses.
    """

    def __init__(self, n: int, arity: int):
        super().__init__()
        self.n = n
        self.arity = arity

    def __missing__(self, atom):
        try:
            if self.arity == 1:
                coords = (atom,)
            else:
                i, j = atom
                coords = (i, j)
            canon = tuple(int(c) for c in coords)
            valid = canon == coords and all(0 <= c < self.n for c in canon)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ValueError(f"atom {atom!r} is malformed or outside the domain of size {self.n}")
        if self.arity == 1:
            canon = canon[0]
        self[canon] = canon
        return canon

    @cached_property
    def population(self) -> tuple:
        """Every ground atom, row-major, as canonical objects: the sampling
        population, so sampled atoms are interned already."""
        atoms = range(self.n) if self.arity == 1 else product(range(self.n), repeat=2)
        return tuple(map(self.__getitem__, atoms))


@lru_cache(maxsize=64)
def _atom_table(n: int, arity: int) -> _AtomTable:
    return _AtomTable(n, arity)


def _hashable(atom):
    return atom if isinstance(atom, Hashable) else tuple(atom)


def _as_atom_set(pred: str, n: int, atoms) -> frozenset:
    """Validate and intern a predicate's atoms in one pass over them."""
    table = _atom_table(n, PREDICATES[pred].arity)
    if not isinstance(atoms, (frozenset, set, list, tuple)):
        atoms = tuple(atoms)  # the retry below iterates a second time
    try:
        try:
            return frozenset(map(table.__getitem__, atoms))
        except TypeError:  # unhashable atoms, such as list pairs read from JSON
            return frozenset(map(table.__getitem__, map(_hashable, atoms)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{pred}: {exc}") from None


@dataclass(frozen=True, eq=False)
class World:
    """Compared with worlds_equivalent; hashed by identity so groundings cache.

    An atom is an int for P and Q and an (int, int) pair for R and S, each
    index in range(n).  Any value equal to one is accepted (numpy integers,
    True, 1.0, list pairs) and stored as the canonical Python object, which
    every world of the same domain size shares; anything else raises
    ValueError.
    """

    n: int
    true_atoms: Mapping[str, frozenset] = field(default_factory=dict)
    unknown_atoms: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("domain size must be >= 1")
        true = {p: _as_atom_set(p, n, self.true_atoms.get(p, ())) for p in OBSERVABLE_PREDICATES}
        unk = {p: _as_atom_set(p, n, self.unknown_atoms.get(p, ())) for p in OBSERVABLE_PREDICATES}
        for p in OBSERVABLE_PREDICATES:
            if not true[p].isdisjoint(unk[p]):
                raise ValueError(f"{p}: true and unknown atom sets overlap")
        object.__setattr__(self, "true_atoms", true)
        object.__setattr__(self, "unknown_atoms", unk)

    def unknown_order(self) -> list[tuple[str, object]]:
        """All unknown atoms, sorted by predicate name then row-major index.

        This order underlies completion bit patterns and serialization.
        """
        out = []
        for p in sorted(OBSERVABLE_PREDICATES):
            if PREDICATES[p].arity == 1:
                out.extend((p, a) for a in sorted(self.unknown_atoms[p]))
            else:
                out.extend(
                    (p, a)
                    for a in sorted(self.unknown_atoms[p], key=lambda ij: ij[0] * self.n + ij[1])
                )
        return out

    def num_unknowns(self) -> int:
        return sum(len(v) for v in self.unknown_atoms.values())

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


DENSITY_RANGES = {
    "full": DensityRanges(
        {"P": (0.20, 0.60), "Q": (0.20, 0.60), "R": (0.12, 0.25), "S": (0.08, 0.18)}
    ),
    "partial": DensityRanges(
        {"P": (0.20, 0.60), "Q": (0.20, 0.60), "R": (0.12, 0.25), "S": (0.08, 0.18)}
    ),
    "skeptical": DensityRanges(
        {"P": (0.40, 0.60), "Q": (0.20, 0.50), "R": (0.15, 0.30), "S": (0.10, 0.25)}
    ),
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


def _sample_range(rng: Random, n: int, k: int) -> list[int]:
    """k distinct indices from range(n): exactly rng.sample(range(n), k),
    leaving rng in exactly the state that call leaves it in.

    Candidate sampling draws about 160 worlds per accepted one, four
    samples each, and Random.sample spends most of a small sample on
    per-draw overhead: a _randbelow call per index and an abstract-base-class
    check of the population per call.  This is CPython's algorithm (the same
    in 3.10 to 3.13) with getrandbits inlined: a shrinking pool of indices
    when an n-length list is smaller than a k-length set, else redraws
    against a set of selections, each index drawn as getrandbits(m's bit
    length) and redrawn while it is not below the bound m.  The generated
    data depend on every draw; tests/test_world.py pins this function to
    Random.sample, result and rng state, over both branches.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result = [0] * k
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]
        return result
    bits = n.bit_length()
    selected = set()
    add = selected.add
    for i in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        add(j)
        result[i] = j
    return result


def draw_complete_world(n_range, densities: DensityRanges, rng: Random) -> tuple[int, dict[str, list[int]]]:
    """The random draws of one fully observed world: n uniform over n_range;
    per predicate, rho uniform on its interval and max(1, floor(n^arity *
    rho)) row-major indices of true atoms drawn without replacement."""
    sizes = list(n_range)
    if not sizes:
        raise ValueError("empty n_range")
    n = rng.choice(sizes)
    indices: dict[str, list[int]] = {}
    for p in OBSERVABLE_PREDICATES:
        lo, hi = densities.ranges[p]
        rho = rng.uniform(lo, hi)
        arity = PREDICATES[p].arity
        total = n**arity
        count = min(total, max(1, int(total * rho)))
        indices[p] = _sample_range(rng, total, count)
    return n, indices


def sample_complete_world(n_range, densities: DensityRanges, rng: Random) -> World:
    """Sample a fully observed world from draw_complete_world's draws."""
    n, indices = draw_complete_world(n_range, densities, rng)
    true = {
        p: frozenset(map(_atom_table(n, PREDICATES[p].arity).population.__getitem__, idx))
        for p, idx in indices.items()
    }
    return World(n, true, {})


def mask_world(
    world: World,
    unknown_rates: Mapping[str, float],
    rng: Random,
    mask_basis: str = "grid",
) -> tuple[World, dict[str, frozenset]]:
    """Move binary atoms of a complete world into its unknown sets.

    With mask_basis "grid" the per-predicate count is round(rate * n^2),
    with "true_count" it is round(rate * #true atoms); either way the masked
    cells are drawn uniformly from all n^2 ground atoms, so hidden-true and
    hidden-false atoms both occur.  Returns the masked world plus, per
    predicate, the masked atoms that were true (enough to reconstruct the
    pre-mask world).
    """
    if mask_basis not in ("grid", "true_count"):
        raise ValueError(f"unknown mask_basis {mask_basis!r}")
    n = world.n
    true = {p: world.true_atoms[p] for p in OBSERVABLE_PREDICATES}
    unknown = {p: world.unknown_atoms[p] for p in OBSERVABLE_PREDICATES}
    hidden: dict[str, frozenset] = {}
    for p in BINARY_PREDICATES:
        rate = float(unknown_rates.get(p, 0.0))
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"{p}: unknown rate {rate} outside [0, 1]")
        base = n * n if mask_basis == "grid" else len(true[p])
        count = min(n * n, round(rate * base))
        if count:
            population = _atom_table(n, 2).population
            masked = frozenset(population[j] for j in _sample_range(rng, n * n, count))
            hidden[p] = true[p] & masked
            unknown[p] = unknown[p] | masked
            true[p] = true[p] - masked
    return World(n, true, unknown), hidden


def unmask_world(world: World, hidden: Mapping[str, frozenset]) -> World:
    """Reconstruct the complete pre-mask world from the hidden truth."""
    true = {
        p: world.true_atoms[p] | frozenset(hidden.get(p, ()))
        for p in OBSERVABLE_PREDICATES
    }
    return World(world.n, true, {})


def sample_world(
    n_range,
    densities: DensityRanges,
    unknown_rates: Mapping[str, float],
    rng: Random,
    mask_basis: str = "grid",
) -> World:
    """Sample one world and mask binary atoms into the unknown sets."""
    complete = sample_complete_world(n_range, densities, rng)
    masked, _ = mask_world(complete, unknown_rates, rng, mask_basis=mask_basis)
    return masked


def worlds_equivalent(w1: World, w2: World) -> bool:
    """Identical domain size and per-predicate true and unknown extensions."""
    if w1.n != w2.n:
        return False
    return all(
        w1.true_atoms[p] == w2.true_atoms[p] and w1.unknown_atoms[p] == w2.unknown_atoms[p]
        for p in OBSERVABLE_PREDICATES
    )
