"""Benchmark instance generation.

Plant a gold abnormality rule, accept worlds only where the induced repair
problem is nontrivial and the gold is near-optimal, then harden the
training set by adversarial world addition until no shortcut competitor
matches the gold's performance.  Accepted instances pass a cheater screen,
optional gold refinement, and a from-scratch audit; holdout worlds are
sampled afterwards from the same distribution with deterministic hashing
and none of the adversarial machinery.

World acceptance runs in two stages.  The nontriviality floor, exception
cap, and gold-gap filters apply to the complete world before any masking
(closed-world semantics); masking then hides binary atoms and the gold
must additionally stay valid under the scenario's completion semantics.
Cached per-world baselines are the scenario-semantics values on the masked
worlds, which is what scoring consumes.

Instances generate independently; all randomness is derived from
per-instance seeds, never shared.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import weakref
from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .engine import DEFAULT_ENUMERATION_CAP, Regime, clear_caches, closed_block, opt_cost, world_costs
# validity and cost stay importable from here: the benchmark's tracer
# patches them by name in this module.
from .engine import cost, validity  # noqa: F401
from .formula import (
    And,
    Atom,
    Equal,
    Exists,
    Forall,
    Formula,
    Hypothesis,
    HypothesisError,
    Not,
    Or,
    Variable,
    children,
    formula_metrics,
    parse_formula,
    rebuild,
    render_formula,
    subformulas,
    validate_hypothesis,
)
from .theory import TheorySpec, UNKNOWN_RATES, builtin_theory
from .world import (
    DENSITY_RANGES,
    DOMAIN_SIZES,
    DensityRanges,
    World,
    draw_complete_world,
    mask_world,
    sample_complete_world,
    unmask_world,
    worlds_equivalent,
)

GOLD_AST_RANGE = (5, 30)
HOLDOUT_ATTEMPTS_PER_WORLD = 150
# Candidate worlds drawn, and screened in one evaluator pass, at a time.
_BLOCK = 16
MASK_BASIS = {"full": "grid", "partial": "true_count", "skeptical": "grid"}


class GenerationError(RuntimeError):
    """An instance attempt budget was exhausted; retry with another seed."""


@dataclass(frozen=True)
class GenParams:
    scenario: str
    theory_id: str
    densities: Optional[DensityRanges] = None
    unknown_rates: Optional[dict] = None
    world_budget: int = 12
    margin: int = 2
    pool_cap: int = 30
    holdout_count: int = 5
    exception_cap: float = 0.20
    gold_gap_slack: int = 1
    diversity_cap: float = 0.15
    global_seed: int = 0
    refine: bool = False
    world_attempts: int = 200
    instance_attempts: int = 40
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.scenario not in ("full", "partial", "skeptical"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not 1 <= self.world_budget:
            raise ValueError("world_budget must be >= 1")
        if self.margin < 1 or self.pool_cap < 1:
            raise ValueError("margin and pool_cap must be >= 1")
        if self.densities is None:
            object.__setattr__(self, "densities", DENSITY_RANGES[self.scenario])
        if self.unknown_rates is None:
            object.__setattr__(
                self, "unknown_rates", dict(UNKNOWN_RATES[self.scenario][self.theory_id])
            )

    @property
    def theory(self) -> TheorySpec:
        return builtin_theory(self.theory_id)

    @property
    def regime(self) -> Regime:
        return Regime.parse(self.scenario)


@dataclass(frozen=True)
class InstanceRecord:
    id: str
    scenario: str
    theory_id: str
    internal_id: str
    train_worlds: tuple[World, ...]
    gold: Hypothesis
    train_opt_costs: tuple[int, ...]
    train_gold_costs: tuple[int, ...]
    holdout_worlds: tuple[World, ...] = ()
    holdout_available: bool = False
    holdout_opt_costs: tuple[int, ...] = ()
    holdout_gold_costs: tuple[int, ...] = ()
    provenance: dict = field(default_factory=dict)

    @property
    def theory(self) -> TheorySpec:
        return builtin_theory(self.theory_id)

    @property
    def regime(self) -> Regime:
        return Regime.parse(self.scenario)


@dataclass(frozen=True)
class CompetitorPool:
    entries: tuple[tuple[Hypothesis, str], ...]

    def formulas(self) -> list[Hypothesis]:
        return [h for h, _ in self.entries]


# ---------------------------------------------------------------------------
# Gold templates

_L = lambda pred, var, positive: (  # noqa: E731 - tiny literal builder
    Atom(pred, (Variable(var),)) if positive else Not(Atom(pred, (Variable(var),)))
)


def _x():
    return Variable("x")


def _template_unary_pair(rng, unary, binary):
    if len(unary) < 2:
        return None
    u1, u2 = rng.sample(unary, 2)
    op = rng.choice((And, Or))
    f = op((_L(u1, "x", rng.random() < 0.7), _L(u2, "x", rng.random() < 0.5)))
    # pad to the minimum template size with a third literal when needed
    if formula_metrics(f).ast_size < GOLD_AST_RANGE[0]:
        f = op((f.children[0], f.children[1], _L(rng.choice(unary), "x", False)))
    return f


def _template_unary_triple(rng, unary, binary):
    if len(unary) < 2:
        return None
    u1, u2 = rng.sample(unary, 2)
    u3 = rng.choice(unary)
    inner = Or((_L(u2, "x", rng.random() < 0.5), _L(u3, "x", rng.random() < 0.5)))
    return And((_L(u1, "x", rng.random() < 0.7), inner))


def _template_exists_witness(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u = rng.choice(unary)
    return Exists(
        Variable("y"),
        And((Atom(b, (_x(), Variable("y"))), _L(u, "y", rng.random() < 0.7))),
    )


def _template_no_successor(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u = rng.choice(unary)
    return And((_L(u, "x", True), Not(Exists(Variable("y"), Atom(b, (_x(), Variable("y")))))))


def _template_unary_and_exists(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u = rng.choice(unary)
    witness = Atom(b, (_x(), Variable("y")))
    if rng.random() < 0.5:
        u2 = rng.choice(unary)
        body = And((witness, _L(u2, "y", rng.random() < 0.7)))
    else:
        body = witness
    f = And((_L(u, "x", rng.random() < 0.8), Exists(Variable("y"), body)))
    return f if formula_metrics(f).ast_size >= GOLD_AST_RANGE[0] else None


def _template_forall_successors(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u = rng.choice(unary)
    body = Forall(
        Variable("y"),
        Or((Not(Atom(b, (_x(), Variable("y")))), _L(u, "y", rng.random() < 0.6))),
    )
    if rng.random() < 0.5:
        return And((Exists(Variable("y"), Atom(b, (_x(), Variable("y")))), body))
    return body


def _template_self_loop(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u = rng.choice(unary)
    return And((Atom(b, (_x(), _x())), _L(u, "x", rng.random() < 0.6)))


def _template_two_hop(rng, unary, binary):
    if not binary:
        return None
    b1 = rng.choice(binary)
    b2 = rng.choice(binary)
    y, z = Variable("y"), Variable("z")
    hop = Atom(b2, (y, z))
    if unary and rng.random() < 0.6:
        hop = And((hop, _L(rng.choice(unary), "z", rng.random() < 0.7)))
    return Exists(y, And((Atom(b1, (_x(), y)), Exists(z, hop))))


def _template_exists_forall(rng, unary, binary):
    if not binary or not unary:
        return None
    b1 = rng.choice(binary)
    b2 = rng.choice(binary)
    u = rng.choice(unary)
    y, z = Variable("y"), Variable("z")
    inner = Forall(z, Or((Not(Atom(b2, (y, z))), _L(u, "z", rng.random() < 0.6))))
    return Exists(y, And((Atom(b1, (_x(), y)), inner)))


def _template_two_witnesses(rng, unary, binary):
    if not binary:
        return None
    b = rng.choice(binary)
    y, z = Variable("y"), Variable("z")
    parts = [Atom(b, (_x(), y)), Atom(b, (_x(), z)), Not(Equal(y, z))]
    if unary and rng.random() < 0.5:
        parts.insert(2, _L(rng.choice(unary), "y", True))
    return Exists(y, Exists(z, And(tuple(parts))))


def _template_unique_witness(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u = rng.choice(unary)
    y, z = Variable("y"), Variable("z")
    only = Forall(z, Or((Not(Atom(b, (_x(), z))), Equal(z, y))))
    return Exists(y, And((Atom(b, (_x(), y)), _L(u, "y", True), only)))


def _template_negated_unary_with_exists(rng, unary, binary):
    if not binary or not unary:
        return None
    b = rng.choice(binary)
    u1 = rng.choice(unary)
    u2 = rng.choice(unary)
    y = Variable("y")
    return And(
        (
            _L(u1, "x", False),
            Exists(y, And((Atom(b, (_x(), y)), _L(u2, "y", rng.random() < 0.7)))),
        )
    )


def _template_guarded_deep(rng, unary, binary):
    if not binary or not unary:
        return None
    b1 = rng.choice(binary)
    b2 = rng.choice(binary)
    u1 = rng.choice(unary)
    u2 = rng.choice(unary)
    y, z = Variable("y"), Variable("z")
    inner = Forall(z, Or((Not(Atom(b2, (y, z))), _L(u2, "z", rng.random() < 0.6))))
    return And((_L(u1, "x", True), Exists(y, And((Atom(b1, (_x(), y)), inner)))))


GOLD_TEMPLATES = (
    ("unary_pair", _template_unary_pair),
    ("unary_triple", _template_unary_triple),
    ("exists_witness", _template_exists_witness),
    ("no_successor", _template_no_successor),
    ("unary_and_exists", _template_unary_and_exists),
    ("forall_successors", _template_forall_successors),
    ("self_loop", _template_self_loop),
    ("two_hop", _template_two_hop),
    ("exists_forall", _template_exists_forall),
    ("two_witnesses", _template_two_witnesses),
    ("unique_witness", _template_unique_witness),
    ("negated_unary_with_exists", _template_negated_unary_with_exists),
    ("guarded_deep", _template_guarded_deep),
)


def _scope_split(theory: TheorySpec):
    unary = sorted(theory.allowed & {"P", "Q"})
    binary = sorted(theory.allowed & {"R", "S"})
    return unary, binary


@functools.lru_cache(maxsize=64)
def _pool_renders(theory: TheorySpec) -> frozenset[str]:
    """Renderings of the theory's static tier-1 and tier-2 pool formulas."""
    return frozenset(
        render_formula(h.formula) for h in tier1_formulas(theory) + tier2_formulas(theory)
    )


def _try_instantiate(name: str, theory: TheorySpec, rng: Random) -> Optional[Hypothesis]:
    """One instantiation of a gold template, or None when it is out of
    scope, outside GOLD_AST_RANGE, or identical to a static pool formula:
    such a gold would survive its own competitor pool forever and the
    instance could never be accepted."""
    unary, binary = _scope_split(theory)
    f = dict(GOLD_TEMPLATES)[name](rng, unary, binary)
    if f is None:
        return None
    if not GOLD_AST_RANGE[0] <= formula_metrics(f).ast_size <= GOLD_AST_RANGE[1]:
        return None
    if render_formula(f) in _pool_renders(theory):
        return None
    try:
        return validate_hypothesis(f, theory.allowed, theory.forbidden)
    except HypothesisError:
        return None


@functools.lru_cache(maxsize=64)
def _applicable_templates(theory: TheorySpec) -> tuple[str, ...]:
    probe = Random(12345)
    return tuple(
        name
        for name, _ in GOLD_TEMPLATES
        if any(_try_instantiate(name, theory, probe) for _ in range(60))
    )


class GoldSampler:
    """Draws gold rules from the template library under the diversity cap.

    Usage counts grow only via record_use, so eligibility reflects accepted
    instances, not failed attempts.
    """

    DORMANCY_THRESHOLD = 60

    def __init__(self, diversity_cap: float = 0.15):
        self.diversity_cap = diversity_cap
        self.counts: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.total = 0

    def _eligible(self, name: str) -> bool:
        if self.failures.get(name, 0) >= self.DORMANCY_THRESHOLD:
            # scope-compatible but semantically hopeless for this theory;
            # stop burning attempts on it
            return False
        limit = max(1, int(self.diversity_cap * (self.total + 1)))
        return self.counts.get(name, 0) + 1 <= limit

    def applicable_templates(self, theory: TheorySpec) -> tuple[str, ...]:
        """Templates with at least one in-scope, non-pool instantiation;
        the rest (e.g., unary pairs under a single unary predicate, or
        shapes the mined-shortcut list fully covers) are never drawn."""
        return _applicable_templates(theory)

    def draw(self, theory: TheorySpec, rng: Random) -> tuple[Hypothesis, str]:
        applicable = self.applicable_templates(theory)
        names = [name for name in applicable if self._eligible(name)]
        if not names:
            names = [
                name
                for name in applicable
                if self.failures.get(name, 0) < self.DORMANCY_THRESHOLD
            ] or list(applicable)
        for _ in range(400):
            name = rng.choice(names)
            hyp = _try_instantiate(name, theory, rng)
            if hyp is not None:
                return hyp, name
        raise AssertionError(f"no gold template fits theory {theory.short_id}")

    def record_use(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        self.failures[name] = 0
        self.total += 1

    def record_failure(self, name: str) -> None:
        self.failures[name] = self.failures.get(name, 0) + 1


def sample_gold(theory: TheorySpec, rng: Random, sampler: Optional[GoldSampler] = None) -> Hypothesis:
    """One gold rule; pass a shared GoldSampler to enforce batch diversity."""
    sampler = sampler or GoldSampler()
    hyp, name = sampler.draw(theory, rng)
    sampler.record_use(name)
    return hyp


# ---------------------------------------------------------------------------
# Competitor and cheater pools

TIER2_PATTERNS = (
    "(exists y (and (R x y) (P y)))",
    "(and (P x) (exists y (R x y)))",
    "(exists y (and (S x y) (P y)))",
    "(and (P x) (exists y (S x y)))",
    "(exists y (and (R x y) (not (P y))))",
    "(exists y (and (S x y) (not (P y))))",
    "(forall y (or (not (R x y)) (P y)))",
    "(and (P x) (forall y (or (not (R x y)) (P y))))",
    "(exists y (and (R x y) (Q y)))",
    "(exists y (and (S x y) (Q y)))",
    "(and (P x) (not (exists y (R x y))))",
    "(and (P x) (Q x))",
    "(exists y (and (R x y) (R y x)))",
    "(exists y (and (R x y) (S x y)))",
    "(not (exists y (and (R x y) (P y))))",
)


def _try_scope(text_or_formula, theory: TheorySpec) -> Optional[Hypothesis]:
    try:
        if isinstance(text_or_formula, str):
            f = parse_formula(text_or_formula)
        else:
            f = text_or_formula
        return validate_hypothesis(f, theory.allowed, theory.forbidden)
    except (HypothesisError, ValueError):
        return None


def _distinct(items: Iterable, hyp: Callable = lambda item: item) -> list:
    """Items in order, dropping None and any whose hypothesis renders like
    an earlier item's."""
    seen: set[str] = set()
    out = []
    for item in items:
        if item is None:
            continue
        key = render_formula(hyp(item).formula)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


def tier1_formulas(theory: TheorySpec) -> list[Hypothesis]:
    """Curated shortcuts: constants, literals, self-loops, bare existence,
    and pairwise unary combinations, restricted to the theory's scope."""
    unary, binary = _scope_split(theory)
    texts = []
    if unary:
        u0 = unary[0]
        texts.append(f"(or ({u0} x) (not ({u0} x)))")
        texts.append(f"(and ({u0} x) (not ({u0} x)))")
    for u in unary:
        texts.append(f"({u} x)")
        texts.append(f"(not ({u} x))")
    for b in binary:
        texts.append(f"({b} x x)")
        texts.append(f"(not ({b} x x))")
        texts.append(f"(exists y ({b} x y))")
        texts.append(f"(not (exists y ({b} x y)))")
    if len(unary) >= 2:
        for i in range(len(unary)):
            for j in range(len(unary)):
                if i == j:
                    continue
                u1, u2 = unary[i], unary[j]
                for op in ("and", "or"):
                    texts.append(f"({op} ({u1} x) ({u2} x))")
                    texts.append(f"({op} ({u1} x) (not ({u2} x)))")
    return _distinct(_try_scope(t, theory) for t in texts)


def tier2_formulas(theory: TheorySpec, extra: Sequence[str] = ()) -> list[Hypothesis]:
    return _distinct(_try_scope(t, theory) for t in (*TIER2_PATTERNS, *extra))


def cheater_pool(theory: TheorySpec, extra_tier2: Sequence[str] = ()) -> list[Hypothesis]:
    return _distinct(tier1_formulas(theory) + tier2_formulas(theory, extra_tier2))


# Mutations: operator flips, quantifier swaps, polarity flips, subterm
# deletions, predicate renames.


def _replace_at(f: Formula, path, new: Formula) -> Formula:
    if not path:
        return new
    kids = list(children(f))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return rebuild(f, kids)


def _mutate_once(f: Formula, rng: Random, allowed: frozenset[str]) -> Optional[Formula]:
    nodes = list(subformulas(f))
    path, node = nodes[rng.randrange(len(nodes))]
    ops = []
    if isinstance(node, (And, Or)):
        ops.append("flip_op")
        ops.append("drop_child")
    if isinstance(node, (Forall, Exists)):
        ops.append("flip_quantifier")
    same_arity = []
    if isinstance(node, Atom):
        same_arity = [
            p for p in sorted(allowed) if p != node.pred
            and (p in ("P", "Q")) == (node.pred in ("P", "Q"))
        ]
        if same_arity:
            ops.append("rename_pred")
    ops.append("toggle_not")
    op = rng.choice(ops)
    if op == "flip_op":
        flipped = Or(node.children) if isinstance(node, And) else And(node.children)
        return _replace_at(f, path, flipped)
    if op == "drop_child":
        drop = rng.randrange(len(node.children))
        keep = [c for i, c in enumerate(node.children) if i != drop]
        new = keep[0] if len(keep) == 1 else type(node)(tuple(keep))
        return _replace_at(f, path, new)
    if op == "flip_quantifier":
        swapped = Exists(node.var, node.body) if isinstance(node, Forall) else Forall(node.var, node.body)
        return _replace_at(f, path, swapped)
    if op == "rename_pred":
        return _replace_at(f, path, Atom(rng.choice(same_arity), node.args))
    if isinstance(node, Not):
        return _replace_at(f, path, node.child)
    return _replace_at(f, path, Not(node))


def gold_mutants(gold: Hypothesis, theory: TheorySpec, rng: Random, count: int = 10) -> list[Hypothesis]:
    """Up to `count` distinct scope-valid single-step mutants of the gold."""
    seen = {render_formula(gold.formula)}
    out = []
    for _ in range(12 * count):
        if len(out) >= count:
            break
        mutated = _mutate_once(gold.formula, rng, theory.allowed)
        if mutated is None:
            continue
        key = render_formula(mutated)
        if key in seen:
            continue
        seen.add(key)
        h = _try_scope(mutated, theory)
        if h is not None:
            out.append(h)
    return out


def build_competitor_pool(
    theory: TheorySpec,
    gold: Hypothesis,
    rng: Random,
    pool_cap: int = 30,
    extra_tier2: Sequence[str] = (),
) -> CompetitorPool:
    """Tier-1 curated, tier-2 mined, then up to 10 gold mutants, truncated
    to pool_cap with tier-1 kept preferentially.

    A gold that coincides with a pool formula yields a competitor that can
    never be beaten, so such instances reject at the world budget and the
    attempt loop draws a fresh gold; generate_instance fast-fails the
    syntactic case."""
    tiers = (
        ("tier1", tier1_formulas(theory)),
        ("tier2", tier2_formulas(theory, extra_tier2)),
        ("mutant", gold_mutants(gold, theory, rng, count=10)),
    )
    entries = _distinct(((h, tier) for tier, formulas in tiers for h in formulas), lambda e: e[0])
    return CompetitorPool(tuple(entries[:pool_cap]))


# ---------------------------------------------------------------------------
# Instance generation


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()
    return int(digest, 16) % (1 << 63)


def holdout_seed(dataset_path: str, instance_id: str, holdout_idx: int, global_seed: int) -> int:
    """SHA-256(dataset_path || instance_id || holdout_idx || global_seed) mod 2^31."""
    payload = f"{dataset_path}|{instance_id}|{holdout_idx}|{global_seed}".encode()
    return int(hashlib.sha256(payload).hexdigest(), 16) % (1 << 31)


class _EvalCache:
    """Per-generation memo of (world, formula) -> (valid, per-world cost).

    Keyed weakly on the world (worlds hash by identity), so an entry dies
    with its world and rejected candidates are not kept alive.
    """

    def __init__(self, regime: Regime, theory: TheorySpec, cap: int):
        self.regime = regime
        self.theory = theory
        self.cap = cap
        self.memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def world_eval(self, world: World, hyp: Hypothesis) -> tuple[bool, Optional[int]]:
        memo = self.memo.get(world)
        if memo is None:
            memo = self.memo[world] = {}
        hit = memo.get(hyp.formula)
        if hit is None:
            c = world_costs(self.regime, self.theory, [world], hyp, cap=self.cap)[0]
            hit = memo[hyp.formula] = (c is not None, c)
        return hit

    def total_cost(self, worlds: Sequence[World], hyp: Hypothesis) -> Optional[int]:
        """Total cost across worlds, or None if invalid anywhere."""
        total = 0
        for w in worlds:
            valid, c = self.world_eval(w, hyp)
            if not valid:
                return None
            total += c
        return total


@dataclass(frozen=True)
class _AcceptedWorld:
    world: World
    hidden: dict
    opt: int
    gold_cost: int
    pre_opt: int
    pre_gold_cost: int


class _WorldAcceptor:
    """Two-stage world acceptance shared by training and holdout sampling.

    Candidates are drawn _BLOCK at a time as index draws
    (draw_complete_world), and the closed-world stage screens a whole block
    in one evaluator pass per domain size.  Only the first survivor becomes
    a World: the rng is rewound to just before its draws, it is redrawn by
    sample_complete_world and masked, and the rest of the block is dropped
    and drawn again after it.  So every accepted world comes out at the rng
    position that drawing one candidate at a time reaches, and the output
    does not depend on _BLOCK.
    """

    def __init__(self, params: GenParams, gold: Hypothesis, shared_n: Optional[int]):
        self.params = params
        self.gold = gold
        self.theory = params.theory
        self.regime = params.regime
        if params.scenario == "skeptical" and shared_n is not None:
            self.n_range = (shared_n,)
        else:
            self.n_range = DOMAIN_SIZES[params.scenario]
        self.scen_cache = _EvalCache(self.regime, self.theory, params.enumeration_cap)

    def _screen(self, draws: Sequence[tuple[int, dict]]) -> list[tuple[int, bool, int]]:
        """Per drawn complete world: opt_cost(FULL), whether the gold is
        valid, and its cost, from one closed_block pass per domain size."""
        out: list = [None] * len(draws)
        for n in sorted({n for n, _ in draws}):
            members = [i for i, (m, _) in enumerate(draws) if m == n]
            relations = {}
            for p, arity in (("P", 1), ("Q", 1), ("R", 2), ("S", 2)):
                idx = [draws[i][1][p] for i in members]
                counts = [len(a) for a in idx]
                cols = np.fromiter(itertools.chain.from_iterable(idx), np.intp, sum(counts))
                flat = np.zeros((len(members), n**arity), dtype=bool)
                flat[np.repeat(np.arange(len(members)), counts), cols] = True
                relations[p] = flat.reshape((len(members),) + (n,) * arity)
            opts, valid, costs = closed_block(self.theory, self.gold.formula, n, relations)
            for i, o, v, c in zip(members, opts.tolist(), valid.tolist(), costs.tolist()):
                out[i] = (o, v, c)
        return out

    def _passes(self, n: int, opt: int, valid: bool, gold_cost: int) -> bool:
        """The closed-world stage: nontriviality floor, exception cap, gold
        validity and gold gap."""
        params = self.params
        if opt < 1 or opt / n > params.exception_cap:
            return False
        return valid and gold_cost <= opt + params.gold_gap_slack

    def candidates(self, rng: Random, attempts: int) -> Iterator[_AcceptedWorld]:
        """Accepted worlds among `attempts` candidates drawn from rng, each
        yielded with rng just past its own draws and masking; a caller that
        stops there leaves rng where one-at-a-time sampling would."""
        params = self.params
        left = attempts
        while left > 0:
            states, draws = [], []
            for _ in range(min(_BLOCK, left)):
                states.append(rng.getstate())
                draws.append(draw_complete_world(self.n_range, params.densities, rng))
            screened = self._screen(draws)
            first = next((i for i, row in enumerate(screened) if self._passes(draws[i][0], *row)), None)
            if first is None:
                left -= len(draws)
                continue
            left -= first + 1
            rng.setstate(states[first])
            complete = sample_complete_world(self.n_range, params.densities, rng)
            pre_opt, _, pre_gold = screened[first]
            if params.scenario == "full":
                yield _AcceptedWorld(complete, {}, pre_opt, pre_gold, pre_opt, pre_gold)
                continue
            masked, hidden = mask_world(
                complete, params.unknown_rates, rng, mask_basis=MASK_BASIS[params.scenario]
            )
            valid, scen_gold = self.scen_cache.world_eval(masked, self.gold)
            if valid:
                scen_opt = opt_cost(self.regime, self.theory, masked, cap=params.enumeration_cap)
                yield _AcceptedWorld(masked, hidden, scen_opt, scen_gold, pre_opt, pre_gold)


def _hidden_to_json(hidden: dict) -> dict:
    out = {}
    for p, atoms in hidden.items():
        if atoms:
            out[p] = sorted([a] if isinstance(a, int) else list(a) for a in atoms)
    return out


def _hidden_from_json(data: dict) -> dict:
    return {p: frozenset(tuple(a) for a in atoms) for p, atoms in (data or {}).items()}


def _survivors(
    pool: CompetitorPool,
    worlds: Sequence[World],
    gold_total: int,
    margin: int,
    cache: _EvalCache,
) -> set[int]:
    """Pool indices still valid on all worlds and within the cost margin."""
    out = set()
    for i, (hyp, _) in enumerate(pool.entries):
        total = cache.total_cost(worlds, hyp)
        if total is not None and total < gold_total + margin:
            out.add(i)
    return out


def generate_instance(
    params: GenParams,
    index: int = 0,
    sampler: Optional[GoldSampler] = None,
) -> InstanceRecord:
    """Generate one accepted instance (without holdouts).

    Retries up to params.instance_attempts fresh seeds before raising
    GenerationError; each attempt runs the full accept-worlds /
    eliminate-competitors / cheater-screen pipeline.
    """
    sampler = sampler or GoldSampler(params.diversity_cap)
    last_reason = "no attempts"
    for attempt in range(params.instance_attempts):
        rng = Random(_derive_seed(params.global_seed, params.scenario, params.theory_id, index, attempt))
        record = _attempt_instance(params, index, attempt, rng, sampler)
        if isinstance(record, tuple):
            last_reason, failed_template = record
            if failed_template is not None:
                sampler.record_failure(failed_template)
            continue
        sampler.record_use(record.provenance["gold_template"])
        return record
    raise GenerationError(
        f"instance {index}: {params.instance_attempts} attempts exhausted (last: {last_reason})"
    )


def _attempt_instance(params, index, attempt, rng, sampler):
    theory = params.theory
    gold, template = sampler.draw(theory, rng)
    pool_seed = rng.getrandbits(63)
    pool = build_competitor_pool(theory, gold, Random(pool_seed), params.pool_cap)
    gold_key = render_formula(gold.formula)
    if any(render_formula(h.formula) == gold_key for h, _ in pool.entries):
        return ("gold_coincides_with_pool_formula", template)
    shared_n = rng.choice(DOMAIN_SIZES["skeptical"]) if params.scenario == "skeptical" else None
    acceptor = _WorldAcceptor(params, gold, shared_n)
    cache = acceptor.scen_cache
    log: list[dict] = []

    first = next(acceptor.candidates(rng, params.world_attempts), None)
    if first is None:
        return ("no_initial_world", template)
    accepted = [first]

    while True:
        worlds = [aw.world for aw in accepted]
        gold_total = sum(aw.gold_cost for aw in accepted)
        survivors = _survivors(pool, worlds, gold_total, params.margin, cache)
        log.append({"worlds": len(worlds), "survivors": sorted(survivors)})
        if not survivors:
            break
        if len(worlds) >= params.world_budget:
            return ("budget_exhausted_with_survivors", template)
        added = False
        for aw in acceptor.candidates(rng, params.world_attempts):
            new_survivors = _survivors(
                pool, worlds + [aw.world], gold_total + aw.gold_cost, params.margin, cache
            )
            if new_survivors < survivors:
                accepted.append(aw)
                added = True
                break
        if not added:
            return ("no_adversarial_world", template)

    worlds = [aw.world for aw in accepted]
    gold_total = sum(aw.gold_cost for aw in accepted)
    cheaters = cheater_pool(theory)
    cheater_margin = _best_cheater_margin(cheaters, worlds, gold_total, cache)
    if cheater_margin is not None and cheater_margin <= -1:
        return ("cheater_beats_gold", template)

    if params.refine:
        refined = refine_gold(theory, accepted, gold, params, rng, cheaters, cache)
        if render_formula(refined.formula) != render_formula(gold.formula):
            gold = refined
            accepted = [
                replace(aw, gold_cost=cache.world_eval(aw.world, gold)[1]) for aw in accepted
            ]
            gold_total = sum(aw.gold_cost for aw in accepted)
            cheater_margin = _best_cheater_margin(cheaters, worlds, gold_total, cache)

    instance_id = f"{params.scenario}_{params.theory_id}_s{params.global_seed}_{index:04d}"
    record = InstanceRecord(
        id=instance_id,
        scenario=params.scenario,
        theory_id=params.theory_id,
        internal_id=theory.internal_id,
        train_worlds=tuple(aw.world for aw in accepted),
        gold=gold,
        train_opt_costs=tuple(aw.opt for aw in accepted),
        train_gold_costs=tuple(aw.gold_cost for aw in accepted),
        provenance={
            "global_seed": params.global_seed,
            "index": index,
            "attempt": attempt,
            "pool_seed": pool_seed,
            "gold_template": template,
            "shared_domain_size": shared_n,
            "cheater_margin": cheater_margin,
            "masked_truth": [_hidden_to_json(aw.hidden) for aw in accepted],
            "pre_mask_opt_costs": [aw.pre_opt for aw in accepted],
            "pre_mask_gold_costs": [aw.pre_gold_cost for aw in accepted],
            "elimination_log": log,
            "refined": params.refine,
        },
    )
    violations = audit_instance(record, params)
    if violations:
        return ("audit_failed:" + ";".join(violations), template)
    return record


def _best_cheater_margin(cheaters, worlds, gold_total, cache) -> Optional[int]:
    """best valid cheater total minus gold total; None when no cheater is
    valid on all worlds (an unbounded margin)."""
    best = None
    for ch in cheaters:
        total = cache.total_cost(worlds, ch)
        if total is not None and (best is None or total < best):
            best = total
    return None if best is None else best - gold_total


def refine_gold(
    theory: TheorySpec,
    accepted: Sequence[_AcceptedWorld],
    seed_gold: Hypothesis,
    params: GenParams,
    rng: Random,
    cheaters: Sequence[Hypothesis],
    cache: Optional[_EvalCache] = None,
) -> Hypothesis:
    """Pick the best gold among ~20 alternatives (templates + mutants).

    Candidates must be valid on all (masked) worlds under the scenario
    semantics and on the pre-mask worlds under closed-world semantics with
    the gap slack intact; ties break by total cost, then largest cheater
    margin, then smallest AST.  Falls back to the seed gold.
    """
    cache = cache or _EvalCache(params.regime, theory, params.enumeration_cap)
    full_cache = _EvalCache(Regime.FULL, theory, params.enumeration_cap)
    pre_worlds = [unmask_world(aw.world, aw.hidden) for aw in accepted]
    local_sampler = GoldSampler(1.0)
    candidates = [seed_gold]
    for _ in range(10):
        candidates.append(local_sampler.draw(theory, rng)[0])
    candidates.extend(gold_mutants(seed_gold, theory, rng, count=10))

    worlds = [aw.world for aw in accepted]
    best = None
    best_key = None
    seen = set()
    for cand in candidates:
        key_text = render_formula(cand.formula)
        if key_text in seen:
            continue
        seen.add(key_text)
        ok = True
        total = 0
        for aw, pre in zip(accepted, pre_worlds):
            pvalid, pcost = full_cache.world_eval(pre, cand)
            if not pvalid or pcost > aw.pre_opt + params.gold_gap_slack:
                ok = False
                break
            svalid, scost = cache.world_eval(aw.world, cand)
            if not svalid:
                ok = False
                break
            total += scost
        if not ok:
            continue
        margin = _best_cheater_margin(cheaters, worlds, total, cache)
        margin_rank = -(10**9) if margin is None else -margin
        key = (total, margin_rank, formula_metrics(cand.formula).ast_size)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best if best is not None else seed_gold


# ---------------------------------------------------------------------------
# Holdouts


def generate_holdouts(
    instance: InstanceRecord,
    dataset_path: str,
    global_seed: int,
    params: Optional[GenParams] = None,
) -> InstanceRecord:
    """Attach k holdout worlds sampled from the instance's distribution.

    Each world slot gets its own deterministic hash seed; candidates pass
    the same two-stage world acceptance as training, must not be
    equivalent to any training (or already accepted holdout) world, and
    their per-world gold cost and gap must fall inside the min-max range
    seen in training.  No competitor elimination, cheater screen, or
    refinement here.  Failure leaves the instance flagged without holdouts.
    HOLDOUT_ATTEMPTS_PER_WORLD bounds the search, so the outcome depends
    only on the seeds.
    """
    params = params or GenParams(
        scenario=instance.scenario, theory_id=instance.theory_id, global_seed=global_seed
    )
    shared_n = instance.provenance.get("shared_domain_size")
    acceptor = _WorldAcceptor(params, instance.gold, shared_n)

    costs = instance.train_gold_costs
    gap_values = [g - o for g, o in zip(costs, instance.train_opt_costs)]
    cost_lo, cost_hi = min(costs), max(costs)
    gap_lo, gap_hi = min(gap_values), max(gap_values)

    accepted: list[_AcceptedWorld] = []
    for idx in range(params.holdout_count):
        seed = holdout_seed(dataset_path, instance.id, idx, global_seed)
        rng = Random(seed)
        found = False
        for aw in acceptor.candidates(rng, HOLDOUT_ATTEMPTS_PER_WORLD):
            if any(
                worlds_equivalent(aw.world, w)
                for w in tuple(instance.train_worlds) + tuple(a.world for a in accepted)
            ):
                continue
            if not (cost_lo <= aw.gold_cost <= cost_hi and gap_lo <= aw.gold_cost - aw.opt <= gap_hi):
                continue
            accepted.append(aw)
            found = True
            break
        if not found:
            return replace(instance, holdout_worlds=(), holdout_available=False)
    prov = dict(instance.provenance)
    prov["holdout_masked_truth"] = [_hidden_to_json(aw.hidden) for aw in accepted]
    return replace(
        instance,
        holdout_worlds=tuple(aw.world for aw in accepted),
        holdout_available=True,
        holdout_opt_costs=tuple(aw.opt for aw in accepted),
        holdout_gold_costs=tuple(aw.gold_cost for aw in accepted),
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# Audit and batch


def audit_instance(
    instance: InstanceRecord,
    params: Optional[GenParams] = None,
    pools: bool = True,
) -> list[str]:
    """Re-verify every generation filter from scratch; returns violations.

    The nontriviality floor, exception cap, and gold gap are audited on the
    pre-mask worlds reconstructed from the recorded masked truth; gold
    validity, cached baselines, competitor elimination, and the cheater
    margin are audited on the masked worlds under the scenario semantics.
    With pools off, the competitor and cheater re-verification is skipped
    (the cheap load-time check).
    """
    params = params or GenParams(
        scenario=instance.scenario,
        theory_id=instance.theory_id,
        global_seed=instance.provenance.get("global_seed", 0),
    )
    regime, theory = instance.regime, instance.theory
    cache = _EvalCache(regime, theory, params.enumeration_cap)
    full_cache = _EvalCache(Regime.FULL, theory, params.enumeration_cap)
    out = []
    try:
        validate_hypothesis(instance.gold.formula, theory.allowed, theory.forbidden)
    except HypothesisError as exc:
        out.append(f"gold_scope: {exc}")

    masked_truth = instance.provenance.get("masked_truth", [{} for _ in instance.train_worlds])
    gold_total = 0
    for i, w in enumerate(instance.train_worlds):
        pre = unmask_world(w, _hidden_from_json(masked_truth[i])) if w.num_unknowns() else w
        pre_opt = opt_cost(Regime.FULL, theory, pre)
        pvalid, pcost = full_cache.world_eval(pre, instance.gold)
        if pre_opt < 1:
            out.append(f"world{i}: opt_cost {pre_opt} < 1")
        if pre_opt / w.n > params.exception_cap:
            out.append(f"world{i}: exception rate {pre_opt}/{w.n} > {params.exception_cap}")
        if not pvalid:
            out.append(f"world{i}: gold invalid on the pre-mask world")
        elif pcost > pre_opt + params.gold_gap_slack:
            out.append(f"world{i}: gold gap {pcost - pre_opt} > {params.gold_gap_slack}")
        valid, gcost = cache.world_eval(w, instance.gold)
        if not valid:
            out.append(f"world{i}: gold invalid under {instance.scenario} semantics")
            continue
        gold_total += gcost
        opt = opt_cost(regime, theory, w, cap=params.enumeration_cap)
        if i < len(instance.train_opt_costs) and instance.train_opt_costs[i] != opt:
            out.append(f"world{i}: cached opt {instance.train_opt_costs[i]} != {opt}")
        if i < len(instance.train_gold_costs) and instance.train_gold_costs[i] != gcost:
            out.append(f"world{i}: cached gold cost {instance.train_gold_costs[i]} != {gcost}")

    pool_seed = instance.provenance.get("pool_seed")
    if pools and pool_seed is not None and not out:
        pool = build_competitor_pool(theory, instance.gold, Random(pool_seed), params.pool_cap)
        surv = _survivors(pool, instance.train_worlds, gold_total, params.margin, cache)
        if surv:
            names = [render_formula(pool.entries[i][0].formula) for i in sorted(surv)]
            out.append(f"surviving competitors: {names}")
    if pools and not out:
        margin = _best_cheater_margin(cheater_pool(theory), instance.train_worlds, gold_total, cache)
        if margin is not None and margin < 0:
            out.append(f"cheater margin {margin} < 0")

    if instance.holdout_available:
        costs = instance.train_gold_costs
        gaps_train = [g - o for g, o in zip(costs, instance.train_opt_costs)]
        for j, hw in enumerate(instance.holdout_worlds):
            if any(worlds_equivalent(hw, tw) for tw in instance.train_worlds):
                out.append(f"holdout{j}: equivalent to a training world")
            valid, gcost = cache.world_eval(hw, instance.gold)
            if not valid:
                out.append(f"holdout{j}: gold invalid")
                continue
            opt = opt_cost(regime, theory, hw, cap=params.enumeration_cap)
            if not (min(costs) <= gcost <= max(costs)):
                out.append(f"holdout{j}: gold cost {gcost} outside train range")
            if not (min(gaps_train) <= gcost - opt <= max(gaps_train)):
                out.append(f"holdout{j}: gap {gcost - opt} outside train range")
    return out


def generate_batch(
    params: GenParams,
    count: int,
    dataset_path: str = "",
    with_holdouts: bool = True,
) -> list[InstanceRecord]:
    """Generate `count` accepted instances (plus holdouts) deterministically.

    An exhausted seed index is skipped and the next index is tried (ids then
    skip numbers); the walk is deterministic, so regeneration reproduces the
    exact same batch byte for byte.
    """
    sampler = GoldSampler(params.diversity_cap)
    records = []
    index = 0
    index_limit = max(8 * count, count + 16)
    while len(records) < count:
        if index >= index_limit:
            raise GenerationError(
                f"only {len(records)}/{count} instances after {index_limit} seed indices"
            )
        try:
            record = generate_instance(params, index=index, sampler=sampler)
        except GenerationError:
            record = None
        index += 1
        if record is not None:
            if with_holdouts:
                record = generate_holdouts(record, dataset_path, params.global_seed, params=params)
            records.append(record)
        # The engine caches key on worlds, and no later instance evaluates
        # this one's candidates: drop them rather than keep them alive.
        clear_caches()
    return records
