"""Benchmark instance generation.

Plant a gold abnormality rule, accept worlds only where the induced repair
problem is nontrivial and the gold is near-optimal, then harden the
training set by adversarial world addition until no shortcut competitor
matches the gold's performance.  Accepted instances pass a cheater screen,
optional gold refinement, and a from-scratch audit; holdout worlds are
sampled afterwards from the same distribution with deterministic hashing
and none of the adversarial machinery.

World acceptance runs in two stages.  The closed-world stage
(closed_stage_problems: nontriviality floor, exception cap, gold validity
and gold gap) applies to the complete world before any masking; masking
then hides binary atoms and the gold must additionally stay valid under
the scenario's completion semantics.  Holdouts pass both stages and then
the holdout rule (holdout_problems).  Acceptance, holdout search, gold
refinement and the audit all call these same functions, and the audit
runs one per-world routine on train and holdout worlds alike.  Cached
per-world baselines are the scenario-semantics values on the masked
worlds, which is what scoring consumes.

Each instance's worlds and gold are drawn from its own per-instance seed,
but the instances of one generate_batch are not independent: they share
one GoldSampler, whose diversity cap and 60-failure dormancy make the
template instance i may draw depend on every earlier instance.  So a
batch reproduces byte for byte only as a whole, in index order.

The static part of the competitor pool (tier-1 and tier-2 formulas) and
the cheater pool depend only on the theory, so each is built once per
theory per process and shared by every instance attempt and audit.  They
hold formulas, not worlds, and engine.clear_caches does not empty them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import weakref
from dataclasses import asdict, dataclass, field, replace
from random import Random
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .engine import DEFAULT_ENUMERATION_CAP, Regime, clear_caches, closed_block, opt_cost, world_costs
# validity and cost stay importable from here: the benchmark's tracer
# patches them by name in this module.
from .engine import cost, validity  # noqa: F401
from .formula import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Hypothesis,
    HypothesisError,
    Not,
    Or,
    children,
    formula_metrics,
    parse_formula,
    rebuild,
    render_formula,
    subformulas,
    validate_hypothesis,
)
from .theory import SCENARIOS, THEORY_IDS, TheorySpec, UNKNOWN_RATES, builtin_theory, check_scenario
from .world import (
    DENSITY_RANGES,
    DOMAIN_SIZES,
    DensityRanges,
    World,
    atoms_to_json,
    complete_world,
    draw_candidates,
    mask_world,
    sample_complete_world,  # noqa: F401  (the bench tracer patches this name here)
    worlds_equivalent,
)

GOLD_AST_RANGE = (5, 30)
HOLDOUT_ATTEMPTS_PER_WORLD = 150
POOL_CAP = 30
# Candidate worlds drawn, and screened in one evaluator pass, at a time.
_BLOCK = 24
MASK_BASIS = {"partial": "true_count", "skeptical": "grid"}


class GenerationError(RuntimeError):
    """An instance attempt budget was exhausted; retry with another seed."""


@dataclass(frozen=True)
class GenParams:
    """The generation settings a caller sets.  The rest define the benchmark's
    distribution and no caller varies them, so they are fixed: the values
    below, POOL_CAP, GoldSampler.DIVERSITY_CAP, the enumeration cap, densities
    and unknown rates.  settings() lists all, and params_digest hashes them."""

    scenario: str
    theory_id: str
    world_budget: int = 12
    margin: int = 2
    holdout_count: int = 5
    global_seed: int = 0
    refine: bool = False
    world_attempts: int = 200

    exception_cap: ClassVar[float] = 0.20
    gold_gap_slack: ClassVar[int] = 1
    instance_attempts: ClassVar[int] = 40

    def __post_init__(self):
        if self.scenario not in SCENARIOS or self.theory_id not in THEORY_IDS:
            raise ValueError(f"unknown scenario {self.scenario!r} or theory id {self.theory_id!r}")
        for name in ("world_budget", "margin", "world_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.holdout_count < 0:
            raise ValueError("holdout_count must be >= 0")

    @property
    def theory(self) -> TheorySpec:
        return builtin_theory(self.theory_id)

    @property
    def regime(self) -> Regime:
        return Regime.parse(self.scenario)

    @property
    def densities(self) -> DensityRanges:
        return DENSITY_RANGES[self.scenario]

    @property
    def unknown_rates(self) -> dict[str, float]:
        return UNKNOWN_RATES[self.scenario][self.theory_id]

    def settings(self) -> dict:
        """Every generation setting, the fixed and derived ones included."""
        return {**asdict(self), "exception_cap": self.exception_cap, "gold_gap_slack": self.gold_gap_slack,
                "instance_attempts": self.instance_attempts, "pool_cap": POOL_CAP,
                "diversity_cap": GoldSampler.DIVERSITY_CAP, "enumeration_cap": DEFAULT_ENUMERATION_CAP,
                "densities": self.densities.ranges, "unknown_rates": self.unknown_rates}


@dataclass(frozen=True)
class InstanceRecord:
    id: str
    scenario: str
    theory_id: str
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
    def internal_id(self) -> str:
        return self.theory.internal_id

    @property
    def regime(self) -> Regime:
        return Regime.parse(self.scenario)

    @functools.cached_property
    def gold_ast(self) -> int:
        """The gold's AST size, computed once per instance."""
        return formula_metrics(self.gold.formula).ast_size

    def splits(self) -> tuple[tuple[str, tuple[World, ...], tuple[int, ...], tuple[int, ...]], ...]:
        """(name, worlds, opt costs, gold costs) for train, then holdout."""
        return (
            ("train", self.train_worlds, self.train_opt_costs, self.train_gold_costs),
            ("holdout", self.holdout_worlds, self.holdout_opt_costs, self.holdout_gold_costs),
        )


# ---------------------------------------------------------------------------
# Gold templates: each draws its predicates and polarities from rng and
# writes the rule as canonical S-expression text, as render_formula would.


def _lit(pred: str, var: str, positive: bool) -> str:
    return f"({pred} {var})" if positive else f"(not ({pred} {var}))"


def _template_unary_pair(rng, unary, binary):
    u1, u2 = rng.sample(unary, 2)
    op = rng.choice(("and", "or"))
    return f"({op} {_lit(u1, 'x', rng.random() < 0.7)} {_lit(u2, 'x', rng.random() < 0.5)})"


def _template_unary_triple(rng, unary, binary):
    u1, u2 = rng.sample(unary, 2)
    u3 = rng.choice(unary)
    inner = f"(or {_lit(u2, 'x', rng.random() < 0.5)} {_lit(u3, 'x', rng.random() < 0.5)})"
    return f"(and {_lit(u1, 'x', rng.random() < 0.7)} {inner})"


def _template_exists_witness(rng, unary, binary):
    b, u = rng.choice(binary), rng.choice(unary)
    return f"(exists y (and ({b} x y) {_lit(u, 'y', rng.random() < 0.7)}))"


def _template_no_successor(rng, unary, binary):
    b, u = rng.choice(binary), rng.choice(unary)
    return f"(and ({u} x) (not (exists y ({b} x y))))"


def _template_unary_and_exists(rng, unary, binary):
    b, u = rng.choice(binary), rng.choice(unary)
    body = f"({b} x y)"
    if rng.random() < 0.5:
        u2 = rng.choice(unary)
        body = f"(and {body} {_lit(u2, 'y', rng.random() < 0.7)})"
    return f"(and {_lit(u, 'x', rng.random() < 0.8)} (exists y {body}))"


def _template_forall_successors(rng, unary, binary):
    b, u = rng.choice(binary), rng.choice(unary)
    body = f"(forall y (or (not ({b} x y)) {_lit(u, 'y', rng.random() < 0.6)}))"
    if rng.random() < 0.5:
        return f"(and (exists y ({b} x y)) {body})"
    return body


def _template_self_loop(rng, unary, binary):
    b, u = rng.choice(binary), rng.choice(unary)
    return f"(and ({b} x x) {_lit(u, 'x', rng.random() < 0.6)})"


def _template_two_hop(rng, unary, binary):
    b1, b2 = rng.choice(binary), rng.choice(binary)
    hop = f"({b2} y z)"
    if unary and rng.random() < 0.6:
        hop = f"(and {hop} {_lit(rng.choice(unary), 'z', rng.random() < 0.7)})"
    return f"(exists y (and ({b1} x y) (exists z {hop})))"


def _template_exists_forall(rng, unary, binary):
    b1, b2, u = rng.choice(binary), rng.choice(binary), rng.choice(unary)
    inner = f"(forall z (or (not ({b2} y z)) {_lit(u, 'z', rng.random() < 0.6)}))"
    return f"(exists y (and ({b1} x y) {inner}))"


def _template_two_witnesses(rng, unary, binary):
    b = rng.choice(binary)
    witness = f" ({rng.choice(unary)} y)" if unary and rng.random() < 0.5 else ""
    return f"(exists y (exists z (and ({b} x y) ({b} x z){witness} (not (= y z)))))"


def _template_unique_witness(rng, unary, binary):
    b, u = rng.choice(binary), rng.choice(unary)
    return f"(exists y (and ({b} x y) ({u} y) (forall z (or (not ({b} x z)) (= z y)))))"


def _template_negated_unary_with_exists(rng, unary, binary):
    b, u1, u2 = rng.choice(binary), rng.choice(unary), rng.choice(unary)
    return f"(and (not ({u1} x)) (exists y (and ({b} x y) {_lit(u2, 'y', rng.random() < 0.7)})))"


def _template_guarded_deep(rng, unary, binary):
    b1, b2, u1, u2 = rng.choice(binary), rng.choice(binary), rng.choice(unary), rng.choice(unary)
    inner = f"(forall z (or (not ({b2} y z)) {_lit(u2, 'z', rng.random() < 0.6)}))"
    return f"(and ({u1} x) (exists y (and ({b1} x y) {inner})))"


# name -> (unary predicates needed, binary predicates needed, template), in
# the order the gold sampler draws from.
GOLD_TEMPLATES = {
    "unary_pair": (2, 0, _template_unary_pair),
    "unary_triple": (2, 0, _template_unary_triple),
    "exists_witness": (1, 1, _template_exists_witness),
    "no_successor": (1, 1, _template_no_successor),
    "unary_and_exists": (1, 1, _template_unary_and_exists),
    "forall_successors": (1, 1, _template_forall_successors),
    "self_loop": (1, 1, _template_self_loop),
    "two_hop": (0, 1, _template_two_hop),
    "exists_forall": (1, 1, _template_exists_forall),
    "two_witnesses": (0, 1, _template_two_witnesses),
    "unique_witness": (1, 1, _template_unique_witness),
    "negated_unary_with_exists": (1, 1, _template_negated_unary_with_exists),
    "guarded_deep": (1, 1, _template_guarded_deep),
}


def _scope_split(theory: TheorySpec):
    unary = sorted(theory.allowed & {"P", "Q"})
    binary = sorted(theory.allowed & {"R", "S"})
    return unary, binary


def _try_instantiate(name: str, theory: TheorySpec, rng: Random) -> Optional[Hypothesis]:
    """One instantiation of a gold template, or None when it is out of
    scope, outside GOLD_AST_RANGE, or identical to a static pool formula:
    such a gold would survive its own competitor pool forever and the
    instance could never be accepted."""
    need_unary, need_binary, template = GOLD_TEMPLATES[name]
    unary, binary = _scope_split(theory)
    if len(unary) < need_unary or len(binary) < need_binary:
        return None
    text = template(rng, unary, binary)
    # the text is canonical, so it compares directly with the pool's renders
    if text in _static_pool(theory).renders:
        return None
    h = _try_scope(text, theory)
    if h is None or not GOLD_AST_RANGE[0] <= formula_metrics(h.formula).ast_size <= GOLD_AST_RANGE[1]:
        return None
    return h


@functools.lru_cache(maxsize=64)
def _applicable_templates(theory: TheorySpec) -> tuple[str, ...]:
    """Templates with at least one in-scope, non-pool instantiation;
    the rest (e.g., unary pairs under a single unary predicate, or
    shapes the mined-shortcut list fully covers) are never drawn."""
    probe = Random(12345)
    return tuple(
        name
        for name in GOLD_TEMPLATES
        if any(_try_instantiate(name, theory, probe) for _ in range(60))
    )


class GoldSampler:
    """Draws gold rules from the template library under DIVERSITY_CAP.

    Usage counts grow only via record_use, so eligibility reflects accepted
    instances, not failed attempts.
    """

    DORMANCY_THRESHOLD = 60
    DIVERSITY_CAP = 0.15

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.total = 0

    def _eligible(self, name: str) -> bool:
        if self.failures.get(name, 0) >= self.DORMANCY_THRESHOLD:
            # scope-compatible but semantically hopeless for this theory;
            # stop burning attempts on it
            return False
        limit = max(1, int(self.DIVERSITY_CAP * (self.total + 1)))
        return self.counts.get(name, 0) + 1 <= limit

    def draw(self, theory: TheorySpec, rng: Random) -> tuple[Hypothesis, str]:
        applicable = _applicable_templates(theory)
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


def _distinct(items: Iterable, hyp: Callable = lambda item: item, seen: Optional[set[str]] = None) -> list:
    """Items in order, dropping None and any whose hypothesis renders like
    an earlier item's, or like a key already in `seen` (which gains the
    kept items' keys)."""
    seen = set() if seen is None else seen
    out = []
    for item in items:
        if item is None:
            continue
        key = render_formula(hyp(item).formula)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


def _tier1_texts(theory: TheorySpec) -> list[str]:
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
    for u1, u2 in itertools.permutations(unary, 2):
        for op in ("and", "or"):
            texts.append(f"({op} ({u1} x) ({u2} x))")
            texts.append(f"({op} ({u1} x) (not ({u2} x)))")
    return texts


@dataclass(frozen=True)
class _StaticPool:
    """The gold-independent part of a theory's competitor pool."""

    tier1: tuple[Hypothesis, ...]
    tier2: tuple[Hypothesis, ...]
    # tier1 then tier2, tagged, without repeated renderings
    entries: tuple[tuple[Hypothesis, str], ...]
    renders: frozenset[str]


@functools.lru_cache(maxsize=64)
def _static_pool(theory: TheorySpec) -> _StaticPool:
    """Parsed, scope-checked and rendered once per theory (by value); every
    pool build and audit reads the same one."""
    tier1 = _distinct(_try_scope(t, theory) for t in _tier1_texts(theory))
    tier2 = _distinct(_try_scope(t, theory) for t in TIER2_PATTERNS)
    seen: set[str] = set()
    tiers = (("tier1", tier1), ("tier2", tier2))
    entries = _distinct(((h, tier) for tier, hyps in tiers for h in hyps), lambda e: e[0], seen)
    return _StaticPool(tuple(tier1), tuple(tier2), tuple(entries), frozenset(seen))


def tier1_formulas(theory: TheorySpec) -> list[Hypothesis]:
    """Curated shortcuts: constants, literals, self-loops, bare existence,
    and pairwise unary combinations, restricted to the theory's scope."""
    return list(_static_pool(theory).tier1)


def tier2_formulas(theory: TheorySpec) -> list[Hypothesis]:
    return list(_static_pool(theory).tier2)


def cheater_pool(theory: TheorySpec) -> list[Hypothesis]:
    return [h for h, _ in _static_pool(theory).entries]


# Mutations: operator flips, quantifier swaps, polarity flips, subterm
# deletions, predicate renames.


def _replace_at(f: Formula, path, new: Formula) -> Formula:
    if not path:
        return new
    kids = list(children(f))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return rebuild(f, kids)


def _mutate_once(f: Formula, nodes: Sequence, rng: Random, allowed: frozenset[str]) -> Formula:
    """One random mutation of f at one of its `nodes` (list(subformulas(f)))."""
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


def _mutant_stream(
    gold: Hypothesis, theory: TheorySpec, rng: Random, count: int
) -> Iterator[tuple[str, Hypothesis]]:
    """The mutation loop: (rendering, hypothesis) of up to `count` distinct
    scope-valid single-step mutants of the gold, within 12 * count tries.
    Lazy, so a caller that stops early draws no further from rng."""
    seen = {render_formula(gold.formula)}
    nodes = list(subformulas(gold.formula))
    found = 0
    for _ in range(12 * count):
        if found >= count:
            break
        mutated = _mutate_once(gold.formula, nodes, rng, theory.allowed)
        key = render_formula(mutated)
        if key in seen:
            continue
        seen.add(key)
        h = _try_scope(mutated, theory)
        if h is not None:
            found += 1
            yield key, h


def gold_mutants(gold: Hypothesis, theory: TheorySpec, rng: Random, count: int = 10) -> list[Hypothesis]:
    """Up to `count` distinct scope-valid single-step mutants of the gold."""
    return [h for _, h in _mutant_stream(gold, theory, rng, count)]


def build_competitor_pool(
    theory: TheorySpec,
    gold: Hypothesis,
    rng: Random,
) -> tuple[tuple[Hypothesis, str], ...]:
    """(hypothesis, tier) entries: tier-1 curated, tier-2 mined, then up to
    10 gold mutants, truncated to POOL_CAP with tier-1 kept preferentially.

    The tier-1 and tier-2 part is the theory's cached static pool, so a
    build mutates the gold only until it has the mutants that fit under
    POOL_CAP, skipping those that render like a static pool formula.  A
    gold that coincides with a pool formula would yield a competitor that
    can never be beaten; the gold sampler never draws one that renders like
    a static pool formula, and gold_mutants never yields the gold itself."""
    static = _static_pool(theory)
    fresh = (h for key, h in _mutant_stream(gold, theory, rng, 10) if key not in static.renders)
    mutants = itertools.islice(fresh, max(0, POOL_CAP - len(static.entries)))
    return (static.entries + tuple((h, "mutant") for h in mutants))[:POOL_CAP]


# ---------------------------------------------------------------------------
# Instance generation


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()
    return int(digest, 16) % (1 << 63)


def holdout_seed(dataset_path: str, instance_id: str, holdout_idx: int, global_seed: int) -> int:
    """SHA-256(dataset_path || instance_id || holdout_idx || global_seed) mod 2^31."""
    return _derive_seed(dataset_path, instance_id, holdout_idx, global_seed) % (1 << 31)


class _EvalCache:
    """Per-generation memo of (world, formula) -> per-world cost, None when
    the formula is invalid on the world.

    Keyed weakly on the world (worlds hash by identity), so an entry dies
    with its world and rejected candidates are not kept alive.  A world
    with no unknown atoms is evaluated under the full regime, on which
    every regime agrees, so one memo serves masked and pre-mask worlds.
    """

    def __init__(self, regime: Regime, theory: TheorySpec):
        self.regime = regime
        self.theory = theory
        self.memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def world_eval(self, world: World, hyp: Hypothesis) -> Optional[int]:
        memo = self.memo.get(world)
        if memo is None:
            memo = self.memo[world] = {}
        if hyp.formula not in memo:
            regime = self.regime if world.num_unknowns() else Regime.FULL
            memo[hyp.formula] = world_costs(regime, self.theory, [world], hyp)[0]
        return memo[hyp.formula]

    def total_cost(self, worlds: Sequence[World], hyp: Hypothesis) -> Optional[int]:
        """Total cost across worlds, or None if invalid anywhere."""
        total = 0
        for w in worlds:
            c = self.world_eval(w, hyp)
            if c is None:
                return None
            total += c
        return total


@dataclass(frozen=True)
class _AcceptedWorld:
    world: World
    complete: World  # the world before masking; in the full scenario, world itself
    opt: int
    gold_cost: int
    pre_opt: int
    pre_gold_cost: int


def closed_stage_problems(n: int, opt: int, gold_cost: Optional[int]) -> list[str]:
    """The closed-world stage on a complete world of domain size n with
    opt_cost(FULL) `opt` and gold cost `gold_cost`, None when the gold is
    invalid on it: one message per failed filter among the nontriviality
    floor, the exception cap, gold validity and the gold gap."""
    out = []
    if opt < 1:
        out.append(f"opt_cost {opt} < 1")
    if opt / n > GenParams.exception_cap:
        out.append(f"exception rate {opt}/{n} > {GenParams.exception_cap}")
    if gold_cost is None:
        out.append("gold invalid on the pre-mask world")
    elif gold_cost > opt + GenParams.gold_gap_slack:
        out.append(f"gold gap {gold_cost - opt} > {GenParams.gold_gap_slack}")
    return out


def holdout_problems(
    instance: InstanceRecord, world: World, opt: int, gold_cost: int, earlier: Sequence[World]
) -> list[str]:
    """The holdout rule for a world that passed both acceptance stages: one
    message per failure among equivalence to a training world or to an
    earlier holdout, and a gold cost or gap outside the min-max range of the
    cached training baselines."""
    out = []
    for name, worlds in (("a training world", instance.train_worlds), ("an earlier holdout", earlier)):
        if any(worlds_equivalent(world, w) for w in worlds):
            out.append(f"equivalent to {name}")
    costs = instance.train_gold_costs
    gaps = [g - o for g, o in zip(costs, instance.train_opt_costs)]
    for name, value, seen in (("gold cost", gold_cost, costs), ("gap", gold_cost - opt, gaps)):
        if seen and not min(seen) <= value <= max(seen):
            out.append(f"{name} {value} outside train range")
    return out


def _pre_mask_world(world: World, truth) -> World:
    """The complete world that masking turned into `world`, rebuilt from its
    recorded masked truth (the JSON object mapping each predicate to its
    hidden true atoms); a world without unknowns is its own.  ValueError
    when the truth is missing, malformed or names an atom that is not
    unknown."""
    if not world.num_unknowns():
        return world
    if truth is None:
        raise ValueError("no masked truth")
    try:
        claimed = World(world.n, truth)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad masked truth: {exc}") from None
    if any(not atoms <= world.unknown_atoms[p] for p, atoms in claimed.true_atoms.items()):
        raise ValueError("bad masked truth: an atom that is not unknown")
    return World(world.n, {p: atoms | claimed.true_atoms[p] for p, atoms in world.true_atoms.items()})


class _WorldAcceptor:
    """Two-stage world acceptance shared by training and holdout sampling.

    Candidates are drawn _BLOCK at a time into bool arrays, one per domain
    size and predicate (draw_candidates), and the closed-world stage screens
    a whole block on those arrays in one evaluator pass per domain size.
    The rng state is snapshotted once per block, before its first draw;
    survivors are rare, so no candidate pays for a snapshot of its own.
    Nothing is drawn twice: at a survivor the rng is set back to the
    snapshot and moved past the words that the candidates up to and
    including the survivor consumed (getrandbits(32 * words)), and the
    survivor is built from its row of the arrays.  One loop takes the
    survivors in order.  In the full scenario nothing is drawn between
    survivors, so the loop goes on to the block's later survivors and, at
    its end, skips the words of the remaining candidates.  Elsewhere the
    survivor is masked, which draws from the rng, so the loop stops there
    and the rest of the block is drawn again after it.  So every accepted
    world comes out at the rng position that drawing one candidate at a
    time reaches, and the output does not depend on _BLOCK.
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
        self.scen_cache = _EvalCache(self.regime, self.theory)

    def _screen(self, blocks: Mapping[int, Mapping[str, np.ndarray]]) -> dict[int, list[tuple[int, Optional[int]]]]:
        """Per domain size n of a draw_candidates block, per row: opt_cost(FULL)
        and the gold's cost, None when it is invalid, from one closed_block
        pass."""
        return {
            n: [(opt, c if valid else None) for opt, valid, c in
                zip(*(a.tolist() for a in closed_block(self.theory, self.gold.formula, n, relations)))]
            for n, relations in blocks.items()
        }

    def candidates(self, rng: Random, attempts: int) -> Iterator[_AcceptedWorld]:
        """Accepted worlds among `attempts` candidates drawn from rng, each
        yielded with rng just past its own draws and masking; a caller that
        stops there leaves rng where one-at-a-time sampling would.  The rng
        only moves forward from a block's snapshot, past the words of the
        candidates examined, and no candidate is drawn twice."""
        params = self.params
        full = params.scenario == "full"
        left = attempts
        while left > 0:
            state = rng.getstate()
            blocks, drawn = draw_candidates(self.n_range, params.densities, rng, min(_BLOCK, left))
            rows = self._screen(blocks)
            screened = [rows[n][row] for n, row, _ in drawn]
            passed = [i for i, (n, _, _) in enumerate(drawn) if not closed_stage_problems(n, *screened[i])]
            if not passed:
                left -= len(drawn)
                continue
            rng.setstate(state)
            past = 0  # candidates of this block whose words rng is past
            for i in passed:
                rng.getrandbits(32 * sum(d[2] for d in drawn[past:i + 1]))
                past = i + 1
                n, row, _ = drawn[i]
                complete = complete_world(n, {p: a[row] for p, a in blocks[n].items()})
                pre_opt, pre_gold = screened[i]
                if full:
                    yield _AcceptedWorld(complete, complete, pre_opt, pre_gold, pre_opt, pre_gold)
                    continue
                masked = mask_world(complete, params.unknown_rates, rng, mask_basis=MASK_BASIS[params.scenario])
                scen_gold = self.scen_cache.world_eval(masked, self.gold)
                if scen_gold is not None:
                    scen_opt = opt_cost(self.regime, self.theory, masked)
                    yield _AcceptedWorld(masked, complete, scen_opt, scen_gold, pre_opt, pre_gold)
                break  # masking drew from rng: the rest of the block is drawn again
            else:
                rng.getrandbits(32 * sum(d[2] for d in drawn[past:]))
                past = len(drawn)
            left -= past


def _masked_truth(aw: _AcceptedWorld) -> dict:
    """The masked atoms that are true, as recorded JSON: per predicate, the
    complete world's true atoms that the masked world lacks, empty entries
    left out."""
    hidden = ((p, atoms - aw.world.true_atoms[p]) for p, atoms in aw.complete.true_atoms.items())
    return {p: atoms_to_json(atoms) for p, atoms in hidden if atoms}


def _survivors(
    pool: Sequence[tuple[Hypothesis, str]],
    worlds: Sequence[World],
    gold_total: int,
    margin: int,
    cache: _EvalCache,
) -> set[int]:
    """Pool indices still valid on all worlds and within the cost margin."""
    totals = enumerate(cache.total_cost(worlds, hyp) for hyp, _ in pool)
    return {i for i, total in totals if total is not None and total < gold_total + margin}


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
    sampler = sampler or GoldSampler()
    last_reason = "no attempts"
    for attempt in range(params.instance_attempts):
        rng = Random(_derive_seed(params.global_seed, params.scenario, params.theory_id, index, attempt))
        record = _attempt_instance(params, index, attempt, rng, sampler)
        if isinstance(record, tuple):
            last_reason, failed_template = record
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
    pool = build_competitor_pool(theory, gold, Random(pool_seed))
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
        added = next((
            aw for aw in acceptor.candidates(rng, params.world_attempts)
            if _survivors(pool, worlds + [aw.world], gold_total + aw.gold_cost, params.margin, cache)
            < survivors
        ), None)
        if added is None:
            return ("no_adversarial_world", template)
        accepted.append(added)

    cheaters = cheater_pool(theory)
    cheater_margin = _best_cheater_margin(cheaters, worlds, gold_total, cache)
    if cheater_margin is not None and cheater_margin <= -1:
        return ("cheater_beats_gold", template)

    if params.refine:
        refined = refine_gold(accepted, gold, params, rng, cheaters, cache)
        if render_formula(refined.formula) != render_formula(gold.formula):
            gold = refined
            accepted = [
                replace(aw, gold_cost=cache.world_eval(aw.world, gold),
                        pre_gold_cost=cache.world_eval(aw.complete, gold))
                for aw in accepted
            ]
            gold_total = sum(aw.gold_cost for aw in accepted)
            cheater_margin = _best_cheater_margin(cheaters, worlds, gold_total, cache)

    instance_id = f"{params.scenario}_{params.theory_id}_s{params.global_seed}_{index:04d}"
    record = InstanceRecord(
        id=instance_id,
        scenario=params.scenario,
        theory_id=params.theory_id,
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
            "masked_truth": [_masked_truth(aw) for aw in accepted],
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
    totals = [t for t in (cache.total_cost(worlds, ch) for ch in cheaters) if t is not None]
    return min(totals) - gold_total if totals else None


def refine_gold(
    accepted: Sequence[_AcceptedWorld],
    seed_gold: Hypothesis,
    params: GenParams,
    rng: Random,
    cheaters: Sequence[Hypothesis],
    cache: Optional[_EvalCache] = None,
) -> Hypothesis:
    """Pick the best gold among ~20 alternatives (templates + mutants).

    Candidates must pass the closed-world stage on the pre-mask worlds and
    be valid on all (masked) worlds under the scenario semantics; ties
    break by total cost, then largest cheater margin, then smallest AST.
    Falls back to the seed gold.  The theory is params.theory.
    """
    theory = params.theory
    cache = cache or _EvalCache(params.regime, theory)
    local_sampler = GoldSampler()  # records nothing, so every applicable template stays eligible
    candidates = [seed_gold, *(local_sampler.draw(theory, rng)[0] for _ in range(10))]
    candidates.extend(gold_mutants(seed_gold, theory, rng, count=10))

    worlds = [aw.world for aw in accepted]
    best = best_key = None
    for cand in _distinct(candidates):
        total = 0
        for aw in accepted:
            if closed_stage_problems(aw.complete.n, aw.pre_opt, cache.world_eval(aw.complete, cand)):
                break
            scost = cache.world_eval(aw.world, cand)
            if scost is None:
                break
            total += scost
        else:
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
    params: GenParams,
) -> InstanceRecord:
    """Attach k holdout worlds sampled from the instance's distribution.

    Each world slot gets its own deterministic hash seed, holdout_seed of
    the dataset path, instance id, slot and params.global_seed; its first
    candidate that passes the same two-stage world acceptance as training
    and then the holdout rule (holdout_problems) fills it.  No competitor
    elimination, cheater screen, or refinement here.  Failure, or a
    holdout_count of 0, leaves the instance flagged without holdouts.
    HOLDOUT_ATTEMPTS_PER_WORLD bounds the search, so the outcome depends
    only on the seeds.
    """
    acceptor = _WorldAcceptor(params, instance.gold, instance.provenance.get("shared_domain_size"))
    accepted: list[_AcceptedWorld] = []
    for idx in range(params.holdout_count):
        rng = Random(holdout_seed(dataset_path, instance.id, idx, params.global_seed))
        earlier = [a.world for a in accepted]
        found = next((
            aw for aw in acceptor.candidates(rng, HOLDOUT_ATTEMPTS_PER_WORLD)
            if not holdout_problems(instance, aw.world, aw.opt, aw.gold_cost, earlier)
        ), None)
        if found is None:
            return _with_holdouts(instance, [])
        accepted.append(found)
    return _with_holdouts(instance, accepted)


def _with_holdouts(instance: InstanceRecord, accepted: Sequence[_AcceptedWorld]) -> InstanceRecord:
    """The instance with exactly these holdout worlds; with none, flagged
    without holdouts."""
    prov = {k: v for k, v in instance.provenance.items() if k != "holdout_masked_truth"}
    if accepted:
        prov["holdout_masked_truth"] = [_masked_truth(aw) for aw in accepted]
    return replace(
        instance,
        holdout_worlds=tuple(aw.world for aw in accepted),
        holdout_available=bool(accepted),
        holdout_opt_costs=tuple(aw.opt for aw in accepted),
        holdout_gold_costs=tuple(aw.gold_cost for aw in accepted),
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# Audit and batch


def baseline_shape_problems(instance: InstanceRecord) -> list[str]:
    """The audit checks that need no engine call: one cached opt and gold
    cost per train and holdout world, and holdout worlds exactly where
    holdouts are flagged available.  Scoring relies on exactly these."""
    out = []
    for split, worlds, opts, golds in instance.splits():
        for name, cached in (("opt", opts), ("gold", golds)):
            if len(cached) != len(worlds):
                out.append(f"{split}: {len(cached)} cached {name} cost(s) for {len(worlds)} world(s)")
    held = len(instance.holdout_worlds)
    if instance.holdout_available and not held:
        out.append("holdouts: flagged available but there are no holdout worlds")
    if held and not instance.holdout_available:
        out.append(f"holdouts: {held} holdout world(s) but holdouts are flagged unavailable")
    return out


def audit_instance(
    instance: InstanceRecord,
    params: Optional[GenParams] = None,
    pools: bool = True,
) -> list[str]:
    """Re-verify every generation filter from scratch; returns violations.

    One per-world routine serves train and holdout worlds alike: it rebuilds
    the pre-mask world from the recorded masked truth (masked_truth or
    holdout_masked_truth; a missing or malformed entry for a masked world is
    a violation), runs the closed-world stage on it (closed_stage_problems),
    checks gold validity on the masked world under the scenario semantics,
    and compares the cached (for train worlds, also the recorded pre-mask)
    baselines, which must hold one value per world equal to the recomputed
    one.  Holdouts must also pass the holdout rule (holdout_problems),
    duplicates among them included.  Competitor elimination and the cheater
    margin (the recorded one too) are audited on the training worlds; with
    pools off they are skipped (the cheap load-time check).  A line with a
    pool_seed must record both pre-mask lists and the cheater margin.  A
    skeptical line's worlds all have its shared_domain_size; other lines
    record null.
    """
    elimination_margin = params.margin if params else GenParams.margin
    regime, theory, prov = instance.regime, instance.theory, instance.provenance
    cache = _EvalCache(regime, theory)
    out = []
    try:
        validate_hypothesis(instance.gold.formula, theory.allowed, theory.forbidden)
    except HypothesisError as exc:
        out.append(f"gold_scope: {exc}")
    out.extend(baseline_shape_problems(instance))
    shared = prov.get("shared_domain_size")
    sizes = sorted({w.n for w in (*instance.train_worlds, *instance.holdout_worlds)})
    if (sizes != [shared]) if instance.scenario == "skeptical" else (shared is not None):
        out.append(f"shared_domain_size {shared!r} does not fit the {instance.scenario} worlds' sizes {sizes}")

    def audit_world(label: str, i: int, world: World, truths, baselines, pre_baselines=()) -> Optional[tuple[int, int]]:
        """Both acceptance stages and the comparison with the cached (and the
        recorded pre-mask) baselines for world i of a split; its scenario
        (opt, gold cost), or None when the gold is invalid under the scenario
        semantics."""
        tag = f"{label}{i}: "
        try:
            pre = _pre_mask_world(world, truths[i] if isinstance(truths, list) and i < len(truths) else None)
        except ValueError as exc:
            out.append(tag + str(exc))
        else:
            pre_opt = opt_cost(Regime.FULL, theory, pre)
            pre_gold = cache.world_eval(pre, instance.gold)
            closed = closed_stage_problems(pre.n, pre_opt, pre_gold)
            out.extend(tag + m for m in closed)
            for name, recorded, value in zip(("opt", "gold cost"), pre_baselines, (pre_opt, pre_gold)):
                if not closed and isinstance(recorded, list) and i < len(recorded) and recorded[i] != value:
                    out.append(f"{tag}recorded pre-mask {name} {recorded[i]} != {value}")
        gcost = cache.world_eval(world, instance.gold)
        if gcost is None:
            out.append(f"{tag}gold invalid under {instance.scenario} semantics")
            return None
        opt = opt_cost(regime, theory, world)
        for name, cached, value in zip(("opt", "gold cost"), baselines, (opt, gcost)):
            if i < len(cached) and cached[i] != value:
                out.append(f"{tag}cached {name} {cached[i]} != {value}")
        return opt, gcost

    (_, train, *train_cached), (_, held, *held_cached) = instance.splits()
    truths = prov.get("masked_truth")
    pre_cached = prov.get("pre_mask_opt_costs"), prov.get("pre_mask_gold_costs")
    found = [audit_world("world", i, w, truths, train_cached, pre_cached) for i, w in enumerate(train)]
    gold_total = sum(f[1] for f in found if f)

    pool_seed = prov.get("pool_seed")
    if pool_seed is not None:  # a generated line records every provenance number
        for key in ("pre_mask_opt_costs", "pre_mask_gold_costs"):
            if not isinstance(prov.get(key), list) or len(prov[key]) != len(train):
                out.append(f"{key}: {prov.get(key)!r} does not hold one cost per train world ({len(train)})")
        if "cheater_margin" not in prov:
            out.append("no recorded cheater margin")
    if pools and pool_seed is not None and not out:
        pool = build_competitor_pool(theory, instance.gold, Random(pool_seed))
        surv = _survivors(pool, train, gold_total, elimination_margin, cache)
        if surv:
            names = [render_formula(pool[i][0].formula) for i in sorted(surv)]
            out.append(f"surviving competitors: {names}")
    if pools and not out:
        cheater_margin = _best_cheater_margin(cheater_pool(theory), train, gold_total, cache)
        if cheater_margin is not None and cheater_margin < 0:
            out.append(f"cheater margin {cheater_margin} < 0")
        if "cheater_margin" in prov and prov["cheater_margin"] != cheater_margin:
            out.append(f"recorded cheater margin {prov['cheater_margin']} != {cheater_margin}")

    for j, hw in enumerate(held):
        found = audit_world("holdout", j, hw, prov.get("holdout_masked_truth"), held_cached)
        if found:
            out.extend(f"holdout{j}: {m}" for m in holdout_problems(instance, hw, *found, held[:j]))
    return out


def generate_batch(
    params: GenParams,
    count: int,
    dataset_path: str = "",
) -> list[InstanceRecord]:
    """Generate `count` accepted instances, with their holdouts, deterministically.

    An exhausted seed index is skipped and the next index is tried (ids then
    skip numbers); the walk is deterministic, so regeneration reproduces the
    exact same batch byte for byte.  A theory outside the scenario is a
    ValueError before anything is drawn.
    """
    check_scenario(params.theory, params.scenario)
    sampler = GoldSampler()
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
            records.append(generate_holdouts(record, dataset_path, params))
        # The engine caches key on worlds, and no later instance evaluates
        # this one's candidates: drop them rather than keep them alive.
        clear_caches()
    return records
