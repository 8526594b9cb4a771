"""Naive brute-force reference for validity, costs, and the free-Ab bound.

Deliberately independent of the engine: every query is answered by
evaluating the theory axiom with ``world.eval_formula`` (the package's one
naive first-order semantics) on every completion from
``enumerate_completions``, and, for the free-Ab bound, on every abnormal
set in ascending cardinality.  No grounding, no constant folding, no
component decomposition, no closed forms.  Small worlds only: more than
ORACLE_MAX_UNKNOWNS unknown atoms raise EnumerationCapError.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .formula import Formula, Hypothesis
from .theory import TheorySpec
from .world import Completion, World, enumerate_completions, eval_formula

ORACLE_MAX_UNKNOWNS = 16


def _regime_completions(regime, world: World) -> tuple[str, list[Completion]]:
    """The regime's name and all completions of the world; a fully observed
    world has exactly one, the empty completion."""
    regime = str(getattr(regime, "value", regime))
    if regime == "full" and world.num_unknowns():
        raise ValueError("full regime requires a fully observed world")
    return regime, list(enumerate_completions(world, cap=ORACLE_MAX_UNKNOWNS))


def world_valid(regime, theory: TheorySpec, world: World, alpha: Hypothesis) -> bool:
    regime, completions = _regime_completions(regime, world)
    results = [eval_formula(world, c, {}, theory.axiom, ab_rule=alpha) for c in completions]
    return any(results) if regime == "partial" else all(results)


def validity(regime, theory: TheorySpec, worlds: Sequence[World], alpha: Hypothesis) -> bool:
    return all(world_valid(regime, theory, w, alpha) for w in worlds)


def _abnormal_count(alpha: Formula, world: World, completion: Completion) -> int:
    return sum(eval_formula(world, completion, {"x": a}, alpha) for a in world.elements())


def world_cost(regime, theory: TheorySpec, world: World, alpha: Hypothesis) -> int:
    """Per-world abnormality count; caller must have established validity."""
    regime, completions = _regime_completions(regime, world)
    counts = [
        _abnormal_count(alpha.formula, world, c)
        for c in completions
        if regime != "partial" or eval_formula(world, c, {}, theory.axiom, ab_rule=alpha)
    ]
    if not counts:
        raise ValueError("cost undefined: no completion satisfies the repaired theory")
    return max(counts) if regime == "skeptical" else min(counts)


def cost(regime, theory: TheorySpec, worlds: Sequence[World], alpha: Hypothesis) -> int:
    return sum(world_cost(regime, theory, w, alpha) for w in worlds)


def _min_ab_size(theory: TheorySpec, world: World, completions: list[Completion], mode: str) -> int:
    """Smallest abnormal set satisfying the axiom, by ascending cardinality;
    mode "all" needs every given completion to hold, "any" needs one."""
    holds = all if mode == "all" else any
    for k in range(world.n + 1):
        for combo in itertools.combinations(world.elements(), k):
            abnormal = frozenset(combo)
            if holds(eval_formula(world, c, {}, theory.axiom, abnormal=abnormal) for c in completions):
                return k
    raise AssertionError("unreachable: the full domain always satisfies the default")


def world_opt_cost(regime, theory: TheorySpec, world: World, variant: str = "pointwise") -> int:
    regime, completions = _regime_completions(regime, world)
    if regime != "skeptical":
        return _min_ab_size(theory, world, completions, "any")
    if variant == "uniform":
        return _min_ab_size(theory, world, completions, "all")
    return max(_min_ab_size(theory, world, [c], "any") for c in completions)


def opt_cost(regime, theory: TheorySpec, worlds: Sequence[World], variant: str = "pointwise") -> int:
    return sum(world_opt_cost(regime, theory, w, variant=variant) for w in worlds)
