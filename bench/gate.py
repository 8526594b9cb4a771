"""Engine-versus-oracle agreement on a seeded sample of the run's worlds.

The naive oracle enumerates completions and abnormal sets literally, so
the sample keeps at most ORACLE_UNKNOWNS unknown atoms per world: a
sampled world with more has the surplus revealed from the hidden truth
the instance records.  That keeps skeptical worlds (10-14 unknowns as
generated) in the sample at a cost of about a second per run.
"""

from __future__ import annotations

from random import Random

from abduce import oracle
from abduce.engine import cost, opt_cost, validity
from abduce.generator import gold_mutants, tier1_formulas, tier2_formulas
from abduce.world import World

import inputs

ORACLE_UNKNOWNS = 6
SAMPLE_WORLDS = 6


def _reveal(world: World, hidden: dict, keep: int, rng: Random) -> World:
    order = world.unknown_order()
    if len(order) <= keep:
        return world
    kept = set(rng.sample(range(len(order)), keep))
    true = {p: set(world.true_atoms[p]) for p in world.true_atoms}
    unknown = {p: set() for p in world.unknown_atoms}
    for i, (pred, atom) in enumerate(order):
        if i in kept:
            unknown[pred].add(atom)
        elif list(atom) in hidden.get(pred, []):
            true[pred].add(atom)
    return World(world.n, true, unknown)


def sample_worlds(instances, seed: int):
    """(instance, world) pairs: up to SAMPLE_WORLDS, spread over regimes."""
    rng = Random(inputs.derive_seed("oracle-sample", seed))
    by_regime = {}
    for inst in instances:
        prov = inst.provenance
        pairs = list(zip(inst.train_worlds, prov.get("masked_truth", [])))
        pairs += list(zip(inst.holdout_worlds, prov.get("holdout_masked_truth", [])))
        by_regime.setdefault(inst.scenario, []).extend((inst, w, h) for w, h in pairs)
    picked = []
    regimes = sorted(by_regime)
    while len(picked) < SAMPLE_WORLDS and any(by_regime.values()):
        for regime in regimes:
            pool = by_regime[regime]
            if pool and len(picked) < SAMPLE_WORLDS:
                inst, world, hidden = pool.pop(rng.randrange(len(pool)))
                picked.append((inst, _reveal(world, hidden, ORACLE_UNKNOWNS, rng)))
    return picked, rng


def oracle_problems(instances, seed: int) -> tuple[list[str], int]:
    """Mismatches between engine and oracle, and the number of comparisons."""
    picked, rng = sample_worlds(instances, seed)
    problems, compared = [], 0
    for inst, world in picked:
        theory, regime = inst.theory, inst.regime
        pool = tier1_formulas(theory) + tier2_formulas(theory)
        hyps = [inst.gold] + rng.sample(pool, 2) + gold_mutants(inst.gold, theory, rng, count=1)
        variants = ("pointwise", "uniform") if regime.value == "skeptical" else ("pointwise",)
        for variant in variants:
            e, o = opt_cost(regime, theory, world, variant=variant), oracle.world_opt_cost(regime, theory, world, variant)
            compared += 1
            if e != o:
                problems.append(f"{inst.id}: opt_cost {variant} engine={e} oracle={o}")
        for h in hyps:
            e_valid = validity(regime, theory, [world], h).valid
            o_valid = oracle.world_valid(regime, theory, world, h)
            compared += 1
            if e_valid != o_valid:
                problems.append(f"{inst.id}: validity of {h.formula} engine={e_valid} oracle={o_valid}")
            elif e_valid:
                e_cost = cost(regime, theory, [world], h).total
                o_cost = oracle.world_cost(regime, theory, world, h)
                compared += 1
                if e_cost != o_cost:
                    problems.append(f"{inst.id}: cost of {h.formula} engine={e_cost} oracle={o_cost}")
    return problems, compared
