"""Block screening of candidate worlds.

The generator draws candidate worlds _BLOCK at a time and screens each
block in one evaluator pass.  Its output must not depend on the block
size (5 puts block boundaries where the default 16 does not), and the
candidate stream must match a reference loop that builds and checks one
World at a time, down to the rng state it leaves.  The screen itself must
agree, world by world, with the engine's full-regime opt_cost, validity
and cost.
"""

from random import Random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from abduce import generator
from abduce.dataset import instance_to_json, world_to_json
from abduce.engine import Regime, cost, opt_cost, validity
from abduce.formula import free_variables, validate_hypothesis
from abduce.generator import MASK_BASIS, GenParams, _WorldAcceptor, generate_batch
from abduce.theory import THEORY_IDS, builtin_theory
from abduce.world import World, mask_world, sample_complete_world

from test_properties import formulas

# (scenario, theory, global seed): multi-world instances, retried
# attempts, and both holdout outcomes.
CASES = (
    ("full", "T1", 7),
    ("partial", "T2", 1),
    ("partial", "T2", 2),
    ("skeptical", "T4", 2),
    ("skeptical", "T6", 5),
)


def _instances(scenario, theory_id, seed):
    params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, world_attempts=1500)
    return [instance_to_json(r) for r in generate_batch(params, 1, dataset_path="blocks.jsonl")]


@pytest.mark.parametrize("scenario,theory_id,seed", CASES)
def test_block_size_does_not_change_instances(monkeypatch, scenario, theory_id, seed):
    default = _instances(scenario, theory_id, seed)
    for block in (1, 5):
        monkeypatch.setattr(generator, "_BLOCK", block)
        assert _instances(scenario, theory_id, seed) == default, f"block size {block}"


def _one_at_a_time(acceptor, rng, attempts):
    """Reference: draw, build and check one candidate world at a time."""
    params, theory = acceptor.params, acceptor.theory
    for _ in range(attempts):
        complete = sample_complete_world(acceptor.n_range, params.densities, rng)
        pre_opt = opt_cost(Regime.FULL, theory, complete)
        if pre_opt < 1 or pre_opt / complete.n > params.exception_cap:
            continue
        if not validity(Regime.FULL, theory, [complete], acceptor.gold).valid:
            continue
        pre_gold = cost(Regime.FULL, theory, [complete], acceptor.gold).total
        if pre_gold > pre_opt + params.gold_gap_slack:
            continue
        if params.scenario == "full":
            yield complete, {}, pre_opt, pre_gold, pre_opt, pre_gold
            continue
        masked, hidden = mask_world(complete, params.unknown_rates, rng, mask_basis=MASK_BASIS[params.scenario])
        if validity(acceptor.regime, theory, [masked], acceptor.gold).valid:
            gold_cost = cost(acceptor.regime, theory, [masked], acceptor.gold).total
            yield masked, hidden, opt_cost(acceptor.regime, theory, masked), gold_cost, pre_opt, pre_gold


@pytest.mark.parametrize("scenario,theory_id,seed", CASES)
def test_candidates_match_one_at_a_time_sampling(monkeypatch, scenario, theory_id, seed):
    """Draining the candidate stream yields the worlds, and leaves the rng
    in the state, of drawing and checking one candidate at a time, so the
    attempt budget counts candidates exactly."""
    params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, world_attempts=1500)
    rec = generate_batch(params, 1, with_holdouts=False)[0]
    acceptor = _WorldAcceptor(params, rec.gold, rec.provenance["shared_domain_size"])

    def drain(stream):
        rng = Random(seed)
        seen = [(world_to_json(w), hidden, *numbers) for w, hidden, *numbers in stream(rng)]
        return seen, rng.getstate()

    reference = drain(lambda rng: _one_at_a_time(acceptor, rng, 1203))
    assert reference[0], "the stream should accept some world"
    for block in (16, 5, 1):
        monkeypatch.setattr(generator, "_BLOCK", block)
        got = drain(lambda rng: (
            (aw.world, aw.hidden, aw.opt, aw.gold_cost, aw.pre_opt, aw.pre_gold_cost)
            for aw in acceptor.candidates(rng, 1203)
        ))
        assert got == reference, f"block size {block}"


@st.composite
def index_draws(draw, max_n=5, max_block=7):
    """(n, per-predicate row-major indices) draws of mixed domain sizes."""
    out = []
    for _ in range(draw(st.integers(1, max_block))):
        n = draw(st.integers(1, max_n))
        out.append((n, {
            p: sorted(draw(st.sets(st.integers(0, n**arity - 1))))
            for p, arity in (("P", 1), ("Q", 1), ("R", 2), ("S", 2))
        }))
    return out


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_screen_matches_engine_per_world(data):
    theory_id = data.draw(st.sampled_from(THEORY_IDS), label="theory")
    spec = builtin_theory(theory_id)
    formula = data.draw(formulas(sorted(spec.allowed)), label="gold")
    assume(free_variables(formula) == {"x"})
    gold = validate_hypothesis(formula, spec.allowed, spec.forbidden)
    draws = data.draw(index_draws(), label="draws")
    acceptor = _WorldAcceptor(GenParams(scenario="full", theory_id=theory_id), gold, None)
    for (n, idx), (opt, valid, gold_cost) in zip(draws, acceptor._screen(draws)):
        world = World(n, {
            "P": idx["P"], "Q": idx["Q"],
            "R": [divmod(i, n) for i in idx["R"]], "S": [divmod(i, n) for i in idx["S"]],
        })
        assert opt == opt_cost(Regime.FULL, spec, world)
        verdict = validity(Regime.FULL, spec, [world], gold)
        assert valid == verdict.valid
        if valid:
            assert gold_cost == cost(Regime.FULL, spec, [world], gold).total
