import random
from collections import Counter
from dataclasses import replace

import pytest

from abduce.engine import Regime, cost, opt_cost, validity
from abduce.formula import formula_metrics, free_variables, predicates_used, render_formula
from abduce.generator import (
    GenParams,
    GoldSampler,
    audit_instance,
    build_competitor_pool,
    cheater_pool,
    generate_batch,
    generate_holdouts,
    generate_instance,
    gold_mutants,
    holdout_seed,
    refine_gold,
    sample_gold,
    tier1_formulas,
    tier2_formulas,
    _AcceptedWorld,
    _EvalCache,
)
from abduce.theory import THEORY_IDS, builtin_theory
from abduce.world import World, worlds_equivalent

T1 = builtin_theory("T1")


class TestGoldSampler:
    def test_scope_and_size(self):
        rng = random.Random(3)
        sampler = GoldSampler()
        for tid in THEORY_IDS:
            spec = builtin_theory(tid)
            for _ in range(40):
                hyp, name = sampler.draw(spec, rng)
                m = formula_metrics(hyp.formula)
                assert 5 <= m.ast_size <= 30
                assert predicates_used(hyp.formula) <= spec.allowed
                assert free_variables(hyp.formula) == {"x"}

    def test_diversity_cap(self):
        rng = random.Random(9)
        sampler = GoldSampler(0.15)
        for _ in range(100):
            sample_gold(T1, rng, sampler)
        assert sampler.total == 100
        assert max(sampler.counts.values()) <= 15

    def test_no_q_in_t1_golds(self):
        rng = random.Random(5)
        for _ in range(50):
            hyp = sample_gold(T1, rng)
            assert "Q" not in predicates_used(hyp.formula)


class TestPools:
    def test_pool_size_and_scope(self):
        rng = random.Random(1)
        for tid in THEORY_IDS:
            spec = builtin_theory(tid)
            gold = sample_gold(spec, rng)
            pool = build_competitor_pool(spec, gold, rng)
            assert len(pool.entries) <= 30
            for hyp, tier in pool.entries:
                assert tier in ("tier1", "tier2", "mutant")
                assert predicates_used(hyp.formula) <= spec.allowed

    def test_t1_pool_excludes_q(self):
        rng = random.Random(2)
        gold = sample_gold(T1, rng)
        pool = build_competitor_pool(T1, gold, rng)
        for hyp, _ in pool.entries:
            assert "Q" not in predicates_used(hyp.formula)

    def test_mutant_count(self):
        rng = random.Random(4)
        gold = sample_gold(T1, rng)
        mutants = gold_mutants(gold, T1, rng, count=10)
        assert len(mutants) <= 10
        gold_text = render_formula(gold.formula)
        assert all(render_formula(m.formula) != gold_text for m in mutants)
        pool = build_competitor_pool(T1, gold, rng)
        assert sum(1 for _, t in pool.entries if t == "mutant") <= 10

    def test_tier1_contents(self):
        texts = {render_formula(h.formula) for h in tier1_formulas(T1)}
        assert "(P x)" in texts
        assert "(not (P x))" in texts
        assert "(R x x)" in texts
        assert "(exists y (R x y))" in texts
        assert "(or (P x) (not (P x)))" in texts

    def test_tier2_extensible(self):
        base = {render_formula(h.formula) for h in tier2_formulas(T1)}
        extended = {
            render_formula(h.formula)
            for h in tier2_formulas(T1, extra=("(and (P x) (R x x))",))
        }
        assert "(and (P x) (R x x))" in extended - base
        assert "(exists y (and (R x y) (P y)))" in base

    def test_cheaters_scope_filtered(self):
        for tid in THEORY_IDS:
            spec = builtin_theory(tid)
            for h in cheater_pool(spec):
                assert predicates_used(h.formula) <= spec.allowed


def tiny_instance(scenario="full", theory_id="T1", seed=3, **kw):
    params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, **kw)
    return params, generate_instance(params, index=0)


class TestGenerateInstance:
    def test_full_instance_passes_audit(self):
        params, rec = tiny_instance("full", "T1")
        assert audit_instance(rec, params) == []
        assert rec.scenario == "full" and rec.internal_id == "TH2"
        assert all(w.num_unknowns() == 0 for w in rec.train_worlds)

    def test_partial_instance_passes_audit(self):
        params, rec = tiny_instance("partial", "T3", seed=12)
        assert audit_instance(rec, params) == []
        assert any(w.num_unknowns() > 0 for w in rec.train_worlds)

    def test_skeptical_shares_domain_size(self):
        params, rec = tiny_instance("skeptical", "T6", seed=8, world_attempts=400)
        assert audit_instance(rec, params) == []
        sizes = {w.n for w in rec.train_worlds}
        assert len(sizes) == 1 and sizes <= {10, 11, 12}

    def test_gold_valid_and_cached_costs(self):
        params, rec = tiny_instance("full", "T4", seed=5)
        regime, theory = rec.regime, rec.theory
        assert validity(regime, theory, rec.train_worlds, rec.gold).valid
        for i, w in enumerate(rec.train_worlds):
            assert cost(regime, theory, [w], rec.gold).total == rec.train_gold_costs[i]
            assert opt_cost(regime, theory, w) == rec.train_opt_costs[i]

    def test_zero_survivors_on_acceptance(self):
        params, rec = tiny_instance("full", "T5", seed=21)
        final_round = rec.provenance["elimination_log"][-1]
        assert final_round["survivors"] == []

    def test_determinism(self):
        params1, rec1 = tiny_instance("full", "T1", seed=33)
        params2, rec2 = tiny_instance("full", "T1", seed=33)
        assert rec1.id == rec2.id
        assert render_formula(rec1.gold.formula) == render_formula(rec2.gold.formula)
        assert len(rec1.train_worlds) == len(rec2.train_worlds)
        for w1, w2 in zip(rec1.train_worlds, rec2.train_worlds):
            assert worlds_equivalent(w1, w2)

    def test_audit_catches_tampering(self):
        params, rec = tiny_instance("full", "T1", seed=3)
        from dataclasses import replace

        bad = replace(rec, train_gold_costs=tuple(c + 1 for c in rec.train_gold_costs))
        assert any("cached gold cost" in v for v in audit_instance(bad, params))


class TestRefineGold:
    def _accepted(self, params, rec):
        return [
            _AcceptedWorld(w, {}, o, g, o, g)
            for w, o, g in zip(rec.train_worlds, rec.train_opt_costs, rec.train_gold_costs)
        ]

    def test_fallback_to_seed(self):
        params, rec = tiny_instance("full", "T1", seed=3)
        rng = random.Random(0)
        cheaters = cheater_pool(rec.theory)
        refined = refine_gold(rec.theory, self._accepted(params, rec), rec.gold, params, rng, cheaters)
        # the refined gold is never worse than the seed under the selection key
        cache = _EvalCache(rec.regime, rec.theory, 24)
        seed_total = cache.total_cost(rec.train_worlds, rec.gold)
        new_total = cache.total_cost(rec.train_worlds, refined)
        assert new_total is not None and new_total <= seed_total

    def test_smaller_ast_wins_ties(self):
        params, rec = tiny_instance("full", "T1", seed=3)
        rng = random.Random(0)
        refined = refine_gold(rec.theory, self._accepted(params, rec), rec.gold, params, rng, [])
        cache = _EvalCache(rec.regime, rec.theory, 24)
        if render_formula(refined.formula) != render_formula(rec.gold.formula):
            same_cost = cache.total_cost(rec.train_worlds, refined) == cache.total_cost(
                rec.train_worlds, rec.gold
            )
            if same_cost:
                assert (
                    formula_metrics(refined.formula).ast_size
                    <= formula_metrics(rec.gold.formula).ast_size
                )

    def test_refined_instance_still_audits(self):
        params = GenParams(scenario="full", theory_id="T2", global_seed=17, refine=True)
        rec = generate_instance(params, index=0)
        assert audit_instance(rec, params) == []


class TestHoldouts:
    def test_seed_formula(self):
        import hashlib

        s = holdout_seed("data/abd.jsonl", "full_T1_s7_0003", 2, 7)
        payload = "data/abd.jsonl|full_T1_s7_0003|2|7".encode()
        assert s == int(hashlib.sha256(payload).hexdigest(), 16) % (1 << 31)
        assert 0 <= s < 2**31

    def test_deterministic_regeneration(self):
        params, rec = tiny_instance("full", "T1", seed=3)
        h1 = generate_holdouts(rec, "a.jsonl", 3, params=params)
        h2 = generate_holdouts(rec, "a.jsonl", 3, params=params)
        assert h1.holdout_available == h2.holdout_available
        for w1, w2 in zip(h1.holdout_worlds, h2.holdout_worlds):
            assert worlds_equivalent(w1, w2)

    def test_different_path_changes_worlds(self):
        params, rec = tiny_instance("full", "T1", seed=3)
        h1 = generate_holdouts(rec, "a.jsonl", 3, params=params)
        h2 = generate_holdouts(rec, "b.jsonl", 3, params=params)
        if h1.holdout_available and h2.holdout_available:
            assert not all(
                worlds_equivalent(w1, w2)
                for w1, w2 in zip(h1.holdout_worlds, h2.holdout_worlds)
            )

    def test_holdout_filters(self):
        params, rec = tiny_instance("full", "T2", seed=11)
        held = generate_holdouts(rec, "c.jsonl", 11, params=params)
        if not held.holdout_available:
            pytest.skip("instance drew no holdouts at this seed")
        assert len(held.holdout_worlds) == params.holdout_count
        lo, hi = min(rec.train_gold_costs), max(rec.train_gold_costs)
        gaps = [g - o for g, o in zip(rec.train_gold_costs, rec.train_opt_costs)]
        for hw, opt, gc in zip(held.holdout_worlds, held.holdout_opt_costs, held.holdout_gold_costs):
            assert not any(worlds_equivalent(hw, tw) for tw in rec.train_worlds)
            assert validity(rec.regime, rec.theory, [hw], rec.gold).valid
            assert lo <= gc <= hi
            assert min(gaps) <= gc - opt <= max(gaps)
        assert audit_instance(held, params) == []


@pytest.fixture(scope="module")
def held_instance():
    """A full T1 instance whose five holdout slots all succeed."""
    params = GenParams(scenario="full", theory_id="T1", global_seed=1774141687)
    rec = generate_batch(params, 1, dataset_path="bench.jsonl")[0]
    assert rec.holdout_available and len(rec.holdout_worlds) == 5
    return params, rec


class TestHoldoutBookkeeping:
    def test_zero_slots_means_no_holdouts(self, held_instance):
        params, rec = held_instance
        zero = replace(params, holdout_count=0)
        none = generate_holdouts(rec, "bench.jsonl", params.global_seed, params=zero)
        assert not none.holdout_available and none.holdout_worlds == ()
        assert audit_instance(none, params, pools=False) == []

    def test_negative_holdout_count_rejected(self):
        with pytest.raises(ValueError, match="holdout_count"):
            GenParams(scenario="full", theory_id="T1", holdout_count=-1)

    def test_clean_instance_audits_clean(self, held_instance):
        params, rec = held_instance
        assert audit_instance(rec, params, pools=False) == []

    def test_audit_flags_wrong_cached_holdout_costs(self, held_instance):
        params, rec = held_instance
        golds = list(rec.holdout_gold_costs)
        golds[2] += 5
        opts = list(rec.holdout_opt_costs)
        opts[0] += 1
        bad = replace(rec, holdout_gold_costs=tuple(golds), holdout_opt_costs=tuple(opts))
        out = audit_instance(bad, params, pools=False)
        assert f"holdout2: cached gold cost {golds[2]} != {golds[2] - 5}" in out
        assert f"holdout0: cached opt {opts[0]} != {opts[0] - 1}" in out

    def test_audit_flags_cached_cost_lengths(self, held_instance):
        params, rec = held_instance
        bad = replace(
            rec, holdout_opt_costs=rec.holdout_opt_costs[:1], train_gold_costs=rec.train_gold_costs[:-1]
        )
        out = audit_instance(bad, params, pools=False)
        assert "holdout: 1 cached opt cost(s) for 5 world(s)" in out
        n = len(rec.train_worlds)
        assert f"train: {n - 1} cached gold cost(s) for {n} world(s)" in out

    def test_audit_flags_available_without_worlds(self, held_instance):
        params, rec = held_instance
        bad = replace(rec, holdout_worlds=(), holdout_opt_costs=(), holdout_gold_costs=())
        assert bad.holdout_available
        out = audit_instance(bad, params, pools=False)
        assert out == ["holdouts: flagged available but there are no holdout worlds"]


class TestCachesByValue:
    def test_eval_cache_entry_dies_with_its_world(self):
        import gc

        from abduce.engine import clear_caches
        from abduce.formula import parse_hypothesis

        cache = _EvalCache(Regime.FULL, T1, 24)
        world = World(3, {"P": {1}, "R": {(0, 1)}})
        cache.world_eval(world, parse_hypothesis("(P x)", T1.allowed))
        assert len(cache.memo) == 1
        del world
        clear_caches()  # the engine's own caches hold worlds too
        gc.collect()
        assert len(cache.memo) == 0

    def test_custom_theories_sharing_an_id_do_not_share_pools(self):
        from abduce.theory import custom_theory

        narrow = custom_theory("(P x)", "(Q x)", allowed={"P"})
        wide = custom_theory("(P x)", "(Q x)", allowed={"P", "R", "S"})
        assert narrow.short_id == wide.short_id
        sampler = GoldSampler()
        assert sampler.applicable_templates(narrow) == ()  # one unary predicate, no binary
        assert sampler.applicable_templates(wide) != ()


def _pool_theories():
    from abduce.theory import custom_theory

    narrow = custom_theory("(P x)", "(Q x)", allowed={"P"})
    wide = custom_theory("(P x)", "(Q x)", allowed={"P", "R", "S"})
    return [builtin_theory(tid) for tid in THEORY_IDS] + [narrow, wide]


class TestStaticPool:
    """The tier-1, tier-2 and cheater lists are built once per theory; these
    pin them to the uncached definitions they replace."""

    @staticmethod
    def _fresh(theory, extra=()):
        from abduce.generator import TIER2_PATTERNS, _distinct, _tier1_texts, _try_scope

        tier1 = _distinct(_try_scope(t, theory) for t in _tier1_texts(theory))
        tier2 = _distinct(_try_scope(t, theory) for t in (*TIER2_PATTERNS, *extra))
        return tier1, tier2, _distinct(tier1 + tier2)

    @pytest.mark.parametrize("theory", _pool_theories(), ids=lambda t: f"{t.short_id}-{''.join(sorted(t.allowed))}")
    def test_cached_lists_equal_a_fresh_build(self, theory):
        tier1, tier2, cheaters = self._fresh(theory)
        for _ in range(2):  # the second round reads the cache
            assert tier1_formulas(theory) == tier1
            assert tier2_formulas(theory) == tier2
            assert cheater_pool(theory) == cheaters

    def test_custom_theories_sharing_an_id_get_their_own_pools(self):
        narrow, wide = _pool_theories()[-2:]
        assert narrow.short_id == wide.short_id == "custom"
        assert cheater_pool(wide) == self._fresh(wide)[2]
        assert cheater_pool(narrow) == self._fresh(narrow)[2]
        assert cheater_pool(narrow) != cheater_pool(wide)

    def test_returned_lists_are_fresh(self):
        for get in (tier1_formulas, tier2_formulas, cheater_pool):
            first = get(T1)
            expected = list(first)
            first.clear()
            assert get(T1) == expected and expected

    def test_extra_tier2_is_cached_apart(self):
        extra = ("(and (P x) (R x x))",)
        plain = tier2_formulas(T1)
        with_extra = tier2_formulas(T1, extra=extra)
        assert with_extra == self._fresh(T1, extra)[1]
        assert len(with_extra) == len(plain) + 1
        assert tier2_formulas(T1) == plain
        assert cheater_pool(T1, extra) == self._fresh(T1, extra)[2]
        assert cheater_pool(T1) == self._fresh(T1)[2]

    @pytest.mark.parametrize("tid", THEORY_IDS)
    def test_pool_equals_reference_build(self, tid):
        from abduce.generator import _distinct

        theory = builtin_theory(tid)
        for seed in range(20):
            gold = sample_gold(theory, random.Random(seed))
            pool_cap = 30 if seed % 2 else 12
            tiers = (
                ("tier1", tier1_formulas(theory)),
                ("tier2", tier2_formulas(theory)),
                ("mutant", gold_mutants(gold, theory, random.Random(1000 + seed), count=10)),
            )
            expected = _distinct(((h, t) for t, hs in tiers for h in hs), lambda e: e[0])[:pool_cap]
            pool = build_competitor_pool(theory, gold, random.Random(1000 + seed), pool_cap)
            assert list(pool.entries) == expected

    @pytest.mark.parametrize("tid", THEORY_IDS)
    def test_gold_mutants_match_per_try_node_lists(self, tid):
        from abduce.formula import subformulas
        from abduce.generator import _mutate_once, _try_scope

        def reference(gold, theory, rng, count=10):
            seen = {render_formula(gold.formula)}
            out = []
            for _ in range(12 * count):
                if len(out) >= count:
                    break
                nodes = list(subformulas(gold.formula))
                mutated = _mutate_once(gold.formula, nodes, rng, theory.allowed)
                key = render_formula(mutated)
                if key in seen:
                    continue
                seen.add(key)
                h = _try_scope(mutated, theory)
                if h is not None:
                    out.append(h)
            return out

        theory = builtin_theory(tid)
        for seed in range(10):
            gold = sample_gold(theory, random.Random(seed))
            ours, theirs = random.Random(seed), random.Random(seed)
            assert gold_mutants(gold, theory, ours) == reference(gold, theory, theirs)
            assert ours.getstate() == theirs.getstate()
