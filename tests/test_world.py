import json
import random

import numpy as np
import pytest

from abduce import engine
from abduce.dataset import DatasetError, load_dataset, save_dataset
from abduce.formula import parse_formula, parse_hypothesis
from abduce.generator import GenParams, generate_batch
from abduce.world import (
    DENSITY_RANGES,
    DOMAIN_SIZES,
    Completion,
    EnumerationCapError,
    EvalError,
    World,
    enumerate_completions,
    eval_formula,
    _sample_range,
    sample_world,
    worlds_equivalent,
)
from abduce.theory import UNKNOWN_RATES

from conftest import random_world


class TestWorld:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            World(3, {"R": {(0, 1)}}, {"R": {(0, 1)}})

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            World(3, {"P": {3}})

    @pytest.mark.parametrize(
        "atoms",
        [{"R": {5}}, {"P": {(1, 2)}}, {"P": {1.5}}, {"P": {"1"}}, {"P": {-1}},
         {"R": {(0, 3)}}, {"R": [[0, 1, 2]]}, {"R": {"01"}}, {"P": [[1]]}, {"S": [None]}],
    )
    def test_malformed_atom_rejected(self, atoms):
        pred = next(iter(atoms))
        with pytest.raises(ValueError, match=f"^{pred}: "):
            World(3, atoms)
        with pytest.raises(ValueError, match=f"^{pred}: "):
            World(3, {}, atoms)

    def test_equal_atoms_stored_as_canonical_python_objects(self):
        w = World(3, {"P": {np.int64(2), True}, "Q": {1.0}, "R": [[0, 2], (np.int32(1), 1)]})
        assert w.true_atoms["P"] == {1, 2} and w.true_atoms["Q"] == {1}
        assert w.true_atoms["R"] == {(0, 2), (1, 1)}
        assert all(type(a) is int for p in "PQ" for a in w.true_atoms[p])
        assert all(type(a) is tuple and all(type(i) is int for i in a) for a in w.true_atoms["R"])

    def test_worlds_share_atom_objects(self):
        w1 = World(4, {"P": {3}, "R": {(1, 2)}}, {"S": [[0, 3]]})
        w2 = World(4, {"P": [np.int64(3)], "S": {(0, 3)}}, {"R": [[1, 2]]})
        assert next(iter(w1.true_atoms["R"])) is next(iter(w2.unknown_atoms["R"]))
        assert next(iter(w1.unknown_atoms["S"])) is next(iter(w2.true_atoms["S"]))
        assert next(iter(w1.true_atoms["P"])) is next(iter(w2.true_atoms["P"]))

    def test_unknown_order_sorted(self):
        w = World(3, {}, {"S": {(2, 0), (0, 1)}, "R": {(1, 2)}, "P": {2}})
        assert w.unknown_order() == [("P", 2), ("R", (1, 2)), ("S", (0, 1)), ("S", (2, 0))]


class TestEval:
    def test_reflexive_equality(self):
        w = World(2)
        assert eval_formula(w, None, {"x": 0}, parse_formula("(= x x)"))

    def test_empty_relation_exists_false(self):
        w = World(3, {"P": {0}})
        assert not eval_formula(w, None, {"x": 0}, parse_formula("(exists y (R x y))"))

    def test_worked_full_example(self):
        w = World(2, {"P": {0, 1}, "Q": {1}})
        alpha = parse_formula("(and (P x) (not (Q x)))")
        assert eval_formula(w, None, {"x": 0}, alpha)
        assert not eval_formula(w, None, {"x": 1}, alpha)

    def test_closed_world_total_without_completion(self):
        rng = random.Random(3)
        f = parse_formula("(forall y (or (not (R x y)) (exists z (S y z))))")
        for _ in range(50):
            w = random_world(rng, max_unknowns=0)
            r1 = eval_formula(w, None, {"x": 0}, f)
            r2 = eval_formula(w, Completion({}), {"x": 0}, f)
            assert r1 == r2

    def test_unknown_needs_completion(self):
        w = World(2, {}, {"R": {(0, 1)}})
        with pytest.raises(EvalError, match="completion"):
            eval_formula(w, None, {"x": 0}, parse_formula("(exists y (R x y))"))

    def test_unbound_variable(self):
        w = World(2)
        with pytest.raises(EvalError, match="unbound"):
            eval_formula(w, None, {}, parse_formula("(P x)"))

    def test_ab_requires_rule(self):
        w = World(2, {"P": {0}})
        axiom = parse_formula("(Ab x)")
        with pytest.raises(EvalError, match="ab_rule"):
            eval_formula(w, None, {"x": 0}, axiom)
        rule = parse_hypothesis("(P x)", {"P"})
        assert eval_formula(w, None, {"x": 0}, axiom, ab_rule=rule)
        assert not eval_formula(w, None, {"x": 1}, axiom, ab_rule=rule)

    def test_shadowed_binder_is_innermost(self):
        # outer y binding must be ignored inside the inner scope
        w = World(2, {"P": {1}, "R": {(0, 0)}})
        f = parse_formula("(exists y (and (R x y) (exists y (P y))))")
        assert eval_formula(w, None, {"x": 0}, f)
        f2 = parse_formula("(exists y (and (P y) (exists y (R x y))))")
        assert eval_formula(w, None, {"x": 0}, f2)


class TestEnumerate:
    def test_empty_unknowns_single_completion(self):
        w = World(2)
        comps = list(enumerate_completions(w))
        assert comps == [Completion({})]

    def test_three_unknowns(self):
        w = World(2, {}, {"R": {(0, 0), (0, 1)}, "S": {(1, 1)}})
        comps = list(enumerate_completions(w))
        assert len(comps) == 8
        assert all(v is False for v in comps[0].assignment.values())
        assert all(v is True for v in comps[-1].assignment.values())

    def test_all_distinct(self):
        rng = random.Random(5)
        for _ in range(20):
            w = random_world(rng, max_unknowns=8)
            comps = list(enumerate_completions(w))
            assert len(set(comps)) == 2 ** w.num_unknowns()

    def test_cap(self):
        w = World(5, {}, {"R": {(i, j) for i in range(5) for j in range(5)}})
        with pytest.raises(EnumerationCapError):
            list(enumerate_completions(w, cap=24))


class TestSample:
    def test_exact_true_counts(self):
        rng = random.Random(1)
        dens = DENSITY_RANGES["full"]
        for _ in range(1000):
            w = sample_world((9, 10, 11), dens, {}, rng)
            n = w.n
            for p, k in (("P", 1), ("Q", 1), ("R", 2), ("S", 2)):
                lo, hi = dens.ranges[p]
                count = len(w.true_atoms[p])
                assert max(1, int((n**k) * lo)) <= count <= max(1, int((n**k) * hi))
            assert w.num_unknowns() == 0

    def test_fixed_density_count_formula(self):
        from abduce.world import DensityRanges

        rng = random.Random(2)
        dens = DensityRanges({"P": (0.20, 0.20), "Q": (0.2, 0.2), "R": (0.12, 0.12), "S": (0.1, 0.1)})
        w = sample_world((9,), dens, {}, rng)
        assert len(w.true_atoms["P"]) == 1  # max(1, floor(9*0.2)) = 1
        dens = DensityRanges({"P": (0.2, 0.2), "Q": (0.2, 0.2), "R": (0.12, 0.12), "S": (0.12, 0.12)})
        w = sample_world((10,), dens, {}, rng)
        assert len(w.true_atoms["R"]) == 12  # floor(100*0.12)

    def test_skeptical_grid_masking_counts(self):
        rng = random.Random(3)
        rates = UNKNOWN_RATES["skeptical"]["T4"]
        for _ in range(50):
            w = sample_world((10, 11, 12), DENSITY_RANGES["skeptical"], rates, rng, mask_basis="grid")
            assert len(w.unknown_atoms["R"]) == round(0.05 * w.n * w.n)
            assert len(w.unknown_atoms["S"]) == round(0.05 * w.n * w.n)
            assert not w.unknown_atoms["P"] and not w.unknown_atoms["Q"]

    def test_partial_true_count_masking(self):
        rng = random.Random(4)
        rates = UNKNOWN_RATES["partial"]["T1"]
        for _ in range(50):
            w = sample_world((9, 10, 11), DENSITY_RANGES["partial"], rates, rng, mask_basis="true_count")
            # masked counts are small fractions of the sampled relations
            assert 0 <= len(w.unknown_atoms["R"]) <= round(0.20 * 0.25 * w.n * w.n) + 1
            assert w.num_unknowns() <= 16

    def test_determinism(self):
        rates = UNKNOWN_RATES["skeptical"]["T1"]
        w1 = sample_world((10, 11, 12), DENSITY_RANGES["skeptical"], rates, random.Random(99))
        w2 = sample_world((10, 11, 12), DENSITY_RANGES["skeptical"], rates, random.Random(99))
        assert worlds_equivalent(w1, w2)

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            sample_world((), DENSITY_RANGES["full"], {}, random.Random(0))

    @pytest.mark.parametrize(
        "ranges, problem",
        [
            ({"P": (0.2, 0.4), "X": (0.1, 0.2)}, "missing ['Q', 'R', 'S'], unknown ['X']"),
            ({"P": (0.2, 0.4), "Q": (0.2, 0.4), "R": (0.1, 0.2)}, "missing ['S'], unknown []"),
            (
                {"P": (0.2, 0.4), "Q": (0.2, 0.4), "R": (0.1, 0.2), "S": (0.1, 0.2), "Ab": (0.1, 0.2)},
                "missing [], unknown ['Ab']",
            ),
        ],
    )
    def test_density_ranges_need_exactly_the_observables(self, ranges, problem):
        from abduce.world import DensityRanges

        with pytest.raises(ValueError, match="must name exactly P, Q, R, S") as exc:
            DensityRanges(ranges)
        assert problem in str(exc.value)

    # Domain sizes and their grids, plus both sides of each n == setsize
    # boundary between the pool and the set branch (21, 85, 277), so an
    # off-by-one in either branch's choice changes some sample.
    @pytest.mark.parametrize(
        "n", [1, 2, 5, 9, 10, 11, 12, 20, 21, 22, 81, 84, 85, 86, 100, 121, 144, 277, 278, 400]
    )
    def test_sample_range_is_random_sample(self, n):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            for k in range(n + 1):
                assert _sample_range(rng, n, k) == ref.sample(range(n), k), (seed, k)
                assert rng.getstate() == ref.getstate(), (seed, k)

    @pytest.mark.parametrize("n, k", [(0, 1), (5, 6), (5, -1)])
    def test_sample_range_rejects_bad_k(self, n, k):
        with pytest.raises(ValueError, match="Sample larger"):
            _sample_range(random.Random(0), n, k)


class TestEquivalence:
    def test_reflexive(self):
        w = random_world(random.Random(6))
        assert worlds_equivalent(w, w)

    def test_size_differs(self):
        w1 = World(9, {"P": {0}})
        w2 = World(10, {"P": {0}})
        assert not worlds_equivalent(w1, w2)

    def test_unknown_sets_matter(self):
        w1 = World(4, {"P": {0}, "R": {(1, 2)}}, {"S": {(0, 0)}})
        w2 = World(4, {"P": {0}, "R": {(1, 2)}}, {"S": {(1, 1)}})
        w3 = World(4, {"P": {0}, "R": {(1, 2)}}, {"S": {(0, 0)}})
        assert not worlds_equivalent(w1, w2)
        assert worlds_equivalent(w1, w3)

    def test_domain_size_tables(self):
        assert DOMAIN_SIZES["full"] == (9, 10, 11)
        assert DOMAIN_SIZES["skeptical"] == (10, 11, 12)


class TestGeneratedWorlds:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
        params = GenParams(scenario="partial", theory_id="T2", global_seed=6)
        records = generate_batch(params, 1, dataset_path=str(path))
        caches = {name: getattr(engine, name).cache_info().currsize
                  for name in ("_world_arrays", "closed_world_extension", "_closed_violations",
                               "_world_grounding", "_alpha_grounding", "_bit_column")}
        save_dataset(records, str(path), [params], global_seed=6)
        return path, caches

    def test_generate_batch_leaves_engine_caches_empty(self, saved):
        _, caches = saved
        assert caches == dict.fromkeys(caches, 0)

    def test_bad_atom_in_dataset_is_a_dataset_error(self, saved, tmp_path):
        path, _ = saved
        header, line = path.read_text().splitlines()
        data = json.loads(line)
        data["train_worlds"][0]["true"]["R"].append(5)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(header + "\n" + json.dumps(data) + "\n")
        with pytest.raises(DatasetError, match="R: atom 5"):
            load_dataset(str(bad))
