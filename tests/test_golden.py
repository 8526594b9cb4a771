"""Golden-file tests: a pinned generated dataset, its rendered prompts, and
the engine's outputs over a fixed-seed sweep.

The hashes pin generation (gold sampling, mutation order, world sampling,
holdout search) and rendering (formulas, worlds, prompt templates) byte for
byte.  A change that alters either must do so on purpose: bump
FORMAT_VERSION, regenerate, and update the hashes here.  The engine hash
pins what the oracle tests do not compare: which completion each verdict
names as its witness.
"""

import hashlib
import json
import random

from abduce.dataset import FORMAT_VERSION, save_dataset
from abduce.engine import cost, opt_cost, validity
from abduce.formula import validate_hypothesis
from abduce.generator import GenParams, generate_batch
from abduce.prompts import render_prompt
from abduce.theory import THEORY_IDS, builtin_theory

from conftest import random_hypothesis_formula, random_world

GOLDEN_MIX = (("full", "T1", 2), ("partial", "T2", 2), ("skeptical", "T6", 1))
GOLDEN_SEED = 7
DATASET_SHA256 = "df5fc1df786d0058817d26bcabde47ba0b4ab9c67b6c20e716479a0f8d4fbf23"
PROMPTS_SHA256 = "65db8cc0b87aa536b4fd30e32d18ca95fd13b23119286225c31102143b7fc325"
# One full and one partial instance whose every holdout slot succeeds, so
# the holdout search and the masking of holdout worlds are pinned too.
HOLDOUT_MIX = (("full", "T1", 1774141687), ("partial", "T2", 1368756048))
HOLDOUT_SHA256 = "c2385dfa60172452c9261aaf68caed6dc83cdfb10fc65e582b4e8d5ba7b7c420"
ENGINE_SEED = 20261018
ENGINE_CASES = 300
ENGINE_SHA256 = "5e9f2b2f63e3935ceb0a69a5a5d8e938cc2c1e1b6bc1d1fa7ce98eeb65dbc2eb"


def _golden(tmp_path):
    params_list = [
        GenParams(scenario=s, theory_id=t, global_seed=GOLDEN_SEED, world_attempts=1500)
        for s, t, _ in GOLDEN_MIX
    ]
    records = []
    for params, (_, _, count) in zip(params_list, GOLDEN_MIX):
        records.extend(generate_batch(params, count, dataset_path="golden.jsonl"))
    path = tmp_path / "golden.jsonl"
    save_dataset(records, str(path), params_list, global_seed=GOLDEN_SEED)
    return records, path.read_bytes()


def test_golden_dataset_and_prompts(tmp_path):
    records, data = _golden(tmp_path)
    assert FORMAT_VERSION == 1
    assert hashlib.sha256(data).hexdigest() == DATASET_SHA256
    prompts = hashlib.sha256()
    for rec in records:
        bundle = render_prompt(rec)
        prompts.update(bundle.system_prompt.encode() + b"\0" + bundle.user_prompt.encode() + b"\0")
    assert prompts.hexdigest() == PROMPTS_SHA256


def test_golden_holdout_dataset(tmp_path):
    params_list = [GenParams(scenario=s, theory_id=t, global_seed=seed) for s, t, seed in HOLDOUT_MIX]
    records = []
    for params in params_list:
        records.extend(generate_batch(params, 1, dataset_path="bench.jsonl"))
    assert all(rec.holdout_available and rec.holdout_worlds for rec in records)
    path = tmp_path / "holdouts.jsonl"
    save_dataset(records, str(path), params_list, global_seed=0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HOLDOUT_SHA256


def _engine_sweep():
    """validity (per-world verdicts and witness), cost and both opt_cost
    variants over seeded cases: n 1-8, 1-3 worlds, up to 12 unknown atoms
    (unary ones included) outside the full regime, every theory."""
    rng = random.Random(ENGINE_SEED)
    rows = []
    for i in range(ENGINE_CASES):
        regime = ("full", "partial", "skeptical")[i % 3]
        spec = builtin_theory(rng.choice(THEORY_IDS))
        worlds = [
            random_world(rng, n_range=(1, 8), max_unknowns=0 if regime == "full" else 12)
            for _ in range(rng.randint(1, 3))
        ]
        alpha = validate_hypothesis(
            random_hypothesis_formula(rng, sorted(spec.allowed)), spec.allowed, spec.forbidden
        )
        verdict = validity(regime, spec, worlds, alpha)
        row = {"per_world": verdict.per_world_valid, "witness_world": verdict.witness_world, "witness": None}
        if verdict.witness is not None:
            order = worlds[verdict.witness_world].unknown_order()
            row["witness"] = [[p, a, verdict.witness.value(p, a)] for p, a in order]
        if verdict.valid:
            row["cost"] = cost(regime, spec, worlds, alpha).per_world_cost
        for variant in ("pointwise", "uniform"):
            row[variant] = [opt_cost(regime, spec, w, variant=variant) for w in worlds]
        rows.append(row)
    return rows


def test_golden_engine_outputs():
    rows = _engine_sweep()
    assert sum(row["witness"] is not None for row in rows) > 100
    data = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(data).hexdigest() == ENGINE_SHA256
