"""Golden-file test: a pinned generated dataset and its rendered prompts.

The hashes pin generation (gold sampling, mutation order, world sampling,
holdout search) and rendering (formulas, worlds, prompt templates) byte for
byte.  A change that alters either must do so on purpose: bump
FORMAT_VERSION, regenerate, and update the hashes here.
"""

import hashlib

from abduce.dataset import FORMAT_VERSION, save_dataset
from abduce.generator import GenParams, generate_batch
from abduce.prompts import render_prompt

GOLDEN_MIX = (("full", "T1", 2), ("partial", "T2", 2), ("skeptical", "T6", 1))
GOLDEN_SEED = 7
DATASET_SHA256 = "df5fc1df786d0058817d26bcabde47ba0b4ab9c67b6c20e716479a0f8d4fbf23"
PROMPTS_SHA256 = "65db8cc0b87aa536b4fd30e32d18ca95fd13b23119286225c31102143b7fc325"


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
