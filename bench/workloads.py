"""The three workloads: generate, score and verify.

Each workload is a closed loop with one caller: run.py calls repetition()
again only after the previous one returned.  A repetition samples or loads
its own World objects, so the engine's identity-keyed caches never hand
one repetition the results of another.  Work that checks outputs runs in
the repetition's `check`, outside the timed region.  A set-up calls
`step` between its phases, so run.py can time it phase by phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from abduce import cli, dataset, generator, prompts, scoring
from abduce.generator import GenerationError, GenParams

import inputs

# generate_batch derives holdout seeds from the dataset path, so every run
# passes the same name whatever file it writes.
DATASET_NAME = "bench.jsonl"
MODEL_ID = "bench-model"


@dataclass
class Repetition:
    """Timings of one repetition; `check` returns problems found in its output."""

    op_s: list[float]
    failures: list[str]
    timed_s: float
    units: int  # work units: instances (generate, verify) or prediction lines (score)
    key: object  # repetitions with equal keys do identical work on fresh objects
    check: Callable[[], list[str]] = lambda: []
    # generate only: the instance's accepted train + holdout worlds, whether
    # it got holdouts, and the instance attempts it took
    worlds: int = 0
    holdouts: bool = False
    attempts: int = 0


@dataclass
class Setup:
    digests: dict
    notes: dict = field(default_factory=dict)


def round_trip_problems(records, params_by_id, path) -> list[str]:
    """Save, load with the load-time check, and re-audit with pools on."""
    problems = []
    for rec in records:
        params = params_by_id.get(rec.id)
        dataset.save_dataset([rec], path, [params] if params else ())
        try:
            loaded = dataset.load_dataset(path, check=True)
        except ValueError as exc:
            problems.append(f"{rec.id}: load after save failed: {exc}")
            continue
        for v in generator.audit_instance(loaded[0], params):
            problems.append(f"{rec.id}: re-audit after round trip: {v}")
    return problems


def generate_dataset(per_combo: int, step):
    """The pinned corpus: records, their GenParams by instance id, and the
    GenParams list for inputs.DATASET_MIX.  Its seeds do not depend on the
    run's seed (see NOTES.md).  `step` is called after each combination."""
    records, params_by_id, params_list = [], {}, []
    for scenario, theory_id, extra in inputs.DATASET_MIX:
        seed = inputs.derive_seed("dataset", scenario, theory_id)
        params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, **extra)
        params_list.append(params)
        for rec in generator.generate_batch(params, per_combo, dataset_path=DATASET_NAME):
            records.append(rec)
            params_by_id[rec.id] = params
        step()
    return records, params_by_id, params_list


class GenerateWorkload:
    """generate_batch with holdouts, one instance per repetition, cycling
    through one pinned instance per inputs.GENERATE_MIX entry; the seed
    sets where the cycle starts."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.path = os.path.join(workdir, "generated.jsonl")
        self.first = {}  # slot -> (record, params, canonical JSON) of its first repetition

    def setup(self, step) -> Setup:
        # Warm-up: one pinned instance per closed and partial regime, so lazy
        # numpy and table set-up is done before the timed loop starts.
        digests = {}
        for scenario, theory_id, extra, _ in inputs.GENERATE_MIX[:2]:
            seed = inputs.derive_seed("warmup", scenario, theory_id)
            params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, **extra)
            records = generator.generate_batch(params, 1, dataset_path=DATASET_NAME)
            dataset.save_dataset(records, self.path, [params])
            digests[f"warmup_{scenario}_{theory_id}"] = inputs.sha256_file(self.path)
            step()
        return Setup(digests)

    def repetition(self, k: int) -> Repetition:
        slot = (k + self.seed) % len(inputs.GENERATE_MIX)
        scenario, theory_id, extra, seed = inputs.GENERATE_MIX[slot]
        params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, **extra)
        t0 = time.perf_counter()
        try:
            records = generator.generate_batch(params, 1, dataset_path=DATASET_NAME)
        except GenerationError as exc:
            dt = time.perf_counter() - t0
            return Repetition([dt], [type(exc).__name__], dt, 1, slot)
        dt = time.perf_counter() - t0
        rec = records[0]

        def check():
            text = json.dumps(dataset.instance_to_json(rec), sort_keys=True)
            if slot not in self.first:
                self.first[slot] = (rec, params, text)
                return round_trip_problems([rec], {rec.id: params}, self.path)
            if text != self.first[slot][2]:
                return [f"{rec.id}: regenerated instance differs from the first generation"]
            return []

        # each exhausted seed index before the accepted one used up all attempts
        attempts = rec.provenance["index"] * params.instance_attempts + rec.provenance["attempt"] + 1
        worlds = len(rec.train_worlds) + len(rec.holdout_worlds)
        return Repetition([dt], [], dt, 1, slot, check, worlds, rec.holdout_available, attempts)

    def digests(self) -> dict:
        """sha256 of the pinned instances as generated, in mix order."""
        if not self.first:
            return {}
        firsts = [self.first[slot] for slot in sorted(self.first)]
        dataset.save_dataset([f[0] for f in firsts], self.path, [f[1] for f in firsts])
        return {f"generated_{len(firsts)}": inputs.sha256_file(self.path)}

    def sample_instances(self):
        return [self.first[slot][0] for slot in sorted(self.first)]

    def gate_problems(self) -> list[str]:
        return []  # each instance was round-tripped after its first repetition


class ScoreWorkload:
    """One repetition scores the whole seeded prediction file: load the
    dataset, parse and score every line, aggregate and render the report.
    An operation is one prediction line."""

    PER_COMBO = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dataset_path = os.path.join(workdir, "score_dataset.jsonl")
        self.pred_path = os.path.join(workdir, "predictions.jsonl")
        self.manifest_path = os.path.join(workdir, "manifest.jsonl")
        self.reference = None

    def setup(self, step) -> Setup:
        records, self.params_by_id, params_list = generate_dataset(self.PER_COMBO, step)
        dataset.save_dataset(records, self.dataset_path, params_list)
        self.records = records
        rows = inputs.prediction_lines(records, self.seed)
        self.kinds = [kind for _, kind, _ in rows]
        with open(self.pred_path, "w") as fh:
            fh.writelines(line + "\n" for _, _, line in rows)
        with open(self.manifest_path, "w") as fh:
            fh.writelines(
                json.dumps({"model_id": MODEL_ID, "instance_id": iid}) + "\n" for iid, _, _ in rows
            )
        kinds = {}
        for kind in self.kinds:
            kinds[kind] = kinds.get(kind, 0) + 1
        return Setup(
            {
                "dataset": inputs.sha256_file(self.dataset_path),
                "predictions": inputs.sha256_file(self.pred_path),
                "manifest": inputs.sha256_file(self.manifest_path),
            },
            {"lines": len(rows), "line_kinds": kinds, "instances": len(records)},
        )

    def repetition(self, k: int) -> Repetition:
        op_s, failures, scores = [], [], []
        t0 = time.perf_counter()
        instances = {rec.id: rec for rec in dataset.load_dataset(self.dataset_path, check=False)}
        with open(self.pred_path) as fh:
            lines = fh.read().splitlines()
        with open(self.manifest_path) as fh:
            manifest = [json.loads(line) for line in fh.read().splitlines()]
        for line, meta in zip(lines, manifest):
            t = time.perf_counter()
            try:
                pred = scoring.parse_prediction_line(line, meta["instance_id"], meta["model_id"])
                scores.append(scoring.score_prediction(pred, instances[meta["instance_id"]]))
            except Exception as exc:  # one hostile line must not end the batch
                failures.append(type(exc).__name__)
                scores.append(None)
            op_s.append(time.perf_counter() - t)
        text = scoring.render_report(scoring.aggregate_report([s for s in scores if s is not None]))
        timed = time.perf_counter() - t0

        def check():
            problems = []
            for kind, s in zip(self.kinds, scores):
                if kind == "gold" and (s is None or not s.train_valid or s.gold_margin != 0):
                    problems.append(f"gold replay did not score train-valid with margin 0: {s}")
            if self.reference is None:
                self.reference = (scores, text)
            elif (scores, text) != self.reference:
                problems.append("scores or report differ between repetitions")
            return problems

        return Repetition(op_s, failures, timed, len(op_s), "pass", check)

    def digests(self) -> dict:
        return {}

    def sample_instances(self):
        return self.records

    def gate_problems(self) -> list[str]:
        path = os.path.join(os.path.dirname(self.dataset_path), "roundtrip.jsonl")
        return round_trip_problems(self.records, self.params_by_id, path)


class VerifyWorkload:
    """`abduce verify` plus `abduce prompt`, one instance per repetition:
    save it, load it with the load-time check, audit it with pools on and
    render its prompt."""

    PER_COMBO = 2

    def __init__(self, seed: int, workdir: str, tamper: bool = False):
        self.seed = seed
        self.tamper = tamper
        self.dataset_path = os.path.join(workdir, "verify_dataset.jsonl")
        self.instance_path = os.path.join(workdir, "verify_instance.jsonl")
        self.reference = {}

    def setup(self, step) -> Setup:
        records, params_by_id, params_list = generate_dataset(self.PER_COMBO, step)
        dataset.save_dataset(records, self.dataset_path, params_list)
        if self.tamper:
            tamper_gold_cost(self.dataset_path)
        digest = inputs.sha256_file(self.dataset_path)
        self.records = dataset.load_dataset(self.dataset_path, check=False)
        self.params_by_id = params_by_id
        self.order = list(range(len(self.records)))
        Random(inputs.derive_seed("verify-order", self.seed)).shuffle(self.order)
        return Setup({"dataset": digest}, {"instances": len(self.records)})

    def repetition(self, k: int) -> Repetition:
        index = self.order[k % len(self.order)]
        rec = self.records[index]
        t0 = time.perf_counter()
        try:
            dataset.save_dataset([rec], self.instance_path)
            loaded = dataset.load_dataset(self.instance_path, check=True)[0]
            violations = generator.audit_instance(loaded)
            bundle = prompts.render_prompt(loaded)
        except Exception as exc:  # a failed operation, and a correctness problem
            dt = time.perf_counter() - t0
            problem = f"{rec.id}: {type(exc).__name__}: {exc}"
            return Repetition([dt], [type(exc).__name__], dt, 1, index, lambda: [problem])
        dt = time.perf_counter() - t0

        def check():
            problems = [f"{rec.id}: {v}" for v in violations]
            seen = self.reference.setdefault(rec.id, bundle)
            if seen != bundle:
                problems.append(f"{rec.id}: prompt differs between repetitions")
            return problems

        return Repetition([dt], [], dt, 1, index, check)

    def gate_problems(self) -> list[str]:
        """`abduce verify` must report 0 violations on the dataset."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--dataset", self.dataset_path])
        text = out.getvalue()
        if code != 0 or " 0 violation(s)" not in text:
            return [f"abduce verify exited {code}: {text.strip().splitlines()[-1:]}"]
        return []

    def digests(self) -> dict:
        return {}

    def sample_instances(self):
        return self.records


def tamper_gold_cost(path: str) -> None:
    """Bump the first instance's first cached training gold cost by one."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = json.loads(lines[1])
    data["baselines"]["train"]["gold_costs"][0] += 1
    lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


WORKLOADS = {"generate": GenerateWorkload, "score": ScoreWorkload, "verify": VerifyWorkload}
