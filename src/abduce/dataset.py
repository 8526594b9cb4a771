"""Line-delimited dataset files and prediction-file ingestion.

A dataset file is one JSON header line followed by one JSON instance per
line.  Serialization is canonical (sorted keys, no extra whitespace,
sorted atom arrays), so loading and re-saving a dataset is byte-identical
and regeneration with equal seeds reproduces files exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Container, Iterable, Optional, Sequence

from .formula import formula_metrics, parse_formula, render_formula, validate_hypothesis
from .generator import GenParams, InstanceRecord, audit_instance
from .scoring import FAILURE_CLASSES, Prediction, ScoreRecord
from .theory import SCENARIOS, THEORY_IDS, TheorySpec, builtin_theory
from .world import DEFAULT_ENUMERATION_CAP, MAX_DOMAIN_SIZE, OBSERVABLE_PREDICATES, World

FORMAT_NAME = "abduce-dataset"
FORMAT_VERSION = 1


class DatasetError(ValueError):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def world_to_json(world: World) -> dict:
    out = {"n": world.n, "true": {}, "unknown": {}}
    for p in OBSERVABLE_PREDICATES:
        for key, atoms in (("true", world.true_atoms[p]), ("unknown", world.unknown_atoms[p])):
            if all(isinstance(a, int) for a in atoms):
                vals = sorted(atoms)
            else:
                vals = sorted([list(a) for a in atoms])
            out[key][p] = vals
    return out


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def world_from_json(data: dict) -> World:
    n = data["n"]
    if not _is_json_int(n):
        raise DatasetError(f"domain size must be a JSON integer, got {n!r}")
    if n > MAX_DOMAIN_SIZE:
        raise DatasetError(f"domain size {n} exceeds MAX_DOMAIN_SIZE {MAX_DOMAIN_SIZE}")
    world = World(n, data.get("true", {}), data.get("unknown", {}))
    if world.num_unknowns() > DEFAULT_ENUMERATION_CAP:
        raise DatasetError(f"{world.num_unknowns()} unknown atoms exceed DEFAULT_ENUMERATION_CAP {DEFAULT_ENUMERATION_CAP}")
    return world


def instance_to_json(rec: InstanceRecord) -> dict:
    gold_metrics = formula_metrics(rec.gold.formula)
    return {
        "id": rec.id,
        "scenario": rec.scenario,
        "theory": rec.theory_id,
        "theory_internal": rec.internal_id,
        "gold": {
            "formula": render_formula(rec.gold.formula),
            "ast_size": gold_metrics.ast_size,
            "quantifier_depth": gold_metrics.quantifier_depth,
        },
        "train_worlds": [world_to_json(w) for w in rec.train_worlds],
        "baselines": {
            "train": {
                "opt_costs": list(rec.train_opt_costs),
                "gold_costs": list(rec.train_gold_costs),
            },
            "holdout": {
                "opt_costs": list(rec.holdout_opt_costs),
                "gold_costs": list(rec.holdout_gold_costs),
            },
        },
        "holdout_available": rec.holdout_available,
        "holdout_worlds": [world_to_json(w) for w in rec.holdout_worlds],
        "provenance": rec.provenance,
    }


def _baseline_costs(data: dict, split: str, kind: str) -> tuple[int, ...]:
    values = data["baselines"][split][kind]
    if not isinstance(values, list) or not all(map(_is_json_int, values)):
        raise DatasetError(f"{split} {kind} must be a list of JSON integers, got {values!r}")
    return tuple(values)


def check_scenario(theory: TheorySpec, scenario: str) -> None:
    """DatasetError unless the theory declares the scenario (T6 and T7 are
    skeptical-only)."""
    if scenario not in theory.scenarios:
        raise DatasetError(f"theory {theory.short_id} does not take the {scenario} scenario, only "
                           + ", ".join(sorted(theory.scenarios)))


def instance_from_json(data: dict) -> InstanceRecord:
    if not isinstance(data["id"], str):
        raise DatasetError(f"instance id must be a string, got {data['id']!r}")
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise DatasetError("provenance is not a JSON object")
    pool_seed = provenance.get("pool_seed")
    if pool_seed is not None and not _is_json_int(pool_seed):
        raise DatasetError(f"provenance pool_seed must be a JSON integer or null, got {pool_seed!r}")
    if data["scenario"] not in SCENARIOS:
        raise DatasetError(f"unknown scenario {data['scenario']!r}")
    if data["theory"] not in THEORY_IDS:
        raise DatasetError(f"unknown theory {data['theory']!r}")
    theory = builtin_theory(data["theory"])
    check_scenario(theory, data["scenario"])
    if data["theory_internal"] != theory.internal_id:
        raise DatasetError(f"theory_internal {data['theory_internal']!r} is not {theory.short_id}'s internal id")
    if not isinstance(data["train_worlds"], list) or not data["train_worlds"]:
        raise DatasetError(f"train_worlds must be a non-empty JSON list, got {data['train_worlds']!r}")
    gold = validate_hypothesis(
        parse_formula(data["gold"]["formula"]), theory.allowed, theory.forbidden
    )
    if not isinstance(data["holdout_available"], bool):
        raise DatasetError(f"holdout_available must be a JSON bool, got {data['holdout_available']!r}")
    train_worlds = tuple(world_from_json(w) for w in data["train_worlds"])
    holdout_worlds = tuple(world_from_json(w) for w in data["holdout_worlds"])
    if data["scenario"] == "full":
        for split, worlds in (("train", train_worlds), ("holdout", holdout_worlds)):
            for i, world in enumerate(worlds):
                if world.num_unknowns():
                    raise DatasetError(f"{split} world {i} has {world.num_unknowns()} unknown atom(s), "
                                       "but the full scenario observes every atom")
    return InstanceRecord(
        id=data["id"],
        scenario=data["scenario"],
        theory_id=data["theory"],
        train_worlds=train_worlds,
        gold=gold,
        train_opt_costs=_baseline_costs(data, "train", "opt_costs"),
        train_gold_costs=_baseline_costs(data, "train", "gold_costs"),
        holdout_worlds=holdout_worlds,
        holdout_available=data["holdout_available"],
        holdout_opt_costs=_baseline_costs(data, "holdout", "opt_costs"),
        holdout_gold_costs=_baseline_costs(data, "holdout", "gold_costs"),
        provenance=provenance,
    )


def params_digest(params_list: Sequence[GenParams]) -> str:
    payload = _dump([p.settings() for p in params_list])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_dataset(
    records: Sequence[InstanceRecord],
    path: str,
    params_list: Sequence[GenParams] = (),
    global_seed: Optional[int] = None,
) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "count": len(records),
        "scenarios": sorted({r.scenario for r in records}),
        "theories": sorted({r.theory_id for r in records}),
        "global_seed": global_seed,
        "params_digest": params_digest(params_list) if params_list else None,
    }
    with open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        for rec in records:
            fh.write(_dump(instance_to_json(rec)) + "\n")


def load_dataset(path: str, check: bool = True) -> list[InstanceRecord]:
    """Load instances; with check on, every record re-validates its world
    and filter invariants (pool/cheater re-verification is `verify`'s job)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise DatasetError(f"{path}:1: bad header line: {exc}") from exc
    if not isinstance(header, dict):
        raise DatasetError(f"{path}:1: bad header line: not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise DatasetError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetError(f"{path}: unsupported version {header.get('version')}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = instance_from_json(json.loads(line))
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            # a missing field, a bad value, or a field of the wrong JSON type
            raise DatasetError(f"{path}:{i}: bad instance line: {exc}") from exc
        if check:
            violations = audit_instance(rec, pools=False)
            if violations:
                raise DatasetError(f"{path}:{i}: invariant violations: {violations}")
        records.append(rec)
    if header.get("count") is not None and header["count"] != len(records):
        raise DatasetError(f"{path}: header count {header['count']} != {len(records)} records")
    return records


def save_generation_log(records: Sequence[InstanceRecord], path: str) -> None:
    """Sidecar log: per instance, seeds, attempts, eliminated competitors,
    and filter outcomes."""
    with open(path, "w") as fh:
        for rec in records:
            prov = rec.provenance
            fh.write(
                _dump(
                    {
                        "id": rec.id,
                        "global_seed": prov.get("global_seed"),
                        "index": prov.get("index"),
                        "accepted_attempt": prov.get("attempt"),
                        "pool_seed": prov.get("pool_seed"),
                        "gold_template": prov.get("gold_template"),
                        "worlds": len(rec.train_worlds),
                        "cheater_margin": prov.get("cheater_margin"),
                        "elimination_log": prov.get("elimination_log"),
                        "holdout_available": rec.holdout_available,
                    }
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Prediction files: one raw model-output line each, with a manifest mapping
# line numbers to (model_id, instance_id).


def load_predictions(
    predictions_path: str, manifest_path: str, known_ids: Optional[Container[str]] = None
) -> list[Prediction]:
    """Predictions paired with their manifest entries; with known_ids, a
    manifest line naming any other instance id is a DatasetError."""
    from .scoring import parse_prediction_line

    with open(predictions_path) as fh:
        lines = fh.read().splitlines()
    with open(manifest_path) as fh:
        manifest = []
        for i, line in enumerate(fh.read().splitlines(), start=1):
            if not line.strip():
                continue
            entry = _manifest_entry(manifest_path, i, line)
            if known_ids is not None and entry[0] not in known_ids:
                raise DatasetError(f"{manifest_path}:{i}: instance id {entry[0]!r} is not in the dataset")
            manifest.append(entry)
    if len(manifest) != len(lines):
        raise DatasetError(
            f"manifest has {len(manifest)} entries but predictions file has {len(lines)} lines"
        )
    return [
        parse_prediction_line(line, instance_id=instance_id, model_id=model_id)
        for line, (instance_id, model_id) in zip(lines, manifest)
    ]


def _manifest_entry(path: str, lineno: int, line: str) -> tuple[str, str]:
    """(instance_id, model_id) of one manifest line; DatasetError naming the
    line when it is not a JSON object with both keys as strings."""
    try:
        meta = json.loads(line)
    except ValueError as exc:
        raise DatasetError(f"{path}:{lineno}: bad manifest line: {exc}") from exc
    if not isinstance(meta, dict):
        raise DatasetError(f"{path}:{lineno}: bad manifest line: not a JSON object")
    ids = meta.get("instance_id"), meta.get("model_id")
    if not all(isinstance(v, str) for v in ids):
        raise DatasetError(f"{path}:{lineno}: bad manifest line: instance_id and model_id must be strings")
    return ids


def save_score_records(records, path: str) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dump(asdict(rec)) + "\n")


# Whether a JSON value fits a ScoreRecord field's declared type; a JSON
# number fits a float field, but a bool is no int or float.
_JSON_FITS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": _is_json_int,
    "float": lambda v: _is_json_int(v) or isinstance(v, float),
    "tuple[bool, ...]": lambda v: isinstance(v, list) and all(isinstance(b, bool) for b in v),
}


def _fits(declared: str, value) -> bool:
    if declared.startswith("Optional["):
        return value is None or _fits(declared[len("Optional["):-1], value)
    return _JSON_FITS[declared](value)


def _score_record(data) -> ScoreRecord:
    """The ScoreRecord of one decoded score line.  TypeError when it is not
    an object, lacks a field or has one ScoreRecord does not take, or holds a
    value of the wrong JSON type; ValueError for an unknown failure class."""
    if not isinstance(data, dict):
        raise TypeError("not a JSON object")
    for f in fields(ScoreRecord):
        if f.name in data and not _fits(f.type, data[f.name]):
            raise TypeError(f"{f.name} must be {f.type}, got {data[f.name]!r}")
    for key in ("train_world_valid", "holdout_world_valid"):
        if key in data:
            data[key] = tuple(data[key])
    record = ScoreRecord(**data)
    if record.failure_class not in FAILURE_CLASSES:
        raise ValueError(f"unknown failure_class {record.failure_class!r}")
    return record


def load_score_records(path: str) -> list[ScoreRecord]:
    out = []
    with open(path) as fh:
        for i, line in enumerate(fh.read().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                out.append(_score_record(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise DatasetError(f"{path}:{i}: bad score line: {exc}") from exc
    return out
