"""Line-delimited dataset files and prediction-file ingestion.

A dataset file is one JSON header line followed by one JSON instance per
line.  Serialization is canonical (sorted keys, no extra whitespace,
sorted atom arrays), so loading and re-saving a dataset is byte-identical
and regeneration with equal seeds reproduces files exactly.  save_jsonl writes
and _read_jsonl reads every JSON-lines file; a malformed line is a DatasetError.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from itertools import chain
from typing import Callable, Container, Iterable, Optional, Sequence

from .formula import formula_metrics, parse_formula, render_formula, validate_hypothesis
from .generator import GenParams, InstanceRecord, audit_instance
from .scoring import FAILURE_CLASSES, Prediction, ScoreRecord, parse_prediction_line
from .theory import SCENARIOS, THEORY_IDS, builtin_theory, check_scenario
from .world import DEFAULT_ENUMERATION_CAP, OBSERVABLE_PREDICATES, World, atoms_to_json

FORMAT_NAME = "abduce-dataset"
FORMAT_VERSION = 1


class DatasetError(ValueError):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_jsonl(rows: Iterable, path: str) -> None:
    """Write each row as one canonical JSON line."""
    with open(path, "w") as fh:
        fh.writelines(_dump(row) + "\n" for row in rows)


# What a line that fails to decode or parse raises: a missing field, a bad
# value (bad JSON, bad UTF-8 and an integer past int's digit limit included),
# a field of the wrong JSON type, or nesting past the recursion limit.
_LINE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, RecursionError)


def _read_jsonl(path: str, kind: str, parse: Callable, header: Optional[Callable] = None) -> list:
    """parse(obj) for the JSON object on each non-blank line of the file at
    `path`, in order.  With `header`, line 1 is the file's header line,
    parsed by `header` instead and first in the list; blank or missing, it
    is malformed.  The first line that fails raises DatasetError
    "<path>:<line>: bad <kind> line: <reason>" before later lines are parsed."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines() or [b""]
    out = []
    for lineno, line in enumerate(lines, start=1):
        line_kind, line_parse = ("header", header) if header and lineno == 1 else (kind, parse)
        if line_kind != "header" and not line.strip():
            continue
        try:
            obj = json.loads(line.decode())
            if not isinstance(obj, dict):
                raise TypeError("not a JSON object")
            out.append(line_parse(obj))
        except _LINE_ERRORS as exc:
            raise DatasetError(f"{path}:{lineno}: bad {line_kind} line: {exc}") from exc
    return out


def world_to_json(world: World) -> dict:
    return {
        "n": world.n,
        "true": {p: atoms_to_json(world.true_atoms[p]) for p in OBSERVABLE_PREDICATES},
        "unknown": {p: atoms_to_json(world.unknown_atoms[p]) for p in OBSERVABLE_PREDICATES},
    }


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The largest magnitude of a cost or score number on a line: 2**53, the largest
# integer a float holds exactly.  No cost or score comes near it, and quotients
# and means of such numbers stay finite (NaN and the infinities fail it too).
MAX_JSON_NUMBER = 2**53


def world_from_json(data: dict) -> World:
    n = data["n"]
    if not _is_json_int(n):
        raise DatasetError(f"domain size must be a JSON integer, got {n!r}")
    world = World(n, data.get("true", {}), data.get("unknown", {}))
    for kind, interned in (("true", world.true_atoms), ("unknown", world.unknown_atoms)):
        for p, atoms in data.get(kind, {}).items():
            if len(atoms) != len(interned[p]):
                raise DatasetError(f"{p}: {kind} atom list repeats an atom")
    if world.num_unknowns() > DEFAULT_ENUMERATION_CAP:
        raise DatasetError(f"{world.num_unknowns()} unknown atoms exceed DEFAULT_ENUMERATION_CAP {DEFAULT_ENUMERATION_CAP}")
    return world


def instance_to_json(rec: InstanceRecord) -> dict:
    return {
        "id": rec.id,
        "scenario": rec.scenario,
        "theory": rec.theory_id,
        "theory_internal": rec.internal_id,
        "gold": {"formula": render_formula(rec.gold.formula), **asdict(formula_metrics(rec.gold.formula))},
        "train_worlds": [world_to_json(w) for w in rec.train_worlds],
        "baselines": {
            split: {"opt_costs": list(opts), "gold_costs": list(golds)}
            for split, _, opts, golds in rec.splits()
        },
        "holdout_available": rec.holdout_available,
        "holdout_worlds": [world_to_json(w) for w in rec.holdout_worlds],
        "provenance": rec.provenance,
    }


def _baseline_costs(data: dict, split: str, kind: str) -> tuple[int, ...]:
    values = data["baselines"][split][kind]
    if not isinstance(values, list) or not all(_is_json_int(v) and abs(v) <= MAX_JSON_NUMBER for v in values):
        raise DatasetError(f"{split} {kind} must be a list of JSON integers, got {values!r}")
    return tuple(values)


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
    check_scenario(theory, data["scenario"], DatasetError)
    if data["theory_internal"] != theory.internal_id:
        raise DatasetError(f"theory_internal {data['theory_internal']!r} is not {theory.short_id}'s internal id")
    gold = validate_hypothesis(
        parse_formula(data["gold"]["formula"]), theory.allowed, theory.forbidden
    )
    for key, value in asdict(formula_metrics(gold.formula)).items():
        if not (_is_json_int(data["gold"][key]) and data["gold"][key] == value):
            raise DatasetError(f"gold {key} {data['gold'][key]!r} is not its formula's {value}")
    if not isinstance(data["holdout_available"], bool):
        raise DatasetError(f"holdout_available must be a JSON bool, got {data['holdout_available']!r}")
    splits = {}
    for split in ("train", "holdout"):
        raw = data[f"{split}_worlds"]
        if not isinstance(raw, list) or (split == "train" and not raw):
            what = "a non-empty" if split == "train" else "a"
            raise DatasetError(f"{split}_worlds must be {what} JSON list, got {raw!r}")
        worlds = splits[f"{split}_worlds"] = tuple(map(world_from_json, raw))
        for i, world in enumerate(worlds):
            if data["scenario"] == "full" and world.num_unknowns():
                raise DatasetError(f"{split} world {i} has {world.num_unknowns()} unknown atom(s), "
                                   "but the full scenario observes every atom")
        for kind in ("opt_costs", "gold_costs"):
            splits[f"{split}_{kind}"] = _baseline_costs(data, split, kind)
    return InstanceRecord(
        id=data["id"],
        scenario=data["scenario"],
        theory_id=data["theory"],
        gold=gold,
        holdout_available=data["holdout_available"],
        provenance=provenance,
        **splits,
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
    save_jsonl(chain([header], map(instance_to_json, records)), path)


def _checked_header(header: dict) -> dict:
    """A dataset header whose format, version and count type hold."""
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {header.get('version')!r}")
    count = header.get("count")
    if count is not None and not _is_json_int(count):
        raise TypeError(f"count must be a JSON integer or null, got {count!r}")
    return header


def load_dataset(path: str, check: bool = True) -> list[InstanceRecord]:
    """Load instances; with check on, every record re-validates its world
    and filter invariants (pool/cheater re-verification is `verify`'s job).
    A line repeating an earlier instance id is malformed, and so is a header
    whose count, scenarios or theories (where given) differ from the records'."""
    seen = set()

    def instance(data: dict) -> InstanceRecord:
        rec = instance_from_json(data)
        if rec.id in seen:
            raise ValueError(f"duplicate instance id {rec.id!r}")
        seen.add(rec.id)
        violations = audit_instance(rec, pools=False) if check else []
        if violations:
            raise ValueError(f"invariant violations: {violations}")
        return rec

    header, *records = _read_jsonl(path, "instance", instance, header=_checked_header)
    count = header.get("count")
    if count is not None and count != len(records):
        raise DatasetError(f"{path}:1: header count {count} != {len(records)} records")
    for key, field in (("scenarios", "scenario"), ("theories", "theory_id")):
        found = sorted({getattr(r, field) for r in records})
        if header.get(key) is not None and header[key] != found:
            raise DatasetError(f"{path}:1: header {key} {header[key]} != {found} of the records")
    return records


def save_generation_log(records: Sequence[InstanceRecord], path: str) -> None:
    """Sidecar log: per instance, seeds, attempts, eliminated competitors,
    and filter outcomes."""
    save_jsonl(map(_log_row, records), path)


def _log_row(rec: InstanceRecord) -> dict:
    prov = rec.provenance
    return {
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


# ---------------------------------------------------------------------------
# Prediction files: one raw model-output line each, with a manifest mapping
# line numbers to (model_id, instance_id).


def load_predictions(
    predictions_path: str, manifest_path: str, known_ids: Optional[Container[str]] = None
) -> list[Prediction]:
    """Predictions paired with their manifest entries; with known_ids, a
    manifest line naming any other instance id is a DatasetError."""
    # split as _read_jsonl splits, at \n, \r and \r\n only: str.splitlines
    # also splits at U+2028 and the like, which a JSON string may hold raw;
    # bytes that are not UTF-8 read as U+FFFD, which no formula token holds
    with open(predictions_path, "rb") as fh:
        lines = [line.decode(errors="replace") for line in fh.read().splitlines()]
    manifest = _read_jsonl(manifest_path, "manifest", lambda meta: _manifest_entry(meta, known_ids))
    if len(manifest) != len(lines):
        raise DatasetError(
            f"manifest has {len(manifest)} entries but predictions file has {len(lines)} lines"
        )
    return [
        parse_prediction_line(line, instance_id=instance_id, model_id=model_id)
        for line, (instance_id, model_id) in zip(lines, manifest)
    ]


def _manifest_entry(meta: dict, known_ids: Optional[Container[str]] = None) -> tuple[str, str]:
    """(instance_id, model_id) of one manifest line; TypeError unless both
    are strings, ValueError for an instance id outside known_ids."""
    ids = meta.get("instance_id"), meta.get("model_id")
    if not all(isinstance(v, str) for v in ids):
        raise TypeError("instance_id and model_id must be strings")
    if known_ids is not None and ids[0] not in known_ids:
        raise ValueError(f"instance id {ids[0]!r} is not in the dataset")
    return ids


def save_score_records(records, path: str) -> None:
    save_jsonl(map(asdict, records), path)


# Whether a JSON value fits a ScoreRecord field's declared type; a JSON
# number fits a float field, but a bool is no int or float.
_JSON_FITS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: _is_json_int(v) and abs(v) <= MAX_JSON_NUMBER,
    "float": lambda v: (_is_json_int(v) or isinstance(v, float)) and abs(v) <= MAX_JSON_NUMBER,
    "tuple[bool, ...]": lambda v: isinstance(v, list) and all(isinstance(b, bool) for b in v),
}


def _fits(declared: str, value) -> bool:
    if declared.startswith("Optional["):
        return value is None or _fits(declared[len("Optional["):-1], value)
    return _JSON_FITS[declared](value)


def _score_record(data: dict) -> ScoreRecord:
    """The ScoreRecord of one score line.  TypeError when it lacks a field or
    has one ScoreRecord does not take, or holds a value of the wrong JSON
    type; ValueError for an unknown failure class."""
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
    return _read_jsonl(path, "score", _score_record)
