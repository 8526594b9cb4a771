"""Derandomized fuzzing of every JSON-lines input.

One valid line of each kind (dataset header, instance, manifest, score,
prediction) is mutated: a key dropped, a value swapped for one of another
JSON type, for a 5,000-digit integer or for a 1,500- or 100,000-deep
nesting, the line truncated, or the line wrapped in a list.  (Hypothesis
raises the recursion limit while a test runs, so 1,500 levels decode there;
100,000 exceed any limit.)  The loaders must return or
raise a DatasetError naming the line; a prediction line must parse to a
Prediction; and every score line that loads must aggregate and render into
a report that is valid JSON.  An instance line whose train world holds what
no World may hold (an out-of-domain atom, an unknown predicate key, a
100,000-atom list or a domain size past the bound) must raise one.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abduce.dataset import (
    DatasetError,
    load_dataset,
    load_predictions,
    load_score_records,
    save_dataset,
)
from abduce.generator import GenParams, generate_batch
from abduce.scoring import Prediction, ScoreRecord, aggregate_report, parse_prediction_line, render_report

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# One value of each JSON type; a swap picks one of another type.
JSON_VALUES = (None, True, 7, 2.5, "s", [], {})
HUGE_INT = "9" * 5000
DEPTHS = (1500, 100_000)


def _json_type(value) -> type:
    return bool if isinstance(value, bool) else float if isinstance(value, float) else type(value)


def _paths(value, path=()):
    """Every path (tuple of keys and indices) to a value inside `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replace(obj, path, text: str) -> str:
    """The JSON text of `obj` with the value at `path` replaced by `text`."""
    marker = "\x00marker\x00"
    copy = json.loads(json.dumps(obj))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = marker
    return json.dumps(copy).replace(json.dumps(marker), text)


@st.composite
def mutated(draw, line: str) -> str:
    obj = json.loads(line)
    kind = draw(st.sampled_from(["drop", "swap", "huge", "deep", "truncate", "wrap"]))
    if kind == "truncate":
        return line[: draw(st.integers(1, len(line) - 1))]
    if kind == "wrap":
        return "[" + line + "]"
    paths = list(_paths(obj))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if not isinstance(p[-1], int)]))
        return _drop(obj, path)
    path = draw(st.sampled_from(paths))
    if kind == "swap":
        current = _value_at(obj, path)
        others = [v for v in JSON_VALUES if _json_type(v) is not _json_type(current)]
        return _replace(obj, path, json.dumps(draw(st.sampled_from(others))))
    if kind == "huge":
        return _replace(obj, path, HUGE_INT)
    depth = draw(st.sampled_from(DEPTHS))
    return _replace(obj, path, "[" * depth + "]" * depth)


def _value_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _drop(obj, path) -> str:
    copy = json.loads(json.dumps(obj))
    del _value_at(copy, path[:-1])[path[-1]]
    return json.dumps(copy)


@pytest.fixture(scope="module")
def dataset_lines(tmp_path_factory):
    """The header and instance line of a one-instance partial T2 dataset."""
    path = tmp_path_factory.mktemp("fuzz") / "ds.jsonl"
    params = GenParams(scenario="partial", theory_id="T2", global_seed=6)
    save_dataset(generate_batch(params, 1, dataset_path="ds.jsonl"), str(path), [params], global_seed=6)
    return open(path).read().splitlines()


def _loads_or_names_line(load, path, lineno: int):
    try:
        return load()
    except DatasetError as exc:
        assert str(exc).startswith(f"{path}:{lineno}: "), str(exc)
        return None


@FUZZ
@given(data=st.data())
def test_fuzzed_header_line(dataset_lines, tmp_path_factory, data):
    header, instance = dataset_lines
    path = tmp_path_factory.mktemp("h") / "ds.jsonl"
    path.write_text(data.draw(mutated(header)) + "\n" + instance + "\n")
    _loads_or_names_line(lambda: load_dataset(str(path), check=False), path, 1)


@pytest.mark.parametrize("check", [True, False], ids=["check", "no-check"])
@FUZZ
@given(data=st.data())
def test_fuzzed_instance_line(dataset_lines, tmp_path_factory, check, data):
    header, instance = dataset_lines
    path = tmp_path_factory.mktemp("i") / "ds.jsonl"
    path.write_text(header + "\n" + data.draw(mutated(instance)) + "\n")
    _loads_or_names_line(lambda: load_dataset(str(path), check=check), path, 2)


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest_line(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("m")
    preds, manifest = directory / "p.jsonl", directory / "m.jsonl"
    entry = '{"instance_id": "i", "model_id": "m"}'
    preds.write_text("{}\n{}\n")
    manifest.write_text(entry + "\n" + data.draw(mutated(entry)) + "\n")
    load = lambda: load_predictions(str(preds), str(manifest), known_ids={"i"})  # noqa: E731
    _loads_or_names_line(load, manifest, 2)


SCORE_LINE = json.dumps(asdict(ScoreRecord(
    instance_id="i", model_id="m", scenario="partial", theory_id="T2", parse_ok=True,
    formula_text="(P x)", ast_size=2, quantifier_depth=0, train_world_valid=(True, True), train_valid=True,
    train_cost=3, train_opt=2, train_gap=0.5, gold_cost=3, gold_ast=4, gap_gold=0.0, gold_margin=0,
    holdout_available=True, holdout_world_valid=(True,), holdout_valid=True, holdout_valid_fraction=1.0,
    holdout_cost=2, holdout_opt=1, holdout_gap=1.0, survivor=True, delta_gap=0.5, failure_class="Success",
)))


@FUZZ
@given(data=st.data())
def test_fuzzed_score_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("s") / "s.jsonl"
    path.write_text(SCORE_LINE + "\n" + data.draw(mutated(SCORE_LINE)) + "\n")
    records = _loads_or_names_line(lambda: load_score_records(str(path)), path, 2)
    if records is not None:
        report = aggregate_report(records)
        render_report(report)
        json.dumps(report, allow_nan=False)


@FUZZ
@given(data=st.data())
def test_fuzzed_prediction_line(data):
    line = data.draw(mutated('{"formula": "(and (P x) (not (Q x)))", "description": "d"}'))
    assert isinstance(parse_prediction_line(line, "i", "m"), Prediction)


@st.composite
def bad_world(draw, line: str) -> tuple[str, str]:
    """The instance line with one train world made invalid, and the reason
    World gives."""
    obj = json.loads(line)
    world = draw(st.sampled_from(obj["train_worlds"]))
    side = world[draw(st.sampled_from(["true", "unknown"]))]
    pred = draw(st.sampled_from("PQRS"))
    kind = draw(st.sampled_from(["out-of-domain", "unknown-predicate", "wide", "n"]))
    n, reason = world["n"], "is malformed or outside the domain"
    if kind == "out-of-domain":
        bad = draw(st.one_of(st.integers(n, 10**6), st.integers(-10**6, -1)))
        atom = bad if pred in "PQ" else draw(st.permutations([bad, draw(st.integers(0, n - 1))]))
        atoms = side.setdefault(pred, [])
        atoms.insert(draw(st.integers(0, len(atoms))), atom)
    elif kind == "unknown-predicate":
        side[draw(st.sampled_from(["Ab", "T", "p", "PQ", "", "R "]))] = draw(st.sampled_from([[], [0], [[0, 0]]]))
        reason = "unknown predicate key(s): "
    elif kind == "wide":
        side[pred] = list(range(WIDE)) if pred in "PQ" else [[i // 400, i % 400] for i in range(WIDE)]
    else:
        world["n"] = 33
        reason = "domain size 33 exceeds MAX_DOMAIN_SIZE 32"
    return json.dumps(obj), reason


WIDE = 100_000


@pytest.mark.parametrize("check", [True, False], ids=["check", "no-check"])
@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_instance_line_with_an_invalid_world(dataset_lines, tmp_path_factory, check, data):
    header, instance = dataset_lines
    line, reason = data.draw(bad_world(instance))
    path = tmp_path_factory.mktemp("w") / "ds.jsonl"
    path.write_text(header + "\n" + line + "\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(str(path), check=check)
    assert str(exc.value).startswith(f"{path}:2: bad instance line: ") and reason in str(exc.value), str(exc.value)


def test_unmutated_lines_load(dataset_lines, tmp_path):
    # so a failure above comes from the mutation, not from the line it mutates
    path = tmp_path / "ds.jsonl"
    path.write_text("\n".join(dataset_lines) + "\n")
    assert len(load_dataset(str(path))) == 1
    path.write_text(SCORE_LINE + "\n")
    assert load_score_records(str(path))[0].failure_class == "Success"
    assert parse_prediction_line('{"formula": "(P x)", "description": "d"}').formula_text == "(P x)"
