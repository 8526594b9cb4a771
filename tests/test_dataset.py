import json

import pytest

from abduce.dataset import (
    DatasetError,
    instance_from_json,
    instance_to_json,
    load_dataset,
    load_predictions,
    load_score_records,
    save_dataset,
    save_generation_log,
    save_score_records,
    world_from_json,
    world_to_json,
)
from abduce.generator import GenParams, generate_batch
from abduce.scoring import score_batch
from abduce.world import World, worlds_equivalent


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "ds.jsonl"
    params = GenParams(scenario="partial", theory_id="T2", global_seed=6)
    records = generate_batch(params, 3, dataset_path=str(path))
    save_dataset(records, str(path), [params], global_seed=6)
    return params, records, str(path)


class TestWorldJson:
    def test_round_trip(self):
        w = World(4, {"P": {2, 0}, "R": {(3, 1), (0, 0)}}, {"S": {(1, 2)}})
        again = world_from_json(world_to_json(w))
        assert worlds_equivalent(w, again)

    def test_enumeration_cap_is_a_format_bound(self):
        atoms = [[i // 6, i % 6] for i in range(25)]
        assert world_from_json({"n": 6, "unknown": {"R": atoms[:24]}}).num_unknowns() == 24
        with pytest.raises(DatasetError, match="25 unknown atoms exceed DEFAULT_ENUMERATION_CAP 24"):
            world_from_json({"n": 6, "unknown": {"R": atoms}})

    def test_sorted_arrays(self):
        w = World(4, {"P": {2, 0}, "R": {(3, 1), (0, 0)}})
        data = world_to_json(w)
        assert data["true"]["P"] == [0, 2]
        assert data["true"]["R"] == [[0, 0], [3, 1]]


class TestDatasetFile:
    def test_load_save_byte_identical(self, batch, tmp_path):
        params, records, path = batch
        loaded = load_dataset(path)
        out = tmp_path / "copy.jsonl"
        save_dataset(loaded, str(out), [params], global_seed=6)
        assert out.read_bytes() == open(path, "rb").read()

    def test_instance_round_trip(self, batch):
        _, records, _ = batch
        for rec in records:
            again = instance_from_json(json.loads(json.dumps(instance_to_json(rec))))
            assert again.id == rec.id
            assert instance_to_json(again) == instance_to_json(rec)

    def test_load_validates_invariants(self, batch, tmp_path):
        _, records, path = batch
        lines = open(path).read().splitlines()
        data = json.loads(lines[1])
        data["baselines"]["train"]["gold_costs"][0] += 3
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(data, sort_keys=True, separators=(",", ":"))]) + "\n")
        with pytest.raises(DatasetError, match="invariant"):
            load_dataset(str(bad))

    def test_header_checked(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"format":"other"}\n')
        with pytest.raises(DatasetError, match="not a"):
            load_dataset(str(p))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["train_worlds"][0].update(n=None),
            lambda d: d.update(train_worlds=None),
            lambda d: d["train_worlds"][0].update(true=[1]),
            lambda d: d.update(gold={"formula": 5}),
            lambda d: d.update(baselines=[]),
        ],
        ids=["n-null", "train-worlds-null", "true-list", "gold-formula-int", "baselines-list"],
    )
    def test_malformed_instance_line(self, batch, tmp_path, edit):
        _, _, path = batch
        lines = open(path).read().splitlines()
        data = json.loads(lines[1])
        edit(data)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(data)]) + "\n")
        with pytest.raises(DatasetError, match=r"bad\.jsonl:2: bad instance line"):
            load_dataset(str(bad))

    @pytest.mark.parametrize("provenance", [[], None, "seed 6", 5], ids=["list", "null", "string", "int"])
    def test_provenance_must_be_an_object(self, batch, tmp_path, provenance):
        _, _, path = batch
        lines = open(path).read().splitlines()
        data = json.loads(lines[1])
        data["provenance"] = provenance
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(data)]) + "\n")
        for check in (True, False):
            with pytest.raises(DatasetError, match=r"bad\.jsonl:2: bad instance line: provenance is not a JSON object"):
                load_dataset(str(bad), check=check)

    @pytest.mark.parametrize("header", ["[1]", '{"format":"abduce-data', ""], ids=["list", "truncated", "empty"])
    def test_malformed_header_line(self, batch, tmp_path, header):
        _, _, path = batch
        lines = open(path).read().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(DatasetError, match=r"bad\.jsonl:1: bad header line"):
            load_dataset(str(bad))

    def test_generation_log_sidecar(self, batch, tmp_path):
        _, records, _ = batch
        log = tmp_path / "log.jsonl"
        save_generation_log(records, str(log))
        rows = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(rows) == len(records)
        assert all("elimination_log" in r and "pool_seed" in r for r in rows)


class TestRegenerationDeterminism:
    def test_byte_identical_files(self, tmp_path):
        params = GenParams(scenario="full", theory_id="T1", global_seed=13)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        # identical dataset_path feeds the holdout seed hash in both runs
        for out in (a, b):
            records = generate_batch(params, 2, dataset_path="canonical.jsonl")
            save_dataset(records, str(out), [params], global_seed=13)
        assert a.read_bytes() == b.read_bytes()


class TestPredictionsAndScores:
    def test_prediction_manifest_flow(self, batch, tmp_path):
        _, records, _ = batch
        preds = tmp_path / "p.jsonl"
        manifest = tmp_path / "m.jsonl"
        lines = ['{"formula":"(P x)","description":"d"}', "garbage"]
        metas = [
            {"model_id": "m1", "instance_id": records[0].id},
            {"model_id": "m1", "instance_id": records[1].id},
        ]
        preds.write_text("\n".join(lines) + "\n")
        manifest.write_text("\n".join(json.dumps(m) for m in metas) + "\n")
        loaded = load_predictions(str(preds), str(manifest))
        assert loaded[0].formula_text == "(P x)"
        assert loaded[1].formula_text is None and loaded[1].parse_error

    def test_manifest_length_mismatch(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        manifest = tmp_path / "m.jsonl"
        preds.write_text("{}\n{}\n")
        manifest.write_text('{"model_id":"m","instance_id":"i"}\n')
        with pytest.raises(DatasetError, match="manifest"):
            load_predictions(str(preds), str(manifest))

    def test_score_record_round_trip(self, batch, tmp_path):
        _, records, _ = batch
        from abduce.scoring import Prediction

        scores = score_batch(
            [Prediction(records[0].id, "m1", "(or (P x) (not (P x)))")],
            {r.id: r for r in records},
        )
        path = tmp_path / "s.jsonl"
        save_score_records(scores, str(path))
        loaded = load_score_records(str(path))
        assert loaded == scores


@pytest.mark.parametrize(
    "manifest_line",
    ['[1]', '{"model_id":"m"', '"m"', '{"model_id":"m"}', '{"model_id":"m","instance_id":7}'],
    ids=["list", "truncated", "string", "missing-key", "int-id"],
)
def test_malformed_manifest_line(tmp_path, manifest_line):
    preds = tmp_path / "p.jsonl"
    manifest = tmp_path / "m.jsonl"
    preds.write_text('{"formula":"(P x)","description":"d"}\n{}\n')
    manifest.write_text('{"model_id":"m","instance_id":"i"}\n' + manifest_line + "\n")
    with pytest.raises(DatasetError, match=r"m\.jsonl:2: bad manifest line"):
        load_predictions(str(preds), str(manifest))


@pytest.mark.parametrize(
    "score_line",
    ['{"instance_id": "a"', "[1]", '{"nope": 1}'],
    ids=["truncated", "list", "unknown-field"],
)
def test_malformed_score_line(tmp_path, score_line):
    path = tmp_path / "s.jsonl"
    path.write_text("\n" + score_line + "\n")
    with pytest.raises(DatasetError, match=r"s\.jsonl:2: bad score line"):
        load_score_records(str(path))


@pytest.mark.parametrize("theory, message", [
    ("T7", "theory T7 does not take the partial scenario, only skeptical"),
    ("TH7", "unknown theory 'TH7'"),
], ids=["outside-scenario", "internal-id"])
def test_instance_theory_must_be_a_short_id_of_the_scenario(batch, theory, message):
    # the gold of a partial T2 instance is in the scope of T7 and of TH7 (T2's
    # internal id); both lines once loaded, and TH7 then failed the audit
    _, records, _ = batch
    data = instance_to_json(records[0])
    data["theory"] = theory
    with pytest.raises(DatasetError, match=message):
        instance_from_json(data)


def _score_line(**fields):
    from dataclasses import asdict

    from abduce.scoring import ScoreRecord

    record = ScoreRecord(instance_id="i", model_id="m", scenario="full", theory_id="T1", parse_ok=True,
                         train_world_valid=(True, False))
    return json.dumps({**asdict(record), **fields})


@pytest.mark.parametrize("fields, message", [
    ({"train_gap": "abc"}, "train_gap must be Optional[float], got 'abc'"),
    ({"ast_size": True}, "ast_size must be Optional[int], got True"),
    ({"ast_size": 2.5}, "ast_size must be Optional[int], got 2.5"),
    ({"parse_ok": 1}, "parse_ok must be bool, got 1"),
    ({"instance_id": 7}, "instance_id must be str, got 7"),
    ({"holdout_valid": "yes"}, "holdout_valid must be Optional[bool], got 'yes'"),
    ({"train_world_valid": "ab"}, "train_world_valid must be tuple[bool, ...], got 'ab'"),
    ({"train_world_valid": [1, 0]}, "train_world_valid must be tuple[bool, ...], got [1, 0]"),
    ({"failure_class": "Nope"}, "unknown failure_class 'Nope'"),
    ({"failure_class": None}, "failure_class must be str, got None"),
], ids=["str-gap", "bool-int", "float-int", "int-bool", "int-str", "str-bool", "str-tuple", "int-tuple",
        "unknown-class", "null-class"])
def test_mistyped_score_line(tmp_path, fields, message):
    path = tmp_path / "s.jsonl"
    path.write_text(_score_line() + "\n" + _score_line(**fields) + "\n")
    with pytest.raises(DatasetError) as exc:
        load_score_records(str(path))
    assert str(exc.value) == f"{path}:2: bad score line: {message}"


def test_score_line_number_fits_a_float_field(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(_score_line(train_gap=0, delta_gap=0.5) + "\n")
    (record,) = load_score_records(str(path))
    assert (record.train_gap, record.delta_gap, record.train_world_valid) == (0, 0.5, (True, False))


@pytest.mark.parametrize("count, message", [
    (5, "bad.jsonl:1: header count 5 != 3 records"),
    ("3", "bad.jsonl:1: bad header line: count must be a JSON integer or null, got '3'"),
], ids=["mismatch", "string"])
def test_header_count_names_the_header_line(batch, tmp_path, count, message):
    _, _, path = batch
    header, *instances = open(path).read().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps({**json.loads(header), "count": count}), *instances]) + "\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(str(bad), check=False)
    assert str(exc.value).endswith(message)


def test_audit_failure_is_reported_before_later_lines(batch, tmp_path):
    # the check runs as each line is parsed, so the garbage on line 3 is never reached
    _, _, path = batch
    header, first, *_ = open(path).read().splitlines()
    data = json.loads(first)
    data["baselines"]["train"]["opt_costs"] = [c + 1 for c in data["baselines"]["train"]["opt_costs"]]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([header, json.dumps(data), "garbage"]) + "\n")
    with pytest.raises(DatasetError, match=r"bad\.jsonl:2: bad instance line: invariant violations"):
        load_dataset(str(bad))
    with pytest.raises(DatasetError, match=r"bad\.jsonl:3: bad instance line: Expecting value"):
        load_dataset(str(bad), check=False)


def test_prediction_lines_split_at_each_line_end(tmp_path):
    # \n, \r and \r\n each end a line; a raw U+2028 in a string does not
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    line = '{"formula":"(P x)","description":"d"}'
    held = '{"formula":"(Q x)","description":"a\u2028b"}'
    preds.write_bytes(f"{line}\r\n{held}\r{line}\n".encode())
    manifest.write_text('{"model_id":"m","instance_id":"i"}\n' * 3)
    loaded = load_predictions(str(preds), str(manifest))
    assert [p.formula_text for p in loaded] == ["(P x)", "(Q x)", "(P x)"]


@pytest.mark.parametrize("data, message", [
    ({"n": 3, "true": {"P": [0, 2, 0]}}, "P: true atom list repeats an atom"),
    ({"n": 3, "unknown": {"R": [[0, 1], [0, 1]]}}, "R: unknown atom list repeats an atom"),
    ({"n": 3, "true": {"S": [[1, 2], (1, 2)]}}, "S: true atom list repeats an atom"),
], ids=["true-unary", "unknown-pair", "list-and-tuple"])
def test_world_atom_list_must_not_repeat_an_atom(data, message):
    # World folds the copies into a set, so the line would not re-save to its own bytes
    with pytest.raises(DatasetError, match=message):
        world_from_json(data)


@pytest.mark.parametrize("key, value", [
    ("ast_size", 999), ("quantifier_depth", 7), ("ast_size", "5"), ("quantifier_depth", None),
])
def test_gold_metrics_must_be_those_of_its_formula(batch, key, value):
    _, records, _ = batch
    data = instance_to_json(records[0])
    data["gold"][key] = value
    with pytest.raises(DatasetError, match=f"gold {key} {value!r} is not its formula's "):
        instance_from_json(data)
    del data["gold"][key]
    with pytest.raises(KeyError):
        instance_from_json(data)
