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
