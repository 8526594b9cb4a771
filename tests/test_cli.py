import json

import pytest

from abduce.cli import main
from abduce.dataset import load_dataset
from abduce.formula import render_formula
from abduce.prompts import SYSTEM_PROMPT, render_prompt


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.jsonl"
    rc = main(
        [
            "generate",
            "--scenario", "partial",
            "--theory", "T2",
            "--count", "2",
            "--seed", "4",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return str(path)


class TestCommands:
    def test_generate_outputs(self, dataset_path):
        records = load_dataset(dataset_path)
        assert len(records) == 2
        assert open(dataset_path + ".log.jsonl").read().count("\n") == 2

    def test_verify_clean(self, dataset_path, capsys):
        assert main(["verify", "--dataset", dataset_path]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_verify_oracle(self, dataset_path, capsys):
        assert main(["verify", "--dataset", dataset_path, "--oracle"]) == 0

    def test_verify_flags_corruption(self, dataset_path, tmp_path, capsys):
        lines = open(dataset_path).read().splitlines()
        data = json.loads(lines[1])
        data["baselines"]["train"]["opt_costs"][0] += 1
        lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--dataset", str(bad)]) == 1

    def test_optcost(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "opt.jsonl"
        assert main(["optcost", "--dataset", dataset_path, "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        records = load_dataset(dataset_path, check=False)
        trains = [r for r in rows if r["split"] == "train"]
        assert len(trains) == sum(len(r.train_worlds) for r in records)

    def test_score_and_report(self, dataset_path, tmp_path, capsys):
        records = load_dataset(dataset_path, check=False)
        preds = tmp_path / "p.jsonl"
        manifest = tmp_path / "m.jsonl"
        plines, mlines = [], []
        for rec in records:
            plines.append(json.dumps({"formula": render_formula(rec.gold.formula), "description": "g"}))
            mlines.append(json.dumps({"model_id": "gold-replay", "instance_id": rec.id}))
            plines.append("not json")
            mlines.append(json.dumps({"model_id": "broken", "instance_id": rec.id}))
        preds.write_text("\n".join(plines) + "\n")
        manifest.write_text("\n".join(mlines) + "\n")
        scores = tmp_path / "s.jsonl"
        rc = main(
            [
                "score",
                "--dataset", dataset_path,
                "--predictions", str(preds),
                "--manifest", str(manifest),
                "--out", str(scores),
                "--oracle",
            ]
        )
        assert rc == 0
        report_dir = tmp_path / "report"
        assert main(["report", "--scores", str(scores), "--out", str(report_dir)]) == 0
        written = {p.name for p in report_dir.iterdir()}
        assert {
            "train_summary.json",
            "holdout_conditional.json",
            "failure_modes.json",
            "beats_gold.json",
            "gap_distribution.json",
        } <= written

    def test_prompt_bundles(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "prompts.jsonl"
        assert main(["prompt", "--dataset", dataset_path, "--out", str(out)]) == 0
        bundles = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(b["system"] == SYSTEM_PROMPT for b in bundles)


class TestPromptRendering:
    def test_sections_in_order(self, dataset_path):
        records = load_dataset(dataset_path, check=False)
        rec = records[0]
        text = render_prompt(rec).user_prompt
        anchors = [
            "# First-Order Logic Abduction (Partial Observation)",
            "## Task Overview",
            "## Abnormality Semantics",
            "## Scoring / tie-breaks",
            "## Output Format",
            "## Examples of Valid Formulas",
            "## Evaluation",
            "## Problem Instance",
            "**AllowedAlphaPredicates**",
            "**Axioms**",
            "## Training Worlds",
            "## Your Task",
            "\n## Output\n",
        ]
        pos = -1
        for anchor in anchors:
            nxt = text.find(anchor)
            assert nxt > pos, f"missing or misordered: {anchor}"
            pos = nxt

    def test_partial_has_unknown_sections(self, dataset_path):
        rec = load_dataset(dataset_path, check=False)[0]
        text = render_prompt(rec).user_prompt
        assert text.count("**Unknown Atoms**") == len(rec.train_worlds)
        assert "**Known Facts**" in text

    def test_full_has_cwa_sentence(self):
        from abduce.generator import GenParams, generate_instance

        rec = generate_instance(GenParams(scenario="full", theory_id="T1", global_seed=2))
        text = render_prompt(rec).user_prompt
        assert "**Closed World Assumption**: Only the facts explicitly listed as TRUE are true." in text
        assert "Any predicate application not listed should be assumed FALSE." in text
        assert "Unknown Atoms" not in text

    def test_skeptical_has_forall_goal(self):
        from abduce.generator import GenParams, generate_instance

        rec = generate_instance(
            GenParams(scenario="skeptical", theory_id="T6", global_seed=8, world_attempts=400)
        )
        text = render_prompt(rec).user_prompt
        assert "**FOR ALL completions**" in text
        assert "worst-case" in text.lower()
        assert "**Description**:" in text

    def test_instance_content_present(self, dataset_path):
        rec = load_dataset(dataset_path, check=False)[0]
        text = render_prompt(rec).user_prompt
        assert f"**Theory ID**: {rec.internal_id}" in text
        assert render_formula(rec.theory.axiom) in text
        for i in range(len(rec.train_worlds)):
            assert f"### World W{i}" in text
        assert '["P", "R"]' in text  # T2 allowed set
        assert '["Ab", "Q", "S"]' in text  # T2 forbidden set, Ab first


def test_dataset_error_is_one_line_and_nonzero(dataset_path, tmp_path, capsys):
    preds = tmp_path / "p.jsonl"
    manifest = tmp_path / "m.jsonl"
    preds.write_text('{"formula":"(P x)","description":"d"}\n')
    manifest.write_text('{"model_id":"m"\n')
    rc = main(["score", "--dataset", dataset_path, "--predictions", str(preds),
               "--manifest", str(manifest), "--out", str(tmp_path / "s.jsonl")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("abduce score: error:") and "m.jsonl:1" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_score_unknown_manifest_id_is_one_line_error(dataset_path, tmp_path, capsys):
    preds = tmp_path / "p.jsonl"
    manifest = tmp_path / "m.jsonl"
    known = load_dataset(dataset_path, check=False)[0].id
    preds.write_text('{"formula":"(P x)","description":"d"}\n' * 2)
    manifest.write_text(
        json.dumps({"model_id": "m", "instance_id": known}) + "\n\n"
        + json.dumps({"model_id": "m", "instance_id": "no_such_instance"}) + "\n"
    )
    out = tmp_path / "s.jsonl"
    rc = main(["score", "--dataset", dataset_path, "--predictions", str(preds),
               "--manifest", str(manifest), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("abduce score: error:") and "m.jsonl:3" in err and "'no_such_instance'" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()  # nothing was scored


def _generate(out, *flags):
    return main(["generate", "--scenario", "full", "--theory", "T1", "--count", "1",
                 "--seed", "1774141687", "--out", str(out), *flags])


def test_generate_zero_holdouts_scores(tmp_path, capsys):
    path = tmp_path / "ds.jsonl"
    assert _generate(path, "--holdouts", "0") == 0
    records = load_dataset(str(path))
    assert records and not any(r.holdout_available or r.holdout_worlds for r in records)
    assert main(["verify", "--dataset", str(path)]) == 0
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    preds.write_text("".join(
        json.dumps({"formula": render_formula(r.gold.formula), "description": "g"}) + "\n" for r in records))
    manifest.write_text("".join(json.dumps({"model_id": "gold", "instance_id": r.id}) + "\n" for r in records))
    assert main(["score", "--dataset", str(path), "--predictions", str(preds),
                 "--manifest", str(manifest), "--out", str(tmp_path / "s.jsonl")]) == 0


def test_generate_negative_holdouts_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _generate(tmp_path / "ds.jsonl", "--holdouts", "-1")
    assert exc.value.code == 2
    assert "argument --holdouts: must be >= 0" in capsys.readouterr().err


def test_generation_error_is_one_line(tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert _generate(out, "--world-attempts", "0") == 2
    err = capsys.readouterr().err
    assert err.startswith("abduce generate: error:") and "instances after" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_verify_flags_cached_holdout_baselines(tmp_path, monkeypatch, capsys):
    # holdout seeds hash the output path; under this name all five slots fill
    monkeypatch.chdir(tmp_path)
    path = "bench.jsonl"
    assert _generate(path) == 0
    header, line = (tmp_path / path).read_text().splitlines()
    data = json.loads(line)
    assert data["holdout_available"] and len(data["holdout_worlds"]) == 5
    data["baselines"]["holdout"]["gold_costs"][1] += 5
    data["baselines"]["holdout"]["opt_costs"] = data["baselines"]["holdout"]["opt_costs"][:1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(header + "\n" + json.dumps(data) + "\n")
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "holdout: 1 cached opt cost(s) for 5 world(s)" in out
    assert "holdout1: cached gold cost" in out
    assert "0 violation(s)" not in out
