import json
import re

import pytest

from abduce import cli, oracle
from abduce.cli import main
from abduce.dataset import load_dataset, world_to_json
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


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda data: data["train_worlds"][0].update(n=1000000), "domain size 1000000 exceeds MAX_DOMAIN_SIZE 32"),
        (lambda data: data.update(scenario="bogus"), "unknown scenario 'bogus'"),
        (lambda data: data["train_worlds"][0].update(n=6, true={}, unknown={"R": [[i // 6, i % 6] for i in range(30)]}),
         "30 unknown atoms exceed DEFAULT_ENUMERATION_CAP 24"),
    ],
    ids=["huge-domain", "unknown-scenario", "over-enumeration-cap"],
)
def test_verify_rejects_bad_instance_at_load(tmp_path, capsys, edit, expected):
    # each once ended in a traceback: a 931 GiB array, a GenParams error, or
    # an engine error on a world over the enumeration cap
    path = tmp_path / "ds.jsonl"
    assert _generate(path) == 0
    header, line = path.read_text().splitlines()
    data = json.loads(line)
    edit(data)
    path.write_text(header + "\n" + json.dumps(data) + "\n")
    capsys.readouterr()
    rc = main(["verify", "--dataset", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and f"ds.jsonl:2: bad instance line: {expected}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


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
    assert _generate(out, "--world-attempts", "1") == 2
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


@pytest.mark.parametrize(
    "key, edit, expected",
    [
        ("provenance", lambda prov: [], "bad instance line: provenance is not a JSON object"),
        ("masked_truth", lambda truths: truths[:1], "world1: no masked truth"),
        ("masked_truth", lambda truths: "none", "world0: no masked truth"),
    ],
    ids=["provenance-list", "masked-truth-short", "masked-truth-string"],
)
def test_verify_malformed_provenance_without_traceback(dataset_path, tmp_path, capsys, key, edit, expected):
    header, line, *rest = open(dataset_path).read().splitlines()
    data = json.loads(line)
    if key == "provenance":
        data["provenance"] = edit(data["provenance"])
    else:
        assert all(w["unknown"]["R"] or w["unknown"]["S"] for w in data["train_worlds"])
        data["provenance"][key] = edit(data["provenance"][key])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([header, json.dumps(data), *rest]) + "\n")
    capsys.readouterr()
    rc = main(["verify", "--dataset", str(bad)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if key == "provenance":
        assert rc == 2 and f"bad.jsonl:2: {expected}" in captured.err and captured.err.count("\n") == 1
    else:
        assert rc == 1 and f"{data['id']}: {expected}" in captured.out


@pytest.mark.parametrize(
    "flag, value, minimum",
    [("--margin", "0", 1), ("--world-budget", "0", 1), ("--count", "-3", 0),
     ("--world-attempts", "0", 1), ("--world-attempts", "-3", 1)],
)
def test_generate_rejects_out_of_range_integers(tmp_path, capsys, flag, value, minimum):
    out = tmp_path / "ds.jsonl"
    with pytest.raises(SystemExit) as exc:
        _generate(out, flag, value)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= {minimum}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_report_without_score_records_is_one_line_error(tmp_path, capsys, text):
    scores = tmp_path / "s.jsonl"
    scores.write_text(text)
    assert main(["report", "--scores", str(scores)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abduce report: error:") and f"{scores}: no score records" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("corrupt, problem", [
    ("holdout_flag", "holdouts: flagged available but there are no holdout worlds"),
    ("train_opt", "train: 0 cached opt cost(s) for"),
])
def test_score_rejects_bad_baseline_shapes(tmp_path, monkeypatch, capsys, corrupt, problem):
    # the gold as prediction: at the flagged line, scoring divided by the
    # holdout world count; with no train opt costs, the gap came out wrong.
    # Holdout seeds hash the output path; under this name no slot fills.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "ds.jsonl"
    assert _generate("ds.jsonl") == 0
    header, line = path.read_text().splitlines()
    data = json.loads(line)
    assert not data["holdout_available"] and not data["holdout_worlds"]
    if corrupt == "holdout_flag":
        data["holdout_available"] = True
    else:
        data["baselines"]["train"]["opt_costs"] = []
    bad = tmp_path / "bad.jsonl"
    bad.write_text(header + "\n" + json.dumps(data) + "\n")
    rec = load_dataset(str(path))[0]
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    preds.write_text(json.dumps({"formula": render_formula(rec.gold.formula), "description": "g"}) + "\n")
    manifest.write_text(json.dumps({"model_id": "gold", "instance_id": rec.id}) + "\n")
    out = tmp_path / "s.jsonl"
    capsys.readouterr()
    assert main(["score", "--dataset", str(bad), "--predictions", str(preds),
                 "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abduce score: error:") and rec.id in err and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    assert main(["verify", "--dataset", str(bad)]) == 1
    assert f"{rec.id}: {problem}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda data: data["train_worlds"][0].update(n=data["train_worlds"][0]["n"] + 0.5),
         "domain size must be a JSON integer, got {n}.5"),
        (lambda data: data["train_worlds"][0].update(n=str(data["train_worlds"][0]["n"])),
         "domain size must be a JSON integer, got '{n}'"),
        (lambda data: data["train_worlds"][0].update(n=True), "domain size must be a JSON integer, got True"),
        (lambda data: data.update(id=7), "instance id must be a string, got 7"),
        (lambda data: data["baselines"]["train"]["gold_costs"].__setitem__(0, "1"),
         "train gold_costs must be a list of JSON integers, got ['1'"),
        (lambda data: data["baselines"]["train"]["opt_costs"].__setitem__(0, True),
         "train opt_costs must be a list of JSON integers, got [True"),
        (lambda data: data["baselines"]["train"]["opt_costs"].__setitem__(0, 1.0),
         "train opt_costs must be a list of JSON integers, got [1.0"),
        (lambda data: data["baselines"]["holdout"].update(gold_costs="12"),
         "holdout gold_costs must be a list of JSON integers, got '12'"),
        (lambda data: data.update(holdout_available="no"), "holdout_available must be a JSON bool, got 'no'"),
        (lambda data: data.update(holdout_available=0), "holdout_available must be a JSON bool, got 0"),
    ],
    ids=["float-domain", "string-domain", "bool-domain", "integer-id",
         "string-cost", "bool-cost", "float-cost", "string-costs", "string-flag", "integer-flag"],
)
def test_verify_rejects_mistyped_fields_at_load(tmp_path, capsys, edit, expected):
    # each once loaded: int() truncated a float domain size and parsed a
    # string one, a bool counted as 1, and any id was taken as it came; a
    # string cost ended score in a TypeError, and "no" flagged holdouts
    path = tmp_path / "ds.jsonl"
    assert _generate(path) == 0
    header, line = path.read_text().splitlines()
    data = json.loads(line)
    n = data["train_worlds"][0]["n"]
    edit(data)
    path.write_text(header + "\n" + json.dumps(data) + "\n")
    capsys.readouterr()
    rc = main(["verify", "--dataset", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and f"ds.jsonl:2: bad instance line: {expected.format(n=n)}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value, bound", [("-1", "must be >= 0, got -1"), ("17", "must be <= 16, got 17")])
@pytest.mark.parametrize("command", ["verify", "score"])
def test_oracle_max_unknowns_within_what_the_oracle_enumerates(tmp_path, capsys, command, value, bound):
    # above 16 a world reached the oracle and ended in EnumerationCapError;
    # below 0 every oracle check was skipped in silence
    files = {"verify": ["--dataset", "ds.jsonl"],
             "score": ["--dataset", "ds.jsonl", "--predictions", "p.jsonl", "--manifest", "m.jsonl",
                       "--out", str(tmp_path / "s.jsonl")]}
    with pytest.raises(SystemExit) as exc:
        main([command, *files[command], "--oracle", "--oracle-max-unknowns", value])
    assert exc.value.code == 2
    assert f"argument --oracle-max-unknowns: {bound}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--dataset", "missing.jsonl"], "missing.jsonl"),
        (["optcost", "--dataset", "missing.jsonl"], "missing.jsonl"),
        (["prompt", "--dataset", "missing.jsonl", "--out", "b.jsonl"], "missing.jsonl"),
        (["score", "--dataset", "missing.jsonl", "--predictions", "p.jsonl", "--manifest", "m.jsonl",
          "--out", "s.jsonl"], "missing.jsonl"),
        (["report", "--scores", "scores"], "scores"),
        (["generate", "--scenario", "full", "--theory", "T1", "--count", "1", "--seed", "1774141687",
          "--out", "nodir/ds.jsonl"], "nodir/ds.jsonl"),
    ],
    ids=["verify", "optcost", "prompt", "score", "report-directory", "generate-missing-dir"],
)
def test_file_errors_are_one_line(tmp_path, monkeypatch, capsys, argv, name):
    # each once ended in a FileNotFoundError or IsADirectoryError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scores").mkdir()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"abduce {argv[0]}: error:") and repr(name) in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("scenario, theory, seed", [("full", "T1", 1774141687), ("skeptical", "T4", 3)],
                         ids=["full-T1", "skeptical-T4"])
def test_verify_oracle_in_each_regime(tmp_path, monkeypatch, capsys, scenario, theory, seed):
    # the partial regime is covered by test_verify_oracle; here no world
    # has more than 10 unknowns, so the oracle checks every one
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--scenario", scenario, "--theory", theory, "--count", "1", "--seed", str(seed),
                 "--out", "ds.jsonl"]) == 0
    worlds = load_dataset("ds.jsonl")[0].train_worlds
    assert all(w.num_unknowns() <= 10 for w in worlds)
    assert any(w.num_unknowns() for w in worlds) == (scenario == "skeptical")
    capsys.readouterr()
    assert main(["verify", "--dataset", "ds.jsonl", "--oracle"]) == 0
    assert capsys.readouterr().out == "verified 1 instances: 0 violation(s)\n"


def test_verify_oracle_reports_cost_mismatch(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _generate("ds.jsonl") == 0
    rec = load_dataset("ds.jsonl")[0]
    world_cost = oracle.world_cost
    monkeypatch.setattr(oracle, "world_cost", lambda *args: world_cost(*args) + 1)
    capsys.readouterr()
    assert main(["verify", "--dataset", "ds.jsonl", "--oracle"]) == 1
    out = capsys.readouterr().out
    for i, gold_cost in enumerate(rec.train_gold_costs):
        assert f"{rec.id}: world{i} cost engine={gold_cost} oracle={gold_cost + 1}\n" in out
    assert f"{len(rec.train_worlds)} violation(s)" in out


def _refuse(*args, **kwargs):
    raise AssertionError("ran the work before checking --out")


@pytest.mark.parametrize("out, reason", [("nodir/out.jsonl", "[Errno 2] No such file or directory"),
                                         ("scores", "[Errno 21] Is a directory")],
                         ids=["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["generate", "score"])
def test_unwritable_out_fails_before_the_work(dataset_path, tmp_path, monkeypatch, capsys, command, out,
                                              reason):
    # generate_batch and score_batch once ran to the end before --out was opened
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scores").mkdir()
    monkeypatch.setattr(cli, "generate_batch", _refuse)
    monkeypatch.setattr(cli, "score_batch", _refuse)
    rec = load_dataset(dataset_path)[0]
    (tmp_path / "p.jsonl").write_text(
        json.dumps({"formula": render_formula(rec.gold.formula), "description": "g"}) + "\n")
    (tmp_path / "m.jsonl").write_text(json.dumps({"model_id": "gold", "instance_id": rec.id}) + "\n")
    argv = {
        "generate": ["generate", "--scenario", "full", "--theory", "T1", "--count", "1", "--out", out],
        "score": ["score", "--dataset", dataset_path, "--predictions", "p.jsonl", "--manifest", "m.jsonl",
                  "--out", out],
    }[command]
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"abduce {command}: error: {reason}: {out!r}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def _gold_scores(dataset_path, tmp_path):
    """A score file for the gold replay of every instance of the dataset."""
    records = load_dataset(dataset_path, check=False)
    (tmp_path / "p.jsonl").write_text("".join(
        json.dumps({"formula": render_formula(r.gold.formula), "description": "g"}) + "\n" for r in records))
    (tmp_path / "m.jsonl").write_text("".join(
        json.dumps({"model_id": "gold", "instance_id": r.id}) + "\n" for r in records))
    assert main(["score", "--dataset", dataset_path, "--predictions", str(tmp_path / "p.jsonl"),
                 "--manifest", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "s.jsonl")]) == 0
    return str(tmp_path / "s.jsonl")


@pytest.mark.parametrize("command, out, reason", [
    ("optcost", "nodir/o.jsonl", "[Errno 2] No such file or directory"),
    ("report", "afile", "[Errno 17] File exists"),
], ids=["optcost-missing-dir", "report-existing-file"])
def test_unwritable_out_fails_before_printing(dataset_path, tmp_path, monkeypatch, capsys, command, out, reason):
    # both once printed their whole table or report, then failed on --out
    scores = _gold_scores(dataset_path, tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    argv = {"optcost": ["optcost", "--dataset", dataset_path, "--out", out],
            "report": ["report", "--scores", scores, "--out", out]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"abduce {command}: error: {reason}: {out!r}\n"


@pytest.mark.parametrize("field, value, message", [
    ("train_gap", "abc", "train_gap must be Optional[float], got 'abc'"),
    ("failure_class", "Nope", "unknown failure_class 'Nope'"),
], ids=["string-gap", "unknown-class"])
def test_report_rejects_mistyped_score_line(dataset_path, tmp_path, capsys, field, value, message):
    # a numpy TypeError and a KeyError traceback once, with exit 1
    scores = tmp_path / "s.jsonl"
    lines = open(_gold_scores(dataset_path, tmp_path)).read().splitlines()
    data = json.loads(lines[1])
    data[field] = value
    scores.write_text(lines[0] + "\n" + json.dumps(data) + "\n")
    capsys.readouterr()
    assert main(["report", "--scores", str(scores)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"abduce report: error: {scores}:2: bad score line: {message}\n"


@pytest.mark.parametrize("scenario, theory", [("full", "T6"), ("partial", "T7")])
def test_generate_rejects_theory_outside_its_scenario(tmp_path, monkeypatch, capsys, scenario, theory):
    # T6 and T7 declare only the skeptical scenario, yet such a dataset was written and verified clean
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "generate_batch", _refuse)
    assert main(["generate", "--scenario", scenario, "--theory", theory, "--count", "1", "--out", "ds.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"abduce generate: error: theory {theory} does not take the {scenario} scenario, "
                            "only skeptical\n")
    assert list(tmp_path.iterdir()) == []


def _rewrite_first_instance(dataset_path, out, edit):
    """Copy the dataset to `out` with `edit` applied to its first instance."""
    header, line, *rest = open(dataset_path).read().splitlines()
    data = json.loads(line)
    edit(data)
    out.write_text("\n".join([header, json.dumps(data), *rest]) + "\n")


@pytest.mark.parametrize("command", ["verify", "prompt"])
@pytest.mark.parametrize("internal", ["TH9", ["TH3"]], ids=["other-id", "list"])
def test_theory_internal_must_match_the_theory(dataset_path, tmp_path, capsys, command, internal):
    # a T2 line claiming TH9 loaded, verified, and was prompted as TH9
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, lambda data: data.update(theory_internal=internal))
    extra = ["--out", str(tmp_path / "prompts.jsonl")] if command == "prompt" else []
    capsys.readouterr()
    rc = main([command, "--dataset", str(bad), *extra])
    err = capsys.readouterr().err
    assert rc == 2 and f"bad.jsonl:2: bad instance line: theory_internal {internal!r} is not T2's" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_rejects_non_integer_pool_seed(dataset_path, tmp_path, capsys):
    # Random([1]) in the pool audit ended verify in a TypeError traceback
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, lambda data: data["provenance"].update(pool_seed=[1]))
    capsys.readouterr()
    rc = main(["verify", "--dataset", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2 and "bad.jsonl:2: bad instance line: provenance pool_seed must be a JSON integer or null" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("worlds", [[], {}], ids=["empty-list", "object"])
def test_score_rejects_an_instance_without_training_worlds(dataset_path, tmp_path, capsys, worlds):
    # with no training worlds, score ended in a ZeroDivisionError traceback
    def edit(data):
        data.update(train_worlds=worlds)
        data["baselines"]["train"] = {"opt_costs": [], "gold_costs": []}
        data["provenance"].pop("masked_truth")

    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, edit)
    rec = load_dataset(dataset_path, check=False)[0]
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    preds.write_text(json.dumps({"formula": render_formula(rec.gold.formula), "description": "g"}) + "\n")
    manifest.write_text(json.dumps({"model_id": "gold", "instance_id": rec.id}) + "\n")
    capsys.readouterr()
    rc = main(["score", "--dataset", str(bad), "--predictions", str(preds), "--manifest", str(manifest),
               "--out", str(tmp_path / "s.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2 and f"bad.jsonl:2: bad instance line: train_worlds must be a non-empty JSON list, got {worlds!r}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _unknown_p0(world):
    """A copy of `world` with the atom P(0) moved to unknown."""
    true = dict(world["true"], P=[a for a in world["true"]["P"] if a != 0])
    return dict(world, true=true, unknown=dict(world["unknown"], P=[0]))


@pytest.mark.parametrize("command", ["verify", "score"])
@pytest.mark.parametrize("split", ["train", "holdout"])
def test_full_scenario_world_with_unknown_atoms_rejected_at_load(tmp_path, capsys, command, split):
    # both ended in a "full regime requires a fully observed world"
    # ValueError traceback, with exit 1
    path = tmp_path / "ds.jsonl"
    assert _generate(path) == 0
    rec = load_dataset(str(path))[0]
    bad = tmp_path / "bad.jsonl"

    def edit(data):
        if split == "train":
            data["train_worlds"][0] = _unknown_p0(data["train_worlds"][0])
        else:
            # a whole holdout slot, so only the unknown atom is wrong
            data["holdout_worlds"].append(_unknown_p0(data["train_worlds"][0]))
            for kind in ("opt_costs", "gold_costs"):
                data["baselines"]["holdout"][kind].append(data["baselines"]["train"][kind][0])
            data["holdout_available"] = True

    _rewrite_first_instance(str(path), bad, edit)
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    preds.write_text(json.dumps({"formula": render_formula(rec.gold.formula), "description": "g"}) + "\n")
    manifest.write_text(json.dumps({"model_id": "gold", "instance_id": rec.id}) + "\n")
    argv = {"verify": ["verify", "--dataset", str(bad)],
            "score": ["score", "--dataset", str(bad), "--predictions", str(preds), "--manifest", str(manifest),
                      "--out", str(tmp_path / "s.jsonl")]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    world = len(rec.holdout_worlds) if split == "holdout" else 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"abduce {command}: error: {bad}:2: bad instance line: {split} world {world} has "
                            "1 unknown atom(s), but the full scenario observes every atom\n")


def test_optcost_rejects_bad_baseline_shapes(dataset_path, tmp_path, capsys):
    # one cached train opt cost for several train worlds printed a one-row
    # table for that instance, with exit 0
    rec = load_dataset(dataset_path, check=False)[0]
    assert len(rec.train_worlds) > 1
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, lambda data: data["baselines"]["train"].update(
        opt_costs=data["baselines"]["train"]["opt_costs"][:1]))
    out = tmp_path / "o.jsonl"
    capsys.readouterr()
    assert main(["optcost", "--dataset", str(bad), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"abduce optcost: error: {bad}: instance {rec.id}: "
                            f"train: 1 cached opt cost(s) for {len(rec.train_worlds)} world(s)\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, improvement, ast", [
    (dict(beats_gold=True, train_cost=None, gold_cost=None, gap_gold=None, ast_size=None), None, None),
    (dict(beats_gold=True, train_world_valid=[], gap_gold=-1.5), 1.5, "ast"),
], ids=["null-costs", "no-train-verdicts"])
def test_report_takes_every_loadable_beats_gold_line(dataset_path, tmp_path, capsys, edit, improvement, ast):
    # the beats-gold table ended report in a TypeError and a
    # ZeroDivisionError traceback on these lines, which load cleanly
    lines = open(_gold_scores(dataset_path, tmp_path)).read().splitlines()
    data = json.loads(lines[0])
    assert data["train_valid"]
    data.update(edit)
    scores = tmp_path / "bad.jsonl"
    scores.write_text(json.dumps(data) + "\n")
    capsys.readouterr()
    assert main(["report", "--scores", str(scores), "--out", str(tmp_path / "report")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (row,) = json.loads((tmp_path / "report" / "beats_gold.json").read_text())
    assert row["n"] == 1 and row["avg_improvement"] == improvement
    assert row["avg_ast"] == (None if ast is None else float(data["ast_size"]))


DEEP_LINE = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("kind, lineno", [("manifest", 1), ("score", 1), ("instance", 2), ("header", 1)])
def test_deep_line_is_one_error_line(dataset_path, tmp_path, capsys, kind, lineno):
    # each ended in a RecursionError traceback with exit 1
    header, *instances = open(dataset_path).read().splitlines()
    bad = tmp_path / "bad.jsonl"
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"formula":"(P x)","description":"d"}\n')
    bad.write_text({
        "manifest": DEEP_LINE, "score": DEEP_LINE,
        "instance": "\n".join([header, DEEP_LINE]), "header": "\n".join([DEEP_LINE, *instances]),
    }[kind] + "\n")
    command, argv = {
        "manifest": ("score", ["--dataset", dataset_path, "--predictions", str(preds), "--manifest", str(bad),
                               "--out", str(tmp_path / "s.jsonl")]),
        "score": ("report", ["--scores", str(bad)]),
        "instance": ("verify", ["--dataset", str(bad)]),
        "header": ("verify", ["--dataset", str(bad)]),
    }[kind]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"abduce {command}: error: {bad}:{lineno}: bad {kind} line: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _score_lines(dataset_path, tmp_path, lines: list[bytes]) -> list[dict]:
    """The score lines `abduce score` writes for these prediction lines, each
    against the dataset's first instance; the command must exit 0."""
    iid = load_dataset(dataset_path, check=False)[0].id
    preds, manifest, out = tmp_path / "p.jsonl", tmp_path / "m.jsonl", tmp_path / "s.jsonl"
    preds.write_bytes(b"".join(line + b"\n" for line in lines))
    manifest.write_text((json.dumps({"model_id": "m", "instance_id": iid}) + "\n") * len(lines))
    assert main(["score", "--dataset", dataset_path, "--predictions", str(preds),
                 "--manifest", str(manifest), "--out", str(out)]) == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


def _gold_line(dataset_path) -> bytes:
    gold = load_dataset(dataset_path, check=False)[0].gold.formula
    return json.dumps({"formula": render_formula(gold), "description": "g"}).encode()


@pytest.mark.parametrize("line", [
    DEEP_LINE.encode(),
    b'{"formula": "(P x)", "description": ' + DEEP_LINE.encode() + b"}",
    b'{"formula": "(P x)", "description": "d", "n": ' + b"9" * 5000 + b"}",
], ids=["deep-array", "deep-description", "5000-digit-int"])
def test_hostile_prediction_line_scores_as_parse_error(dataset_path, tmp_path, capsys, line):
    # a RecursionError or a ValueError traceback ended score, exit 1 and no records
    gold = _gold_line(dataset_path)
    records = _score_lines(dataset_path, tmp_path, [gold, line, gold])
    assert [r["failure_class"] for r in records] == ["Success", "ParseError", "Success"]
    assert records[1]["parse_error"].startswith("not a single JSON object: ")


def test_prediction_line_with_bad_utf8_scores_as_parse_error(dataset_path, tmp_path, capsys):
    # a UnicodeDecodeError traceback ended score, exit 1 and no records
    gold = _gold_line(dataset_path)
    records = _score_lines(dataset_path, tmp_path, [gold, b'{"formula": "(P x\xff)", "description": "d"}', gold])
    assert [r["failure_class"] for r in records] == ["Success", "ParseError", "Success"]
    assert records[1]["formula_text"] == "(P x\ufffd)"


def test_dataset_line_with_bad_utf8_is_one_error_line(dataset_path, tmp_path, capsys):
    # a UnicodeDecodeError traceback ended verify, score, optcost and prompt
    header, first, *rest = open(dataset_path, "rb").read().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join([header, first.replace(b'"id":"', b'"id":"\xff'), *rest]) + b"\n")
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"abduce verify: error: {bad}:2: bad instance line: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def _no_nan(name):
    raise ValueError(f"{name} is not JSON")


def test_report_leaves_null_train_gaps_out(dataset_path, tmp_path, capsys):
    # a train-valid line with a null gap printed nan and wrote NaN, which is
    # not JSON, into gap_distribution.json
    lines = open(_gold_scores(dataset_path, tmp_path)).read().splitlines()
    data = [json.loads(line) for line in lines]
    assert all(d["train_valid"] for d in data) and len(data) == 2
    data[0]["train_gap"] = None
    scores = tmp_path / "null_gap.jsonl"
    scores.write_text("".join(json.dumps(d) + "\n" for d in data))
    capsys.readouterr()
    assert main(["report", "--scores", str(scores), "--out", str(tmp_path / "report")]) == 0
    assert "nan" not in capsys.readouterr().out
    text = (tmp_path / "report" / "gap_distribution.json").read_text()
    (row,) = json.loads(text, parse_constant=_no_nan)
    assert row["n"] == 1 and row["mean"] == data[1]["train_gap"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999", "9" * 400, str(2**53 + 1)],
                         ids=["nan", "infinity", "1e999", "400-digit-int", "2**53+1"])
def test_report_rejects_score_numbers_past_the_bound(dataset_path, tmp_path, capsys, value):
    # NaN and the infinities reached the report's JSON files; a 400-digit
    # integer ended report in an OverflowError traceback
    line = open(_gold_scores(dataset_path, tmp_path)).read().splitlines()[0]
    scores = tmp_path / "big.jsonl"
    scores.write_text(re.sub(r'"train_gap":[^,]*', f'"train_gap":{value}', line) + "\n")
    capsys.readouterr()
    assert main(["report", "--scores", str(scores)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"abduce report: error: {scores}:1: bad score line: train_gap must be Optional[float]")
    assert err.count("\n") == 1


def test_report_takes_score_numbers_at_the_bound(dataset_path, tmp_path, capsys):
    line = open(_gold_scores(dataset_path, tmp_path)).read().splitlines()[0]
    scores = tmp_path / "edge.jsonl"
    scores.write_text(re.sub(r'"train_gap":[^,]*', f'"train_gap":{-2**53}', line) + "\n")
    assert main(["report", "--scores", str(scores), "--out", str(tmp_path / "report")]) == 0
    (row,) = json.loads((tmp_path / "report" / "gap_distribution.json").read_text(), parse_constant=_no_nan)
    assert row["mean"] == -2**53


def test_score_rejects_baseline_costs_past_the_bound(dataset_path, tmp_path, capsys):
    # a 400-digit cached cost ended score in an OverflowError traceback
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, lambda data: data["baselines"]["train"].update(
        opt_costs=[10**400] * len(data["train_worlds"])))
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    preds.write_text('{"formula":"(P x)","description":"d"}\n')
    manifest.write_text(json.dumps({"model_id": "m", "instance_id": load_dataset(dataset_path)[0].id}) + "\n")
    capsys.readouterr()
    assert main(["score", "--dataset", str(bad), "--predictions", str(preds), "--manifest", str(manifest),
                 "--out", str(tmp_path / "s.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"abduce score: error: {bad}:2: bad instance line: train opt_costs must be a list of JSON")
    assert err.count("\n") == 1


def test_holdouts_depend_only_on_the_out_file_name(tmp_path, monkeypatch):
    # holdout seeds hashed --out as spelled, so these wrote three datasets
    monkeypatch.chdir(tmp_path)
    outs = ["a/ds.jsonl", "./b/ds.jsonl", str(tmp_path / "c" / "ds.jsonl")]
    for out in outs:
        (tmp_path / out).parent.mkdir()
        assert main(["generate", "--scenario", "full", "--theory", "T1", "--count", "2", "--seed", "5",
                     "--out", out]) == 0
    assert any(r.holdout_available for r in load_dataset(outs[0]))
    for suffix in ("", ".log.jsonl"):
        files = {(tmp_path / (out + suffix)).read_bytes() for out in outs}
        assert len(files) == 1


def test_optcost_and_prompt_write_canonical_lines(dataset_path, tmp_path):
    for command in ("optcost", "prompt"):
        out = tmp_path / f"{command}.jsonl"
        assert main([command, "--dataset", dataset_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines and all(line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
                             for line in lines)


@pytest.mark.parametrize("char, failure", [
    ("\u2028", "Success"), ("\u2029", "Success"), ("\x85", "Success"),
    # raw control characters are not JSON, so that line alone fails to parse
    ("\x0c", "ParseError"), ("\x0b", "ParseError"),
], ids=["U+2028", "U+2029", "U+0085", "form-feed", "vertical-tab"])
def test_prediction_line_splits_only_at_line_ends(dataset_path, tmp_path, capsys, char, failure):
    # str.splitlines broke a line at each of these, so a gold replay whose
    # description held a raw U+2028 failed the batch: "manifest has 3
    # entries but predictions file has 4 lines", exit 2
    gold = _gold_line(dataset_path)
    raw = gold.replace(b'"description": "g"', f'"description": "a{char}b"'.encode())
    assert char.encode() in raw
    records = _score_lines(dataset_path, tmp_path, [gold, raw, gold])
    assert [r["failure_class"] for r in records] == ["Success", failure, "Success"]


def _duplicate_second_id(dataset_path, out):
    """Copy the dataset to `out` with its second instance taking the first's id."""
    header, first, second, *rest = open(dataset_path).read().splitlines()
    data = json.loads(second)
    data["id"] = json.loads(first)["id"]
    out.write_text("\n".join([header, first, json.dumps(data), *rest]) + "\n")
    return data["id"]


@pytest.mark.parametrize("command", ["verify", "score"])
def test_duplicate_instance_id_rejected_at_load(tmp_path, capsys, command):
    # the repeated id loaded, and score, keyed by id, scored the first
    # instance's gold replay against the second instance's worlds
    path = tmp_path / "ds.jsonl"
    assert main(["generate", "--scenario", "full", "--theory", "T1", "--count", "2", "--seed", "3",
                 "--out", str(path)]) == 0
    bad = tmp_path / "bad.jsonl"
    iid = _duplicate_second_id(str(path), bad)
    preds, manifest = tmp_path / "p.jsonl", tmp_path / "m.jsonl"
    preds.write_text(_gold_line(str(path)).decode() + "\n")
    manifest.write_text(json.dumps({"model_id": "gold", "instance_id": iid}) + "\n")
    argv = {"verify": ["verify", "--dataset", str(bad)],
            "score": ["score", "--dataset", str(bad), "--predictions", str(preds), "--manifest", str(manifest),
                      "--out", str(tmp_path / "s.jsonl")]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"abduce {command}: error: {bad}:3: bad instance line: duplicate instance id {iid!r}\n"
    assert not (tmp_path / "s.jsonl").exists()


def _repeat_first_true_p_atom(data):
    atoms = data["train_worlds"][0]["true"]["P"]
    atoms += atoms[:1] * 3


@pytest.mark.parametrize("edit, reason", [
    (_repeat_first_true_p_atom, "P: true atom list repeats an atom"),
    (lambda data: data["gold"].update(ast_size=999), "gold ast_size 999 is not its formula's "),
    (lambda data: data["gold"].update(quantifier_depth=7), "gold quantifier_depth 7 is not its formula's "),
], ids=["repeated-atom", "ast-size", "quantifier-depth"])
def test_non_canonical_instance_line_rejected_at_load(dataset_path, tmp_path, capsys, edit, reason):
    # each line verified with 0 violations, and save_dataset wrote other bytes for it;
    # the repeated-atom edit needs a true P atom in train world 0
    assert json.loads(open(dataset_path).read().splitlines()[1])["train_worlds"][0]["true"]["P"]
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, edit)
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"abduce verify: error: {bad}:2: bad instance line: {reason}")
    assert captured.err.count("\n") == 1


def test_optcost_writes_every_train_and_holdout_world(dataset_path, tmp_path):
    out = tmp_path / "opt.jsonl"
    assert main(["optcost", "--dataset", dataset_path, "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    records = load_dataset(dataset_path, check=False)
    assert any(r.holdout_worlds for r in records)
    expected = [
        {"id": r.id, "split": split, "world": i, "opt_cost": o, "gold_cost": g}
        for r in records
        for split, opts, golds in (("train", r.train_opt_costs, r.train_gold_costs),
                                   ("holdout", r.holdout_opt_costs, r.holdout_gold_costs))
        for i, (o, g) in enumerate(zip(opts, golds))
    ]
    assert rows == expected
    assert len(rows) == sum(len(r.train_worlds) + len(r.holdout_worlds) for r in records)


def test_score_oracle_counts_the_checks_it_skips(tmp_path, monkeypatch, capsys):
    # its one training world has 6 unknown atoms: under a cap of 0 the oracle
    # checks nothing, and score read "0 oracle mismatches" as if it had
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--scenario", "partial", "--theory", "T2", "--count", "1", "--seed", "3",
                 "--out", "ds.jsonl"]) == 0
    assert [w.num_unknowns() for w in load_dataset("ds.jsonl")[0].train_worlds] == [6]
    _gold_scores("ds.jsonl", tmp_path)
    score = ["score", "--dataset", "ds.jsonl", "--predictions", "p.jsonl", "--manifest", "m.jsonl",
             "--out", "s.jsonl", "--oracle"]
    note = " (1 oracle checks skipped over the unknown cap)\n"
    capsys.readouterr()
    assert main(score + ["--oracle-max-unknowns", "0"]) == 0
    assert capsys.readouterr().out == "scored 1 predictions: 1 train-valid, 0 parse errors, 0 oracle mismatches" + note
    assert main(["verify", "--dataset", "ds.jsonl", "--oracle", "--oracle-max-unknowns", "0"]) == 0
    assert capsys.readouterr().out == "verified 1 instances: 0 violation(s)" + note
    assert main(score) == 0
    assert capsys.readouterr().out == "scored 1 predictions: 1 train-valid, 0 parse errors, 0 oracle mismatches\n"


def test_score_oracle_checks_and_counts_holdout_worlds(tmp_path, monkeypatch, capsys):
    # score records validity on holdout worlds too, but the oracle used to
    # check only the training worlds and count only their skips
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--scenario", "partial", "--theory", "T2", "--count", "1", "--seed", "4",
                 "--out", "ds.jsonl"]) == 0
    (rec,) = load_dataset("ds.jsonl")
    assert rec.holdout_worlds and all(w.num_unknowns() for w in rec.train_worlds + rec.holdout_worlds)
    _gold_scores("ds.jsonl", tmp_path)
    score = ["score", "--dataset", "ds.jsonl", "--predictions", "p.jsonl", "--manifest", "m.jsonl",
             "--out", "s.jsonl", "--oracle"]
    capsys.readouterr()
    assert main(score + ["--oracle-max-unknowns", "0"]) == 0
    skipped = len(rec.train_worlds) + len(rec.holdout_worlds)
    assert capsys.readouterr().out == (
        "scored 1 predictions: 1 train-valid, 0 parse errors, 0 oracle mismatches"
        f" ({skipped} oracle checks skipped over the unknown cap)\n"
    )
    checked = []
    world_valid = oracle.world_valid
    monkeypatch.setattr(oracle, "world_valid",
                        lambda *args: checked.append(world_to_json(args[2])) or world_valid(*args))
    assert main(score) == 0
    assert capsys.readouterr().out == "scored 1 predictions: 1 train-valid, 0 parse errors, 0 oracle mismatches\n"
    assert checked == [world_to_json(w) for w in rec.train_worlds + rec.holdout_worlds]
    # a holdout verdict the engine and the oracle disagree on is a mismatch
    last = world_to_json(rec.holdout_worlds[-1])
    monkeypatch.setattr(oracle, "world_valid",
                        lambda *args: world_to_json(args[2]) != last and world_valid(*args))
    assert main(score) == 1
    assert capsys.readouterr().out.count("oracle validity mismatch") == 1


@pytest.mark.parametrize("command", ["verify", "optcost", "score"])
def test_holdout_worlds_flagged_unavailable_are_rejected(tmp_path, monkeypatch, capsys, command):
    # with holdouts flagged unavailable, verify skipped the holdout worlds
    # and passed a wrong cached gold cost, and optcost and score took the line
    monkeypatch.chdir(tmp_path)
    assert _generate("bench.jsonl") == 0
    rec = load_dataset("bench.jsonl")[0]
    assert rec.holdout_available and len(rec.holdout_worlds) == 5
    gold = rec.holdout_gold_costs[0]

    def edit(data):
        data["holdout_available"] = False
        data["baselines"]["holdout"]["gold_costs"][0] += 7

    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance("bench.jsonl", bad, edit)
    preds, manifest, out = tmp_path / "p.jsonl", tmp_path / "m.jsonl", tmp_path / "out.jsonl"
    preds.write_text(json.dumps({"formula": render_formula(rec.gold.formula), "description": "g"}) + "\n")
    manifest.write_text(json.dumps({"model_id": "gold", "instance_id": rec.id}) + "\n")
    argv = {"verify": ["verify", "--dataset", str(bad)],
            "optcost": ["optcost", "--dataset", str(bad), "--out", str(out)],
            "score": ["score", "--dataset", str(bad), "--predictions", str(preds), "--manifest", str(manifest),
                      "--out", str(out)]}[command]
    problem = "holdouts: 5 holdout world(s) but holdouts are flagged unavailable"
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    if command == "verify":
        assert rc == 1
        assert f"{rec.id}: {problem}\n" in captured.out
        assert f"{rec.id}: holdout0: cached gold cost {gold + 7} != {gold}\n" in captured.out
        assert "2 violation(s)" in captured.out
    else:
        assert rc == 2 and captured.out == ""
        assert captured.err == f"abduce {command}: error: {bad}: instance {rec.id}: {problem}\n"
        assert not out.exists()


@pytest.mark.parametrize("worlds", ["", {}], ids=["string", "object"])
def test_holdout_worlds_must_be_a_list(dataset_path, tmp_path, capsys, worlds):
    # either loaded as an instance without holdouts
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, lambda data: data.update(holdout_worlds=worlds))
    capsys.readouterr()
    rc = main(["verify", "--dataset", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2 and f"bad.jsonl:2: bad instance line: holdout_worlds must be a JSON list, got {worlds!r}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _first_instance(path):
    return json.loads(open(path).read().splitlines()[1])


def _bump(key, by, index=None):
    """An edit adding `by` to a provenance number, or to its entry `index`."""
    def edit(data):
        prov = data["provenance"]
        if index is None:
            prov[key] += by
        else:
            prov[key][index] += by
    return edit


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_bump("cheater_margin", 5), "recorded cheater margin {0[cheater_margin]} != {1[cheater_margin]}"),
        (_bump("pre_mask_opt_costs", 8, 0),
         "world0: recorded pre-mask opt {0[pre_mask_opt_costs][0]} != {1[pre_mask_opt_costs][0]}"),
        (_bump("pre_mask_gold_costs", 8, 0),
         "world0: recorded pre-mask gold cost {0[pre_mask_gold_costs][0]} != {1[pre_mask_gold_costs][0]}"),
        (lambda data: data["provenance"].update(shared_domain_size=10),
         "shared_domain_size 10 does not fit the partial worlds' sizes"),
    ],
    ids=["cheater-margin", "pre-mask-opt", "pre-mask-gold", "shared-size-not-skeptical"],
)
def test_verify_checks_the_recorded_provenance_numbers(dataset_path, tmp_path, capsys, edit, expected):
    # each edited number verified clean: the audit never compared it
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, edit)
    recorded, clean = _first_instance(bad), _first_instance(dataset_path)
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{clean['id']}: {expected.format(recorded['provenance'], clean['provenance'])}" in out
    assert "1 violation(s)" in out


def _drop(key, keep=None):
    """An edit deleting a provenance key, or cutting its list to `keep` entries."""
    def edit(data):
        prov = data["provenance"]
        if keep is None:
            del prov[key]
        else:
            prov[key] = prov[key][:keep]
    return edit


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_drop("pre_mask_opt_costs"), "pre_mask_opt_costs: None does not hold one cost per train world (2)"),
        (_drop("pre_mask_gold_costs"), "pre_mask_gold_costs: None does not hold one cost per train world (2)"),
        (_drop("pre_mask_opt_costs", 1), "pre_mask_opt_costs: [{0[pre_mask_opt_costs][0]}] does not hold"),
        (_drop("pre_mask_gold_costs", 1), "pre_mask_gold_costs: [{0[pre_mask_gold_costs][0]}] does not hold"),
        (_drop("cheater_margin"), "no recorded cheater margin"),
    ],
    ids=["no-pre-mask-opt", "no-pre-mask-gold", "short-pre-mask-opt", "short-pre-mask-gold", "no-cheater-margin"],
)
def test_verify_requires_the_provenance_numbers_of_a_generated_line(dataset_path, tmp_path, capsys, edit, expected):
    # each edit verified clean: the audit compared only the numbers present
    bad = tmp_path / "bad.jsonl"
    _rewrite_first_instance(dataset_path, bad, edit)
    clean = _first_instance(dataset_path)
    assert len(clean["train_worlds"]) == 2 and clean["provenance"]["pool_seed"] is not None
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{clean['id']}: {expected.format(clean['provenance'])}" in out
    assert "1 violation(s)" in out


def test_verify_checks_the_skeptical_shared_domain_size(tmp_path, capsys):
    path, bad = tmp_path / "s.jsonl", tmp_path / "bad.jsonl"
    assert main(["generate", "--scenario", "skeptical", "--theory", "T4", "--count", "1", "--seed", "2",
                 "--world-attempts", "1500", "--out", str(path)]) == 0
    data = _first_instance(path)
    sizes = sorted({w["n"] for w in data["train_worlds"] + data["holdout_worlds"]})
    assert sizes == [data["provenance"]["shared_domain_size"]]
    _rewrite_first_instance(path, bad, lambda data: data["provenance"].update(shared_domain_size=99))
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{data['id']}: shared_domain_size 99 does not fit the skeptical worlds' sizes {sizes}\n" in out
    assert "1 violation(s)" in out


def test_refined_full_instance_records_its_gold_pre_mask_costs(tmp_path, capsys):
    # refinement replaced the gold but kept the seed gold's pre-mask costs:
    # [2, 1, 3] beside train gold costs [1, 1, 3] in a full-scenario file
    path = tmp_path / "r.jsonl"
    assert main(["generate", "--scenario", "full", "--theory", "T2", "--count", "1", "--seed", "11",
                 "--refine", "--out", str(path)]) == 0
    data = _first_instance(path)
    assert data["provenance"]["pre_mask_gold_costs"] == data["baselines"]["train"]["gold_costs"]
    assert main(["verify", "--dataset", str(path)]) == 0


@pytest.mark.parametrize("key, value, records", [("scenarios", ["skeptical"], ["partial"]), ("theories", ["T7"], ["T2"])],
                         ids=["scenarios", "theories"])
def test_header_scenarios_and_theories_must_match_the_records(dataset_path, tmp_path, capsys, key, value, records):
    # a header claiming what no record holds verified clean
    header, *rest = open(dataset_path).read().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps({**json.loads(header), key: value}), *rest]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--dataset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"abduce verify: error: {bad}:1: header {key} {value} != {records} of the records\n"
