"""End-to-end smoke tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from advgrad import cli, harness
from advgrad.cli import main
from advgrad.generator import load_generator
from advgrad.harness import synth_dataset, write_idx
from advgrad.models import TrainConfig, load_model, train_classifier
from advgrad.numerics import ImageShape

REPO = Path(__file__).resolve().parents[1]


def test_train_model_writes_checkpoint(tmp_path, capsys):
    out = tmp_path / "mlp.json"
    main(["train-model", "--kind", "mlp-1-hidden", "--n", "30", "--epochs", "2",
          "--out", str(out)])
    assert out.exists()
    model = load_model(str(out))
    assert model.kind == "mlp-1-hidden"
    assert "train accuracy" in capsys.readouterr().out


def test_train_model_defaults_are_train_config_defaults(tmp_path, monkeypatch):
    seen = []

    def spy(dataset, kind, cfg):
        seen.append(cfg)
        return train_classifier(dataset, kind, TrainConfig(epochs=0))

    monkeypatch.setattr(cli, "train_classifier", spy)
    main(["train-model", "--kind", "softmax-linear", "--n", "30",
          "--out", str(tmp_path / "lin.json")])
    assert seen == [TrainConfig()]


def test_train_model_reads_idx_files(tmp_path, capsys):
    ds = synth_dataset("blobs", 12, ImageShape(6, 5, 1), seed=0)
    ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    write_idx(ds, ip, lp)
    out = tmp_path / "lin.json"
    main(["train-model", "--kind", "softmax-linear", "--epochs", "1",
          "--idx-images", ip, "--idx-labels", lp, "--out", str(out)])
    assert load_model(str(out)).image_shape == ImageShape(6, 5, 1)
    assert "on 12 examples" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="--idx-images needs --idx-labels"):
        main(["train-model", "--kind", "softmax-linear", "--idx-images", ip,
              "--out", str(out)])


def test_train_generator_requires_two_checkpoints(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["train-model", "--kind", "mlp-1-hidden", "--n", "30", "--epochs", "1",
          "--out", str(a)])
    main(["train-model", "--kind", "softmax-linear", "--n", "30", "--epochs", "1",
          "--seed", "1", "--out", str(b)])
    gen_path = tmp_path / "gen.json"
    main(["train-generator", "--pool", str(a), str(b), "--n", "30",
          "--steps", "2", "--total-steps", "3", "--out", str(gen_path)])
    gen = load_generator(str(gen_path))
    assert gen.steps == 2

    with pytest.raises(SystemExit):
        main(["train-generator", "--pool", str(a), "--n", "30",
              "--steps", "2", "--total-steps", "3",
              "--out", str(tmp_path / "gen2.json")])
    # a NaN head scale passed a `<= 0` check and trained a NaN theta
    for value in ("nan", "inf"):
        with pytest.raises(SystemExit, match=r"head_scale must be a real number in \(0, inf\)"):
            main(["train-generator", "--pool", str(a), str(b), "--n", "30", "--steps", "2",
                  "--total-steps", "3", "--head-scale", value,
                  "--out", str(tmp_path / "gen3.json")])
    assert not (tmp_path / "gen3.json").exists()


def experiment_config(tmp_path, **overrides):
    doc = {
        "dataset": {"kind": "blobs", "n": 50, "image_shape": [8, 8, 1],
                    "seed": 0, "num_classes": 3},
        "models": [
            {"name": "mlp", "kind": "mlp-1-hidden", "epochs": 2, "seed": 0},
            {"name": "lin", "kind": "softmax-linear", "epochs": 2, "seed": 1},
        ],
        "attacks": [
            {"name": "bim", "config": {
                "epsilon": 8.0, "steps": 2,
                "step_rule": {"type": "sign", "alpha": 4.0}}},
        ],
        "sources": ["mlp"],
        "targets": ["lin"],
        "seeds": [0],
        "eval_count": 4,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_attack_and_report(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    main(["attack", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert "metrics" in out
    metrics = tmp_path / "out" / "metrics.csv"
    assert metrics.exists()
    main(["report", "--metrics", str(metrics)])
    assert "asr=" in capsys.readouterr().out


def test_sweep_defaults_to_epsilon_grid(tmp_path):
    cfg = experiment_config(tmp_path, eval_count=2)
    main(["sweep", "--config", str(cfg)])
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_interaction_subcommand(tmp_path):
    cfg = experiment_config(
        tmp_path, eval_count=3,
        interaction={"examples": 2, "num_pairs": 2, "num_subsets": 2})
    main(["interaction", "--config", str(cfg)])
    assert (tmp_path / "out" / "histogram.csv").exists()
    assert (tmp_path / "out" / "interaction.csv").exists()


def test_interaction_subcommand_without_interaction_block(tmp_path, capsys):
    # no "interaction" block: the subcommand runs the pass with its defaults
    cfg = experiment_config(tmp_path, eval_count=2)
    main(["interaction", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert "histogram: " in out and "interaction: " in out
    assert (tmp_path / "out" / "histogram.csv").exists()
    assert (tmp_path / "out" / "interaction.csv").exists()


@pytest.mark.parametrize("command", ["attack", "sweep", "interaction"])
def test_a_config_without_models_exits_with_its_message(tmp_path, command):
    doc = json.loads(experiment_config(tmp_path).read_text())
    del doc["models"]
    path = tmp_path / "no-models.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="missing required key 'models'"):
        main([command, "--config", str(path)])
    assert not (tmp_path / "out").exists()


JSON_STRINGS = [
    (lambda doc: doc["attacks"][0]["config"].update(epsilon="16"),
     "epsilon must be a real number in [0, inf], got '16'"),
    (lambda doc: doc["attacks"][0]["config"]["step_rule"].update(alpha="1.6"),
     "alpha must be a real number in (0, inf), got '1.6'"),
    (lambda doc: doc["attacks"][0]["config"].update(momentum="1"),
     "momentum must be a real number in [0, inf), got '1'"),
    (lambda doc: doc["attacks"][0]["config"].update(transforms=[{"type": "tim", "sigma": "1"}]),
     "sigma must be a real number in (0, inf], got '1'"),
    (lambda doc: doc["models"][0].update(learning_rate="0.1"),
     "model spec 'mlp': learning_rate must be a real number in (0, inf), got '0.1'"),
    (lambda doc: doc.update(epsilon_grid=[8.0, "x"]),
     "epsilon must be a real number in [0, inf], got 'x'"),
    (lambda doc: doc.update(train_fraction="0.5"),
     "train_fraction must be a real number in (0, 1), got '0.5'"),
]


@pytest.mark.parametrize("command", ["attack", "sweep", "interaction"])
@pytest.mark.parametrize("edit,message", JSON_STRINGS,
                         ids=["epsilon", "alpha", "momentum", "tim-sigma", "learning-rate",
                              "grid-entry", "train-fraction"])
def test_a_json_string_for_a_real_setting_exits_with_its_message(tmp_path, monkeypatch, command,
                                                                 edit, message):
    # each of these ended in a TypeError traceback
    monkeypatch.setattr(harness, "train_classifier", lambda *args: pytest.fail("a model trained"))
    doc = json.loads(experiment_config(tmp_path).read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    # a str code is printed to stderr and exits with status 1
    assert exc.value.code == message


@pytest.mark.parametrize("command", ["attack", "sweep", "interaction"])
@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["attacks"][0]["config"].update(steps=2**70),
     f"steps must be <= 1000, got {2**70}"),
    (lambda doc: doc["models"][0].update(epochs=2**70),
     f"model spec 'mlp': epochs must be <= 1000, got {2**70}"),
], ids=["steps", "epochs"])
def test_a_count_past_its_ceiling_exits_before_any_model_trains(tmp_path, monkeypatch, command,
                                                                edit, message):
    # unchecked, these ran without end
    monkeypatch.setattr(harness, "train_classifier", lambda *args: pytest.fail("a model trained"))
    doc = json.loads(experiment_config(tmp_path).read_text())
    edit(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == message


def test_a_json_string_exits_with_status_1_and_no_traceback(tmp_path):
    doc = json.loads(experiment_config(tmp_path).read_text())
    doc["attacks"][0]["config"]["epsilon"] = "16"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    src = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "advgrad.cli", "attack", "--config", str(path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "epsilon must be a real number in [0, inf], got '16'\n"


def test_a_config_path_that_does_not_exist_exits_with_its_message(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit, match=re.escape(f"No such file or directory: '{missing}'")):
        main(["attack", "--config", str(missing)])


def test_a_directory_as_config_exits_with_its_message(tmp_path):
    # opening a directory raises IsADirectoryError, an OSError but no FileNotFoundError
    with pytest.raises(SystemExit, match=re.escape(f"Is a directory: '{tmp_path}'")):
        main(["attack", "--config", str(tmp_path)])


def test_report_names_a_missing_column(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("method,source\nbim,mlp\n")
    with pytest.raises(SystemExit, match="has no 'target' column"):
        main(["report", "--metrics", str(path)])


def test_a_pool_checkpoint_without_kind_exits_with_its_message(tmp_path):
    path = tmp_path / "a.json"
    main(["train-model", "--kind", "softmax-linear", "--n", "30", "--epochs", "1",
          "--out", str(path)])
    doc = json.loads(path.read_text())
    del doc["kind"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="missing required key 'kind'"):
        main(["train-generator", "--pool", str(path), str(path), "--n", "30",
              "--steps", "2", "--total-steps", "3", "--out", str(tmp_path / "gen.json")])
    assert not (tmp_path / "gen.json").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["hyper"].update(hidden=2.5), "hidden must be an integer, got 2.5"),
    (lambda doc: doc.update(num_classes="3"), "num_classes must be an integer, got '3'"),
    (lambda doc: doc.update(image_shape=8), "image_shape must be"),
    (lambda doc: doc["params"].update(W1=5),
     "model checkpoint array 'W1' must be a JSON object, got 5"),
], ids=["float-hidden", "string-classes", "int-shape", "int-array"])
def test_a_pool_checkpoint_with_a_bad_value_exits_with_its_message(tmp_path, edit, message):
    # these ended in a TypeError traceback
    path = tmp_path / "a.json"
    main(["train-model", "--kind", "mlp-1-hidden", "--n", "30", "--epochs", "1",
          "--out", str(path)])
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["train-generator", "--pool", str(path), str(path), "--n", "30",
              "--steps", "2", "--total-steps", "3", "--out", str(tmp_path / "gen.json")])
    assert not (tmp_path / "gen.json").exists()


def test_verify_props_is_not_a_command(capsys):
    # its closed-form checks are acceptance criteria 2-5
    with pytest.raises(SystemExit) as exc:
        main(["verify-props"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify-props'" in capsys.readouterr().err
