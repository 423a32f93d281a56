"""Tests for dataset I/O, metrics, the experiment runner, and self-checks."""

import csv
import dataclasses
import json
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advgrad.harness import (
    ExperimentConfig,
    MetricsRow,
    aggregate_rows,
    build_dataset,
    compute_metrics,
    load_cifar_binary,
    load_idx,
    run_experiment,
    synth_dataset,
    write_cifar_binary,
    write_idx,
)
from advgrad import attacks, harness, interaction
from advgrad.attacks import (
    AttackConfig, Dim, Emi, FixedScaleStep, SignStep, Sim, Tim, Vt, run_attack,
)
from advgrad.generator import GeneratorTrainConfig, ScalingFactorGenerator, save_generator
from advgrad.models import (
    LabeledDataset, TrainConfig, build_model, save_model, train_classifier,
)
from advgrad.numerics import ImageShape, make_rng

SHAPE = ImageShape(8, 8, 1)
REPO = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestIdxFormat:
    def make_dataset(self, n=6):
        rng = make_rng(0, 70)
        images = np.round(rng.uniform(0, 255, size=(n, 5, 4, 1)))
        labels = np.arange(n) % 3
        return LabeledDataset(images, labels, 3)

    def test_roundtrip(self, tmp_path):
        ds = self.make_dataset()
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        write_idx(ds, ip, lp)
        back = load_idx(ip, lp)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)

    def test_header_layout_is_big_endian(self, tmp_path):
        ds = self.make_dataset(3)
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        write_idx(ds, ip, lp)
        with open(ip, "rb") as fh:
            magic, count, h, w = struct.unpack(">IIII", fh.read(16))
        assert (magic, count, h, w) == (0x00000803, 3, 5, 4)
        with open(lp, "rb") as fh:
            magic, count = struct.unpack(">II", fh.read(8))
        assert (magic, count) == (0x00000801, 3)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        lab = tmp_path / "lab.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
        with pytest.raises(ValueError, match="offset 0"):
            load_idx(str(path), str(lab))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        lab = tmp_path / "lab.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_idx(str(path), str(lab))

    def test_count_mismatch(self, tmp_path):
        ds = self.make_dataset(2)
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        write_idx(ds, ip, lp)
        bad = tmp_path / "bad_lab.idx"
        bad.write_bytes(struct.pack(">II", 0x00000801, 5) + b"\x00" * 5)
        with pytest.raises(ValueError, match="count"):
            load_idx(ip, str(bad))


class TestCifarFormat:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(1, 71)
        images = np.round(rng.uniform(0, 255, size=(4, 32, 32, 3)))
        ds = LabeledDataset(images, np.array([0, 3, 9, 1]), 10)
        path = str(tmp_path / "batch.bin")
        write_cifar_binary(ds, path)
        back = load_cifar_binary(path)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)

    def test_record_layout(self, tmp_path):
        # one record: label byte then 3072 channel-major pixels
        images = np.zeros((1, 32, 32, 3))
        images[0, 0, 0, 0] = 255.0  # red channel of the top-left pixel
        ds = LabeledDataset(images, np.array([7]), 10)
        path = str(tmp_path / "one.bin")
        write_cifar_binary(ds, path)
        blob = open(path, "rb").read()
        assert len(blob) == 3073
        assert blob[0] == 7
        assert blob[1] == 255  # first byte of the red plane
        assert blob[1 + 1024] == 0  # green plane untouched

    def test_rejects_partial_record(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3000)
        with pytest.raises(ValueError):
            load_cifar_binary(str(path))


class TestSynthDataset:
    @pytest.mark.parametrize("kind,classes", [
        ("blobs", 3), ("two-moons-image", 2), ("striped-digits", 4)])
    def test_shapes_labels_and_range(self, kind, classes):
        ds = synth_dataset(kind, 20, SHAPE, seed=0, num_classes=classes)
        assert ds.images.shape == (20, 8, 8, 1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 255.0
        counts = np.bincount(ds.labels, minlength=classes)
        assert counts.max() - counts.min() <= 1  # balanced within one

    def test_deterministic(self):
        a = synth_dataset("blobs", 10, SHAPE, seed=4)
        b = synth_dataset("blobs", 10, SHAPE, seed=4)
        assert np.array_equal(a.images, b.images)

    def test_seed_changes_content(self):
        a = synth_dataset("blobs", 10, SHAPE, seed=0)
        b = synth_dataset("blobs", 10, SHAPE, seed=1)
        assert not np.array_equal(a.images, b.images)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_dataset("imagenet", 10, SHAPE, seed=0)

    @pytest.mark.parametrize("shape,n,num_classes", [
        ((8, 8, 1), 40, 3), ((6, 4, 2), 13, 4), ((5, 7, 3), 7, 10)])
    def test_striped_digits_equals_the_per_example_loop(self, shape, n, num_classes):
        # the stripes come from the labels as one array and the noise is one
        # draw, with the bits of this loop
        h, w, c = shape
        rng = make_rng(9, stream=11)
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        expected = np.zeros((n, h, w, c))
        for i in range(n):
            angle = np.pi * (i % num_classes) / num_classes
            phase = ii * np.cos(angle) + jj * np.sin(angle)
            img = 128.0 + 90.0 * np.sin(2.0 * np.pi * phase / max(h, w) * 2.0)
            expected[i] = img[..., None] + rng.normal(0.0, 15.0, size=(h, w, c))
        ds = synth_dataset("striped-digits", n, ImageShape(*shape), seed=9,
                           num_classes=num_classes)
        assert np.array_equal(ds.images, np.clip(expected, 0.0, 255.0))

    def test_moons_requires_two_classes(self):
        with pytest.raises(ValueError):
            synth_dataset("two-moons-image", 10, SHAPE, seed=0, num_classes=3)

    @pytest.mark.parametrize("kwargs,message", [
        ({"num_classes": 0}, "num_classes must be >= 1, got 0"),
        ({"num_classes": -2}, "num_classes must be >= 1, got -2"),
        ({"num_classes": 2.0}, "num_classes must be an integer, got 2.0"),
        ({"num_classes": True}, "num_classes must be an integer, got True"),
        ({"n": 10.0}, "n must be an integer, got 10.0"),
        ({"n": 1}, "n must be >= 2, got 1"),
    ], ids=["no-classes", "negative-classes", "float-classes", "bool-classes", "float-n",
            "one-example"])
    def test_rejects_a_bad_count_by_name(self, kwargs, message):
        # num_classes=0 warned of a division by zero and raised IndexError; the
        # others failed inside numpy
        args = {"n": 10, "num_classes": 3, **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                synth_dataset("blobs", args["n"], SHAPE, seed=0, num_classes=args["num_classes"])

    def test_takes_numpy_integer_counts(self):
        ds = synth_dataset("blobs", np.int64(10), SHAPE, seed=0, num_classes=np.int32(2))
        assert ds.images.shape == (10, 8, 8, 1) and ds.num_classes == 2


class TestMetrics:
    def test_hand_computed_mad_rmsd(self):
        # delta (8, 0, 0, 0): MAD = 2, RMSD = 4
        orig = np.zeros((1, 2, 2, 1))
        adv = orig.copy()
        adv[0, 0, 0, 0] = 8.0
        row = compute_metrics(orig, adv, [True],
                              method="m", source="s", target="t",
                              epsilon=8.0, steps=1)
        assert row.mad == pytest.approx(2.0)
        assert row.rmsd == pytest.approx(4.0)
        assert row.asr == 1.0

    def test_asr_counts_clean_misclassifications(self):
        # a zero-step attack on an input the target already misclassifies
        # succeeds, even though nothing was perturbed: ASR = 1.0 by convention
        model = build_model("softmax-linear", SHAPE, 3, seed=0)
        x = make_rng(0, 72).uniform(0, 255, size=SHAPE.dims)
        y = (model.predict(x) + 1) % 3
        cfg = AttackConfig(epsilon=8.0, steps=0, step_rule=SignStep(1.0))
        res = run_attack([model], [model], x, y, cfg)
        assert res.success == [True]
        row = compute_metrics([x], [res.adversarial], res.success,
                              method="m", source="s", target="t",
                              epsilon=8.0, steps=0)
        assert row.asr == 1.0

    def test_targeted_asr(self):
        # targeted success means pred == target_label, not pred != y
        models = [build_model("softmax-linear", SHAPE, 3, seed=s) for s in range(6)]
        x = make_rng(1, 72).uniform(0, 255, size=SHAPE.dims)
        preds = [m.predict(x) for m in models]
        target = max(set(preds), key=preds.count)
        y = next(c for c in range(3) if c != target)
        cfg = AttackConfig(epsilon=8.0, steps=0, step_rule=SignStep(1.0),
                           target_label=target)
        res = run_attack(models[:1], models, x, y, cfg)
        assert res.success == [p == target for p in preds]
        assert 0 < sum(res.success) < len(models)
        row = compute_metrics([x] * len(models), [res.adversarial] * len(models),
                              res.success, method="m", source="s", target="t",
                              epsilon=8.0, steps=0)
        assert row.asr == pytest.approx(preds.count(target) / len(models))

    def test_row_invariant_mad_le_rmsd_le_eps(self):
        with pytest.raises(ValueError):
            MetricsRow(method="m", source="s", target="t", asr=0.5,
                       mad=5.0, rmsd=3.0, epsilon=8.0, steps=1)
        with pytest.raises(ValueError):
            MetricsRow(method="m", source="s", target="t", asr=0.5,
                       mad=2.0, rmsd=9.0, epsilon=8.0, steps=1)

    def test_rejects_asr_out_of_range(self):
        with pytest.raises(ValueError):
            MetricsRow(method="m", source="s", target="t", asr=1.5,
                       mad=1.0, rmsd=1.0, epsilon=8.0, steps=1)

    def test_length_mismatch(self):
        for n_adv, n_success in ((3, 2), (2, 3)):
            with pytest.raises(ValueError):
                compute_metrics(np.zeros((2, 1, 1, 1)), np.zeros((n_adv, 1, 1, 1)),
                                [True] * n_success, method="m", source="s",
                                target="t", epsilon=8.0, steps=1)


class TestAggregate:
    def test_means_across_seeds(self):
        rows = [
            MetricsRow(method="a", source="s", target="t", asr=0.2, mad=1.0,
                       rmsd=1.5, epsilon=8.0, steps=5, seed=0),
            MetricsRow(method="a", source="s", target="t", asr=0.4, mad=3.0,
                       rmsd=3.5, epsilon=8.0, steps=5, seed=1),
        ]
        agg = aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0]["asr"] == pytest.approx(0.3)
        assert agg[0]["mad"] == pytest.approx(2.0)
        assert agg[0]["seeds"] == 2

    def test_groups_by_cell(self):
        rows = [
            MetricsRow(method="a", source="s", target="t", asr=0.2, mad=1.0,
                       rmsd=1.5, epsilon=8.0, steps=5),
            MetricsRow(method="b", source="s", target="t", asr=0.4, mad=1.0,
                       rmsd=1.5, epsilon=8.0, steps=5),
        ]
        assert len(aggregate_rows(rows)) == 2


def build_dataset_labels(cfg):
    """Labels of the eval split run_experiment draws for cfg."""
    ds = build_dataset(cfg.dataset)
    order = make_rng(cfg.dataset.get("seed", 0), stream=13).permutation(len(ds))
    n_train = int(cfg.train_fraction * len(ds))
    return [int(y) for y in ds.labels[order[n_train:][: cfg.eval_count]]]


class TestExperimentRunner:
    def base_config(self, tmp_path, **overrides):
        doc = {
            "dataset": {"kind": "blobs", "n": 60, "image_shape": [8, 8, 1],
                        "seed": 0, "num_classes": 3},
            "models": [
                {"name": "mlp", "kind": "mlp-1-hidden", "epochs": 3, "seed": 0},
                {"name": "conv", "kind": "tiny-conv", "epochs": 3, "seed": 1},
            ],
            "attacks": [
                {"name": "bim", "config": {
                    "epsilon": 8.0, "steps": 3,
                    "step_rule": {"type": "sign", "alpha": 2.0}}},
            ],
            "sources": ["mlp"],
            "targets": ["mlp", "conv"],
            "seeds": [0],
            "eval_count": 6,
            "output_dir": str(tmp_path / "out"),
        }
        doc.update(overrides)
        return ExperimentConfig.from_dict(doc)

    def test_writes_expected_files(self, tmp_path):
        paths = run_experiment(self.base_config(tmp_path))
        for key in ("results", "metrics", "summary"):
            assert key in paths
        with open(paths["metrics"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one row per (attack, source, target, seed)
        assert len(rows) == 2
        assert {r["target"] for r in rows} == {"mlp", "conv"}
        for r in rows:
            assert 0.0 <= float(r["asr"]) <= 1.0
            assert float(r["mad"]) <= float(r["rmsd"]) + 1e-9
            assert float(r["rmsd"]) <= float(r["epsilon"]) + 1e-9

    def test_results_csv_respects_budget(self, tmp_path):
        paths = run_experiment(self.base_config(tmp_path))
        with open(paths["results"], newline="") as fh:
            for rec in csv.DictReader(fh):
                assert float(rec["linf"]) <= 8.0 + 1e-9

    def test_deterministic_metrics(self, tmp_path):
        p1 = run_experiment(self.base_config(tmp_path / "a"))
        p2 = run_experiment(self.base_config(tmp_path / "b"))
        assert open(p1["metrics"]).read() == open(p2["metrics"]).read()

    def test_epsilon_sweep_output(self, tmp_path):
        cfg = self.base_config(tmp_path, epsilon_grid=[2, 8])
        paths = run_experiment(cfg)
        with open(paths["sweep"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {float(r["epsilon"]) for r in rows} == {2.0, 8.0}

    def test_interaction_histogram_output(self, tmp_path):
        cfg = self.base_config(tmp_path,
                               interaction={"examples": 3, "num_pairs": 3, "num_subsets": 2})
        paths = run_experiment(cfg)
        with open(paths["interaction"], newline="") as fh:
            raw = list(csv.DictReader(fh))
        assert len(raw) == 3
        with open(paths["histogram"], newline="") as fh:
            hist = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in hist) == 3

    def test_interaction_pass_scores_the_matrix_examples(self, tmp_path, monkeypatch):
        # the pass re-attacks nothing: it scores the first records of cell
        # (seeds[0], method, sources[0]), rng stream 1000 + i included
        cfg = self.base_config(tmp_path, attacks=[
            {"name": "dim", "config": {
                "epsilon": 8.0, "steps": 3, "step_rule": {"type": "sign", "alpha": 2.0},
                "transforms": [{"type": "dim", "p": 1.0, "min_fraction": 0.5}]}}],
            interaction={"examples": 3, "num_pairs": 3, "num_subsets": 2})
        attacked, scored = [], []
        run_attack, make_setfn = attacks.run_attack, interaction.make_model_setfn

        def spy_attack(source_models, target_models, x, y, acfg, rng=None):
            res = run_attack(source_models, target_models, x, y, acfg, rng)
            attacked.append(res.adversarial - x)
            return res

        def spy_setfn(model, x, delta, y):
            scored.append(delta)
            return make_setfn(model, x, delta, y)

        monkeypatch.setattr(attacks, "run_attack", spy_attack)
        monkeypatch.setattr(interaction, "make_model_setfn", spy_setfn)
        run_experiment(cfg)
        assert len(attacked) == cfg.eval_count
        assert len(scored) == 3
        for delta, expected in zip(scored, attacked):
            assert np.array_equal(delta, expected)

    def gen_checkpoint(self, tmp_path, steps=3):
        path = str(tmp_path / "gen.json")
        save_generator(ScalingFactorGenerator(steps, SHAPE, hidden=(12, 6), head_scale=1e4),
                       path)
        return path

    def test_targeted_adaptive_success_matches_asr(self, tmp_path):
        # models come from checkpoints, so the eval data can leave out the
        # target class (run_attack rejects y == target_label)
        models = []
        for name, kind, seed in (("mlp", "mlp-1-hidden", 0), ("conv", "tiny-conv", 1)):
            path = str(tmp_path / f"{name}.json")
            save_model(build_model(kind, SHAPE, 3, seed=seed), path)
            models.append({"name": name, "checkpoint": path})
        ds = synth_dataset("blobs", 90, SHAPE, seed=0)
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        write_idx(ds.subset(np.flatnonzero(ds.labels != 2)), ip, lp)
        cfg = self.base_config(
            tmp_path, dataset={"kind": "idx", "images": ip, "labels": lp},
            models=models, generator_checkpoint=self.gen_checkpoint(tmp_path),
            eval_count=12, attacks=[{"name": "ada", "config": {
                "epsilon": 32.0, "steps": 3, "momentum": 1.0,
                "target_label": 2, "step_rule": {"type": "adaptive"}}}])
        paths = run_experiment(cfg)
        with open(paths["results"], newline="") as fh:
            results = list(csv.DictReader(fh))
        with open(paths["metrics"], newline="") as fh:
            metrics = list(csv.DictReader(fh))
        assert len(metrics) == 2
        for row in metrics:
            flags = [int(r["success"]) for r in results if r["target"] == row["target"]]
            assert len(flags) == 12
            assert float(row["asr"]) == pytest.approx(np.mean(flags), abs=1e-6)

    def test_targeted_cell_skips_examples_of_the_target_class(self, tmp_path):
        # 3-class blobs and a pool trained in process: the eval set holds
        # examples of class 0, which a target_label 0 attack cannot target
        cfg = self.base_config(tmp_path, eval_count=12, epsilon_grid=[8.0],
                               attacks=[{"name": "tgt", "config": {
                                   "epsilon": 32.0, "steps": 3, "target_label": 0,
                                   "step_rule": {"type": "sign", "alpha": 12.0}}}],
                               interaction={"examples": 4, "num_pairs": 2, "num_subsets": 2})
        paths = run_experiment(cfg)
        with open(paths["results"], newline="") as fh:
            results = list(csv.DictReader(fh))
        with open(paths["metrics"], newline="") as fh:
            metrics = list(csv.DictReader(fh))
        with open(paths["interaction"], newline="") as fh:
            scored = [int(r["example_id"]) for r in csv.DictReader(fh)]
        summary = json.load(open(paths["summary"]))
        labels = build_dataset_labels(cfg)
        kept = [i for i, y in enumerate(labels) if y != 0]
        assert 0 < summary["skipped_examples"]["tgt"] == len(labels) - len(kept)
        assert len(metrics) == 2
        for row in metrics:
            rows = [r for r in results if r["target"] == row["target"]]
            assert [int(r["example_id"]) for r in rows] == kept
            flags = [int(r["success"]) for r in rows]
            assert float(row["asr"]) == pytest.approx(np.mean(flags), abs=1e-6)
        assert scored == kept[:4]

    def test_targeted_attack_with_only_target_examples_fails_early(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(attacks, "run_attack", lambda *a, **k: pytest.fail("attacked"))
        cfg = self.base_config(tmp_path, dataset={
            "kind": "blobs", "n": 20, "image_shape": [8, 8, 1], "seed": 0,
            "num_classes": 1}, attacks=[{"name": "tgt", "config": {
                "epsilon": 8.0, "steps": 2, "target_label": 0,
                "step_rule": {"type": "sign", "alpha": 4.0}}}])
        with pytest.raises(ValueError, match="every eval example"):
            run_experiment(cfg)

    def test_adaptive_step_mismatch_fails_before_attacking(self, tmp_path, monkeypatch):
        def no_attack(*args, **kwargs):
            raise AssertionError("an attack ran")

        monkeypatch.setattr(attacks, "run_attack", no_attack)
        cfg = self.base_config(
            tmp_path, generator_checkpoint=self.gen_checkpoint(tmp_path, steps=3),
            attacks=[{"name": "ada", "config": {
                "epsilon": 8.0, "steps": 5, "step_rule": {"type": "adaptive"}}}])
        with pytest.raises(ValueError, match="trained for 3 steps"):
            run_experiment(cfg)

    def test_summary_states_conventions(self, tmp_path):
        paths = run_experiment(self.base_config(tmp_path))
        summary = json.load(open(paths["summary"]))
        assert "clean misclassifications" in summary["asr_convention"]
        assert summary["aggregate"]

    def test_ensemble_source_name(self, tmp_path):
        cfg = self.base_config(tmp_path, sources=["mlp+conv"])
        paths = run_experiment(cfg)
        with open(paths["metrics"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["source"] == "mlp+conv" for r in rows)

    def test_missing_checkpoint_fails_fast(self, tmp_path):
        cfg = self.base_config(tmp_path, models=[
            {"name": "mlp", "checkpoint": str(tmp_path / "nope.json")}])
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg)

    def test_sweep_reuses_the_matrix_cell_at_the_config_epsilon(self, tmp_path, monkeypatch):
        calls, batches = [], []
        run_attack, attack_loop = attacks.run_attack, attacks._attack_loop

        def spy(*args, **kwargs):
            calls.append(1)
            return run_attack(*args, **kwargs)

        def spy_loop(source_models, target_models, x, y, acfg, rng):
            if np.ndim(x) == 4:  # run_attack hands the loop one image
                batches.append(len(x))
            return attack_loop(source_models, target_models, x, y, acfg, rng)

        monkeypatch.setattr(attacks, "run_attack", spy)
        monkeypatch.setattr(attacks, "_attack_loop", spy_loop)
        own = {"bim": 8.0, "scaled": 4.0}
        cfg = self.base_config(
            tmp_path, seeds=[0, 1], sources=["mlp", "mlp+conv"], epsilon_grid=[4.0, 8, 16.0],
            attacks=[{"name": "bim", "config": {
                         "epsilon": own["bim"], "steps": 3,
                         "step_rule": {"type": "sign", "alpha": 2.0}}},
                     {"name": "scaled", "config": {
                         "epsilon": own["scaled"], "steps": 3, "momentum": 1.0,
                         "step_rule": {"type": "fixed", "gamma": 4.0}}}])
        paths = run_experiment(cfg)
        # neither config has transforms, so one cell serves both seeds
        matrix_cells = 1 * 2 * 2  # seeds x attacks x sources
        fresh_sweep_cells = 2 * 2 * 2  # attacks x grid values off their epsilon x sources
        # a matrix cell is one run_attack call per example, a fresh sweep cell
        # one batched call on all its examples
        assert len(calls) == matrix_cells * cfg.eval_count
        assert batches == [cfg.eval_count] * fresh_sweep_cells
        first_seed = {(r["method"], r["source"], r["target"]): r["asr"]
                      for r in read_csv(paths["metrics"]) if r["seed"] == "0"}
        reused = [r for r in read_csv(paths["sweep"])
                  if float(r["epsilon"]) == own[r["method"]]]
        assert len(reused) == 2 * 2 * 2  # attacks x sources x targets
        for r in reused:
            assert r["asr"] == first_seed[r["method"], r["source"], r["target"]]

    STACK = [{"type": "dim", "p": 0.5, "min_fraction": 0.75}, {"type": "tim", "k": 3},
             {"type": "vt", "n": 2, "beta": 1.5}]
    MEMO_ATTACKS = {
        "plain": {"epsilon": 16.0, "steps": 3, "step_rule": {"type": "sign", "alpha": 4.0}},
        "transforms": {"epsilon": 16.0, "steps": 3, "momentum": 1.0,
                       "step_rule": {"type": "fixed", "gamma": 8.0}, "transforms": STACK},
        "targeted": {"epsilon": 16.0, "steps": 3, "target_label": 0,
                     "step_rule": {"type": "sign", "alpha": 4.0}, "transforms": STACK[:1]},
        "adaptive": {"epsilon": 16.0, "steps": 3, "momentum": 1.0,
                     "step_rule": {"type": "adaptive"}},
    }

    def test_a_config_without_transforms_is_attacked_once_for_all_seeds(self, tmp_path,
                                                                         monkeypatch):
        attacked = []
        run_attack = attacks.run_attack

        def spy(sources, targets, x, y, acfg, rng=None):
            attacked.append(bool(acfg.transforms))
            return run_attack(sources, targets, x, y, acfg, rng=rng)

        monkeypatch.setattr(attacks, "run_attack", spy)
        cfg = self.base_config(
            tmp_path, seeds=[0, 1, 2], sources=["mlp", "mlp+conv"], epsilon_grid=[16.0],
            attacks=[{"name": name, "config": self.MEMO_ATTACKS[name]}
                     for name in ("plain", "transforms")])
        paths = run_experiment(cfg)
        # once per source; with transforms once per seed and source; the sweep
        # at the configs' own epsilon reads the seeds[0] cells
        assert attacked.count(False) == 2 * cfg.eval_count
        assert attacked.count(True) == 3 * 2 * cfg.eval_count
        metrics = read_csv(paths["metrics"])
        assert len(metrics) == 3 * 2 * 2 * 2  # seeds x attacks x sources x targets
        assert len(read_csv(paths["results"])) == len(metrics) * cfg.eval_count

    @pytest.mark.parametrize("name", MEMO_ATTACKS)
    def test_a_seeds_rows_do_not_depend_on_the_seeds_before_it(self, tmp_path, name):
        # the seed-1 rows of a [0, 1] run, where a config without transforms
        # reads its seed-0 cell, are the rows of a run at seed 1 alone
        def run(seeds):
            cfg = self.base_config(
                tmp_path / str(seeds), seeds=seeds, eval_count=8,
                generator_checkpoint=self.gen_checkpoint(tmp_path),
                attacks=[{"name": name, "config": self.MEMO_ATTACKS[name]}])
            paths = run_experiment(cfg)
            return {key: [r for r in read_csv(paths[key]) if r["seed"] == "1"]
                    for key in ("results", "metrics")}, read_csv(paths["results"])

        both, every_row = run([0, 1])
        alone, _ = run([1])
        assert both == alone and len(alone["results"]) > 0
        first = [{**r, "seed": "1"} for r in every_row if r["seed"] == "0"]
        # a config with transforms draws from its seed's streams, so seed 0 differs
        assert (first == both["results"]) == (name in ("plain", "adaptive"))

    def test_misspelled_experiment_key_names_it(self, tmp_path):
        # at the parent "epsilon_grd" was dropped, and with it the sweep
        with pytest.raises(ValueError, match="'epsilon_grd'"):
            self.base_config(tmp_path, epsilon_grd=[2, 8])
        with pytest.raises(ValueError, match="'output_dir'"):
            ExperimentConfig.from_dict({"dataset": {}, "models": [], "attacks": [{}],
                                        "sources": [], "targets": ["a"], "seeds": [0]})

    CONV = {"name": "conv", "kind": "tiny-conv", "epochs": 3, "seed": 1}
    BAD_BLOCKS = [
        ("epoch", {"models": [{"name": "mlp", "kind": "mlp-1-hidden", "epoch": 3}, CONV]}),
        ("kind", {"models": [{"name": "mlp", "checkpoint": "mlp.json",
                              "kind": "mlp-1-hidden"}, CONV]}),
        ("name", {"models": [{"kind": "mlp-1-hidden"}, CONV]}),
        ("num_pair", {"interaction": {"examples": 2, "num_pair": 3}}),
        ("image_shap", {"dataset": {"kind": "blobs", "n": 60, "image_shap": [8, 8, 1]}}),
        ("path", {"dataset": {"kind": "idx", "path": "x.idx"}}),
        ("confg", {"attacks": [{"name": "bim", "confg": {}}]}),
        ("momentun", {"attacks": [{"name": "mi", "config": {
            "epsilon": 8.0, "steps": 3, "momentun": 1.0,
            "step_rule": {"type": "sign", "alpha": 2.0}}}]}),
    ]

    @pytest.mark.parametrize("key,override", BAD_BLOCKS, ids=[key for key, _ in BAD_BLOCKS])
    def test_misspelled_block_key_fails_before_training(self, tmp_path, monkeypatch,
                                                        key, override):
        monkeypatch.setattr(harness, "train_classifier",
                            lambda *args: pytest.fail("a model trained"))
        with pytest.raises(ValueError, match=repr(key)):
            run_experiment(self.base_config(tmp_path, **override))

    MLP = {"name": "mlp", "kind": "mlp-1-hidden", "epochs": 3, "seed": 0}
    BAD_REFERENCES = [
        ("targets entry 'nope'", {"targets": ["mlp", "nope"]}),
        ("sources entry 'nope'", {"sources": ["mlp+nope"]}),
        ("interaction model entry 'nope'", {"interaction": {"model": "nope"}}),
        ("model spec 'conv': unknown kind 'convnet'",
         {"models": [MLP, {**CONV, "kind": "convnet"}]}),
        ("two model specs are named 'mlp'", {"models": [MLP, {**CONV, "name": "mlp"}]}),
        ("interaction methods entry 'BIM' names no attack", {"interaction": {"methods": ["BIM"]}}),
        ("interaction methods must be a JSON list, got 'bim'",
         {"interaction": {"methods": "bim"}}),
    ]

    @pytest.mark.parametrize("message,override", BAD_REFERENCES,
                             ids=["target", "source", "interaction-model", "kind", "duplicate",
                                  "interaction-method", "interaction-methods-string"])
    def test_bad_model_reference_fails_before_training(self, tmp_path, monkeypatch,
                                                       message, override):
        # at the parent these trained models first (or kept the last of two
        # same-named specs) and then raised a bare KeyError, or nothing; an
        # interaction methods entry that named no attack skipped the pass
        trained = []
        monkeypatch.setattr(harness, "train_classifier", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(self.base_config(tmp_path, **override))
        assert trained == []

    BIM = {"epsilon": 8.0, "steps": 1, "step_rule": {"type": "sign", "alpha": 2.0}}
    BAD_TYPES = [
        ("sources entry 5 names no model spec", {"sources": ["mlp", 5]}),
        ("targets entry ['mlp'] names no model spec", {"targets": [["mlp"]]}),
        ("interaction model entry {'a': 1} names no model spec",
         {"interaction": {"model": {"a": 1}}}),
        ("model spec name must be a JSON string, got ['mlp']",
         {"models": [{**MLP, "name": ["mlp"]}, CONV]}),
        ("model spec checkpoint must be a JSON string, got 5",
         {"models": [{"name": "mlp", "checkpoint": 5}, CONV]}),
        ("attack name must be a JSON string, got ['bim']",
         {"attacks": [{"name": ["bim"], "config": BIM}]}),
        ("unknown step rule type ['sign']",
         {"attacks": [{"name": "bim", "config": {**BIM, "step_rule": {"type": ["sign"]}}}]}),
        ("transforms must be a JSON list, got 5",
         {"attacks": [{"name": "bim", "config": {**BIM, "transforms": 5}}]}),
        ("dataset spec must be a JSON object, got 5", {"dataset": 5}),
        ("dataset spec: images must be a JSON string, got 5",
         {"dataset": {"kind": "idx", "images": 5, "labels": "labels.idx"}}),
        ("dataset spec: path must be a JSON string, got []",
         {"dataset": {"kind": "cifar", "path": []}}),
    ]

    @pytest.mark.parametrize("message,override", BAD_TYPES,
                             ids=["source", "target", "interaction-model", "model-name",
                                  "checkpoint", "attack-name", "rule-type", "transforms",
                                  "dataset", "idx-path", "cifar-path"])
    def test_a_value_of_the_wrong_json_type_fails_before_training(self, tmp_path, monkeypatch,
                                                                  message, override):
        # these raised TypeError or AttributeError: a name that was not a
        # string failed in a dict lookup or a split, and an int path was
        # opened as a file descriptor
        monkeypatch.setattr(harness, "train_classifier",
                            lambda *args: pytest.fail("a model trained"))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(self.base_config(tmp_path, **override))

    @pytest.mark.parametrize("message,override", [
        ("model spec 'conv': seed must be >= 0, got -1", {"models": [MLP, {**CONV, "seed": -1}]}),
        ("dataset spec: seed must be an integer, got 1.5",
         {"dataset": {"kind": "blobs", "n": 60, "seed": 1.5}}),
    ], ids=["model-seed", "dataset-seed"])
    def test_a_bad_seed_names_its_block_and_fails_before_training(self, tmp_path, monkeypatch,
                                                                  message, override):
        # TrainConfig and make_rng raise these without naming the block they read
        trained = []
        monkeypatch.setattr(harness, "train_classifier", lambda *args: trained.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(self.base_config(tmp_path, **override))
        assert trained == []

    @pytest.mark.parametrize("message,dataset", [
        ("dataset spec: n must be an integer, got 2.5", {"n": 2.5}),
        ("dataset spec: num_classes must be >= 1, got 0", {"n": 10, "num_classes": 0}),
        ("dataset spec: n must be >= 2, got 1", {"n": 1}),
        ("dataset spec: image_shape must be [height, width, channels], got [8, 8]",
         {"n": 10, "image_shape": [8, 8]}),
        # ImageShape's own check, named with the block by the shared parser
        ("dataset spec: image width must be >= 1, got 0",
         {"n": 10, "image_shape": [8, 0, 1]}),
    ], ids=["float-n", "no-classes", "one-example", "two-dims", "zero-width"])
    def test_a_bad_synthetic_dataset_block_is_named_and_fails_before_training(
            self, tmp_path, monkeypatch, message, dataset):
        # these used to raise a TypeError, an IndexError after a numpy
        # RuntimeWarning, or a message without the block's name
        trained = []
        monkeypatch.setattr(harness, "train_classifier", lambda *args: trained.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                run_experiment(self.base_config(tmp_path, dataset={"kind": "blobs", **dataset}))
        assert trained == []

    @pytest.mark.parametrize("dims,classes,message", [
        ((4, 4, 1), 3, "model spec 'small': input shape (4, 4, 1) does not match the "
                       "dataset's (8, 8, 1)"),
        ((8, 8, 1), 2, "model spec 'small': label 2 out of range for 2 classes"),
    ], ids=["shape", "classes"])
    def test_a_checkpoint_that_does_not_fit_the_data_fails_before_training(
            self, tmp_path, monkeypatch, dims, classes, message):
        # checked only per attack, it let every other model train first, and
        # then the first attack raised
        path = str(tmp_path / "small.json")
        save_model(build_model("mlp-1-hidden", ImageShape(*dims), classes, seed=0), path)
        trained = []
        monkeypatch.setattr(harness, "train_classifier", lambda *args: trained.append(args))
        cfg = self.base_config(tmp_path, models=[self.MLP, self.CONV,
                                                 {"name": "small", "checkpoint": path}],
                               targets=["conv", "small"])
        assert 2 in build_dataset_labels(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg)
        assert trained == []

    def test_a_tiny_conv_the_image_shape_does_not_fit_fails_before_training(
            self, tmp_path, monkeypatch):
        # checked only when the tiny-conv was built, it let the models listed
        # before it train first
        trained = []
        monkeypatch.setattr(harness, "train_classifier", lambda *args: trained.append(args))
        cfg = self.base_config(tmp_path, models=[self.MLP, self.CONV], dataset={
            "kind": "blobs", "n": 60, "image_shape": [6, 6, 1], "seed": 0, "num_classes": 3})
        with pytest.raises(ValueError, match=re.escape(
                "model spec 'conv': tiny-conv needs height and width divisible by 4")):
            run_experiment(cfg)
        assert trained == []

    def test_a_target_label_no_model_has_fails_before_training(self, tmp_path, monkeypatch):
        trained = []
        monkeypatch.setattr(harness, "train_classifier", lambda *args: trained.append(args))
        cfg = self.base_config(tmp_path, attacks=[{"name": "tgt", "config": {
            "epsilon": 8.0, "steps": 2, "target_label": 5,
            "step_rule": {"type": "sign", "alpha": 4.0}}}])
        with pytest.raises(ValueError, match=re.escape(
                "model spec 'mlp': label 5 out of range for 3 classes")):
            run_experiment(cfg)
        assert trained == []

    def test_summary_gives_each_targets_clean_accuracy(self, tmp_path):
        # a zero-step untargeted attack succeeds exactly where the target
        # misclassifies the clean image
        cfg = self.base_config(tmp_path, eval_count=12, attacks=[{"name": "clean", "config": {
            "epsilon": 8.0, "steps": 0, "step_rule": {"type": "sign", "alpha": 2.0}}}])
        paths = run_experiment(cfg)
        clean = json.load(open(paths["summary"]))["clean_accuracy"]
        assert set(clean) == {"mlp", "conv"}
        for row in read_csv(paths["metrics"]):
            assert float(row["asr"]) == pytest.approx(1.0 - clean[row["target"]], abs=1e-6)

    def test_interaction_csv_reports_the_estimator_stderr(self, tmp_path, monkeypatch):
        estimates = []
        sampled = interaction.expected_interaction_sampled

        def spy(*args, **kwargs):
            estimates.append(sampled(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(interaction, "expected_interaction_sampled", spy)
        cfg = self.base_config(tmp_path,
                               interaction={"examples": 3, "num_pairs": 3, "num_subsets": 2})
        rows = read_csv(run_experiment(cfg)["interaction"])
        assert len(rows) == len(estimates) == 3
        assert all(e.stderr > 0 for e in estimates)
        assert [r["stderr"] for r in rows] == [f"{e.stderr:.8g}" for e in estimates]
        assert [r["estimate"] for r in rows] == [f"{e.value:.8g}" for e in estimates]

    def test_model_spec_training_defaults_are_train_config_defaults(self, tmp_path,
                                                                   monkeypatch):
        trained = []

        def spy(train_set, kind, train_cfg):
            model, acc = train_classifier(train_set, kind, train_cfg)
            trained.append((train_set, kind, model))
            return model, acc

        monkeypatch.setattr(harness, "train_classifier", spy)
        run_experiment(self.base_config(
            tmp_path, models=[{"name": "mlp", "kind": "mlp-1-hidden", "seed": 4}],
            targets=["mlp"]))
        [(train_set, kind, model)] = trained
        expected, _ = train_classifier(train_set, kind, TrainConfig(epochs=15, seed=4))
        assert model.params.keys() == expected.params.keys()
        for name, value in expected.params.items():
            assert np.array_equal(model.params[name], value)

    def test_duplicate_attack_names_rejected(self, tmp_path):
        bim = {"name": "bim", "config": {"epsilon": 8.0, "steps": 1,
                                         "step_rule": {"type": "sign", "alpha": 8.0}}}
        with pytest.raises(ValueError, match="unique"):
            run_experiment(self.base_config(tmp_path, attacks=[bim, bim]))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            self.base_config(tmp_path, attacks=[])
        with pytest.raises(ValueError):
            self.base_config(tmp_path, seeds=[])
        # no sources failed only in emit_report, after every model had trained
        with pytest.raises(ValueError, match="sources must hold at least one entry"):
            self.base_config(tmp_path, sources=[])

    BAD_VALUES = [
        ("train_fraction", {"train_fraction": 1.0}),
        ("train_fraction", {"train_fraction": 1.5}),
        ("train_fraction", {"train_fraction": 0.0}),
        ("eval_count", {"eval_count": 0}),
        ("interaction examples", {"interaction": {"examples": 0}}),
        ("interaction num_pairs", {"interaction": {"num_pairs": 0}}),
        ("interaction num_subsets", {"interaction": {"num_subsets": 0}}),
        ("interaction num_pairs", {"interaction": {"num_pairs": 2.5}}),
        ("interaction examples", {"interaction": {"examples": True}}),
        ("seeds entry must be an integer, got 1.5", {"seeds": [0, 1.5]}),
        ("seeds entry must be an integer, got True", {"seeds": [True]}),
        ("seeds entry must be an integer, got '0'", {"seeds": ["0"]}),
        ("seeds entry must be >= 0", {"seeds": [-1]}),
        (r"seeds entry must be < 2\*\*64", {"seeds": [2**64]}),
        ("seeds entry 0 is repeated", {"seeds": [0, 1, 0]}),
    ]

    # a seeds entry used to run on the streams of int(seed) and write the raw
    # entry in the seed column; a repeated one wrote every row twice, and
    # 2**64 raised OverflowError only after every model had trained
    @pytest.mark.parametrize("what,override", BAD_VALUES,
                             ids=["fraction-1", "fraction-1.5", "fraction-0", "eval-0",
                                  "examples-0", "pairs-0", "subsets-0", "pairs-float",
                                  "examples-bool", "seed-float", "seed-bool", "seed-string",
                                  "seed-negative", "seed-2**64", "seed-repeated"])
    def test_out_of_range_value_fails_when_the_config_is_built(self, tmp_path, what, override):
        # at the parent none of these failed before the models trained
        with pytest.raises(ValueError, match=what):
            self.base_config(tmp_path, **override)

    @pytest.mark.parametrize("make,field", [
        (lambda: TrainConfig(), "learning_rate"),
        (lambda: GeneratorTrainConfig(total_steps=1, attack_steps=1, learning_rate=0.1,
                                      epsilon=8.0), "epsilon"),
        (lambda: ExperimentConfig(dataset={}, models=[], attacks=[{}], sources=["a"],
                                  targets=["a"], seeds=[0], output_dir="out"), "interaction"),
    ], ids=["train", "generator-train", "experiment"])
    def test_configs_are_frozen(self, make, field):
        # an assignment would skip the checks of __post_init__, which run once
        cfg = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, {"num_pairs": 0} if field == "interaction" else math.nan)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: {"num_pairs": 0} if field == "interaction"
                                        else math.nan})

    @pytest.mark.parametrize("field,value,message", [
        ("models", {"name": "mlp"}, "models must be a JSON list, got {'name': 'mlp'}"),
        ("attacks", "bim", "attacks must be a JSON list, got 'bim'"),
        ("targets", "conv", "targets must be a JSON list, got 'conv'"),
        ("seeds", 5, "seeds must be a JSON list, got 5"),
        ("epsilon_grid", 8.0, "epsilon_grid must be a JSON list, got 8.0"),
        ("output_dir", 5, "output_dir must be a JSON string, got 5"),
        ("generator_checkpoint", ["g.json"],
         "generator_checkpoint must be a JSON string, got ['g.json']"),
        ("train_fraction", "0.5", "train_fraction must be a real number in (0, 1), got '0.5'"),
    ])
    def test_a_value_of_the_wrong_json_type_fails_when_the_config_is_built(
            self, tmp_path, field, value, message):
        # "seeds": 5 raised TypeError, "sources": "mlp" named entry 'm', and
        # "epsilon_grid": 8.0 raised TypeError after every matrix cell
        with pytest.raises(ValueError, match=re.escape(message)):
            self.base_config(tmp_path, **{field: value})

    @pytest.mark.parametrize("override,message", [
        ({"epsilon_grid": [8.0, -1]}, "epsilon must be a real number in [0, inf], got -1"),
        ({"epsilon_grid": [8.0, "x"]}, "epsilon must be a real number in [0, inf], got 'x'"),
        ({"epsilon_grid": [True]}, "epsilon must be a real number in [0, inf], got True"),
        ({"sources": "mlp"}, "sources must be a JSON list, got 'mlp'"),
    ], ids=["grid-negative", "grid-string", "grid-bool", "sources-string"])
    def test_a_bad_grid_entry_or_source_list_fails_before_any_model_trains(
            self, tmp_path, monkeypatch, override, message):
        # a grid entry of -1 failed only after every matrix cell had been attacked
        monkeypatch.setattr(harness, "train_classifier",
                            lambda *args: pytest.fail("a model trained"))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(self.base_config(tmp_path, **override))


class TestAttackCell:
    """_attack_cell attacks with no targets and then scores the whole cell with
    one batched predict per target."""

    @pytest.fixture(scope="class")
    def setting(self):
        ds = synth_dataset("blobs", 60, SHAPE, seed=3)
        train, eval_set = ds.subset(np.arange(45)), ds.subset(np.arange(45, 60))
        sources = [train_classifier(train, "mlp-1-hidden", TrainConfig(epochs=3, seed=0))[0]]
        targets = [train_classifier(train, kind, TrainConfig(epochs=2, seed=1))[0]
                   for kind in ("tiny-conv", "softmax-linear")]
        return sources, targets, eval_set

    GEN = ScalingFactorGenerator(3, SHAPE, hidden=(12, 6), head_scale=1e4)
    TRANSFORMS = (Dim(p=0.5, min_fraction=0.75), Tim(3, 1.0), Sim(2), Vt(2, 1.5), Emi(2, 7.0))
    CONFIGS = {
        "untargeted": AttackConfig(epsilon=64.0, steps=3, step_rule=SignStep(24.0)),
        "targeted": AttackConfig(epsilon=64.0, steps=3, step_rule=SignStep(24.0), momentum=1.0,
                                 target_label=1),
        "transforms": AttackConfig(epsilon=64.0, steps=3, step_rule=FixedScaleStep(32.0),
                                   momentum=1.0, transforms=TRANSFORMS),
        "targeted-transforms": AttackConfig(epsilon=64.0, steps=3, step_rule=SignStep(24.0),
                                            transforms=TRANSFORMS[:2], target_label=0),
        "adaptive": AttackConfig(epsilon=64.0, steps=3, step_rule=attacks.AdaptiveStep(GEN),
                                 momentum=1.0),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_cell_success_is_run_attacks_success_per_example(self, setting, name):
        sources, targets, eval_set = setting
        acfg = self.CONFIGS[name]
        records, success = harness._attack_cell(sources, targets, eval_set, acfg, 5)
        kept = [i for i, y in enumerate(eval_set.labels)
                if not (acfg.targeted and y == acfg.target_label)]
        assert [i for i, *_ in records] == kept
        assert success.shape == (len(kept), len(targets)) and success.dtype == bool
        for (i, x, y, res), flags in zip(records, success):
            ref = run_attack(sources, targets, x, y, acfg, rng=make_rng(5, 1000 + i))
            assert np.array_equal(res.adversarial, ref.adversarial)
            assert flags.tolist() == ref.success

    def test_cell_flags_vary(self, setting):
        # so the comparison above is not between constant flags
        sources, targets, eval_set = setting
        flags = np.concatenate([harness._attack_cell(sources, targets, eval_set, acfg, 5)[1]
                                for acfg in self.CONFIGS.values()])
        assert flags.any(axis=0).all() and not flags.all(axis=0).any()

    def test_each_target_predicts_once_per_cell(self, setting, monkeypatch):
        sources, targets, eval_set = setting
        calls = []
        for model in targets:
            predict = model.predict
            monkeypatch.setattr(model, "predict", lambda x, predict=predict:
                                calls.append(np.shape(x)) or predict(x))
        harness._attack_cell(sources, targets, eval_set, self.CONFIGS["untargeted"], 5)
        assert calls == [(len(eval_set),) + SHAPE.dims] * len(targets)

    def test_only_an_attack_with_transforms_gets_a_stream(self, setting, monkeypatch):
        sources, targets, eval_set = setting
        given = []
        run = attacks.run_attack
        monkeypatch.setattr(attacks, "run_attack", lambda *args, rng=None:
                            given.append(rng) or run(*args, rng=rng))
        harness._attack_cell(sources, targets, eval_set, self.CONFIGS["untargeted"], 5)
        assert given == [None] * len(eval_set)
        given.clear()
        harness._attack_cell(sources, targets, eval_set, self.CONFIGS["transforms"], 5)
        assert len(given) == len(eval_set)
        for i, rng in enumerate(given):
            assert rng.bit_generator.state["state"]["key"].tolist() == [5, 1000 + i]


class TestBatchedSweep:
    """run_experiment attacks a fresh sweep cell in one batched call.  Each such
    cell is attacked again one run_attack call per example, and a success flag
    that differs must sit at a decision boundary: the target's top-two logit
    gap at the per-example adversarial below 1e-9 of its largest |logit|."""

    @staticmethod
    def run_checking_flips(cfg, monkeypatch):
        compared, flips = [], []
        attack_cell = harness._attack_cell

        def spy(source_models, target_models, eval_set, acfg, seed, batched=False):
            out = attack_cell(source_models, target_models, eval_set, acfg, seed, batched)
            if batched:
                records, success = attack_cell(source_models, target_models, eval_set, acfg,
                                               seed)
                assert [r[0] for r in records] == [r[0] for r in out[0]]
                compared.append(success.size)
                for (i, _, _, res), got, want in zip(records, out[1], success):
                    for model, hit, alone in zip(target_models, got, want):
                        if hit != alone:
                            logits = np.sort(model.logits(res.adversarial))
                            flips.append((acfg.epsilon, i, logits[-1] - logits[-2]))
                            assert logits[-1] - logits[-2] < 1e-9 * np.abs(logits).max()
            return out

        monkeypatch.setattr(harness, "_attack_cell", spy)
        run_experiment(cfg)
        return compared, flips

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_benchmark_config_sweep_flags_match_per_example_attacks(self, tmp_path, monkeypatch,
                                                                     seed):
        # the seed rule of the benchmark's experiment workload
        doc = json.loads((REPO / "perfbench" / "experiment.json").read_text())
        doc["dataset"]["seed"] = seed
        for offset, spec in enumerate(doc["models"]):
            spec["seed"] = seed + offset
        doc.update(seeds=[seed, seed + 1], output_dir=str(tmp_path / "out"))
        compared, flips = self.run_checking_flips(ExperimentConfig.from_dict(doc), monkeypatch)
        # grid values x attacks x sources, none at a config's own epsilon
        assert compared == [doc["eval_count"] * len(doc["targets"])] * 2 * 4 * 2
        assert flips == []

    RULES = [{"type": "sign", "alpha": 2.0}, {"type": "fixed", "gamma": 8.0}]
    STACK = [{"type": "dim", "p": 0.5, "min_fraction": 0.75}, {"type": "tim", "k": 3},
             {"type": "sim", "m": 2}, {"type": "vt", "n": 2, "beta": 1.5},
             {"type": "emi", "n": 2, "eta": 7.0}]

    @settings(max_examples=12, deadline=None)
    @given(data_seed=st.integers(0, 2**16), rule=st.sampled_from(RULES),
           momentum=st.sampled_from([None, 1.0]), transforms=st.booleans(),
           targeted=st.booleans(), grid=st.lists(st.sampled_from([2.0, 4.0, 16.0, 32.0]),
                                                  min_size=1, max_size=2, unique=True),
           eval_count=st.integers(1, 10), steps=st.integers(1, 4))
    def test_small_config_sweep_flags_match_per_example_attacks(
            self, tmp_path_factory, data_seed, rule, momentum, transforms, targeted, grid,
            eval_count, steps):
        config = {"epsilon": 8.0, "steps": steps, "step_rule": rule}
        if momentum is not None:
            config["momentum"] = momentum
        if transforms:
            config["transforms"] = self.STACK
        if targeted:
            config.update(target_label=0)
        cfg = ExperimentConfig.from_dict({
            "dataset": {"kind": "blobs", "n": 40, "image_shape": [8, 8, 1],
                        "seed": data_seed, "num_classes": 3},
            "models": [{"name": "mlp", "kind": "mlp-1-hidden", "epochs": 3, "seed": 0},
                       {"name": "lin", "kind": "softmax-linear", "epochs": 3, "seed": 1}],
            "attacks": [{"name": "a", "config": config}],
            "sources": ["mlp", "mlp+lin"], "targets": ["lin", "mlp"], "seeds": [0],
            "eval_count": eval_count, "epsilon_grid": grid,
            "output_dir": str(tmp_path_factory.mktemp("sweep") / "out")})
        with pytest.MonkeyPatch.context() as monkeypatch:
            try:
                compared, _ = self.run_checking_flips(cfg, monkeypatch)
            except ValueError as err:  # every eval example has the target label
                assert targeted and "every eval example" in str(err)
                return
        assert len(compared) == 2 * len(grid)


class TestShippedConfigs:
    def test_benchmark_experiment_config_passes_the_strict_parse(self, tmp_path, monkeypatch):
        doc = json.loads((REPO / "perfbench" / "experiment.json").read_text())
        cfg = ExperimentConfig.from_dict({**doc, "output_dir": str(tmp_path / "out")})
        parsed = [attacks.config_from_dict(entry["config"]) for entry in doc["attacks"]]
        for acfg in parsed:
            assert attacks.config_from_dict(attacks.config_to_dict(acfg)) == acfg
        assert parsed[-1] == AttackConfig(
            epsilon=16.0, steps=10, step_rule=FixedScaleStep(16.0), momentum=1.0,
            transforms=(Dim(0.5, 0.75), Tim(3, 1.0), Sim(2), Vt(4, 1.5), Emi(3, 7.0)))

        class Parsed(Exception):
            pass

        def stop(*args):
            raise Parsed

        # the dataset, interaction, attack and model blocks all pass their key
        # checks: the run gets as far as training the first model
        monkeypatch.setattr(harness, "train_classifier", stop)
        with pytest.raises(Parsed):
            run_experiment(cfg)
