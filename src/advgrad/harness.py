"""Dataset ingestion, metrics, and experiment orchestration.

Runs attack matrices (methods x sources x targets x seeds), perturbation
budget sweeps, and interaction-histogram passes over desk-scale data, and
writes deterministic CSV / JSON reports.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import attacks, generator as gen_mod, interaction
from .models import (
    LabeledDataset,
    TrainConfig,
    accuracy,
    load_model,
    save_model,
    train_classifier,
)
from .numerics import ImageShape, make_rng

__all__ = [
    "MetricsRow",
    "ExperimentConfig",
    "load_idx",
    "write_idx",
    "load_cifar_binary",
    "write_cifar_binary",
    "synth_dataset",
    "compute_metrics",
    "run_experiment",
    "emit_report",
    "aggregate_rows",
    "verify_propositions",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073
DEFAULT_EPSILON_GRID = (1, 2, 4, 6, 8, 12, 16)


# -- file formats -----------------------------------------------------------


def _read_exact(fh, count, path, offset):
    buf = fh.read(count)
    if len(buf) != count:
        raise ValueError(f"{path}: truncated at byte offset {offset}, wanted {count} bytes")
    return buf


def load_idx(images_path: str, labels_path: str, num_classes: int | None = None) -> LabeledDataset:
    """Parse a big-endian IDX image/label file pair (ubyte payload)."""
    with open(images_path, "rb") as fh:
        magic, count, h, w = struct.unpack(">IIII", _read_exact(fh, 16, images_path, 0))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(
                f"{images_path}: bad magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        payload = _read_exact(fh, count * h * w, images_path, 16)
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, h, w, 1).astype(np.float64)
    with open(labels_path, "rb") as fh:
        magic, lcount = struct.unpack(">II", _read_exact(fh, 8, labels_path, 0))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(
                f"{labels_path}: bad magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        if lcount != count:
            raise ValueError(
                f"{labels_path}: label count {lcount} does not match image count {count}"
            )
        labels = np.frombuffer(_read_exact(fh, lcount, labels_path, 8), dtype=np.uint8)
    labels = labels.astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if len(labels) else 1
    return LabeledDataset(images, labels, num_classes)


def write_idx(dataset: LabeledDataset, images_path: str, labels_path: str):
    """Inverse of load_idx for synthetic fixtures; pixels are rounded to bytes."""
    n, h, w, c = dataset.images.shape
    if c != 1:
        raise ValueError("IDX container holds single-channel images")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(np.round(dataset.images[..., 0]).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def load_cifar_binary(path: str, num_classes: int = 10) -> LabeledDataset:
    """Parse 3073-byte records: 1 label byte + 3072 channel-major pixels."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % CIFAR_RECORD:
        raise ValueError(
            f"{path}: size {len(blob)} is not a positive multiple of {CIFAR_RECORD}"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    images = (
        records[:, 1:]
        .reshape(-1, 3, 32, 32)
        .transpose(0, 2, 3, 1)
        .astype(np.float64)
    )
    return LabeledDataset(images, labels, num_classes)


def write_cifar_binary(dataset: LabeledDataset, path: str):
    images = np.round(dataset.images).astype(np.uint8).transpose(0, 3, 1, 2)
    with open(path, "wb") as fh:
        for img, label in zip(images, dataset.labels):
            fh.write(bytes([int(label)]))
            fh.write(img.tobytes())


# -- synthetic data ---------------------------------------------------------


def synth_dataset(kind: str, n: int, image_shape: ImageShape, seed: int,
                  num_classes: int = 3) -> LabeledDataset:
    """Deterministic labeled images in 0-255 with separable structure.

    Labels are balanced to within one example by construction.
    """
    if n < 2:
        raise ValueError("need at least two examples")
    rng = make_rng(seed, stream=11)
    h, w, c = image_shape.dims
    labels = np.arange(n) % num_classes
    images = np.zeros((n, h, w, c))
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    if kind == "blobs":
        templates = rng.uniform(48.0, 208.0, size=(num_classes, h, w, c))
        for i in range(n):
            images[i] = templates[labels[i]] + rng.normal(0.0, 20.0, size=(h, w, c))
    elif kind == "two-moons-image":
        if num_classes != 2:
            raise ValueError("two-moons-image is a 2-class dataset")
        for i in range(n):
            t = rng.uniform(0.0, np.pi)
            if labels[i] == 0:
                cx, cy = 0.5 + 0.35 * np.cos(t), 0.4 + 0.3 * np.sin(t)
            else:
                cx, cy = 0.5 - 0.35 * np.cos(t), 0.6 - 0.3 * np.sin(t)
            bump = np.exp(-(((ii / (h - 1)) - cy) ** 2 + ((jj / (w - 1)) - cx) ** 2) / 0.02)
            img = 200.0 * bump[..., None] + rng.normal(0.0, 10.0, size=(h, w, c))
            images[i] = img
    elif kind == "striped-digits":
        for i in range(n):
            angle = np.pi * labels[i] / num_classes
            phase = ii * np.cos(angle) + jj * np.sin(angle)
            img = 128.0 + 90.0 * np.sin(2.0 * np.pi * phase / max(h, w) * 2.0)
            images[i] = img[..., None] + rng.normal(0.0, 15.0, size=(h, w, c))
    else:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    return LabeledDataset(np.clip(images, 0.0, 255.0), labels, num_classes)


# -- metrics ----------------------------------------------------------------


@dataclass
class MetricsRow:
    method: str
    source: str
    target: str
    asr: float
    mad: float
    rmsd: float
    epsilon: float
    steps: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.asr <= 1.0:
            raise ValueError("asr must lie in [0, 1]")
        if self.mad > self.rmsd + 1e-9 or self.rmsd > self.epsilon + 1e-9:
            raise ValueError("expected mad <= rmsd <= epsilon")


def compute_metrics(originals, adversarials, success, *,
                    method: str, source: str, target: str,
                    epsilon: float, steps: int, seed: int = 0) -> MetricsRow:
    """Aggregate ASR / MAD / RMSD over one attack cell.

    `success` holds run_attack's per-example flags for this target, so ASR
    follows the attack's own success rule.  ASR counts all evaluated images,
    including those the target already misclassifies clean.  MAD/RMSD
    average over all pixels of all images.
    """
    originals = np.asarray(originals)
    adversarials = np.asarray(adversarials)
    success = np.asarray(success, dtype=bool)
    if not (len(originals) == len(adversarials) == len(success)):
        raise ValueError("metric inputs must have matching lengths")
    asr = float(np.mean(success))
    delta = adversarials - originals
    mad = float(np.abs(delta).mean())
    rmsd = float(np.sqrt((delta**2).mean()))
    return MetricsRow(method=method, source=source, target=target, asr=asr,
                      mad=mad, rmsd=rmsd, epsilon=epsilon, steps=steps, seed=seed)


# -- experiment orchestration ----------------------------------------------


@dataclass
class ExperimentConfig:
    dataset: dict
    models: list
    attacks: list
    sources: list
    targets: list
    seeds: list
    output_dir: str
    train_fraction: float = 0.8
    eval_count: int = 100
    generator_checkpoint: str | None = None
    epsilon_grid: list | None = None
    interaction: dict | None = None

    def __post_init__(self):
        if not self.attacks:
            raise ValueError("need at least one attack config")
        if not self.targets:
            raise ValueError("need at least one evaluation target")
        if not self.seeds:
            raise ValueError("need at least one seed")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return cls(
            dataset=doc["dataset"],
            models=doc["models"],
            attacks=doc["attacks"],
            sources=doc["sources"],
            targets=doc["targets"],
            seeds=list(doc["seeds"]),
            output_dir=doc["output_dir"],
            train_fraction=doc.get("train_fraction", 0.8),
            eval_count=doc.get("eval_count", 100),
            generator_checkpoint=doc.get("generator_checkpoint"),
            epsilon_grid=doc.get("epsilon_grid"),
            interaction=doc.get("interaction"),
        )


def build_dataset(spec: dict) -> LabeledDataset:
    kind = spec["kind"]
    if kind == "idx":
        return load_idx(spec["images"], spec["labels"])
    if kind == "cifar":
        return load_cifar_binary(spec["path"])
    shape = ImageShape(*spec.get("image_shape", (8, 8, 1)))
    return synth_dataset(kind, spec["n"], shape, spec.get("seed", 0),
                         num_classes=spec.get("num_classes", 3))


def _prepare_models(cfg: ExperimentConfig, train_set: LabeledDataset):
    pool = {}
    for spec in cfg.models:
        name = spec["name"]
        if "checkpoint" in spec:
            if not os.path.exists(spec["checkpoint"]):
                raise FileNotFoundError(f"missing model checkpoint {spec['checkpoint']!r}")
            pool[name] = load_model(spec["checkpoint"])
        else:
            tc = TrainConfig(
                epochs=spec.get("epochs", 15),
                batch_size=spec.get("batch_size", 32),
                learning_rate=spec.get("learning_rate", 0.2),
                seed=spec.get("seed", 0),
            )
            pool[name], _ = train_classifier(train_set, spec["kind"], tc)
    return pool


def _resolve_source(pool, source_name):
    return [pool[part] for part in source_name.split("+")]


def _attack_cell(source_models, target_models, eval_set, acfg, seed):
    """Run one attack over the eval set; returns per-example records.

    A targeted attack skips the examples whose label is its target.
    """
    records = []
    for i in range(len(eval_set)):
        x = eval_set.images[i]
        y = int(eval_set.labels[i])
        if acfg.targeted and y == acfg.target_label:
            continue
        rng = make_rng(seed, stream=1000 + i)
        res = attacks.run_attack(source_models, target_models, x, y, acfg, rng=rng)
        records.append((i, x, y, res))
    return records


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train/load the pool, run the attack matrix, write CSV/JSON reports.

    Fully deterministic for a fixed config: per-example RNG streams are
    derived from (seed, example index).  The interaction pass scores the
    matrix's own adversarial examples from cell (seeds[0], method,
    sources[0]).
    """
    dataset = build_dataset(cfg.dataset)
    os.makedirs(cfg.output_dir, exist_ok=True)
    split_rng = make_rng(cfg.dataset.get("seed", 0), stream=13)
    order = split_rng.permutation(len(dataset))
    n_train = int(cfg.train_fraction * len(dataset))
    train_set = dataset.subset(order[:n_train])
    eval_set = dataset.subset(order[n_train:][: cfg.eval_count])
    gen = None
    if cfg.generator_checkpoint:
        if not os.path.exists(cfg.generator_checkpoint):
            raise FileNotFoundError(f"missing generator checkpoint {cfg.generator_checkpoint!r}")
        gen = gen_mod.load_generator(cfg.generator_checkpoint)
    attack_cfgs = [attacks.config_from_dict(doc["config"], generator=gen)
                   for doc in cfg.attacks]
    skipped = {doc["name"]: int(np.sum(eval_set.labels == acfg.target_label))
               for doc, acfg in zip(cfg.attacks, attack_cfgs) if acfg.targeted}
    for name, n_skipped in skipped.items():
        if n_skipped == len(eval_set):
            raise ValueError(f"targeted attack {name!r}: every eval example has the target label")
    pool = _prepare_models(cfg, train_set)
    target_models = [pool[t] for t in cfg.targets]

    spec = cfg.interaction  # None skips the interaction pass; {} runs it with defaults
    count = 0 if spec is None else min(spec.get("examples", 50), len(eval_set))
    kept = {}  # method -> first `count` records of cell (seeds[0], method, sources[0])
    raw_path = os.path.join(cfg.output_dir, "results.csv")
    rows = []
    with open(raw_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_id", "method", "source", "target", "success",
                         "linf", "mad", "rmsd", "steps_used", "seed"])
        for seed in cfg.seeds:
            for attack_doc, acfg in zip(cfg.attacks, attack_cfgs):
                method = attack_doc["name"]
                for source_name in cfg.sources:
                    source_models = _resolve_source(pool, source_name)
                    records = _attack_cell(source_models, target_models, eval_set,
                                           acfg, seed)
                    if (spec is not None and seed == cfg.seeds[0]
                            and source_name == cfg.sources[0]
                            and (not spec.get("methods") or method in spec["methods"])):
                        kept[method] = records[:count]
                    for t_idx, target_name in enumerate(cfg.targets):
                        for i, x, y, res in records:
                            delta = res.adversarial - x
                            writer.writerow([
                                i, method, source_name, target_name,
                                int(res.success[t_idx]),
                                f"{np.abs(delta).max():.6f}",
                                f"{np.abs(delta).mean():.6f}",
                                f"{np.sqrt((delta**2).mean()):.6f}",
                                res.steps_used, seed,
                            ])
                        rows.append(compute_metrics(
                            [x for _, x, _, _ in records],
                            [res.adversarial for _, _, _, res in records],
                            [res.success[t_idx] for _, _, _, res in records],
                            method=method, source=source_name, target=target_name,
                            epsilon=acfg.epsilon, steps=acfg.steps, seed=seed,
                        ))

    sweep_data = []
    if cfg.epsilon_grid:
        for eps in cfg.epsilon_grid:
            for attack_doc, acfg in zip(cfg.attacks, attack_cfgs):
                for source_name in cfg.sources:
                    source_models = _resolve_source(pool, source_name)
                    records = _attack_cell(source_models, target_models, eval_set,
                                           replace(acfg, epsilon=eps), cfg.seeds[0])
                    for t_idx, target_name in enumerate(cfg.targets):
                        asr = float(np.mean([res.success[t_idx] for _, _, _, res in records]))
                        sweep_data.append({
                            "method": attack_doc["name"], "epsilon": eps,
                            "source": source_name, "target": target_name, "asr": asr,
                        })

    histograms = {}  # method -> {example_id: interaction estimate}
    if spec is not None:
        scorer = pool[spec.get("model", cfg.targets[0])]
        for method, records in kept.items():
            estimates = {}
            for i, x, y, res in records:
                v, n = interaction.make_model_setfn(scorer, x, res.adversarial - x, y)
                est = interaction.expected_interaction_sampled(
                    v, n, spec.get("num_pairs", 10), spec.get("num_subsets", 5),
                    rng=make_rng(cfg.seeds[0], stream=3000 + i),
                )
                estimates[i] = est.value
            histograms[method] = estimates

    return emit_report(rows, sweep_data, histograms, cfg, skipped=skipped)


def aggregate_rows(rows: list[MetricsRow]) -> list[dict]:
    """Mean ASR/MAD/RMSD per (method, source, target) across seeds."""
    groups: dict[tuple, list[MetricsRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.source, row.target), []).append(row)
    out = []
    for (method, source, target), members in sorted(groups.items()):
        out.append({
            "method": method, "source": source, "target": target,
            "asr": float(np.mean([r.asr for r in members])),
            "mad": float(np.mean([r.mad for r in members])),
            "rmsd": float(np.mean([r.rmsd for r in members])),
            "seeds": len(members),
        })
    return out


def emit_report(rows, sweep_data, histograms, cfg: ExperimentConfig,
                skipped: dict | None = None) -> dict:
    """Write metrics.csv, optional sweep.csv / histogram.csv, and summary.json.

    `histograms` maps a method to {example_id: interaction estimate};
    `skipped` maps a targeted method to the number of eval examples it left
    out because their label was its target.
    """
    if not rows:
        raise ValueError("need at least one metrics row")
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    paths = {"results": os.path.join(out, "results.csv")}

    metrics_path = os.path.join(out, "metrics.csv")
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "source", "target", "seed", "asr", "mad", "rmsd",
                         "epsilon", "steps"])
        for r in rows:
            writer.writerow([r.method, r.source, r.target, r.seed, f"{r.asr:.6f}",
                             f"{r.mad:.6f}", f"{r.rmsd:.6f}", r.epsilon, r.steps])
    paths["metrics"] = metrics_path

    if sweep_data:
        sweep_path = os.path.join(out, "sweep.csv")
        with open(sweep_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "epsilon", "source", "target", "asr"])
            for d in sweep_data:
                writer.writerow([d["method"], d["epsilon"], d["source"], d["target"],
                                 f"{d['asr']:.6f}"])
        paths["sweep"] = sweep_path

    if histograms:
        all_values = np.concatenate([list(v.values()) for v in histograms.values()])
        edges = np.histogram_bin_edges(all_values, bins=20)
        hist_path = os.path.join(out, "histogram.csv")
        with open(hist_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "bin_left", "bin_right", "count"])
            for method, values in histograms.items():
                counts, _ = np.histogram(list(values.values()), bins=edges)
                for left, right, cnt in zip(edges[:-1], edges[1:], counts):
                    writer.writerow([method, f"{left:.8g}", f"{right:.8g}", int(cnt)])
        raw_path = os.path.join(out, "interaction.csv")
        with open(raw_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "example_id", "estimate"])
            for method, values in histograms.items():
                for i, value in values.items():
                    writer.writerow([method, i, f"{value:.8g}"])
        paths["histogram"] = hist_path
        paths["interaction"] = raw_path

    summary = {
        "aggregate": aggregate_rows(rows),
        "asr_convention": "counts all evaluated images, including clean misclassifications",
        "distance_convention": "MAD/RMSD over all images, 0-255 scale",
    }
    if skipped:
        summary["skipped_examples"] = skipped
    summary_path = os.path.join(out, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    paths["summary"] = summary_path
    return paths


# -- proposition self-checks ------------------------------------------------


def verify_propositions(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Fast self-contained checks of the trajectory and interaction math."""
    from .interaction import (
        AnalyticGame,
        coefficients,
        exact_mean_interaction,
        predicted_delta,
        predicted_interaction,
        shapley_value_exact,
        simulate_raw,
        make_game_setfn,
        shapley_interaction_exact,
    )

    results = []
    rng = make_rng(seed, stream=21)

    from fractions import Fraction
    from .interaction import coefficients_exact

    ok = True
    for mu in (0.0, 0.5, 1.0, 1.5):
        fmu = Fraction(mu)
        prev = coefficients_exact(1, mu)
        ok &= prev == (1, 0, 1, 0)
        for m in range(1, 51):
            cur = coefficients_exact(m + 1, mu)
            a, b, c, d = prev
            ok &= cur == (fmu * a + 1, fmu * b + c, fmu * a + c + 1, fmu * b + c + d)
            prev = cur
    c3 = coefficients(3, 1.0)
    ok &= (c3.a, c3.b, c3.c, c3.d) == (3.0, 4.0, 6.0, 5.0)
    results.append(("coefficient recurrences", bool(ok), "m <= 50, mu in {0, 0.5, 1, 1.5}"))

    dim = 8
    g = rng.normal(size=dim)
    base = rng.normal(size=(dim, dim))
    H0 = 0.5 * (base + base.T)
    H0 /= np.linalg.norm(H0, 2)
    ok = True
    worst = 0.0
    for mu in (0.5, 1.0):
        for m in (3, 5, 10):
            errs = []
            for eta in (1e-2, 1e-3, 1e-4):
                game = AnalyticGame(g=g, H=eta * H0)
                _, delta = simulate_raw(game, mu, 0.1, m)
                pred = predicted_delta(coefficients(m, mu), 0.1, game)
                errs.append(np.linalg.norm(delta - pred))
            for e0, e1 in zip(errs, errs[1:]):
                ratio = e0 / e1
                ok &= 100 / 3 <= ratio <= 300
                worst = max(worst, abs(np.log10(ratio / 100)))
    results.append(("trajectory error decays ~100x per decade of curvature",
                    bool(ok), f"max |log10(ratio/100)| = {worst:.3f}"))

    ok = True
    for _ in range(3):
        n = int(rng.integers(3, 7))
        weights = rng.normal(size=n)

        def v_add(subset, weights=weights):
            return float(sum(weights[p] for p in subset))

        total = sum(shapley_value_exact(v_add, i, n) for i in range(n))
        ok &= abs(total - v_add(tuple(range(n)))) < 1e-10
    results.append(("Shapley efficiency axiom", bool(ok), "additive games, n <= 6"))

    n = 6
    gg = rng.normal(size=n)
    B0 = rng.normal(size=(n, n))
    Hq = 0.5 * (B0 + B0.T)
    delta = rng.normal(size=n)
    game = AnalyticGame(g=gg, H=Hq)
    v, _ = make_game_setfn(game, delta)
    exact = shapley_interaction_exact(v, 0, 3, n)
    ok = abs(exact - delta[0] * Hq[0, 3] * delta[3]) < 1e-10
    results.append(("quadratic-game interaction identity", bool(ok),
                    f"|I_ab - d_a H_ab d_b| = {abs(exact - delta[0]*Hq[0,3]*delta[3]):.2e}"))

    m, mu, gamma = 5, 1.0, 0.1
    errs = []
    for eta in (1e-2, 1e-3, 1e-4):
        game = AnalyticGame(g=gg, H=eta * Hq / np.linalg.norm(Hq, 2))
        sched = coefficients(m, mu)
        delta_m = predicted_delta(sched, gamma, game)
        value, _, _ = predicted_interaction(sched, gamma, game)
        errs.append(abs(value - exact_mean_interaction(game, delta_m)))
    ok = all(e0 / max(e1, 1e-300) >= 100 / 3 for e0, e1 in zip(errs, errs[1:]))
    results.append(("cubic interaction prediction matches to first order",
                    bool(ok), f"errors {errs[0]:.2e} -> {errs[2]:.2e}"))
    return results
