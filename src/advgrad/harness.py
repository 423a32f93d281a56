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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import attacks, generator as gen_mod, interaction
from .models import (
    MODEL_CLASSES,
    MODEL_KINDS,
    LabeledDataset,
    TrainConfig,
    _check_label,
    accuracy,
    load_model,
    train_classifier,
)
from .numerics import ImageShape, _check_count, _check_keys, _check_seed, _from_doc, make_rng

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

    `success` holds the per-example flags of the success rule for this
    target (`attacks._succeeded`), so ASR follows the attack's own rule.
    ASR counts all evaluated images, including those the target already
    misclassifies clean.  MAD/RMSD average over all pixels of all images.
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

# the counts an interaction block may set, with their defaults
_INTERACTION_COUNTS = {"examples": 50, "num_pairs": 10, "num_subsets": 5}


@dataclass
class ExperimentConfig:
    """An experiment document; run_experiment parses the nested JSON blocks."""

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
        self._check()

    def _check(self):
        """ValueError if a field is out of range; run_experiment checks again,
        since a field may be set after construction."""
        if not self.attacks:
            raise ValueError("need at least one attack config")
        if not self.targets:
            raise ValueError("need at least one evaluation target")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for k, seed in enumerate(self.seeds):
            _check_seed("seeds entry", seed)  # make_rng's rule
            if seed in self.seeds[:k]:
                raise ValueError(f"seeds entry {seed!r} is repeated")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction!r}")
        _check_count("eval_count", self.eval_count, 1)
        if self.interaction is not None:
            _check_keys(self.interaction, _INTERACTION_COUNTS.keys() | {"methods", "model"}, (),
                        "interaction block")
            for key in _INTERACTION_COUNTS:
                if key in self.interaction:
                    _check_count(f"interaction {key}", self.interaction[key], 1)
            methods = self.interaction.get("methods", [])
            if not isinstance(methods, list):
                raise ValueError("interaction methods must be a list of attack names, "
                                 f"got {methods!r}")
            names = [doc.get("name") for doc in self.attacks if isinstance(doc, dict)]
            for name in methods:
                if not isinstance(name, str) or name not in names:
                    raise ValueError(f"interaction methods entry {name!r} names no attack")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build from a JSON document; an unknown or missing key raises ValueError."""
        return _from_doc(cls, doc, "experiment config", {"seeds": list})


def build_dataset(spec: dict) -> LabeledDataset:
    """Load or synthesize a dataset; `seed`, valid for every kind, also seeds the split."""
    kind = None
    if isinstance(spec, dict):
        kind = spec.get("kind")
        _check_seed("dataset spec: seed", spec.get("seed", 0))  # make_rng's rule
    if kind == "idx":
        _check_keys(spec, {"kind", "seed", "images", "labels"}, ("images", "labels"),
                    "dataset spec")
        return load_idx(spec["images"], spec["labels"])
    if kind == "cifar":
        _check_keys(spec, {"kind", "seed", "path"}, ("path",), "dataset spec")
        return load_cifar_binary(spec["path"])
    _check_keys(spec, {"kind", "seed", "n", "image_shape", "num_classes"}, ("kind", "n"),
                "dataset spec")
    n, num_classes = spec["n"], spec.get("num_classes", 3)
    dims = spec.get("image_shape", (8, 8, 1))
    _check_count("dataset spec: n", n, 2)
    _check_count("dataset spec: num_classes", num_classes, 1)
    if not isinstance(dims, (list, tuple)) or len(dims) != 3:
        raise ValueError("dataset spec: image_shape must be [height, width, channels], "
                         f"got {dims!r}")
    for name, value in zip(("height", "width", "channels"), dims):
        _check_count(f"dataset spec: image_shape {name}", value, 1)
    return synth_dataset(kind, n, ImageShape(*dims), spec.get("seed", 0),
                         num_classes=num_classes)


def _prepare_models(specs, references, train_set: LabeledDataset, labels):
    """Load or train the pool.  Every spec, and every (where, name) pair in
    `references` that names a model, is checked before any model trains, and
    so is every model against the data: it must take train_set's image shape,
    and each of `labels` must be one of its classes.  A checkpoint is loaded
    for that check; a trained model has train_set's shape and classes, and
    its kind's shape rule (`Model.check_image_shape`) is checked on that shape.

    A spec is `name` plus either `checkpoint`, or `kind` and TrainConfig's fields.
    """
    plans = {}  # name -> (checkpoint path or model kind, TrainConfig or None)
    for doc in specs:
        if isinstance(doc, dict) and "checkpoint" in doc:
            _check_keys(doc, {"name", "checkpoint"}, ("name",), "model spec")
            if not os.path.exists(doc["checkpoint"]):
                raise FileNotFoundError(f"missing model checkpoint {doc['checkpoint']!r}")
            plan = (doc["checkpoint"], None)
        else:
            _check_keys(doc, {"name", "kind", *(f.name for f in fields(TrainConfig))},
                        ("name", "kind"), "model spec")
            if doc["kind"] not in MODEL_KINDS:
                raise ValueError(f"model spec {doc['name']!r}: unknown kind {doc['kind']!r}, "
                                 f"expected one of {MODEL_KINDS}")
            try:
                train = TrainConfig(**{k: v for k, v in doc.items() if k not in ("name", "kind")})
            except ValueError as err:
                raise ValueError(f"model spec {doc['name']!r}: {err}") from None
            plan = (doc["kind"], train)
        if doc["name"] in plans:
            raise ValueError(f"two model specs are named {doc['name']!r}")
        plans[doc["name"]] = plan
    for where, name in references:
        if name not in plans:
            raise ValueError(f"{where} entry {name!r} names no model spec")
    loaded = {name: load_model(source) for name, (source, train) in plans.items()
              if train is None}
    shape = train_set.image_shape.dims
    for name, (source, train) in plans.items():
        model = loaded.get(name)
        dims = model.image_shape.dims if model is not None else shape
        classes = model.num_classes if model is not None else train_set.num_classes
        if dims != shape:
            raise ValueError(f"model spec {name!r}: input shape {dims} does not match "
                             f"the dataset's {shape}")
        try:
            if model is None:
                MODEL_CLASSES[source].check_image_shape(train_set.image_shape)
            for label in labels:
                _check_label(label, classes)  # run_attack's rule
        except ValueError as err:
            raise ValueError(f"model spec {name!r}: {err}") from None
    return {name: loaded[name] if train is None
            else train_classifier(train_set, source, train)[0]
            for name, (source, train) in plans.items()}


def _resolve_source(pool, source_name):
    return [pool[part] for part in source_name.split("+")]


def _attack_cell(source_models, target_models, eval_set, acfg, seed, batched=False):
    """Run one attack over the eval set and score it against every target.

    Returns (records, success): a record (i, x, y, AttackResult) per attacked
    example, and the (records, targets) bool array of the success rule on each
    target's predictions, one batched predict per target.  A targeted attack
    skips the examples whose label is its target.  Example i's transforms
    draw from stream 1000 + i of seed; an attack without them draws nothing,
    so its result does not depend on seed, and run_experiment attacks such a
    cell once for all seeds.  The examples are attacked one run_attack call
    each, or with `batched` in one call of the attack loop on the whole cell,
    which agrees with them to 1e-12 relative (`attacks._attack_loop`).
    """
    kept = [i for i, y in enumerate(eval_set.labels)
            if not (acfg.targeted and y == acfg.target_label)]
    images, labels = eval_set.images[kept], eval_set.labels[kept]
    rngs = [make_rng(seed, stream=1000 + i) for i in kept] if acfg.transforms else None
    if batched:
        results = attacks._attack_loop(source_models, [], images, labels, acfg, rngs)
    else:
        results = [attacks.run_attack(source_models, [], x, int(y), acfg,
                                      rng=rngs[k] if rngs else None)
                   for k, (x, y) in enumerate(zip(images, labels))]
    records = [(i, x, int(y), res) for i, x, y, res in zip(kept, images, labels, results)]
    adversarials = np.stack([res.adversarial for res in results])
    return records, _score_cell(target_models, adversarials, labels, acfg)


def _score_cell(target_models, adversarials, labels, acfg):
    """The (N, targets) bool array of the success rule on N adversarial
    examples with their (N,) labels: one batched predict per target."""
    return np.stack([attacks._succeeded(model.predict(adversarials), labels, acfg)
                     for model in target_models], axis=1)


def _distances(delta):
    """results.csv's L-infinity, MAD and RMSD fields of one perturbation."""
    return (f"{np.abs(delta).max():.6f}", f"{np.abs(delta).mean():.6f}",
            f"{np.sqrt((delta**2).mean()):.6f}")


def _interaction_estimates(scorer, records, spec: dict, seed):
    """{example_id: InteractionEstimate} of each record's perturbation."""
    estimates = {}
    for i, x, y, res in records:
        v, n = interaction.make_model_setfn(scorer, x, res.adversarial - x, y)
        estimates[i] = interaction.expected_interaction_sampled(
            v, n, spec["num_pairs"], spec["num_subsets"],
            rng=make_rng(seed, stream=3000 + i))
    return estimates


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train/load the pool, run the attack matrix, write CSV/JSON reports.

    Every block of cfg is checked before any model trains.  Each distinct
    cell (config, source, seed if the config has transforms) is attacked
    once: a config without transforms draws nothing, so one cell serves all
    its seeds, and the sweep's seeds[0] lookup of a grid epsilon equal to
    the config's own reads the matrix cell.  Only cells a later lookup can
    hit are kept, those without transforms and those of seeds[0].  The
    matrix attacks its cells one run_attack call per example; the sweep
    attacks each cell the matrix did not in one batched call, and reads only
    its ASR.  The interaction pass scores cell (seeds[0], method,
    sources[0]).  Per-example RNG streams derive from (seed, example index),
    so runs are deterministic.
    """
    cfg._check()
    dataset = build_dataset(cfg.dataset)
    spec = cfg.interaction  # None skips the interaction pass; {} runs it with defaults
    if spec is not None:
        spec = {**_INTERACTION_COUNTS, **spec}
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
    for doc in cfg.attacks:
        _check_keys(doc, {"name", "config"}, ("name", "config"), "attack entry")
    methods = {doc["name"]: attacks.config_from_dict(doc["config"], generator=gen)
               for doc in cfg.attacks}
    if len(methods) < len(cfg.attacks):
        raise ValueError("attack names must be unique")
    skipped = {name: int(np.sum(eval_set.labels == acfg.target_label))
               for name, acfg in methods.items() if acfg.targeted}
    for name, n_skipped in skipped.items():
        if n_skipped == len(eval_set):
            raise ValueError(f"targeted attack {name!r}: every eval example has the target label")
    references = [("targets", name) for name in cfg.targets]
    references += [("sources", part) for name in cfg.sources for part in name.split("+")]
    if spec is not None:
        references.append(("interaction model", spec.get("model", cfg.targets[0])))
    labels = [int(y) for y in np.unique(eval_set.labels)]
    labels += [acfg.target_label for acfg in methods.values() if acfg.targeted]
    pool = _prepare_models(cfg.models, references, train_set, labels)
    target_models = [pool[t] for t in cfg.targets]
    clean_accuracy = {t: accuracy(pool[t], eval_set) for t in cfg.targets}

    memo = {}

    def cell(acfg, source_name, seed, batched=False):
        # a config without transforms draws nothing, so its seed cannot change it
        key = (acfg, source_name, seed if acfg.transforms else None)
        if key in memo:
            return memo[key]
        out = _attack_cell(_resolve_source(pool, source_name), target_models, eval_set,
                           acfg, seed, batched)
        if not acfg.transforms or seed == cfg.seeds[0]:  # a later lookup can hit it
            memo[key] = out
        return out

    results, rows, histograms = [], [], {}
    for seed in cfg.seeds:
        for method, acfg in methods.items():
            for source_name in cfg.sources:
                records, success = cell(acfg, source_name, seed)
                if (spec is not None and seed == cfg.seeds[0] and source_name == cfg.sources[0]
                        and (not spec.get("methods") or method in spec["methods"])):
                    histograms[method] = _interaction_estimates(
                        pool[spec.get("model", cfg.targets[0])],
                        records[:spec["examples"]], spec, seed)
                distances = [_distances(res.adversarial - x) for _, x, _, res in records]
                for t_idx, target_name in enumerate(cfg.targets):
                    for (i, _, _, res), dist, hit in zip(records, distances,
                                                         success[:, t_idx]):
                        results.append([i, method, source_name, target_name, int(hit),
                                        *dist, res.steps_used, seed])
                    rows.append(compute_metrics(
                        [x for _, x, _, _ in records],
                        [res.adversarial for _, _, _, res in records],
                        success[:, t_idx],
                        method=method, source=source_name, target=target_name,
                        epsilon=acfg.epsilon, steps=acfg.steps, seed=seed,
                    ))

    sweep_data = []
    for eps in cfg.epsilon_grid or ():
        for method, acfg in methods.items():
            for source_name in cfg.sources:
                # ASR only: a fresh sweep cell is attacked in one batched call
                _, success = cell(replace(acfg, epsilon=eps), source_name, cfg.seeds[0],
                                  batched=True)
                for t_idx, target_name in enumerate(cfg.targets):
                    sweep_data.append({"method": method, "epsilon": eps, "source": source_name,
                                       "target": target_name,
                                       "asr": float(np.mean(success[:, t_idx]))})

    _write_csv(os.path.join(cfg.output_dir, "results.csv"),
               ["example_id", "method", "source", "target", "success",
                "linf", "mad", "rmsd", "steps_used", "seed"], results)
    return emit_report(rows, sweep_data, histograms, cfg, skipped=skipped,
                       clean_accuracy=clean_accuracy)


def _write_csv(path, header, rows):
    """Write a header line, then `rows`, to a CSV file; returns path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


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
                skipped: dict | None = None, clean_accuracy: dict | None = None) -> dict:
    """Write metrics.csv, optional sweep.csv / histogram.csv, and summary.json.

    `histograms` maps a method to {example_id: InteractionEstimate};
    `skipped` maps a targeted method to the number of eval examples it left
    out because their label was its target; `clean_accuracy` maps a target
    to its accuracy on the clean eval set.
    """
    if not rows:
        raise ValueError("need at least one metrics row")
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    paths = {"results": os.path.join(out, "results.csv")}
    paths["metrics"] = _write_csv(
        os.path.join(out, "metrics.csv"),
        ["method", "source", "target", "seed", "asr", "mad", "rmsd", "epsilon", "steps"],
        ([r.method, r.source, r.target, r.seed, f"{r.asr:.6f}", f"{r.mad:.6f}",
          f"{r.rmsd:.6f}", r.epsilon, r.steps] for r in rows))
    if sweep_data:
        paths["sweep"] = _write_csv(
            os.path.join(out, "sweep.csv"), ["method", "epsilon", "source", "target", "asr"],
            ([d["method"], d["epsilon"], d["source"], d["target"], f"{d['asr']:.6f}"]
             for d in sweep_data))
    if histograms:
        values = {method: [est.value for est in ests.values()]
                  for method, ests in histograms.items()}
        edges = np.histogram_bin_edges(np.concatenate(list(values.values())), bins=20)
        counts = {method: np.histogram(vals, bins=edges)[0] for method, vals in values.items()}
        paths["histogram"] = _write_csv(
            os.path.join(out, "histogram.csv"), ["method", "bin_left", "bin_right", "count"],
            ([method, f"{left:.8g}", f"{right:.8g}", int(cnt)] for method, cnts in counts.items()
             for left, right, cnt in zip(edges[:-1], edges[1:], cnts)))
        paths["interaction"] = _write_csv(
            os.path.join(out, "interaction.csv"), ["method", "example_id", "estimate", "stderr"],
            ([method, i, f"{est.value:.8g}", f"{est.stderr:.8g}"]
             for method, ests in histograms.items() for i, est in ests.items()))

    summary = {
        "aggregate": aggregate_rows(rows),
        "asr_convention": "counts all evaluated images, including clean misclassifications",
        "distance_convention": "MAD/RMSD over all images, 0-255 scale",
    }
    if skipped:
        summary["skipped_examples"] = skipped
    if clean_accuracy:
        summary["clean_accuracy"] = clean_accuracy
    summary_path = os.path.join(out, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    paths["summary"] = summary_path
    return paths

