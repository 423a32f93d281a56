#!/usr/bin/env python3
"""Benchmark of advgrad's three workloads (transfer, interaction, experiment).

Run from the repository root:

    python3 perfbench/run.py --workload transfer --seed 0 --seconds 20 --trace 0

The workload seed makes the inputs; the library receives only those inputs.
A run repeats the workload's job (an episode) on the same inputs until
`--seconds` have passed and at least three episodes ran, checks that every
episode produced bit-identical, valid outputs, and prints one JSON line:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  The full record, with provenance, goes to
`.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`; a traced run also
writes its spans there.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_EPISODES = 3
SETUP_PROBES = 5
MODEL_KINDS = ("softmax-linear", "mlp-1-hidden", "tiny-conv")

# Functions timed in an untraced run: the operations whose latency and
# throughput are end-to-end metrics.  A wrapper adds a few microseconds to a
# call that takes a millisecond or more; the output checks run after the
# call's interval is taken.
PROBE = {"attacks.run_attack", "generator.run_attack_adaptive", "models.train_classifier",
         "generator.train_generator", "interaction.expected_interaction_sampled"}

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "attack_examples_per_s",
              "attack_example_p50_ms", "attack_example_p90_ms")


def _per_layer_names():
    names = []
    for kind in MODEL_KINDS:
        for fn in ("parameter_gradients", "input_gradient", "logits"):
            names += [f"models.{kind}.{fn}.calls", f"models.{kind}.{fn}.self_s"]
        names.append(f"models.{kind}.predict.calls")
    names += ["models.train_classifier.calls", "models.train_classifier.self_s",
              "models.train_examples_per_s", "models.errors",
              "attacks.run_attack.calls", "attacks.run_attack.self_s",
              "attacks.ensemble_gradient.calls", "attacks.sim_gradient.calls"]
    names += [f"attacks.{fn}.self_s" for fn in
              ("tim_smooth", "dim_transform", "project", "momentum_accumulate", "apply_step")]
    names += ["attacks.steps", "attacks.grad_evals_per_step", "attacks.errors",
              "numerics.gaussian_kernel_2d.calls", "numerics.make_rng.calls", "numerics.errors",
              "generator.train_generator.calls", "generator.train_generator.self_s",
              "generator.gamma_forward.calls", "generator.gamma_forward.self_s",
              "generator.run_attack_adaptive.calls", "generator.run_attack_adaptive.self_s",
              "generator.train_iters_per_s", "generator.errors",
              "interaction.reward.calls", "interaction.reward.self_s",
              "interaction.expected_interaction_sampled.calls",
              "interaction.expected_interaction_sampled.self_s",
              "interaction.setfn.calls", "interaction.setfn.self_s",
              "interaction.setfn_evals_per_s", "interaction.examples_per_s",
              "interaction.example_p50_ms", "interaction.example_p90_ms", "interaction.errors",
              "harness.run_experiment.calls", "harness.run_experiment.self_s",
              "harness.emit_report.calls", "harness.emit_report.self_s",
              "harness.compute_metrics.calls",
              "harness.synth_dataset.calls", "harness.synth_dataset.self_s",
              "harness.cells", "harness.attack_calls_per_cell",
              "harness.records", "harness.predict_calls_per_record", "harness.errors",
              "cli.main.calls", "cli.main.self_s", "cli.errors",
              "trace.overhead_s"]
    return names


PER_LAYER = tuple(_per_layer_names())


def cap_threads():
    """Cap every BLAS/OpenMP thread count at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def import_program():
    """Import advgrad from this checkout's sources, or exit with an error."""
    package_dir = ROOT / "src" / "advgrad"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: advgrad sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import advgrad
    from tracer import LAYERS
    for layer in LAYERS:
        importlib.import_module(f"advgrad.{layer}")
    if Path(advgrad.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"perfbench: imported advgrad from {advgrad.__file__}, not from this checkout")
    return advgrad


# -- per-episode accounting ---------------------------------------------------


def _rng_seed(rng):
    if rng is None:
        return None
    key = rng.bit_generator.state.get("state", {}).get("key")
    return None if key is None else int(key[0])


@dataclass
class EpisodeStats:
    """Operations, their wall intervals and an output digest for one episode."""

    attempted: int = 0
    failed: int = 0
    attack_iv: list = field(default_factory=list)
    interaction_iv: list = field(default_factory=list)
    train_iv: list = field(default_factory=list)
    train_examples: int = 0
    generator_iv: list = field(default_factory=list)
    generator_iters: int = 0
    steps: int = 0
    attack_grad_evals: int = 0
    harness_attacks: int = 0
    harness_predicts: int = 0
    cells: set = field(default_factory=set)
    digest: object = field(default_factory=hashlib.sha256)

    def _op(self, ok):
        self.attempted += 1
        self.failed += not ok

    def on_error(self, rec, key):
        self._op(False)

    def attack_done(self, rec, key, bind, res, start, end):
        import numpy as np
        args = bind().arguments
        x = np.asarray(args["x"], dtype=np.float64)
        adv = np.asarray(res.adversarial)
        if key == "attacks.run_attack":
            eps = args["cfg"].epsilon
            cell = (_rng_seed(args.get("rng")), repr(args["cfg"]))
            models = args["source_models"]
        else:
            eps = args["epsilon"]
            cell = ("adaptive", eps)
            models = args["models"]
        # an adversarial example must be finite, in the eps-ball and in [0, 255]
        ok = (adv.shape == x.shape and bool(np.all(np.isfinite(adv)))
              and bool(np.all(np.abs(adv - x) <= eps + 1e-9))
              and adv.min() >= 0.0 and adv.max() <= 255.0)
        self._op(ok)
        self.attack_iv.append((start, end))
        self.steps += res.steps_used
        self.digest.update(adv.tobytes())
        if rec.open["harness.run_experiment"]:
            self.harness_attacks += 1
            self.cells.add(cell + (tuple(map(id, models)), x.tobytes(), int(args["y"])))

    def train_done(self, rec, key, bind, res, start, end):
        import numpy as np
        args = bind().arguments
        model, _ = res
        self._op(all(np.all(np.isfinite(p)) for p in model.params.values()))
        self.train_iv.append((start, end))
        self.train_examples += args["cfg"].epochs * len(args["dataset"])
        for name in sorted(model.params):
            self.digest.update(model.params[name].tobytes())

    def generator_done(self, rec, key, bind, res, start, end):
        import numpy as np
        self._op(all(np.all(np.isfinite(p)) for step in res.theta for p in step.values()))
        self.generator_iv.append((start, end))
        self.generator_iters += bind().arguments["cfg"].total_steps

    def interaction_done(self, rec, key, bind, res, start, end):
        import numpy as np
        self._op(bool(np.isfinite(res.value) and np.isfinite(res.stderr)))
        self.interaction_iv.append((start, end))
        self.digest.update(np.float64(res.value).tobytes())

    def grad_done(self, rec, key, bind, res, start, end):
        if rec.open["attacks.run_attack"] or rec.open["generator.run_attack_adaptive"]:
            self.attack_grad_evals += 1

    def predict_done(self, rec, key, bind, res, start, end):
        if rec.open["harness.run_experiment"]:
            self.harness_predicts += 1

    def hooks(self):
        return {
            "attacks.run_attack": self.attack_done,
            "generator.run_attack_adaptive": self.attack_done,
            "models.train_classifier": self.train_done,
            "generator.train_generator": self.generator_done,
            "interaction.expected_interaction_sampled": self.interaction_done,
            "models.input_gradient": self.grad_done,
            "models.predict": self.predict_done,
        }


@dataclass
class Episode:
    """One run of a workload's job; times are at reference speed."""

    wall_s: float
    raw_wall_s: float
    stats: EpisodeStats
    recorder: object
    checks: dict
    attack_s: list
    interaction_s: list
    train_s: float
    generator_s: float

    @property
    def digest(self):
        return self.stats.digest.hexdigest()

    @property
    def factor(self):
        return self.wall_s / self.raw_wall_s


def run_episode(ag, workload, seed, traced):
    from speed import SpeedTrace
    from tracer import Recorder, instrument
    from workloads import WORKLOADS
    setup, job = WORKLOADS[workload]
    stats = EpisodeStats()
    rec = Recorder(hooks=stats.hooks(), on_error=stats.on_error, keep_spans=traced)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        with instrument(ag, rec, None if traced else PROBE), SpeedTrace() as speed:
            start = time.perf_counter()
            checks = job(ag, setup(ag, seed), work_dir)
            end = time.perf_counter()
    stats.digest.update(json.dumps(checks, sort_keys=True).encode())
    norm = speed.normalizer()
    return Episode(
        wall_s=norm(start, end), raw_wall_s=end - start, stats=stats,
        recorder=rec, checks=checks,
        attack_s=[norm(a, b) for a, b in stats.attack_iv],
        interaction_s=[norm(a, b) for a, b in stats.interaction_iv],
        train_s=sum(norm(a, b) for a, b in stats.train_iv),
        generator_s=sum(norm(a, b) for a, b in stats.generator_iv),
    )


def run_phase(ag, workload, seed, seconds, min_episodes, traced):
    episodes = []
    start = time.perf_counter()
    while len(episodes) < min_episodes or time.perf_counter() - start < seconds:
        episodes.append(run_episode(ag, workload, seed, traced))
    return episodes


# -- metrics ------------------------------------------------------------------


def _pct(samples, q):
    import numpy as np
    return float(np.percentile(samples, q)) if samples else 0.0


def _rate(pairs):
    """Operations per second over all episodes: total count / total time."""
    counts, seconds = zip(*pairs)
    return sum(counts) / sum(seconds) if sum(seconds) > 0 else 0.0


def _per_call_ms(per_episode):
    """Each call's median over the episodes, in ms.

    Every episode repeats the same calls, so the median keeps a call's own
    cost and drops most of the host's jitter from the latency percentiles.
    """
    return [1e3 * statistics.median(times) for times in zip(*per_episode)]


def end_to_end_metrics(episodes, setup_s):
    attack_ms = _per_call_ms(e.attack_s for e in episodes)
    inter_ms = _per_call_ms(e.interaction_s for e in episodes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(e.wall_s for e in episodes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_examples_per_s": (
            _rate((e.stats.train_examples, e.train_s) for e in episodes), "1/s"),
        "attack_examples_per_s": (
            _rate((len(e.attack_s), sum(e.attack_s)) for e in episodes), "1/s"),
        "attack_example_p50_ms": (_pct(attack_ms, 50), "ms"),
        "attack_example_p90_ms": (_pct(attack_ms, 90), "ms"),
        "generator_train_iters_per_s": (
            _rate((e.stats.generator_iters, e.generator_s) for e in episodes), "1/s"),
        "interaction_examples_per_s": (
            _rate((len(e.interaction_s), sum(e.interaction_s)) for e in episodes), "1/s"),
        "interaction_example_p50_ms": (_pct(inter_ms, 50), "ms"),
        "interaction_example_p90_ms": (_pct(inter_ms, 90), "ms"),
        "failed_frac": (sum(e.stats.failed for e in episodes)
                        / max(1, sum(e.stats.attempted for e in episodes)), "ratio"),
    }


def per_layer_metrics(untraced, traced, e2e):
    """Per-episode means over the traced episodes, plus derived ratios."""
    n = len(traced)
    recs = [e.recorder for e in traced]
    stats = [e.stats for e in traced]

    def mean_of(get):
        return sum(get(r) for r in recs) / n

    def ratio(num, den):
        return num / den if den else 0.0

    inter_s = statistics.median(sum(e.interaction_s) for e in untraced)
    derived = {
        "attacks.steps": (sum(s.steps for s in stats) / n, "count"),
        "attacks.grad_evals_per_step": (
            ratio(sum(s.attack_grad_evals for s in stats), sum(s.steps for s in stats)), "ratio"),
        "models.train_examples_per_s": (e2e["train_examples_per_s"][0], "1/s"),
        "generator.train_iters_per_s": (e2e["generator_train_iters_per_s"][0], "1/s"),
        "interaction.setfn_evals_per_s": (
            ratio(mean_of(lambda r: r.calls["interaction.setfn"]), inter_s), "1/s"),
        "interaction.examples_per_s": (e2e["interaction_examples_per_s"][0], "1/s"),
        "interaction.example_p50_ms": (e2e["interaction_example_p50_ms"][0], "ms"),
        "interaction.example_p90_ms": (e2e["interaction_example_p90_ms"][0], "ms"),
        "harness.cells": (sum(len(s.cells) for s in stats) / n, "count"),
        "harness.attack_calls_per_cell": (
            ratio(sum(s.harness_attacks for s in stats), sum(len(s.cells) for s in stats)), "ratio"),
        "harness.records": (sum(e.checks.get("records", 0) for e in traced) / n, "count"),
        "harness.predict_calls_per_record": (
            ratio(sum(s.harness_predicts for s in stats),
                  sum(e.checks.get("records", 0) for e in traced)), "ratio"),
        "trace.overhead_s": (statistics.median(e.wall_s for e in traced)
                             - statistics.median(e.wall_s for e in untraced), "s"),
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".errors"):
            layer = name.split(".")[0]
            out[name] = (mean_of(lambda r: r.errors[layer]), "count")
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            out[name] = (mean_of(lambda r: r.calls[span]), "count")
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = (sum(e.recorder.self_s[span] * e.factor for e in traced) / n, "s")
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


# -- provenance and set-up ----------------------------------------------------


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "advgrad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed, nproc):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload_seed": seed,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def measure_setup(workload, seed):
    """Median over fresh interpreters of imports plus the workload's set-up.

    The first interpreter only warms the file cache and is not counted.
    These times are raw: a calibration kernel timed around a 0.6 s child
    process tracked its speed worse than no correction at all.
    """
    samples = []
    for _ in range(1 + SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples[1:]), samples[1:]


# -- main ---------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("transfer", "interaction", "experiment"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _write_spans(path, episode):
    """Spans of one traced episode: names, and rows (name index, start, end, parent)."""
    import numpy as np
    rec = episode.recorder
    np.savez_compressed(path, names=np.asarray(rec.names),
                        spans=np.asarray(rec.spans, dtype=np.float64).reshape(-1, 4))


def main(argv=None):
    args = _parse(argv)
    nproc = cap_threads()
    sys.path.insert(0, str(HERE))
    ag = import_program()
    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload][0](ag, args.seed)
        print(f"{time.perf_counter() - _T0:.6f}")
        return 0

    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    if args.trace:
        untraced = run_phase(ag, args.workload, args.seed, args.seconds / 2, 1, traced=False)
        traced = run_phase(ag, args.workload, args.seed, args.seconds / 2, 1, traced=True)
    else:
        untraced = run_phase(ag, args.workload, args.seed, args.seconds, MIN_EPISODES, traced=False)
        traced = []
    episodes = untraced + traced

    e2e = end_to_end_metrics(untraced, setup_s)
    reference = episodes[0]
    mismatched = [k for k, e in enumerate(episodes)
                  if e.digest != reference.digest or e.checks != reference.checks]
    attempted = sum(e.stats.attempted for e in episodes)
    failed = sum(e.stats.failed for e in episodes)
    correct = (not mismatched and failed == 0 and attempted > 0
               and reference.checks.get("budget_ok", True))

    if args.trace:
        metrics = per_layer_metrics(untraced, traced, e2e)
        names = PER_LAYER
    else:
        metrics = e2e
        names = END_TO_END
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "mismatched_episodes": mismatched,
        "output_digest": reference.digest,
        "provenance": provenance(args.seed, nproc),
        "setup_samples_s": setup_samples,
        "episode_wall_s": {"untraced": [e.wall_s for e in untraced],
                           "traced": [e.wall_s for e in traced]},
        "raw_episode_wall_s": {"untraced": [e.raw_wall_s for e in untraced],
                               "traced": [e.raw_wall_s for e in traced]},
        "samples": {"attack_examples": sum(len(e.attack_s) for e in untraced),
                    "interaction_examples": sum(len(e.interaction_s) for e in untraced),
                    "episodes": len(untraced)},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "result_checks": reference.checks,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        _write_spans(OUT_DIR / f"{stem}-spans.npz", traced[0])
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    # the raw time beside the normalized one, to confirm changes to threading
    print(f"wall_s {e2e['wall_s'][0]:.4f} s at reference speed, raw "
          f"{statistics.median(e.raw_wall_s for e in untraced):.4f} s "
          f"(median of {len(untraced)} untraced episodes)")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
