"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
Each workload runs once untraced and once traced (a few minutes in all).
"""

import inspect
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("transfer", "interaction", "experiment")


def bench(workload, seed, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return out


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (printed line, result file) at workload seed 0."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = bench(workload, 0, trace)
            assert out.returncode == 0, out.stderr
            line = json.loads(out.stdout.strip().splitlines()[-1])
            with open(ROOT / ".perfbench_out" / f"{workload}-seed0-trace{trace}.json") as fh:
                results[workload, trace] = (line, json.load(fh))
    return results


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ag():
    run.cap_threads()
    return run.import_program()


def test_benchmark_json_matches_the_code(spec):
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, spec, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = runs[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        for name, metric in line["metrics"].items():
            assert np.isfinite(metric["value"]), name
            if section == "end_to_end":
                assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_bit_identical(runs, workload):
    _, untraced = runs[workload, 0]
    _, traced = runs[workload, 1]
    assert untraced["mismatched_episodes"] == [] and traced["mismatched_episodes"] == []
    assert len(traced["episode_wall_s"]["traced"]) >= 1
    assert traced["output_digest"] == untraced["output_digest"]
    assert traced["result_checks"] == untraced["result_checks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_files_carry_provenance(runs, workload):
    prov = runs[workload, 0][1]["provenance"]
    assert prov["workload_seed"] == 0 and prov["nproc"] >= 1
    assert prov["blas"]["name"] and prov["numpy"] and prov["python"]
    assert all(int(v) <= prov["nproc"] for v in prov["threads"].values())
    assert len(prov["source_sha256"]) == 64


def test_traced_run_reports_each_layer_where_it_runs(runs):
    layer = {w: runs[w, 1][0]["metrics"] for w in WORKLOADS}
    assert layer["transfer"]["models.tiny-conv.parameter_gradients.calls"]["value"] > 0
    assert layer["transfer"]["generator.train_generator.calls"]["value"] == 1
    assert layer["transfer"]["generator.gamma_forward.calls"]["value"] > 0
    assert layer["transfer"]["interaction.setfn.calls"]["value"] == 0
    assert layer["interaction"]["interaction.setfn.calls"]["value"] == 2 * 60 * 600
    assert layer["interaction"]["models.tiny-conv.logits.calls"]["value"] == 0
    assert layer["experiment"]["cli.main.calls"]["value"] == 1
    assert layer["experiment"]["harness.attack_calls_per_cell"]["value"] >= 1
    assert layer["experiment"]["attacks.sim_gradient.calls"]["value"] > 0
    for w in WORKLOADS:
        assert layer[w]["attacks.grad_evals_per_step"]["value"] >= 1
        assert all(layer[w][f"{name}.errors"]["value"] == 0 for name in tracer.LAYERS)


def test_claims_hold_at_the_criteria_seeds(runs, ag):
    # criteria 8 and 9 of the acceptance gate use seeds 0, 1 and 2
    assert runs["transfer", 0][1]["result_checks"]["claim_holds"]
    assert runs["interaction", 0][1]["result_checks"]["claim_holds"]
    assert runs["experiment", 0][1]["result_checks"]["claim_holds"]
    for seed in (1, 2):
        for name in ("transfer", "interaction"):
            setup, job = workloads.WORKLOADS[name]
            checks = job(ag, setup(ag, seed), None)
            assert checks["claim_holds"], (name, seed, checks)
            assert checks["mad_ratio"] < 1.0


def test_workload_seed_changes_the_inputs(ag):
    a = workloads.transfer_setup(ag, 0)
    b = workloads.transfer_setup(ag, 1)
    assert not np.array_equal(a.train.images, b.train.images)
    again = workloads.transfer_setup(ag, 0)
    assert np.array_equal(a.test.images, again.test.images)
    ia, ib = workloads.interaction_setup(ag, 0), workloads.interaction_setup(ag, 1)
    assert not np.array_equal(ia.test.images, ib.test.images)
    ea, eb = workloads.experiment_setup(ag, 0), workloads.experiment_setup(ag, 1)
    assert ea.doc["dataset"]["seed"] != eb.doc["dataset"]["seed"]
    assert ea.doc["seeds"] != eb.doc["seeds"]


def test_instrument_restores_every_wrapper(ag):
    def snapshot():
        mods = tracer._advgrad_modules(ag)
        funcs = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
        meths = {(c.__name__, k): v for c in tracer._subclasses(ag.models.Model)
                 + [ag.generator.ScalingFactorGenerator] for k, v in vars(c).items()}
        return funcs, meths

    before = snapshot()
    rec = tracer.Recorder()
    with tracer.instrument(ag, rec):
        assert ag.attacks.project is not before[0]["advgrad.attacks", "project"]
        assert ag.generator.project is ag.attacks.project
        ag.numerics.make_rng(0)
    assert rec.calls["numerics.make_rng"] == 1
    after = snapshot()
    assert before[0].keys() == after[0].keys()
    assert all(before[0][k] is after[0][k] for k in before[0])
    assert all(before[1][k] is after[1][k] for k in before[1])


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    sig = inspect.signature(lambda: None)

    def child():
        return sum(range(20000))

    def parent():
        return rec.call("child", "child", "b", sig, child, (), {})

    rec.call("parent", "parent", "a", sig, parent, (), {})
    (pi, ps, pe, pp), = [s for s in rec.spans if rec.names[s[0]] == "parent"]
    (ci, cs, ce, cp), = [s for s in rec.spans if rec.names[s[0]] == "child"]
    assert pp == -1 and rec.spans[cp][0] == pi
    assert rec.self_s["parent"] == pytest.approx((pe - ps) - (ce - cs))
    assert rec.self_s["child"] == pytest.approx(ce - cs)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("interaction", 0, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _busy_blas(stop):
    # BLAS threads on every core, the GIL released, as a batched model would
    a = np.random.default_rng(0).standard_normal((400, 400))
    while not stop.is_set():
        a @ a


def _busy_python(stop):
    # a second Python thread that holds the GIL whenever it can
    while not stop.is_set():
        sum(i * i for i in range(1000))


@pytest.mark.parametrize("busy", [
    pytest.param(None, id="extra-work"),
    pytest.param(_busy_blas, id="busy-blas-thread"),
    # known limitation: in trials the normalized factor came out 0.78-1.04
    # times the raw one, so a change that adds Python threads is judged on
    # raw times
    pytest.param(_busy_python, id="busy-python-thread", marks=pytest.mark.xfail(
        strict=False, reason="a thread holding the GIL also slows the kernel")),
])
def test_normalized_time_follows_an_injected_slowdown(ag, busy):
    """A known slowdown of an advgrad call moves normalized time as it moves raw time.

    A slowed block makes each model call twice, or makes it while a busy
    second thread runs through the block.  Plain and slowed blocks of 0.25 s
    alternate under one `SpeedTrace`, and each pair gives a slowdown factor,
    so both blocks of a pair meet the same host.  Raw time here leaves out
    the sampling windows, which the normalizer leaves out too.  In trials on
    a 2-core VM the normalized factor came within 5% of the raw one with
    extra work or a BLAS thread.
    """
    model = ag.models.build_model("tiny-conv", ag.numerics.ImageShape(8, 8, 1), 3)
    x = np.random.default_rng(0).uniform(0, 255, (8, 8, 1))

    def block(slowed):
        stop = threading.Event()
        thread = threading.Thread(target=busy, args=(stop,)) if slowed and busy else None
        if thread is not None:
            thread.start()
        start, calls = time.perf_counter(), 0
        while time.perf_counter() - start < 0.25:
            model.parameter_gradients(x, 1)
            if slowed and busy is None:
                model.parameter_gradients(x, 1)
            calls += 1
        end = time.perf_counter()
        if thread is not None:
            stop.set()
            thread.join()
        return start, end, calls

    pairs = []
    with speed.SpeedTrace() as trace:
        start = time.perf_counter()
        while time.perf_counter() - start < 6.0:
            pairs.append((block(False), block(True)))
    flat = speed.SpeedTrace()
    flat.begins, flat.ends = trace.begins, trace.ends
    flat.kernel_s = [speed.REFERENCE_S] * len(trace.kernel_s)

    def factor(length):
        return statistics.median(length(s0, s1) / sn / (length(p0, p1) / pn)
                                 for (p0, p1, pn), (s0, s1, sn) in pairs)

    raw, normalized = factor(flat.normalizer()), factor(trace.normalizer())
    assert raw > 1.1, raw
    assert 0.8 < normalized / raw < 1.25, (raw, normalized)
