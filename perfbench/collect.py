#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --out perfbench/baseline.json

For every workload in BENCHMARK.json it makes `RUNS` untraced runs with
seeds 0, 1, ... and one traced run with seed 0, one after another, and
writes each end-to-end metric's median, quartiles and spread (the distance
between the quartiles over the median), the per-layer metrics of the traced
run, and the provenance of the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    with open(ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return line, json.load(fh)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    doc = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in range(RUNS)]
        traced_line, _ = bench(workload, 0, spec["run_seconds"], 1)
        for seed, (line, _) in enumerate(runs):
            print(workload, seed, line["correct"], line["attempted"], line["failed"],
                  {k: round(v["value"], 4) for k, v in line["metrics"].items()}, flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            s = summarize([line["metrics"][m["name"]]["value"] for line, _ in runs])
            metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"], **s}
            print(f"  {m['name']:24s} median {s['median']:.5g} spread {s['spread']:.4f}"
                  f" (bound {m['bound']})", flush=True)
        doc["workloads"][workload] = {
            "all_correct": all(line["correct"] for line, _ in runs) and traced_line["correct"],
            "failed": sum(line["failed"] for line, _ in runs),
            "attempted": sum(line["attempted"] for line, _ in runs),
            "end_to_end": metrics,
            "result_checks_seed0": {k: v for k, v in runs[0][1]["result_checks"].items()
                                    if k != "files"},
            "per_layer_seed0": {k: v["value"] for k, v in traced_line["metrics"].items()},
        }
        doc.setdefault("provenance", runs[0][1]["provenance"])
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
