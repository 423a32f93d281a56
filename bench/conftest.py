"""pytest-benchmark setup for the layer micro-benchmarks under ``bench/``.

The reference code the benchmarks time beside the library (the sliding-window
conv kernel, the attack and generator loops before their per-attack
invariants were hoisted, the interaction sampler before its draw loop was
rewritten) lives with the tests.  The report that
``--benchmark-json`` writes keeps each case's summary statistics but not its
per-round timings, and its machine info gains the numpy version, its BLAS
build and the thread-count settings of the run (None where unset).

``bench/`` is a package (an empty ``__init__.py``), so its modules import as
``bench.<name>`` and may share a name with a test module under ``tests/``,
even when the suite's smoke test imports both into one interpreter.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pytest_benchmark_update_machine_info(config, machine_info):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    machine_info["numpy"] = np.__version__
    machine_info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    machine_info["threads"] = {k: os.environ.get(k) for k in THREAD_VARS}


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
