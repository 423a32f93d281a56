"""Micro-benchmarks of TIM smoothing and of the package import.

Each TIM case runs `advgrad.attacks.tim_smooth` (the numpy tap-table kernel)
and, beside it, ``scipy.ndimage.convolve`` with the same kernel, which it
equals bit for bit, on one 8x8x1 and one 16x16x3 gradient with k = 3 and 7
(sigma k / 3).  The import cases start a fresh interpreter that imports
numpy alone, advgrad, or advgrad and ``scipy.ndimage`` (what importing
advgrad loaded while TIM ran through scipy); each round includes the
interpreter's own start.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_tim.py --benchmark-json=BENCH_tim.json

The tier-1 suite does not collect this directory; ``tests/test_bench_smoke.py``
runs each case once, untimed.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage

from advgrad.attacks import tim_smooth
from advgrad.numerics import gaussian_kernel_2d, make_rng

SRC = Path(__file__).resolve().parents[1] / "src"
SHAPES = [(8, 8, 1), (16, 16, 3)]
KS = [3, 7]
IMPORTS = {"numpy": "import numpy", "advgrad": "import advgrad",
           "advgrad+scipy.ndimage": "import advgrad, scipy.ndimage"}


@pytest.mark.parametrize("kernel", ["numpy", "scipy"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "{}x{}x{}".format(*s))
def test_tim_smooth(benchmark, shape, k, kernel):
    g = make_rng(0, 91).normal(size=shape)
    # both sides build their kernel once, outside the timed calls
    weights = gaussian_kernel_2d(k, k / 3.0)[:, :, None]
    scipy_smooth = functools.partial(scipy.ndimage.convolve, g, weights, mode="nearest")
    smooth = functools.partial(tim_smooth, g, k) if kernel == "numpy" else scipy_smooth
    assert np.array_equal(smooth(), scipy_smooth())
    benchmark(smooth)


@pytest.mark.parametrize("modules", IMPORTS)
def test_import_in_a_fresh_interpreter(benchmark, modules):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", IMPORTS[modules]]
    env = {**os.environ, "PYTHONPATH": path}
    benchmark.pedantic(subprocess.run, args=(command,), kwargs={"env": env, "check": True},
                       rounds=12, warmup_rounds=1)
