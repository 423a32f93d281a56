"""Micro-benchmark of one Monte Carlo interaction estimate.

Each ``test_one_estimate`` case runs
`advgrad.interaction.expected_interaction_sampled` at the ``interaction``
workload's counts, 30 pairs x 5 subsets, so 600 set-function evaluations per
estimate.  The ``model`` case scores the masks with the set function of an
8x8x1 MLP with 3 classes (64 players), the workload's setting.  The ``free``
cases score them with a set function that returns zeros, which leaves the
cost of the draws and the mask build alone, at 64 players (8x8x1), 128, 192
(8x8x3) and 768 (16x16x3).  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_interaction_sampler.py --benchmark-max-time=3 \
        --benchmark-json=BENCH_interaction.json

The report gains ``setfn_evals_per_s`` in each case's ``extra_info``: the 600
evaluations over the case's ``min`` and over its ``median``.  The cases take
from a fraction of a millisecond to a few milliseconds; compare them by
``min``.

The ``test_scoring`` cases time the MLP set function's ``v.batch`` alone on the
600 masks of one estimate: ``lean`` is the library's, which selects each row's
standardized input and runs whole chunks in stacked forward passes, and
``reference`` is the chunked scoring it replaced
(``reference_interaction.model_setfn_batch``), one forward pass per 32 rows.
Both give the same rewards bit for bit.  The plain cases score the masks of
one estimate every round, which the branch predictor partly learns; the
``fresh`` cases cycle through the masks of 16 estimates, as the workload
scores a new estimate each time, so a select whose cost depends on the mask
shows there.

The ``test_exact_interactions`` cases time the exact interaction of every
pair of a 12-unit game, the set function of a 1x12x1 MLP with 3 classes (66
pairs, 4,096 subsets): ``matrix`` is one
`advgrad.interaction.shapley_interaction_matrix_exact` call, which scores one
table of all subsets and reads every pair from it, and ``per-pair`` is 66
`advgrad.interaction.shapley_interaction_exact` calls, each of which scores
its own table.  Both give the same values bit for bit.

The tier-1 suite does not collect this directory; ``tests/test_bench_smoke.py``
runs each case once, untimed, in the suite's own interpreter.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import reference_interaction
from advgrad import interaction
from advgrad.models import build_model
from advgrad.numerics import ImageShape, make_rng

SHAPE = ImageShape(8, 8, 1)
NUM_PAIRS, NUM_SUBSETS = 30, 5
# an estimate scores 4 subsets per (pair, subset) sample
SETFN_EVALS = 4 * NUM_PAIRS * NUM_SUBSETS
FREE = SimpleNamespace(batch=lambda masks: np.zeros(len(masks)))
# distinct estimates a `fresh` scoring case cycles through
FRESH_ESTIMATES = 16
ESTIMATES = [("model", 64), ("free", 64), ("free", 128), ("free", 192), ("free", 768)]


def record_evals_per_s(benchmark):
    if benchmark.stats:  # None when timing is off
        benchmark.extra_info["setfn_evals_per_s"] = {
            key: SETFN_EVALS / benchmark.stats.get(key) for key in ("min", "median")}


@pytest.fixture(scope="module")
def setfn_args():
    rng = make_rng(0, 93)
    return (build_model("mlp-1-hidden", SHAPE, 3, seed=0),
            rng.uniform(0.0, 255.0, size=SHAPE.dims), rng.uniform(-32.0, 32.0, size=SHAPE.dims), 0)


@pytest.fixture(scope="module")
def model_setfn(setfn_args):
    v, n = interaction.make_model_setfn(*setfn_args)
    assert n == SHAPE.size
    return v


@pytest.mark.parametrize("scoring,n", ESTIMATES, ids=[f"{s}-{n}" for s, n in ESTIMATES])
def test_one_estimate(benchmark, model_setfn, scoring, n):
    v = model_setfn if scoring == "model" else FREE

    def estimate():
        # a fresh stream per call keeps every round on the same draws
        return interaction.expected_interaction_sampled(v, n, NUM_PAIRS, NUM_SUBSETS,
                                                        rng=make_rng(0, 2000))

    benchmark(estimate)
    record_evals_per_s(benchmark)


def estimate_masks(count):
    """The mask arrays of `count` estimates, drawn from streams 2000, 2001, ..."""
    masks = []
    capture = SimpleNamespace(batch=lambda m: masks.append(m) or np.zeros(len(m)))
    for stream in range(2000, 2000 + count):
        interaction.expected_interaction_sampled(capture, SHAPE.size, NUM_PAIRS, NUM_SUBSETS,
                                                 rng=make_rng(0, stream))
    return masks


SCORINGS = [("lean", 1), ("reference", 1), ("lean", FRESH_ESTIMATES),
            ("reference", FRESH_ESTIMATES)]


@pytest.mark.parametrize("scoring,estimates", SCORINGS,
                         ids=["lean", "reference", "lean-fresh", "reference-fresh"])
def test_scoring(benchmark, setfn_args, model_setfn, scoring, estimates):
    masks = estimate_masks(estimates)
    reference = reference_interaction.model_setfn_batch(*setfn_args)
    score = model_setfn.batch if scoring == "lean" else reference
    for m in masks:
        assert m.shape == (SETFN_EVALS, SHAPE.size)
        assert score(m).tobytes() == reference(m).tobytes()
    rounds = itertools.cycle(masks)
    benchmark(lambda: score(next(rounds)))
    record_evals_per_s(benchmark)


EXACT_SHAPE = ImageShape(1, 12, 1)


def per_pair_matrix(v, n):
    matrix = np.zeros((n, n))
    for a, b in itertools.combinations(range(n), 2):
        matrix[a, b] = matrix[b, a] = interaction.shapley_interaction_exact(v, a, b, n)
    return matrix


@pytest.mark.parametrize("path", ["matrix", "per-pair"])
def test_exact_interactions(benchmark, path):
    rng = make_rng(0, 94)
    v, n = interaction.make_model_setfn(
        build_model("mlp-1-hidden", EXACT_SHAPE, 3, seed=0),
        rng.uniform(0.0, 255.0, size=EXACT_SHAPE.dims),
        rng.uniform(-1000.0, 1000.0, size=EXACT_SHAPE.dims), 0)
    read = interaction.shapley_interaction_matrix_exact if path == "matrix" else per_pair_matrix
    matrix = benchmark(read, v, n)
    assert matrix.tobytes() == interaction.shapley_interaction_matrix_exact(v, n).tobytes()
