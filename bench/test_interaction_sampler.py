"""Micro-benchmark of one Monte Carlo interaction estimate.

Each case runs `advgrad.interaction.expected_interaction_sampled` and, beside
it, the sampler as it drew its pairs and subsets before its draw loop was
rewritten (``tests/reference_interaction.py``), which reads the same random
numbers and returns the same estimate bit for bit.  The setting is the
``interaction`` workload's: an 8x8x1 MLP with 3 classes, 30 pairs x 5
subsets, so 600 set-function evaluations per estimate.  The ``model`` cases
score the masks with the MLP set function; the ``free`` cases score them with
a set function that returns zeros, which leaves the cost of the draws and the
mask build alone.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_interaction_sampler.py --benchmark-max-time=3 \
        --benchmark-json=BENCH_interaction.json

The report gains ``setfn_evals_per_s`` in each case's ``extra_info``: the 600
evaluations over the case's ``min`` and over its ``median``.  The cases take a
few milliseconds; compare lean with reference within one run, by ``min``.

The ``test_scoring`` cases time the MLP set function's ``v.batch`` alone on the
600 masks of one estimate: ``lean`` is the library's, which selects each row's
standardized input and runs whole chunks in stacked forward passes, and
``reference`` is the chunked scoring it replaced
(``reference_interaction.model_setfn_batch``), one forward pass per 32 rows.
Both give the same rewards bit for bit.

The ``test_draws`` cases time the sampler's draws alone, 30 pairs x 5 subsets,
both ways the library can take them: replayed from blocks of raw values, and
one numpy call per draw.  The replay covers the blocks in which no draw rejects
a value; numpy's calls draw a block in which one does, as they draw every game
of 2 or of more than ``interaction._REPLAY_PLAYERS`` players.  The cases run
at 64 players (8x8x1), 128, 192 (8x8x3) and 768 (16x16x3); the library
replays up to ``interaction._REPLAY_PLAYERS`` players, a limit checked against
these cases.

The tier-1 suite does not collect this directory; ``tests/test_bench_smoke.py``
runs each case once, untimed, in the suite's own interpreter.
"""

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
SAMPLERS = {"lean": interaction.expected_interaction_sampled,
            "reference": reference_interaction.expected_interaction_sampled}


@pytest.fixture(scope="module")
def setfn_args():
    rng = make_rng(0, 93)
    return (build_model("mlp-1-hidden", SHAPE, 3, seed=0),
            rng.uniform(0.0, 255.0, size=SHAPE.dims), rng.uniform(-32.0, 32.0, size=SHAPE.dims), 0)


@pytest.fixture(scope="module")
def setfns(setfn_args):
    v, n = interaction.make_model_setfn(*setfn_args)
    free = SimpleNamespace(batch=lambda masks: np.zeros(len(masks)))
    return {"model": v, "free": free}, n


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("scoring", ["model", "free"])
def test_one_estimate(benchmark, setfns, scoring, sampler):
    v, n = setfns[0][scoring], setfns[1]

    def estimate(sample=SAMPLERS[sampler]):
        # a fresh stream per call keeps every round on the same draws
        return sample(v, n, NUM_PAIRS, NUM_SUBSETS, rng=make_rng(0, 2000))

    assert estimate() == estimate(SAMPLERS["reference"])
    benchmark(estimate)
    if benchmark.stats:  # None when timing is off
        benchmark.extra_info["setfn_evals_per_s"] = {
            key: SETFN_EVALS / benchmark.stats.get(key) for key in ("min", "median")}


@pytest.mark.parametrize("scoring", ["lean", "reference"])
def test_scoring(benchmark, setfn_args, setfns, scoring):
    v, n = setfns[0]["model"], setfns[1]
    masks = []
    interaction.expected_interaction_sampled(
        SimpleNamespace(batch=lambda m: masks.append(m) or np.zeros(len(m))),
        n, NUM_PAIRS, NUM_SUBSETS, rng=make_rng(0, 2000))
    reference = reference_interaction.model_setfn_batch(*setfn_args)
    score = v.batch if scoring == "lean" else reference
    assert masks[0].shape == (SETFN_EVALS, n)
    assert score(masks[0]).tobytes() == reference(masks[0]).tobytes()
    benchmark(score, masks[0])
    if benchmark.stats:
        benchmark.extra_info["setfn_evals_per_s"] = {
            key: SETFN_EVALS / benchmark.stats.get(key) for key in ("min", "median")}


DRAWS = {"replayed": interaction._draw_replayed, "per_call": interaction._draw_per_call}


@pytest.mark.parametrize("draws", DRAWS)
@pytest.mark.parametrize("n", [64, 128, 192, 768])
def test_draws(benchmark, n, draws):
    def draw(take=DRAWS[draws]):
        return take(make_rng(0, 2000), n, NUM_PAIRS, NUM_SUBSETS)

    # the two ways give the same pairs and sizes (and subsets, unordered)
    for got, want in zip(draw()[:2], draw(DRAWS["per_call"])[:2]):
        np.testing.assert_array_equal(got, want)
    benchmark(draw)
