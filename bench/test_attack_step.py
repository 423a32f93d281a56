"""Micro-benchmarks of the attack step and of a short generator training run.

Each case runs the library code and, beside it, the loop it replaced, which
rebuilt the per-attack invariants on every step
(``tests/reference_attack_step.py``): a 10-step attack by an MLP at 8x8x1 for
the sign, fixed-scale and momentum rules; one attack step with each transform
alone, with the full transform stack, and with the full stack on two source
models (the MLP and a softmax-linear model); a 20-episode generator
training run (5 attack steps, MLP and tiny-conv pool), whose reference runs
the episodes one after another; the scoring of one 12-example harness
cell against a tiny-conv and a softmax-linear target, batched (one predict
per target, as the harness scores a cell) beside once per image (one predict
per target and example, as run_attack scores its targets); and the attack of
one 12-example cell by the MLP with BIM, the scaled step with momentum and
the scaled step with the full transform stack, in one batched call of the
attack loop (as the harness attacks a sweep cell) beside 12 run_attack calls
(as it attacks a matrix cell).  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_attack_step.py --benchmark-max-time=3 \
        --benchmark-json=BENCH_attack.json

The attack and cell cases take a few hundred microseconds, the training run
a few tens of milliseconds.  On a shared host other load
stretches the medians, up to twice the per-round minimum, and two runs can
rank lean and reference in opposite orders.  Compare each case's ``min``,
which pytest-benchmark records beside the median, and compare lean with
reference within one run: the minimums of separate runs can still differ by
a third.

The tier-1 suite does not collect this directory; ``tests/test_bench_smoke.py``
runs each case once, untimed.
"""

import dataclasses

import numpy as np
import pytest

import reference_attack_step as reference
from advgrad import attacks, generator
from advgrad.attacks import AttackConfig, Dim, Emi, FixedScaleStep, SignStep, Sim, Tim, Vt
from advgrad.generator import GeneratorTrainConfig
from advgrad.harness import _score_cell, synth_dataset
from advgrad.models import build_model
from advgrad.numerics import ImageShape, make_rng

SHAPE = ImageShape(8, 8, 1)
EPS, STEPS = 64.0, 10
LOOPS = {"lean": attacks._attack_loop, "reference": reference._attack_loop}
RULES = {
    "sign": AttackConfig(epsilon=EPS, steps=STEPS, step_rule=SignStep(EPS / STEPS)),
    "fixed": AttackConfig(epsilon=EPS, steps=STEPS, step_rule=FixedScaleStep(1e4)),
    "momentum": AttackConfig(epsilon=EPS, steps=STEPS, step_rule=SignStep(EPS / STEPS),
                             momentum=1.0),
}
STACK = AttackConfig(epsilon=16.0, steps=1, step_rule=FixedScaleStep(16.0), momentum=1.0,
                     transforms=(Dim(), Tim(), Sim(m=2), Vt(n=4), Emi(n=3)))
# DIM at p=1, so that its one step always resizes
ALONE = {type(t).__name__.lower(): dataclasses.replace(STACK, transforms=(t,))
         for t in (Dim(p=1.0), Tim(), Sim(m=2), Vt(n=4), Emi(n=3))}
TRAINERS = {"lean": generator.train_generator, "reference": reference.train_generator}


def score_each_image(target_models, adversarials, labels, acfg):
    """The cell's success flags from one single-image predict per target and example."""
    return np.array([[attacks._succeeded(model.predict(x), int(y), acfg)
                      for model in target_models] for x, y in zip(adversarials, labels)])


SCORERS = {"batched": _score_cell, "per-image": score_each_image}
CELL_ATTACKS = {
    "bim": AttackConfig(epsilon=16.0, steps=10, step_rule=SignStep(1.6)),
    "scaled": AttackConfig(epsilon=16.0, steps=10, step_rule=FixedScaleStep(16.0),
                           momentum=1.0),
    "stack": dataclasses.replace(STACK, steps=10),
}


def attack_batched(sources, images, labels, cfg, rngs):
    return attacks._attack_loop(sources, [], images, labels, cfg, rngs)


def attack_each_example(sources, images, labels, cfg, rngs):
    return [attacks.run_attack(sources, [], x, int(y), cfg, rng=rngs[i] if rngs else None)
            for i, (x, y) in enumerate(zip(images, labels))]


CELL_LOOPS = {"batched": attack_batched, "per-example": attack_each_example}


@pytest.fixture(scope="module")
def mlp():
    return build_model("mlp-1-hidden", SHAPE, 3, seed=0)


@pytest.fixture(scope="module")
def image():
    return make_rng(0, 91).uniform(0.0, 255.0, size=SHAPE.dims)


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("rule", RULES)
def test_attack_10_steps(benchmark, mlp, image, rule, loop):
    benchmark(LOOPS[loop], [mlp], [mlp], image, 0, RULES[rule], None)


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("transform", ALONE)
def test_one_transform_step(benchmark, mlp, image, transform, loop):
    # a fresh stream per call keeps every round on the same draws
    benchmark(lambda: LOOPS[loop]([mlp], [mlp], image, 0, ALONE[transform], make_rng(0, 92)))


@pytest.mark.parametrize("loop", LOOPS)
def test_stacked_transform_step(benchmark, mlp, image, loop):
    benchmark(lambda: LOOPS[loop]([mlp], [mlp], image, 0, STACK, make_rng(0, 92)))


@pytest.mark.parametrize("loop", LOOPS)
def test_stacked_transform_step_two_sources(benchmark, mlp, image, loop):
    sources = [mlp, build_model("softmax-linear", SHAPE, 3, seed=1)]
    benchmark(lambda: LOOPS[loop](sources, [mlp], image, 0, STACK, make_rng(0, 92)))


@pytest.mark.parametrize("trainer", TRAINERS)
def test_generator_training_20_episodes(benchmark, mlp, trainer):
    pool = [mlp, build_model("tiny-conv", SHAPE, 3, seed=1)]
    dataset = synth_dataset("blobs", 30, SHAPE, seed=0, num_classes=3)
    cfg = GeneratorTrainConfig(total_steps=20, attack_steps=5, learning_rate=1.0, epsilon=EPS)
    benchmark(TRAINERS[trainer], dataset, pool, cfg, head_scale=2e5, hidden=(64, 32))


@pytest.mark.parametrize("scorer", SCORERS)
def test_score_a_12_example_cell(benchmark, scorer):
    targets = [build_model("tiny-conv", SHAPE, 3, seed=2),
               build_model("softmax-linear", SHAPE, 3, seed=1)]
    adversarials = make_rng(0, 93).uniform(0.0, 255.0, size=(12,) + SHAPE.dims)
    labels = np.arange(12) % 3
    success = benchmark(SCORERS[scorer], targets, adversarials, labels, RULES["sign"])
    assert success.shape == (12, 2)


@pytest.mark.parametrize("loop", CELL_LOOPS)
@pytest.mark.parametrize("attack", CELL_ATTACKS)
def test_attack_a_12_example_cell(benchmark, mlp, attack, loop):
    cfg = CELL_ATTACKS[attack]
    images = make_rng(0, 93).uniform(0.0, 255.0, size=(12,) + SHAPE.dims)
    labels = np.arange(12) % 3

    def attack_cell():
        # fresh streams per call keep every round on the same draws
        rngs = [make_rng(0, 1000 + i) for i in range(12)] if cfg.transforms else None
        return CELL_LOOPS[loop]([mlp], images, labels, cfg, rngs)

    assert len(benchmark(attack_cell)) == 12
