"""run_attack, project and train_generator against the loops that rebuilt
their per-attack invariants every step (``tests/reference_attack_step.py``).

For the attack the two sides call the same models on the same points, so
every result must be equal, not merely close.  Training runs its episodes on
a wavefront, with one batched gradient call per pool model per front: its
theta must equal the serial loop's when each model computes a batch one row
at a time, and agree to 1e-12 relative with the batched models at learning
rate 1.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_attack_step as reference
from advgrad import attacks, generator
from advgrad.attacks import (
    AdaptiveStep, AttackConfig, Dim, Emi, FixedScaleStep, SignStep, Sim, Tim, Vt, project,
    run_attack,
)
from advgrad.generator import GeneratorTrainConfig, ScalingFactorGenerator, train_generator
from advgrad.harness import synth_dataset
from advgrad.models import build_model
from advgrad.numerics import ImageShape, make_rng

SHAPE = ImageShape(8, 8, 1)
KINDS = ["softmax-linear", "mlp-1-hidden", "tiny-conv"]
# small counts, and the default VT and EMI counts with SIM at m=5 and a 7x7 TIM
TRANSFORMS = {
    "small": {
        "dim": Dim(p=0.8, min_fraction=0.75),
        "tim": Tim(k=3),
        "sim": Sim(m=2),
        "vt": Vt(n=3, beta=1.5),
        "emi": Emi(n=2, eta=7.0),
    },
    "default": {
        "dim": Dim(),
        "tim": Tim(k=7),
        "sim": Sim(m=5),
        "vt": Vt(),
        "emi": Emi(),
    },
}


def assert_same_attack(source, targets, x, y, cfg, seed):
    rng_new, rng_ref = make_rng(seed, 64), make_rng(seed, 64)
    new = run_attack(source, targets, x, y, cfg, rng_new)
    ref = reference._attack_loop(source, targets, x, y, cfg, rng_ref)
    assert np.array_equal(new.adversarial, ref.adversarial)
    assert np.array_equal(new.step_trace, ref.step_trace)
    assert np.array_equal(new.success, ref.success)
    assert (new.steps_used, new.early_stopped) == (ref.steps_used, ref.early_stopped)
    # the Philox state holds small arrays, which repr prints in full
    assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)
    return new


class TestRunAttack:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        shape=st.sampled_from([SHAPE, ImageShape(16, 16, 3)]),
        n_models=st.integers(1, 2),
        transforms=st.sampled_from([(), ("dim",), ("tim",), ("sim",), ("vt",), ("emi",),
                                    ("dim", "tim", "sim", "vt", "emi")]),
        counts=st.sampled_from(["small", "default"]),
        momentum=st.sampled_from([None, 1.0, 0.5]),
        rule=st.sampled_from(["sign", "fixed", "adaptive"]),
        target_label=st.sampled_from([None, 2]),
        epsilon=st.sampled_from([0.0, 8.0, 64.0, math.inf]),
        steps=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_reference_loop(self, kind, shape, n_models, transforms, counts,
                                       momentum, rule, target_label, epsilon, steps, seed):
        models = [build_model(kind, shape, 3, seed=seed + s) for s in range(n_models)]
        x = make_rng(seed, 63).uniform(0.0, 255.0, size=shape.dims)
        if rule == "sign":
            step_rule = SignStep(1.6)
        elif rule == "fixed":
            step_rule = FixedScaleStep(1e4 if momentum is None else 16.0)
        else:
            steps = max(steps, 1)  # a generator has at least one step
            step_rule = AdaptiveStep(ScalingFactorGenerator(
                steps, shape, hidden=(4, 2), seed=seed, head_scale=1e3))
        kwargs = dict(epsilon=epsilon, steps=steps, step_rule=step_rule, momentum=momentum,
                      transforms=tuple(TRANSFORMS[counts][t] for t in transforms),
                      target_label=target_label)
        if epsilon == math.inf and "vt" in transforms:
            # VT's neighbour radius beta * epsilon would be infinite
            with pytest.raises(ValueError, match="finite epsilon"):
                AttackConfig(**kwargs)
            return
        cfg = AttackConfig(**kwargs)
        assert_same_attack(models, models[:1] + [build_model("tiny-conv", shape, 3, seed=9)],
                           x, 0, cfg, seed)

    @pytest.mark.parametrize("momentum", [None, 1.0])
    def test_vanishing_gradient_stops_early_as_before(self, momentum):
        model = build_model("softmax-linear", SHAPE, 3, seed=0)
        model.params["W"][:] = 0.0
        cfg = AttackConfig(epsilon=8.0, steps=3, step_rule=SignStep(1.0), momentum=momentum)
        res = assert_same_attack([model], [model], make_rng(1, 63).uniform(0, 255, SHAPE.dims),
                                 1, cfg, 0)
        assert res.early_stopped and res.steps_used == 0

    def test_no_budget_is_still_a_valid_attack(self):
        # epsilon = inf leaves only the [0, 255] bounds
        models = [build_model("mlp-1-hidden", SHAPE, 3, seed=s) for s in range(2)]
        cfg = AttackConfig(epsilon=math.inf, steps=5, step_rule=FixedScaleStep(1e6),
                           momentum=1.0, transforms=(Emi(n=2), Tim()))
        res = assert_same_attack(models, models, make_rng(2, 63).uniform(0, 255, SHAPE.dims),
                                 0, cfg, 3)
        assert res.adversarial.min() >= 0.0 and res.adversarial.max() <= 255.0


class TestPipelineGradient:
    # an attack's iterate absorbs last-bit differences of its gradient (a sign
    # step drops them, the clamp and the rounding of x + step hide most of the
    # rest), so one step's gradient and carried state are compared directly
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        shape=st.sampled_from([SHAPE, ImageShape(16, 16, 3)]),
        n_models=st.integers(1, 2),
        transforms=st.sets(st.sampled_from(["tim", "sim", "vt", "emi"])),
        counts=st.sampled_from(["small", "default"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_reference_step_bit_for_bit(self, kind, shape, n_models, transforms,
                                                   counts, seed):
        models = [build_model(kind, shape, 3, seed=seed + s) for s in range(n_models)]
        draw = make_rng(seed, 63)
        x = draw.uniform(0.0, 255.0, size=shape.dims)
        # an EMI direction of unit scale, not L1-normalized, so that the last
        # bits of each offset reach the points
        state = {"vt_var": draw.normal(size=shape.dims), "emi_dir": draw.normal(size=shape.dims)}
        cfg = AttackConfig(epsilon=16.0, steps=1, step_rule=SignStep(1.6),
                           transforms=tuple(TRANSFORMS[counts][t] for t in sorted(transforms)))
        new_state, ref_state = dict(state), dict(state)
        rng_new, rng_ref = make_rng(seed, 64), make_rng(seed, 64)
        new = attacks._pipeline_gradient(models, x, 1, attacks._Pipeline.of(cfg), new_state,
                                         rng_new)
        ref = reference._pipeline_gradient(models, x, 1, cfg, ref_state, rng_ref)
        for a, b in [(new, ref)] + [(new_state[k], ref_state[k]) for k in state]:
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)


class TestProject:
    ELEMENTS = st.one_of(st.sampled_from([0.0, -0.0, 255.0, -1.0, 256.0]),
                         st.floats(-400.0, 700.0))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
        epsilon=st.one_of(st.sampled_from([0.0, -0.0, math.inf, 64.0]), st.floats(0.0, 300.0)),
    )
    def test_equals_the_two_clips(self, data, shape, epsilon):
        # x_orig may lie outside [0, 255].  Where a value ties with a bound of
        # the same value, numpy's vector and scalar min/max loops may pick
        # either operand, so the two forms can return zeros of opposite sign;
        # np.array_equal counts them equal
        x_adv = data.draw(hnp.arrays(np.float64, shape, elements=self.ELEMENTS))
        x_orig = data.draw(hnp.arrays(np.float64, shape, elements=self.ELEMENTS))
        assert np.array_equal(project(x_adv, x_orig, epsilon),
                              reference.project(x_adv, x_orig, epsilon))

    def test_leaves_its_arguments_alone(self):
        x_adv, x_orig = np.full((2, 2, 1), 300.0), np.full((2, 2, 1), 100.0)
        out = project(x_adv, x_orig, 8.0)
        assert np.array_equal(out, np.full((2, 2, 1), 108.0))
        assert np.array_equal(x_adv, np.full((2, 2, 1), 300.0))
        assert np.array_equal(x_orig, np.full((2, 2, 1), 100.0))

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            project(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), math.nan)


class RowWise:
    """A pool model whose batch gradient runs its single-image path row by row,
    so that a batched call has the bits of the serial loop's calls."""

    def __init__(self, model):
        self.model, self.image_shape, self.num_classes = model, model.image_shape, model.num_classes

    def gradient(self, x, y):
        return self.model.input_gradient(x, y)

    def input_gradient(self, x, y):
        if x.ndim == 3:
            return self.gradient(x, y)
        return np.stack([self.gradient(row, label) for row, label in zip(x, y)])


class ZeroOnLabel(RowWise):
    """Row by row, with a zero gradient on every row of label `label`."""

    def __init__(self, model, label):
        super().__init__(model)
        self.label, self.zero_rows = label, 0

    def gradient(self, x, y):
        if y == self.label:
            self.zero_rows += 1
            return np.zeros_like(x)
        return super().gradient(x, y)


def trained_pair(ds, pool, cfg, **kwargs):
    """(theta of train_generator, theta of the serial reference loop)."""
    return (train_generator(ds, pool, cfg, **kwargs).theta,
            reference.train_generator(ds, pool, cfg, **kwargs).theta)


def assert_same_theta(got, want):
    assert len(got) == len(want)
    for step, ref in zip(got, want):
        assert list(step) == list(ref)
        for k in ref:
            assert step[k].shape == ref[k].shape
            assert np.array_equal(step[k], ref[k])


def theta_deviation(got, want):
    """Largest |got - want| of a step's parameters over that step's largest
    |want|: the conv biases c_i train to rounding noise (instance norm removes
    a bias), so each array alone has no scale of its own."""
    return max(max(np.abs(step[k] - ref[k]).max() for k in ref)
               / max(np.abs(ref[k]).max() for k in ref)
               for step, ref in zip(got, want))


class TestTrainGenerator:
    ARCHS = [("mlp", SHAPE), ("conv", ImageShape(16, 16, 1))]
    CFG = GeneratorTrainConfig(total_steps=6, attack_steps=3, learning_rate=1.0, epsilon=32.0,
                               seed=5)

    def setting(self, arch, shape):
        ds = synth_dataset("blobs", 30, shape, seed=4, num_classes=3)
        pool = [build_model(kind, shape, 3, seed=s)
                for s, kind in enumerate(["mlp-1-hidden", "tiny-conv", "softmax-linear"])]
        return ds, pool, {"arch": arch, "head_scale": 2e5, "hidden": (16, 8)}

    @pytest.mark.parametrize("arch,shape", ARCHS)
    def test_theta_equals_the_reference_loop_on_a_row_wise_pool(self, arch, shape):
        # the front schedule itself adds no rounding: with batches computed
        # row by row, theta has the serial loop's bits
        ds, pool, kwargs = self.setting(arch, shape)
        got, want = trained_pair(ds, [RowWise(m) for m in pool], self.CFG, **kwargs)
        assert_same_theta(got, want)
        # training moved the parameters, so the equality is not that of two fresh inits
        fresh = ScalingFactorGenerator(3, shape, arch=arch, seed=5, head_scale=2e5,
                                       hidden=(16, 8)).theta
        assert any(not np.array_equal(got[t][k], fresh[t][k]) for t in range(3) for k in got[t])

    @pytest.mark.parametrize("arch,shape", ARCHS)
    def test_theta_agrees_with_the_reference_loop_to_1e_12(self, arch, shape):
        # batched model gradients differ from single-image ones in the last bits
        ds, pool, kwargs = self.setting(arch, shape)
        assert theta_deviation(*trained_pair(ds, pool, self.CFG, **kwargs)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        total_steps=st.integers(0, 12),
        attack_steps=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        repeat=st.integers(0, 2),
        learning_rate=st.sampled_from([1e-3, 0.3, 1.0, 7.5]),
        seed=st.integers(0, 2**16),
    )
    def test_any_schedule_equals_the_reference_loop(self, total_steps, attack_steps, kinds,
                                                    repeat, learning_rate, seed):
        ds = synth_dataset("blobs", 12, SHAPE, seed=seed, num_classes=3)
        models = [build_model(kind, SHAPE, 3, seed=seed + s) for s, kind in enumerate(kinds)]
        models.append(models[repeat % len(models)])  # one model sits in the pool twice
        cfg = GeneratorTrainConfig(total_steps=total_steps, attack_steps=attack_steps,
                                   learning_rate=learning_rate, epsilon=32.0, seed=seed)
        # only the row-wise pool: training amplifies the last-bit differences
        # of batched gradients, by more with a larger learning rate (7 episodes
        # at 7.5 drifted 6e-12), so the 1e-12 bound is checked above at 1.0
        assert_same_theta(*trained_pair(ds, [RowWise(m) for m in models], cfg,
                                        head_scale=2e5, hidden=(8, 4)))

    @settings(max_examples=40, deadline=None)
    @given(
        total_steps=st.integers(0, 40),
        attack_steps=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=4),
        shape=st.sampled_from([SHAPE, ImageShape(4, 4, 3)]),
        hidden=st.sampled_from([(8, 4), (64, 32)]),
        learning_rate=st.sampled_from([1e-3, 0.3, 1.0, 7.5]),
        block=st.sampled_from([1, 3, None]),
        seed=st.integers(0, 2**16),
    )
    def test_theta_equals_the_first_wavefront_loop_with_batched_models(
            self, total_steps, attack_steps, kinds, shape, hidden, learning_rate, block, seed):
        # the same model calls on the same rows in the same order: bit for bit
        # with the real batched gradients, at any learning rate
        ds = synth_dataset("blobs", 12, shape, seed=seed, num_classes=3)
        pool = [build_model(kind, shape, 3, seed=seed + s) for s, kind in enumerate(kinds)]
        cfg = GeneratorTrainConfig(total_steps=total_steps, attack_steps=attack_steps,
                                   learning_rate=learning_rate, epsilon=32.0, seed=seed)
        kwargs = {"head_scale": 2e5, "hidden": hidden}
        # episodes drawn one or three per block, or as many as fit the default block
        size = 4 * 8 * shape.size * block if block else generator._BLOCK_BYTES
        with mock.patch.object(generator, "_BLOCK_BYTES", size):
            got = train_generator(ds, pool, cfg, **kwargs).theta
        assert_same_theta(got, reference.train_generator_wavefront(ds, pool, cfg, **kwargs).theta)

    def test_theta_equals_the_first_wavefront_loop_at_the_transfer_setting(self):
        # an MLP and a tiny-conv pool, 5 steps, hidden=(64, 32), head scale 2e5;
        # 8 episodes per block, so that the draws cross block boundaries
        ds = synth_dataset("blobs", 60, SHAPE, seed=0, num_classes=3)
        pool = [build_model("mlp-1-hidden", SHAPE, 3, seed=0),
                build_model("tiny-conv", SHAPE, 3, seed=1)]
        cfg = GeneratorTrainConfig(total_steps=60, attack_steps=5, learning_rate=1.0,
                                   epsilon=64.0, seed=0)
        kwargs = {"head_scale": 2e5, "hidden": (64, 32)}
        with mock.patch.object(generator, "_BLOCK_BYTES", 8 * 4 * 8 * SHAPE.size):
            got = train_generator(ds, pool, cfg, **kwargs).theta
        assert_same_theta(got, reference.train_generator_wavefront(ds, pool, cfg, **kwargs).theta)
        fresh = ScalingFactorGenerator(5, SHAPE, seed=0, **kwargs).theta
        assert all(not np.array_equal(got[t][k], fresh[t][k]) for t in range(5) for k in got[t])

    def test_a_zero_gradient_row_feeds_the_generator_zeros(self):
        # a row whose gradient has no positive peak enters the generator as
        # zeros, not as 0 / 0, and takes a zero update
        ds, pool, kwargs = self.setting("mlp", SHAPE)
        stub = ZeroOnLabel(pool[0], label=1)
        cfg = GeneratorTrainConfig(total_steps=12, attack_steps=3, learning_rate=1.0,
                                   epsilon=32.0, seed=5)
        got, want = trained_pair(ds, [stub, RowWise(pool[1])], cfg, **kwargs)
        assert stub.zero_rows > 0
        assert all(np.isfinite(step[k]).all() for step in got for k in step)
        assert_same_theta(got, want)


class TestGeneratorPasses:
    # the single-image passes are the one-row case of the batched passes, and
    # keep the bits of the per-image forward and backward they replaced
    @settings(max_examples=60, deadline=None)
    @given(
        arch_shape=st.sampled_from(TestTrainGenerator.ARCHS),
        head_scale=st.sampled_from([1.0, 2e5]),
        gradient=st.sampled_from(["normal", "tiny", "zero"]),
        upstream=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_equal_the_single_image_passes_bit_for_bit(self, arch_shape, head_scale, gradient,
                                                       upstream, seed):
        arch, shape = arch_shape
        gen = ScalingFactorGenerator(3, shape, arch=arch, seed=seed, head_scale=head_scale,
                                     hidden=(16, 8), conv_channels=4)
        draw = make_rng(seed, 63)
        x = draw.uniform(0.0, 255.0, size=shape.dims)
        grad = {"normal": draw.normal(size=shape.dims),
                "tiny": draw.normal(scale=1e-300, size=shape.dims),
                "zero": np.zeros(shape.dims)}[gradient]
        for t in range(gen.steps):
            gamma, cache = reference._forward(gen, t, x, grad)
            assert gen.gamma_forward(t, x, grad) == gamma
            want = reference._backward_cache(gen, t, cache, upstream)
            got = gen.parameter_gradient(t, x, grad, upstream)
            assert list(got) == list(want)
            for k in want:
                assert got[k].shape == want[k].shape
                assert np.array_equal(got[k], want[k])
