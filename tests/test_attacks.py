"""Tests for the attack pipeline: step rules, transforms, projection, loop."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from advgrad import attacks
from advgrad.attacks import (
    AdaptiveStep,
    AttackConfig,
    DegenerateGradientError,
    Dim,
    Emi,
    FixedScaleStep,
    SignStep,
    Sim,
    Tim,
    Vt,
    config_from_dict,
    config_to_dict,
    dim_transform,
    ensemble_gradient,
    project,
    run_attack,
    sim_gradient,
    tim_smooth,
)
from advgrad.generator import ScalingFactorGenerator
from advgrad.models import build_model
from advgrad.numerics import ImageShape, gaussian_kernel_2d, make_rng
import reference_attack_step as reference
from reference_attack_step import momentum_accumulate

SHAPE = ImageShape(8, 8, 1)


def make_models(n=1, kind="softmax-linear", classes=3):
    return [build_model(kind, SHAPE, classes, seed=s) for s in range(n)]


def random_image(seed=0):
    return make_rng(seed, 42).uniform(0.0, 255.0, size=SHAPE.dims)


class FixedGradient:
    """A source model whose input_gradient returns the next of `grads` at each
    call, and the last one from then on; each call gets a fresh copy, which
    the attack loop may change in place."""

    num_classes = 2

    def __init__(self, *grads):
        self.grads = [np.array(g, dtype=np.float64) for g in grads]
        self.calls = 0

    def input_gradient(self, x, y):
        grad = self.grads[min(self.calls, len(self.grads) - 1)]
        self.calls += 1
        return grad.copy()


def attack_with(grads, x, rule, steps=1, momentum=None):
    """The iterate after `steps` steps of run_attack from x with the gradients
    `grads`, in a budget too wide to clamp."""
    cfg = AttackConfig(epsilon=50.0, steps=steps, step_rule=rule, momentum=momentum)
    return run_attack([FixedGradient(*grads)], [], x, 0, cfg).adversarial


class TestStepRules:
    def test_sign_step_moves_by_alpha(self):
        x = np.zeros((2, 2, 1)) + 100.0
        d = np.array([[[3.0], [-0.5]], [[0.0], [2.0]]])
        out = attack_with([d], x, SignStep(4.0))
        assert np.array_equal(out, 100.0 + 4.0 * np.array([[[1.0], [-1.0]], [[0.0], [1.0]]]))

    def test_sign_of_zero_is_zero(self):
        x = np.full((1, 2, 1), 10.0)
        out = attack_with([[[[0.0], [1.0]]]], x, SignStep(5.0))
        assert out[0, 0, 0] == 10.0 and out[0, 1, 0] == 15.0

    def test_fixed_scale_keeps_direction(self):
        x = np.full((1, 2, 1), 100.0)
        d = np.array([[[0.25], [-1.5]]])
        out = attack_with([d], x, FixedScaleStep(2.0))
        assert np.array_equal(out - 100.0, 2.0 * d)

    @pytest.mark.parametrize("rule_cls", [SignStep, FixedScaleStep])
    def test_rejects_nonpositive_magnitude(self, rule_cls):
        with pytest.raises(ValueError):
            rule_cls(0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rule_cls,field", [(SignStep, "alpha"), (FixedScaleStep, "gamma")])
    def test_rejects_non_finite_magnitude(self, rule_cls, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be a real number in \(0, inf\)"):
            rule_cls(value)


class TestProjection:
    def test_hand_computed_clamp(self):
        x_orig = np.array([[[100.0], [250.0]]])
        x_adv = np.array([[[150.0], [270.0]]])
        out = project(x_adv, x_orig, 8.0)
        # first pixel clamps to orig + eps, second also hits the 255 ceiling
        assert np.array_equal(out, np.array([[[108.0], [255.0]]]))

    def test_pixel_floor(self):
        out = project(np.array([[[-30.0]]]), np.array([[[2.0]]]), 100.0)
        assert out[0, 0, 0] == 0.0

    @given(
        orig=hnp.arrays(np.float64, (3, 3, 1), elements=st.floats(0, 255)),
        delta=hnp.arrays(np.float64, (3, 3, 1), elements=st.floats(-500, 500)),
        eps=st.floats(0, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_budget_and_bounds_always_hold(self, orig, delta, eps):
        out = project(orig + delta, orig, eps)
        assert np.all(np.abs(out - orig) <= eps + 1e-9)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_identity_inside_budget(self):
        orig = random_image(1)
        nudged = np.clip(orig + 0.5, 0.0, 255.0)
        assert np.array_equal(project(nudged, orig, 8.0), nudged)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            project(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), -1.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_integer_images_clamp_as_floats(self, dtype):
        # the box is built in place, which an integer original must not limit
        orig = np.array([[[0], [2], [254]]], dtype=dtype)
        out = project(np.array([[[3], [300], [-4]]]), orig, 1)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.array([[[1.0], [3.0], [253.0]]]))


class TestMomentum:
    """The loop's momentum buffer, mu * g + grad / ||grad||_1, seen through
    a fixed scale of 1 from pixels at 100."""

    def test_hand_computed_accumulation(self):
        # grad (0.5, -0.5) has L1 norm 1, so with mu=1 the buffer is
        # (0.5, -0.5) after one step and lands exactly on (1, -1) after two
        x = np.full((1, 2, 1), 100.0)
        out = attack_with([[[[0.5], [-0.5]]]], x, FixedScaleStep(1.0), steps=2, momentum=1.0)
        assert np.array_equal(out[0, :, 0], [101.5, 98.5])

    def test_l1_normalization(self):
        x = np.full((1, 3, 1), 100.0)
        out = attack_with([[[[2.0], [-6.0], [0.0]]]], x, FixedScaleStep(1.0), momentum=0.9)
        assert np.array_equal(out[0, :, 0] - 100.0, [0.25, -0.75, 0.0])

    def test_zero_decay_forgets_history(self):
        x = np.full((1, 2, 1), 100.0)
        grads = [[[[1.0], [1.0]]], [[[1.0], [0.0]]]]
        out = attack_with(grads, x, FixedScaleStep(1.0), steps=2, momentum=0.0)
        # step one moves by (0.5, 0.5), step two by (1, 0) alone
        assert np.array_equal(out[0, :, 0], [101.5, 100.5])

    def test_zero_gradient_stops_the_attack(self):
        # a zero gradient has no L1 norm to divide by: the attack stops there
        x = np.full((1, 2, 1), 100.0)
        cfg = AttackConfig(epsilon=50.0, steps=3, step_rule=FixedScaleStep(1.0), momentum=1.0)
        res = run_attack([FixedGradient(np.zeros((1, 2, 1)))], [], x, 0, cfg)
        assert res.early_stopped and res.steps_used == 0
        assert np.array_equal(res.adversarial, x)


class TestDimTransform:
    def test_p_zero_is_identity(self):
        x = random_image(2)
        assert dim_transform(x, 0.0, make_rng(0)) is x

    def test_p_one_preserves_shape_and_zero_pads(self):
        x = random_image(3) + 1.0  # strictly positive pixels
        x = np.clip(x, 1.0, 255.0)
        out = dim_transform(x, 1.0, make_rng(5), min_fraction=0.5)
        assert out.shape == x.shape
        # padded cells are exactly zero; content cells come from x
        assert np.all(np.isin(out[out > 0], x))

    def test_deterministic_under_fixed_rng(self):
        x = random_image(4)
        a = dim_transform(x, 1.0, make_rng(8))
        b = dim_transform(x, 1.0, make_rng(8))
        assert np.array_equal(a, b)

    def test_rejects_non_image(self):
        with pytest.raises(ValueError):
            dim_transform(np.zeros((4, 4)), 0.5, make_rng(0))

    @pytest.mark.parametrize("min_fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_rejects_min_fraction_outside_unit_interval(self, min_fraction):
        with pytest.raises(ValueError, match="min_fraction"):
            Dim(p=1.0, min_fraction=min_fraction)


class TestTimSmooth:
    def test_uniform_field_is_fixed_point(self):
        g = np.full((6, 6, 2), 3.25)
        out = tim_smooth(g, 3, 1.0)
        assert np.allclose(out, g, atol=1e-12)

    def test_preserves_mass_in_interior(self):
        # a centered impulse spreads to exactly the kernel values
        g = np.zeros((5, 5, 1))
        g[2, 2, 0] = 1.0
        out = tim_smooth(g, 3, 1.0)
        assert out[2, 2, 0] == pytest.approx(0.20417995557165805, rel=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_channels_independent(self):
        g = np.zeros((4, 4, 2))
        g[:, :, 0] = 1.0
        out = tim_smooth(g, 3, 1.0)
        assert np.allclose(out[:, :, 0], 1.0)
        assert np.allclose(out[:, :, 1], 0.0)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_one_convolve_matches_the_per_channel_loop_bit_for_bit(self, channels):
        g = make_rng(channels, 60).normal(size=(8, 8, channels))
        for k, sigma in ((3, 1.0), (5, None), (1, 0.5)):
            kernel = gaussian_kernel_2d(k, k / 3.0 if sigma is None else sigma)
            loop = np.empty_like(g)
            for c in range(channels):
                loop[:, :, c] = scipy.ndimage.convolve(g[:, :, c], kernel, mode="nearest")
            assert np.array_equal(tim_smooth(g, k, sigma), loop)

    def test_cached_kernel_is_read_only_and_the_public_kernel_is_not(self):
        mine = gaussian_kernel_2d(3, 1.0)
        mine[1, 1] = 100.0  # a caller may mutate its own kernel
        g = make_rng(0, 61).normal(size=(5, 5, 2))
        first = tim_smooth(g, 3, 1.0)
        table, weights = attacks._tim_taps(5, 5, 2, 3, 1.0)
        again = attacks._tim_taps(5, 5, 2, 3, 1.0)
        assert again[0] is table and again[1] is weights
        with pytest.raises(ValueError):
            table[0, 0] = 1
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0
        assert gaussian_kernel_2d(3, 1.0)[1, 1] != 100.0
        assert np.array_equal(tim_smooth(g, 3, 1.0), first)

    def test_taps_leave_out_weights_up_to_dbl_epsilon(self):
        # sigma 0.15: the corner weights are about 8e-20, the edge ones 2e-10
        kernel = gaussian_kernel_2d(3, 0.15)
        assert kernel[0, 0] <= np.finfo(np.float64).eps < kernel[0, 1]
        table, weights = attacks._tim_taps(4, 4, 1, 3, 0.15)
        assert table.shape == (5, 16)
        assert np.array_equal(weights[:, 0], kernel[::-1, ::-1][[0, 1, 1, 1, 2], [1, 0, 1, 2, 1]])

    GRADIENTS = st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape,
                                 elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])))

    @settings(max_examples=300, deadline=None)
    @given(g=GRADIENTS, k=st.sampled_from([1, 3, 5, 7, 9, 15, 21]),
           sigma=st.floats(0.03, 30.0) | st.just(0.15))
    @example(g=np.array([[[-0.0]]]), k=3, sigma=1.0)
    @example(g=np.array([[[2.5, -0.0, 1e-300]]]), k=21, sigma=30.0)
    @example(g=np.full((3, 2, 2), -0.0), k=9, sigma=0.15)
    def test_matches_scipy_convolve_bit_for_bit(self, g, k, sigma):
        # values and sign bits: scipy starts each sum at 0.0, so no output is -0.0
        expected = scipy.ndimage.convolve(g, gaussian_kernel_2d(k, sigma)[:, :, None],
                                          mode="nearest")
        out = tim_smooth(g, k, sigma)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    @settings(max_examples=100, deadline=None)
    @given(g=st.tuples(st.integers(1, 13), st.integers(1, 12), st.integers(1, 12),
                       st.integers(1, 3)).flatmap(lambda shape: hnp.arrays(
               np.float64, shape, elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]))),
           k=st.sampled_from([1, 3, 5, 9]), sigma=st.floats(0.03, 30.0))
    @example(g=np.full((3, 1, 1, 1), -0.0), k=3, sigma=1.0)
    def test_a_batch_smooths_each_image_as_alone_bit_for_bit(self, g, k, sigma):
        out = tim_smooth(g, k, sigma)
        alone = np.stack([tim_smooth(image, k, sigma) for image in g])
        assert out.shape == g.shape
        assert np.array_equal(out, alone)
        assert np.array_equal(np.signbit(out), np.signbit(alone))

    @pytest.mark.parametrize("k", [4, 0, -1])
    def test_rejects_even_or_nonpositive_k(self, k):
        with pytest.raises(ValueError, match="k must be (odd|>= 1)"):
            Tim(k=k)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_rejects_nonpositive_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            Tim(k=3, sigma=sigma)


class TestGradientHelpers:
    def test_ensemble_gradient_is_mean(self):
        models = make_models(3)
        x = random_image(5)
        expected = sum(m.input_gradient(x, 1) for m in models) / 3
        assert np.allclose(ensemble_gradient(models, x, 1), expected, atol=1e-15)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ensemble_gradient([], random_image(0), 0)

    def test_sim_gradient_m1_equals_plain(self):
        models = make_models(1)
        x = random_image(7)
        assert np.allclose(sim_gradient(models, x, 2, 1),
                           ensemble_gradient(models, x, 2), atol=1e-15)

    def test_sim_gradient_chain_rule_factor(self):
        # with m=2 the half-scale copy contributes grad(x/2) * 1/2
        models = make_models(1)
        x = random_image(8)
        g0 = ensemble_gradient(models, x, 0)
        g1 = ensemble_gradient(models, x * 0.5, 0)
        expected = (g0 + 0.5 * g1) / 2
        assert np.allclose(sim_gradient(models, x, 0, 2), expected, atol=1e-15)


class TestAttackLoop:
    @pytest.mark.parametrize("rule", ["sign", "fixed", "adaptive"])
    def test_consecutive_attacks_keep_their_own_results(self, rule):
        # the loop writes each step into buffers made per attack, so a result
        # stays as returned while later attacks run, and equals the loop that
        # allocated every step
        models = make_models(1, kind="mlp-1-hidden")
        step_rule = {"sign": SignStep(1.6), "fixed": FixedScaleStep(16.0),
                     "adaptive": AdaptiveStep(ScalingFactorGenerator(
                         4, SHAPE, hidden=(4, 2), head_scale=1e3))}[rule]
        cfg = AttackConfig(epsilon=8.0, steps=4, step_rule=step_rule, momentum=1.0)
        images = [random_image(seed) for seed in range(3)]
        results = [run_attack(models, models, x, 0, cfg) for x in images]
        for res, x in zip(results, images):
            want = reference._attack_loop(models, models, x, 0, cfg, make_rng(0))
            assert np.array_equal(res.adversarial, want.adversarial)
            assert res.step_trace == want.step_trace
        for a, b in zip(results, results[1:]):
            assert not np.shares_memory(a.adversarial, b.adversarial)
        # a batch's live rows use a prefix of the buffers, made per call too
        first = attacks._attack_loop(models, models, np.stack(images), np.array([0, 1, 2]),
                                     cfg, None)
        kept = [(r.adversarial.copy(), list(r.step_trace)) for r in first]
        attacks._attack_loop(models, models, np.stack(images[::-1]), np.array([2, 0, 1]),
                             cfg, None)
        for res, (adversarial, trace) in zip(first, kept):
            assert np.array_equal(res.adversarial, adversarial) and res.step_trace == trace

    def test_budget_respected(self):
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(9)
        cfg = AttackConfig(epsilon=8.0, steps=5, step_rule=SignStep(2.0))
        res = run_attack(models, models, x, 0, cfg, make_rng(0))
        assert np.abs(res.adversarial - x).max() <= 8.0 + 1e-9
        assert res.adversarial.min() >= 0.0 and res.adversarial.max() <= 255.0
        assert res.steps_used == 5
        assert len(res.step_trace) == 5

    def test_one_step_sign_is_fgsm(self):
        # single sign step of size epsilon from the raw gradient
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(10)
        cfg = AttackConfig(epsilon=6.0, steps=1, step_rule=SignStep(6.0))
        res = run_attack(models, models, x, 1, cfg, make_rng(0))
        grad = models[0].input_gradient(x, 1)
        expected = project(x + 6.0 * np.sign(grad), x, 6.0)
        assert np.allclose(res.adversarial, expected, atol=1e-12)

    def test_scaled_step_trajectory_matches_manual_loop(self):
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(11)
        cfg = AttackConfig(epsilon=8.0, steps=3, step_rule=FixedScaleStep(1e5))
        res = run_attack(models, models, x, 2, cfg, make_rng(0))
        manual = x.copy()
        for _ in range(3):
            manual = project(manual + 1e5 * models[0].input_gradient(manual, 2), x, 8.0)
        assert np.allclose(res.adversarial, manual, atol=1e-9)

    def test_momentum_path_matches_manual_loop(self):
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(12)
        cfg = AttackConfig(epsilon=8.0, steps=4, step_rule=SignStep(2.0), momentum=1.0)
        res = run_attack(models, models, x, 0, cfg, make_rng(0))
        manual = x.copy()
        g = np.zeros_like(x)
        for _ in range(4):
            grad = models[0].input_gradient(manual, 0)
            g = momentum_accumulate(g, grad, 1.0)
            manual = project(manual + 2.0 * np.sign(g), x, 8.0)
        assert np.allclose(res.adversarial, manual, atol=1e-12)

    def test_targeted_descends_target_loss(self):
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(13)
        target = (models[0].predict(x) + 1) % 3
        cfg = AttackConfig(epsilon=64.0, steps=10, step_rule=SignStep(6.4),
                           target_label=target)
        res = run_attack(models, models, x, (target + 1) % 3, cfg, make_rng(0))
        before = models[0].cross_entropy_loss(x, target)
        after = models[0].cross_entropy_loss(res.adversarial, target)
        assert after < before

    def test_targeted_rejects_matching_label(self):
        models = make_models(1)
        cfg = AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0),
                           target_label=1)
        with pytest.raises(ValueError):
            run_attack(models, models, random_image(14), 1, cfg, make_rng(0))

    # a float or bool label would index a class; with steps=0 no gradient
    # call checks it, so the loop checks every label before the first step
    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("y", [7, -1, 1.0, True], ids=repr)
    def test_rejects_a_label_the_models_do_not_have(self, y, steps):
        models = make_models(1, kind="mlp-1-hidden")
        cfg = AttackConfig(epsilon=8.0, steps=steps, step_rule=SignStep(1.0))
        with pytest.raises(ValueError, match="label"):
            run_attack(models, models, random_image(14), y, cfg, make_rng(0))

    @pytest.mark.parametrize("steps", [0, 1])
    def test_rejects_a_target_label_the_models_do_not_have(self, steps):
        models = make_models(1)
        cfg = AttackConfig(epsilon=8.0, steps=steps, step_rule=SignStep(1.0),
                           target_label=9)
        with pytest.raises(ValueError, match="label 9 out of range"):
            run_attack(models, models, random_image(14), 0, cfg, make_rng(0))

    @pytest.mark.parametrize("steps", [0, 1])
    def test_rejects_a_label_a_target_model_does_not_have(self, steps):
        # the 2-class target would predict 0 or 1 != 2 and score a success
        source, target = make_models(1, classes=3), make_models(1, classes=2)
        cfg = AttackConfig(epsilon=8.0, steps=steps, step_rule=SignStep(1.0))
        with pytest.raises(ValueError, match="out of range for 2 classes"):
            run_attack(source, target, random_image(14), 2, cfg, make_rng(0))

    def test_targeted_is_not_a_constructor_argument(self):
        # it was a field that had to equal target_label is not None
        with pytest.raises(TypeError, match="targeted"):
            AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0), targeted=True)

    def test_a_target_label_makes_the_config_targeted(self):
        untargeted = AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0))
        targeted = dataclasses.replace(untargeted, target_label=2)
        assert (untargeted.targeted, targeted.targeted) == (False, True)
        with pytest.raises(AttributeError):
            targeted.targeted = False

    # NaN fails every comparison, so a `value < 0` check lets it through
    @pytest.mark.parametrize("field,value", [("epsilon", math.nan), ("momentum", math.nan),
                                             ("momentum", math.inf)])
    def test_config_rejects_non_finite_hyperparameters(self, field, value):
        kwargs = {"epsilon": 8.0, "steps": 2, "step_rule": SignStep(1.0), field: value}
        with pytest.raises(ValueError, match=field):
            AttackConfig(**kwargs)

    @pytest.mark.parametrize("make,field", [(lambda v: Vt(beta=v), "beta"),
                                            (lambda v: Emi(eta=v), "eta")],
                             ids=["vt-beta", "emi-eta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_transforms_reject_non_finite_hyperparameters(self, make, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be a real number in \[0, inf\)"):
            make(value)

    NOT_INTEGERS = [True, False, 2.5, 3.0, np.float64(3.0), "3", None]

    # unchecked, steps=True ran one step and steps=2.5 failed only in the attack loop
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_config_rejects_a_step_count_that_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match="steps must be an integer"):
            AttackConfig(epsilon=8.0, steps=value, step_rule=SignStep(1.0))

    # unchecked, Sim(m=2.5) and Tim(k=3.0) were built, and failed only at the
    # first attack step with a TypeError or an IndexError
    @pytest.mark.parametrize("transform,field", [(Sim, "m"), (Tim, "k"), (Vt, "n"), (Emi, "n")],
                             ids=["sim", "tim", "vt", "emi"])
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_transforms_reject_a_count_that_is_not_an_integer(self, transform, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            transform(**{field: value})

    def test_counts_may_be_numpy_integers(self):
        cfg = AttackConfig(epsilon=8.0, steps=np.int64(2), step_rule=SignStep(1.0),
                           transforms=(Sim(m=np.int32(2)), Tim(k=np.int64(3)),
                                       Vt(n=np.int64(2)), Emi(n=np.int16(3))))
        assert cfg.steps == 2

    def test_transform_stack_runs_and_respects_budget(self):
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(15)
        cfg = AttackConfig(
            epsilon=8.0, steps=3, step_rule=SignStep(2.0), momentum=1.0,
            transforms=(Dim(), Tim(), Sim(), Vt(n=3), Emi(n=3)),
        )
        res = run_attack(models, models, x, 0, cfg, make_rng(3))
        assert np.abs(res.adversarial - x).max() <= 8.0 + 1e-9

    def test_dim_randomness_controlled_by_rng(self):
        models = make_models(1, kind="mlp-1-hidden")
        x = random_image(16)
        cfg = AttackConfig(epsilon=8.0, steps=3, step_rule=SignStep(2.0),
                           transforms=(Dim(p=1.0),))
        a = run_attack(models, models, x, 0, cfg, make_rng(4)).adversarial
        b = run_attack(models, models, x, 0, cfg, make_rng(4)).adversarial
        assert np.array_equal(a, b)

    def test_early_stop_on_vanishing_gradient(self):
        model = build_model("softmax-linear", SHAPE, 3, seed=0)
        model.params["W"][:] = 0.0  # uniform softmax everywhere: zero gradient
        cfg = AttackConfig(epsilon=8.0, steps=5, step_rule=SignStep(1.0))
        res = run_attack([model], [model], random_image(17), 0, cfg, make_rng(0))
        assert res.early_stopped
        assert res.steps_used == 0
        assert np.array_equal(res.adversarial, random_image(17))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        models = make_models(1)
        x = random_image(18)
        x[3, 4, 0] = bad
        cfg = AttackConfig(epsilon=8.0, steps=2, step_rule=SignStep(1.0))
        with pytest.raises(ValueError, match="non-finite"):
            run_attack(models, models, x, 0, cfg, make_rng(0))

    def test_rejects_non_finite_gradient(self):
        model = build_model("softmax-linear", SHAPE, 3, seed=0)
        model.params["W"].flat[0] = np.nan
        cfg = AttackConfig(epsilon=8.0, steps=2, step_rule=SignStep(1.0), momentum=1.0)
        with pytest.raises(DegenerateGradientError, match="non-finite"):
            run_attack([model], [model], random_image(19), 0, cfg, make_rng(0))

    def test_config_rejects_a_repeated_transform_kind(self):
        # the pipeline reads one transform per kind, so a second Tim would be lost
        with pytest.raises(ValueError, match="'tim'"):
            AttackConfig(epsilon=8.0, steps=2, step_rule=SignStep(1.0),
                         transforms=(Tim(3), Dim(), Tim(7, 3.0)))

    @pytest.mark.parametrize("kwargs,what", [
        ({"step_rule": "sign"}, "step rule"),
        ({"step_rule": Tim()}, "step rule"),
        ({"transforms": (Tim(), "dim")}, "transform"),
        ({"transforms": (SignStep(1.0),)}, "transform"),
    ], ids=["rule-str", "rule-transform", "transform-str", "transform-rule"])
    @pytest.mark.parametrize("steps", [0, 2])
    def test_config_rejects_what_is_not_a_rule_or_transform(self, kwargs, what, steps):
        # caught when the config is built, not at the first step
        with pytest.raises(TypeError, match=f"unknown {what}"):
            AttackConfig(**{"epsilon": 16.0, "steps": steps, "step_rule": SignStep(1.0),
                            **kwargs})

    def test_config_is_frozen(self):
        # an assignment would skip the checks of __post_init__
        cfg = AttackConfig(epsilon=8.0, steps=2, step_rule=SignStep(1.0), transforms=[Tim()])
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epsilon = math.nan
        assert cfg.epsilon == 8.0 and cfg.transforms == (Tim(),)

    def test_replace_checks_the_new_config(self):
        cfg = AttackConfig(epsilon=8.0, steps=2, step_rule=SignStep(1.0), transforms=(Vt(n=2),))
        assert dataclasses.replace(cfg, epsilon=4.0).epsilon == 4.0
        with pytest.raises(ValueError, match="epsilon"):
            dataclasses.replace(cfg, epsilon=math.nan)
        with pytest.raises(ValueError, match="'vt'"):
            dataclasses.replace(cfg, transforms=(Vt(n=2), Vt(n=3)))

    def test_adaptive_steps_must_match_generator(self):
        gen = ScalingFactorGenerator(3, SHAPE, hidden=(4, 2))
        AttackConfig(epsilon=8.0, steps=3, step_rule=AdaptiveStep(gen))
        with pytest.raises(ValueError, match="trained for 3 steps"):
            AttackConfig(epsilon=8.0, steps=4, step_rule=AdaptiveStep(gen))

    def test_adaptive_rule_combines_with_momentum_transforms_and_targets(self):
        models = make_models(1, kind="mlp-1-hidden")
        gen = ScalingFactorGenerator(3, SHAPE, hidden=(4, 2), head_scale=1e3)
        x = random_image(20)
        cfg = AttackConfig(epsilon=8.0, steps=3, step_rule=AdaptiveStep(gen), momentum=1.0,
                           transforms=(Dim(), Tim(), Sim(), Vt(n=2), Emi(n=2)),
                           target_label=2)
        res = run_attack(models, models, x, 0, cfg, make_rng(1))
        again = run_attack(models, models, x, 0, cfg, make_rng(1))
        assert np.array_equal(res.adversarial, again.adversarial)
        assert len(res.step_trace) == 3 and all(g > 0 for g in res.step_trace)
        assert np.abs(res.adversarial - x).max() <= 8.0 + 1e-9
        assert res.success == [models[0].predict(res.adversarial) == 2]


    NO_TRANSFORMS = [
        AttackConfig(epsilon=16.0, steps=4, step_rule=SignStep(4.0)),
        AttackConfig(epsilon=16.0, steps=4, step_rule=FixedScaleStep(64.0), momentum=1.0),
        AttackConfig(epsilon=16.0, steps=4, step_rule=SignStep(4.0), target_label=2),
        AttackConfig(epsilon=16.0, steps=3, momentum=1.0, step_rule=AdaptiveStep(
            ScalingFactorGenerator(3, SHAPE, hidden=(4, 2), head_scale=1e3))),
    ]

    @pytest.mark.parametrize("cfg", NO_TRANSFORMS,
                             ids=["sign", "fixed", "targeted", "adaptive"])
    def test_an_attack_without_transforms_draws_nothing(self, cfg):
        # so the harness gives it no stream: the bytes equal those made with
        # the example's stream 1000 + i
        models = make_models(2, kind="mlp-1-hidden")
        for i in range(4):
            x = random_image(30 + i)
            rng = make_rng(7, 1000 + i)
            state = rng.bit_generator.state
            drawn = run_attack(models, models, x, 0, cfg, rng=rng)
            undrawn = run_attack(models, models, x, 0, cfg, rng=None)
            assert drawn.adversarial.tobytes() == undrawn.adversarial.tobytes()
            assert drawn.success == undrawn.success
            np.testing.assert_equal(rng.bit_generator.state, state)


class TestTracingContract:
    """A profiler that rebinds the public functions and methods (perfbench's
    tracer does) must see every attack step: one ``attacks.ensemble_gradient``
    call through the module global and one public ``input_gradient`` call per
    source model, or its ``attacks.grad_evals_per_step`` reads 0."""

    CONFIGS = {
        "sign": dict(step_rule=SignStep(1.6)),
        "fixed-momentum": dict(step_rule=FixedScaleStep(16.0), momentum=1.0),
        "adaptive": dict(step_rule=AdaptiveStep(ScalingFactorGenerator(
            4, SHAPE, hidden=(4, 2), head_scale=1e3))),
        "stack": dict(step_rule=FixedScaleStep(16.0), momentum=1.0,
                      transforms=(Dim(), Tim(), Sim(m=2), Vt(n=2), Emi(n=2))),
    }

    @pytest.mark.parametrize("n_sources", [1, 2])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_each_step_calls_the_public_gradients(self, config, n_sources, monkeypatch):
        sources = [build_model(kind, SHAPE, 3, seed=s)
                   for s, kind in enumerate(["mlp-1-hidden", "softmax-linear"][:n_sources])]
        ensemble_calls, grad_calls = [], []
        inner = attacks.ensemble_gradient

        def ensemble_spy(models, x, y):
            ensemble_calls.append(len(models))
            return inner(models, x, y)

        monkeypatch.setattr(attacks, "ensemble_gradient", ensemble_spy)
        for cls in {type(m) for m in sources}:
            def grad_spy(self, x, y, _inner=cls.input_gradient):
                grad_calls.append(id(self))
                return _inner(self, x, y)
            monkeypatch.setattr(cls, "input_gradient", grad_spy)
        cfg = AttackConfig(epsilon=16.0, steps=4, **self.CONFIGS[config])
        res = run_attack(sources, sources, random_image(24), 0, cfg, make_rng(6))
        assert res.steps_used == 4
        assert ensemble_calls == [n_sources] * 4
        assert sorted(grad_calls) == sorted([id(m) for m in sources] * 4)
        # a batch makes the same calls, each on every row at once
        ensemble_calls.clear()
        grad_calls.clear()
        images = np.stack([random_image(25 + i) for i in range(3)])
        rngs = [make_rng(6, 1000 + i) for i in range(3)]
        rows = attacks._attack_loop(sources, sources, images, np.array([0, 1, 2]), cfg, rngs)
        assert [row.steps_used for row in rows] == [4] * 3
        assert ensemble_calls == [n_sources] * 4
        assert sorted(grad_calls) == sorted([id(m) for m in sources] * 4)


def per_point_sim_gradient(models, x, y, m):
    """Reference: sim_gradient before batching, one ensemble call per scale."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = np.zeros_like(np.asarray(x, dtype=np.float64))
    for i in range(m):
        scale = 0.5 ** i
        total += scale * ensemble_gradient(models, x * scale, y)
    return total / m


def per_point_pipeline_gradient(models, x_eval, label, pipe, state, rng):
    """Reference: _pipeline_gradient before batching, one gradient call per
    EMI point, VT neighbour and SIM copy, each on a single image."""
    sim, vt, emi, tim = pipe.sim, pipe.vt, pipe.emi, pipe.tim

    def base(pt):
        if sim is not None:
            return per_point_sim_gradient(models, pt, label, sim.m)
        return ensemble_gradient(models, pt, label)

    if emi is not None:
        grad = np.zeros_like(x_eval)
        for _ in range(emi.n):
            c = rng.uniform(-1.0, 1.0)
            grad += base(x_eval + c * emi.eta * state["emi_dir"])
        grad /= emi.n
    else:
        grad = base(x_eval)

    if vt is not None:
        tuned = grad + state["vt_var"]
        radius = pipe.vt_radius
        acc = np.zeros_like(grad)
        for _ in range(vt.n):
            acc += base(x_eval + rng.uniform(-radius, radius, size=x_eval.shape))
        state["vt_var"] = acc / vt.n - grad
        grad = tuned

    if emi is not None:
        l1 = np.abs(grad).sum()
        state["emi_dir"] = grad / l1 if l1 > 0 else np.zeros_like(grad)

    if tim is not None:
        grad = tim_smooth(grad, tim.k, tim.sigma)
    return grad


def count_input_gradient_calls(models):
    """Wrap each model's input_gradient; returns one list of input shapes per model."""
    shapes = [[] for _ in models]
    for model, seen in zip(models, shapes):
        def spy(x, y, _inner=model.input_gradient, _seen=seen):
            _seen.append(np.shape(x))
            return _inner(x, y)
        model.input_gradient = spy
    return shapes


class TestBatchedPipeline:
    @pytest.mark.parametrize("kind", ["softmax-linear", "mlp-1-hidden", "tiny-conv"])
    @pytest.mark.parametrize("n_models", [1, 2])
    def test_batched_helpers_equal_stacked_single_points(self, kind, n_models):
        models = [build_model(kind, SHAPE, 3, seed=s) for s in range(n_models)]
        points = make_rng(n_models, 62).uniform(0.0, 255.0, size=(5,) + SHAPE.dims)
        np.testing.assert_allclose(
            ensemble_gradient(models, points, 1),
            np.stack([ensemble_gradient(models, p, 1) for p in points]), rtol=1e-12, atol=0)
        for m in (1, 3):
            np.testing.assert_allclose(
                sim_gradient(models, points, 2, m),
                np.stack([per_point_sim_gradient(models, p, 2, m) for p in points]),
                rtol=1e-12, atol=0)
            np.testing.assert_allclose(sim_gradient(models, points[0], 2, m),
                                       per_point_sim_gradient(models, points[0], 2, m),
                                       rtol=1e-12, atol=0)

    # rows per step: (EMI n, or 1, plus VT n) x SIM m
    STACKS = [((Sim(m=2), Vt(n=4), Emi(n=3)), 14), ((Vt(n=4), Emi(n=3)), 7),
              ((Vt(n=2),), 3), ((Emi(n=3),), 3), ((Sim(m=3),), 3)]

    @pytest.mark.parametrize("stack,rows", STACKS, ids=["sim-vt-emi", "vt-emi", "vt", "emi", "sim"])
    def test_stacked_step_makes_one_input_gradient_call_per_source_model(self, stack, rows):
        models = make_models(2, kind="mlp-1-hidden")
        shapes = count_input_gradient_calls(models)
        cfg = AttackConfig(epsilon=16.0, steps=3, step_rule=FixedScaleStep(16.0), momentum=1.0,
                           transforms=(Dim(), Tim()) + stack)
        run_attack(models, [], random_image(22), 0, cfg, make_rng(5))
        assert shapes == [[(rows,) + SHAPE.dims] * 3] * 2

    @pytest.mark.parametrize("stack", [(), (Emi(n=1),)], ids=["dim-tim", "emi-1"])
    def test_one_point_step_keeps_the_single_image_call(self, stack):
        models = make_models(2, kind="mlp-1-hidden")
        shapes = count_input_gradient_calls(models)
        cfg = AttackConfig(epsilon=16.0, steps=2, step_rule=SignStep(1.6), momentum=1.0,
                           transforms=(Dim(), Tim()) + stack)
        run_attack(models, [], random_image(23), 0, cfg, make_rng(5))
        assert shapes == [[SHAPE.dims] * 2] * 2

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["softmax-linear", "mlp-1-hidden", "tiny-conv"]),
        shape=st.sampled_from([SHAPE, ImageShape(4, 4, 3)]),
        n_models=st.integers(1, 2),
        stack=st.sets(st.sampled_from(["sim", "emi", "vt"]), min_size=1),
        dim=st.booleans(),
        tim=st.booleans(),
        momentum=st.sampled_from([None, 1.0, 0.5]),
        rule=st.sampled_from(["sign", "fixed", "adaptive"]),
        targeted=st.booleans(),
        steps=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_run_attack_matches_the_per_point_loop(self, kind, shape, n_models, stack, dim, tim,
                                                   momentum, rule, targeted, steps, seed):
        models = [build_model(kind, shape, 3, seed=seed + s) for s in range(n_models)]
        x = make_rng(seed, 63).uniform(0.0, 255.0, size=shape.dims)
        transforms = [Dim(p=0.8, min_fraction=0.75)] if dim else []
        transforms += [Tim(k=3)] if tim else []
        transforms += [Sim(m=2)] if "sim" in stack else []
        transforms += [Vt(n=3, beta=1.5)] if "vt" in stack else []
        transforms += [Emi(n=2, eta=7.0)] if "emi" in stack else []
        step_rule = {
            "sign": lambda: SignStep(1.6),
            "fixed": lambda: FixedScaleStep(1e4 if momentum is None else 16.0),
            "adaptive": lambda: AdaptiveStep(ScalingFactorGenerator(
                steps, shape, hidden=(4, 2), seed=seed, head_scale=1e3)),
        }[rule]()
        cfg = AttackConfig(epsilon=16.0, steps=steps, step_rule=step_rule, momentum=momentum,
                           transforms=tuple(transforms),
                           target_label=2 if targeted else None)
        rng_new, rng_ref = make_rng(seed, 64), make_rng(seed, 64)
        new = run_attack(models, models, x, 0, cfg, rng_new)
        with mock.patch.object(attacks, "_pipeline_gradient", per_point_pipeline_gradient):
            ref = run_attack(models, models, x, 0, cfg, rng_ref)
        np.testing.assert_allclose(new.adversarial, ref.adversarial, rtol=1e-12, atol=1e-12)
        # the Philox state holds small arrays, which repr prints in full
        assert repr(rng_new.bit_generator.state) == repr(rng_ref.bit_generator.state)
        assert new.success == ref.success
        assert (new.steps_used, new.early_stopped) == (ref.steps_used, ref.early_stopped)
        if rule == "adaptive":
            # the generator's gamma is computed from the direction, so it
            # inherits the direction's last-bit differences
            np.testing.assert_allclose(new.step_trace, ref.step_trace, rtol=1e-12, atol=0)
        else:
            assert new.step_trace == ref.step_trace


def row_loop(rows):
    """rows summed the way the per-point pipeline summed them."""
    total = np.zeros_like(rows[0])
    for row in rows:
        total += row
    return total


class TestVectorizedPipelineContracts:
    """The numpy behaviour a vectorized step relies on to stay bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 25), radius=st.sampled_from([0.0, 1.0, 7.0, 24.0]),
           shape=st.sampled_from([(1,), (8, 8, 1), (4, 4, 3)]), seed=st.integers(0, 2**16))
    def test_one_uniform_call_equals_one_draw_per_point(self, n, radius, shape, seed):
        # EMI draws n offsets in one call, VT n neighbours in one call
        for size in ((n,), (n,) + shape):
            batched, looped = make_rng(seed, 94), make_rng(seed, 94)
            values = batched.uniform(-radius, radius, size=size)
            draws = [looped.uniform(-radius, radius, size=size[1:] or None) for _ in range(n)]
            assert np.array_equal(values, np.array(draws))
            assert repr(batched.bit_generator.state) == repr(looped.bit_generator.state)

    ROW_VALUES = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e-300, -5e-324])

    @settings(max_examples=100, deadline=None)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(2, 70)),
                           elements=ROW_VALUES))
    def test_axis0_add_reduce_equals_the_row_loop(self, rows):
        # values and sign bits: both start from +0.0, so an all -0.0 column sums to +0.0
        out = np.add.reduce(rows, axis=0, initial=0.0)
        assert np.array_equal(out, row_loop(rows))
        assert np.array_equal(np.signbit(out), np.signbit(row_loop(rows)))

    @settings(max_examples=100, deadline=None)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 40)).flatmap(
               lambda k: st.sampled_from([k + (1, 1, 1), k + (1,), k + (3, 1, 2), k + (4, 4, 1)])),
               elements=ROW_VALUES))
    @example(rows=np.array([[1e16]] + [[1.0]] * 15))
    @example(rows=np.full((9, 1, 1, 1), -0.0))
    def test_sum_rows_equals_the_row_loop_for_rows_of_one_value_too(self, rows):
        # a plain reduce over rows of one value runs numpy's pairwise sum,
        # which rounds the first example's 1e16 + 1 + ... differently
        out = attacks._sum_rows(rows)
        assert out.shape == rows.shape[1:]
        assert np.array_equal(out, row_loop(rows))
        assert np.array_equal(np.signbit(out), np.signbit(row_loop(rows)))

    def test_dim_index_is_cached_read_only_and_the_old_index(self):
        index = attacks._dim_index(8, 8, 6, 7)
        assert attacks._dim_index(8, 8, 6, 7) is index
        rows = (np.arange(6) * 8 // 6).astype(int)
        cols = (np.arange(7) * 8 // 7).astype(int)
        x = random_image(24)
        assert np.array_equal(x[index], x[np.ix_(rows, cols)])
        for part in index:
            with pytest.raises(ValueError):
                part[0] = 1


class GradientAbove:
    """A source model whose gradient is `value` at every point whose first
    pixel is at least `at`; with 0.0 an attack stops once a step carries it
    there."""

    def __init__(self, model, at, value=0.0):
        self.model, self.at, self.value = model, at, value
        self.image_shape, self.num_classes = model.image_shape, model.num_classes

    def input_gradient(self, x, y):
        grad = self.model.input_gradient(x, y)
        grad[np.asarray(x)[..., 0, 0, 0] >= self.at] = self.value
        return grad


class TestBatchedLoop:
    """_attack_loop on an (N, H, W, C) batch against run_attack on each row,
    each row with its own stream make_rng(seed, 1000 + i)."""

    TRANSFORMS = {"dim": Dim(p=0.8, min_fraction=0.75), "tim": Tim(k=3), "sim": Sim(m=2),
                  "vt": Vt(n=3, beta=1.5), "emi": Emi(n=2, eta=7.0)}

    @staticmethod
    def streams(cfg, seed, n):
        return [make_rng(seed, 1000 + i) for i in range(n)] if cfg.transforms else None

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["softmax-linear", "mlp-1-hidden", "tiny-conv"]),
        shape=st.sampled_from([SHAPE, ImageShape(4, 4, 3)]),
        n=st.integers(1, 16),
        n_models=st.integers(1, 2),
        transforms=st.sampled_from([(), ("dim",), ("tim",), ("sim",), ("vt",), ("emi",),
                                    ("dim", "tim", "sim", "vt", "emi")]),
        momentum=st.sampled_from([None, 1.0, 0.5]),
        rule=st.sampled_from(["sign", "fixed", "adaptive"]),
        targeted=st.booleans(),
        stopping=st.sampled_from([None, "some", "all"]),
        steps=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_each_row_matches_its_own_run_attack(self, kind, shape, n, n_models, transforms,
                                                 momentum, rule, targeted, stopping, steps,
                                                 seed):
        models = [build_model(kind, shape, 3, seed=seed + s) for s in range(n_models)]
        draw = make_rng(seed, 63)
        images = draw.uniform(0.0, 255.0, size=(n,) + shape.dims)
        labels = draw.integers(0, 2 if targeted else 3, size=n)  # 2 is the target
        sources = models
        if stopping:
            # "some": rows that start at or above the median first pixel stop at
            # step 0, others once a step carries them there; "all": every row
            # stops at step 0
            at = np.median(images[:, 0, 0, 0]) if stopping == "some" else -1.0
            sources = [GradientAbove(m, at) for m in models]
        if rule == "adaptive":
            steps = max(steps, 1)  # a generator has at least one step
        step_rule = {
            "sign": lambda: SignStep(1.6),
            "fixed": lambda: FixedScaleStep(1e4 if momentum is None else 16.0),
            "adaptive": lambda: AdaptiveStep(ScalingFactorGenerator(
                steps, shape, hidden=(4, 2), seed=seed, head_scale=1e3)),
        }[rule]()
        cfg = AttackConfig(epsilon=16.0, steps=steps, step_rule=step_rule, momentum=momentum,
                           transforms=tuple(self.TRANSFORMS[t] for t in transforms),
                           target_label=2 if targeted else None)
        targets = models[:1] + [build_model("tiny-conv", shape, 3, seed=9)]
        batch_rngs, row_rngs = self.streams(cfg, seed, n), self.streams(cfg, seed, n)
        rows = attacks._attack_loop(sources, targets, images, labels, cfg, batch_rngs)
        assert len(rows) == n
        for i, (row, x, y) in enumerate(zip(rows, images, labels)):
            alone = run_attack(sources, targets, x, int(y), cfg,
                               rng=row_rngs[i] if row_rngs else None)
            assert (row.steps_used, row.early_stopped) == (alone.steps_used, alone.early_stopped)
            assert row.success == alone.success
            if row_rngs:
                # the Philox state holds small arrays, which repr prints in full
                assert (repr(batch_rngs[i].bit_generator.state)
                        == repr(row_rngs[i].bit_generator.state))
            if rule == "sign":
                # a batched gradient differs from the one-image gradient in its
                # last bits, which a sign step drops (unless |g| is within them
                # of 0, which these draws never bring)
                assert np.array_equal(row.adversarial, alone.adversarial)
                assert row.step_trace == alone.step_trace
            else:
                np.testing.assert_allclose(row.adversarial, alone.adversarial,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(row.step_trace, alone.step_trace, rtol=1e-12, atol=0)

    def test_a_stopped_row_keeps_its_iterate_while_the_others_move(self):
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=0)
        images = np.stack([random_image(30 + i) for i in range(4)])
        images[1, 0, 0, 0] = images[3, 0, 0, 0] = 250.0
        cfg = AttackConfig(epsilon=16.0, steps=3, step_rule=SignStep(4.0))
        rows = attacks._attack_loop([GradientAbove(model, 240.0)], [model], images,
                                    np.array([0, 1, 2, 0]), cfg, None)
        assert [(r.steps_used, r.early_stopped) for r in rows] == [
            (3, False), (0, True), (3, False), (0, True)]
        assert np.array_equal(rows[1].adversarial, images[1])
        assert not np.array_equal(rows[0].adversarial, images[0])

    def test_every_row_stopping_at_once_returns_each_original_image(self):
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=0)
        images = np.stack([random_image(40 + i) for i in range(3)])
        cfg = AttackConfig(epsilon=16.0, steps=3, step_rule=SignStep(4.0))
        rows = attacks._attack_loop([GradientAbove(model, -1.0)], [model], images,
                                    np.array([0, 1, 2]), cfg, None)
        for row, x, y in zip(rows, images, (0, 1, 2)):
            alone = run_attack([GradientAbove(model, -1.0)], [model], x, y, cfg)
            assert (row.steps_used, row.early_stopped) == (0, True)
            assert np.array_equal(row.adversarial, x)
            assert row.success == alone.success

    def test_a_non_finite_gradient_in_one_row_raises(self):
        model = build_model("softmax-linear", SHAPE, 3, seed=0)
        images = np.stack([random_image(32), random_image(33)])
        images[1, 0, 0, 0] = 250.0
        cfg = AttackConfig(epsilon=8.0, steps=2, step_rule=SignStep(1.0))
        with pytest.raises(DegenerateGradientError, match="non-finite"):
            attacks._attack_loop([GradientAbove(model, 240.0, np.nan)], [model], images,
                                 np.array([0, 1]), cfg, None)

    def test_rejects_a_batch_without_one_label_and_one_stream_per_row(self):
        models = make_models(1)
        images = np.stack([random_image(34), random_image(35)])
        plain = AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0))
        with pytest.raises(ValueError, match="2 labels"):
            attacks._attack_loop(models, [], images, np.array([0]), plain, None)
        stack = dataclasses.replace(plain, transforms=(Dim(),))
        for rngs in (None, [make_rng(0)]):
            with pytest.raises(ValueError, match="one rng per row"):
                attacks._attack_loop(models, [], images, np.array([0, 1]), stack, rngs)
        with pytest.raises(ValueError, match="one .H, W, C. image"):
            run_attack(models, [], images, 0, plain)


class TestSignScaleEquivalence:
    def test_constant_magnitude_field_trajectories_coincide(self):
        # when every |g_i| = c, gamma * g equals (gamma * c) * sign(g), so the
        # two rules trace identical iterates
        class ConstantField:
            num_classes = 2

            def __init__(self, pattern, c):
                self.pattern = pattern
                self.c = c

            def input_gradient(self, x, y):
                return self.c * self.pattern

            def cross_entropy_loss(self, x, y):
                return 0.0

            def predict(self, x):
                return 1

        rng = make_rng(20)
        pattern = np.sign(rng.normal(size=SHAPE.dims))
        pattern[pattern == 0] = 1.0
        c = 0.37
        model = ConstantField(pattern, c)
        x = random_image(21)
        gamma = 2.5
        cfg_scale = AttackConfig(epsilon=30.0, steps=10, step_rule=FixedScaleStep(gamma))
        cfg_sign = AttackConfig(epsilon=30.0, steps=10, step_rule=SignStep(gamma * c))
        a = run_attack([model], [model], x, 0, cfg_scale, make_rng(0)).adversarial
        b = run_attack([model], [model], x, 0, cfg_sign, make_rng(0)).adversarial
        assert np.abs(a - b).max() < 1e-9


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = AttackConfig(
            epsilon=8.0, steps=10, step_rule=SignStep(0.8), momentum=1.0,
            transforms=(Dim(p=0.5), Tim(k=5, sigma=1.2), Sim(m=3), Vt(n=4, beta=1.0),
                        Emi(n=5, eta=3.0)),
            target_label=2,
        )
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_fixed_scale_roundtrip(self):
        cfg = AttackConfig(epsilon=16.0, steps=5, step_rule=FixedScaleStep(8.0))
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lossless_roundtrip(self, data):
        steps = data.draw(st.integers(0, 4), label="steps")
        gen = ScalingFactorGenerator(max(steps, 1), SHAPE, hidden=(4, 2))
        pos = st.floats(1e-3, 1e3)
        rule = data.draw(st.one_of(
            st.builds(SignStep, pos), st.builds(FixedScaleStep, pos),
            st.just(AdaptiveStep(gen)) if steps >= 1 else st.nothing()), label="rule")
        transforms = data.draw(st.lists(st.one_of(
            st.builds(Dim, st.floats(0.0, 1.0), st.floats(0.01, 1.0)),
            st.builds(Tim, st.sampled_from([1, 3, 5, 7]), st.none() | pos),
            st.builds(Sim, st.integers(1, 4)),
            st.builds(Vt, st.integers(1, 30), st.floats(0.0, 3.0)),
            st.builds(Emi, st.integers(1, 20), st.floats(0.0, 10.0)),
        ), max_size=5, unique_by=type), label="transforms")
        target = data.draw(st.none() | st.integers(0, 9), label="target_label")
        cfg = AttackConfig(
            epsilon=data.draw(st.floats(0.0, 255.0), label="epsilon"), steps=steps,
            step_rule=rule, momentum=data.draw(st.none() | st.floats(0.0, 2.0), label="mu"),
            transforms=transforms, target_label=target,
        )
        assert config_from_dict(config_to_dict(cfg), generator=gen) == cfg

    def test_unknown_kinds_raise_both_ways(self):
        class Jitter:
            pass

        with pytest.raises(TypeError):
            config_to_dict(AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0),
                                        transforms=(Jitter(),)))
        with pytest.raises(TypeError):
            config_to_dict(AttackConfig(epsilon=8.0, steps=1, step_rule=Jitter()))
        doc = config_to_dict(AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0)))
        with pytest.raises(ValueError, match="transform"):
            config_from_dict({**doc, "transforms": [{"type": "jitter"}]})
        with pytest.raises(ValueError, match="step rule"):
            config_from_dict({**doc, "step_rule": {"type": "jitter"}})

    BASE = {"epsilon": 8.0, "steps": 2, "step_rule": {"type": "sign", "alpha": 1.0}}
    BAD_KEYS = [
        ("momentun", {**BASE, "momentun": 1.0}),
        ("alpha", {**BASE, "step_rule": {"type": "fixed", "gamma": 2.0, "alpha": 1.0}}),
        ("prob", {**BASE, "transforms": [{"type": "dim", "prob": 0.5}]}),
        ("steps", {"epsilon": 8.0, "step_rule": {"type": "sign", "alpha": 1.0}}),
        ("gamma", {**BASE, "step_rule": {"type": "fixed"}}),
    ]

    @pytest.mark.parametrize("key,doc", BAD_KEYS, ids=[key for key, _ in BAD_KEYS])
    def test_unknown_or_missing_key_names_it(self, key, doc):
        # at the parent a misspelled key was dropped: "momentun" ran with no momentum
        with pytest.raises(ValueError, match=repr(key)):
            config_from_dict(doc)

    @pytest.mark.parametrize("transform", [{"type": "sim", "m": 2.5}, {"type": "tim", "k": 3.0}])
    def test_a_float_count_fails_when_the_doc_is_parsed(self, transform):
        with pytest.raises(ValueError, match="must be an integer"):
            config_from_dict({**self.BASE, "transforms": [transform]})

    def test_repeated_transform_kind_in_a_doc_raises(self):
        doc = {**self.BASE, "transforms": [{"type": "tim"}, {"type": "dim"},
                                           {"type": "tim", "k": 7}]}
        with pytest.raises(ValueError, match="'tim'"):
            config_from_dict(doc)

    def test_adaptive_rule_needs_a_generator(self):
        with pytest.raises(ValueError, match="generator instance"):
            config_from_dict({**self.BASE, "step_rule": {"type": "adaptive"}})

    def test_a_targeted_key_in_a_doc_is_unknown(self):
        # target_label alone makes a config targeted
        assert config_from_dict({**self.BASE, "target_label": 2}).targeted
        with pytest.raises(ValueError, match="unknown key 'targeted' in attack config"):
            config_from_dict({**self.BASE, "targeted": True, "target_label": 2})

    def test_dict_is_json_serializable(self):
        import json
        cfg = AttackConfig(epsilon=8.0, steps=10, step_rule=FixedScaleStep(2.0),
                           transforms=(Tim(),))
        json.dumps(config_to_dict(cfg))
