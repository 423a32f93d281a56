"""Tests for the per-step scaling-factor generator and adaptive attack."""

import numpy as np
import pytest

from advgrad.attacks import ensemble_gradient, ensemble_loss, project
from advgrad.generator import (
    GeneratorTrainConfig,
    ScalingFactorGenerator,
    load_generator,
    run_attack_adaptive,
    save_generator,
    train_generator,
)
from advgrad.harness import synth_dataset
from advgrad.models import TrainConfig, build_model, train_classifier
from advgrad.numerics import ImageShape, make_rng

SHAPE = ImageShape(8, 8, 1)


def small_generator(arch="mlp", steps=3, seed=0):
    return ScalingFactorGenerator(steps, SHAPE, arch=arch, seed=seed,
                                  hidden=(12, 6), conv_channels=4)


def random_pair(seed=0):
    rng = make_rng(seed, 60)
    x = rng.uniform(0, 255, size=SHAPE.dims)
    grad = rng.normal(scale=1e-4, size=SHAPE.dims)
    return x, grad


class TestConstruction:
    def test_independent_parameters_per_step(self):
        gen = small_generator(steps=4)
        assert len(gen.theta) == 4
        assert not np.array_equal(gen.theta[0]["W1"], gen.theta[1]["W1"])

    def test_deterministic_init(self):
        a = small_generator(seed=3)
        b = small_generator(seed=3)
        for pa, pb in zip(a.theta, b.theta):
            for k in pa:
                assert np.array_equal(pa[k], pb[k])

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            ScalingFactorGenerator(0, SHAPE)

    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError):
            ScalingFactorGenerator(3, SHAPE, arch="transformer")

    def test_conv_arch_needs_divisible_sides(self):
        with pytest.raises(ValueError):
            ScalingFactorGenerator(3, ImageShape(4, 4, 1), arch="conv")

    def test_rejects_nonpositive_head_scale(self):
        with pytest.raises(ValueError):
            ScalingFactorGenerator(3, SHAPE, head_scale=0.0)


class TestForward:
    @pytest.mark.parametrize("arch", ["mlp", "conv"])
    def test_gamma_is_strictly_positive(self, arch):
        gen = small_generator(arch=arch)
        rng = make_rng(1, 61)
        for _ in range(10):
            x = rng.uniform(0, 255, size=SHAPE.dims)
            grad = rng.normal(size=SHAPE.dims)
            for t in range(gen.steps):
                assert gen.gamma_forward(t, x, grad) > 0.0

    def test_gamma_varies_across_inputs(self):
        gen = small_generator()
        rng = make_rng(2, 62)
        gammas = [gen.gamma_forward(0, rng.uniform(0, 255, size=SHAPE.dims),
                                    rng.normal(size=SHAPE.dims)) for _ in range(20)]
        assert np.std(gammas) > 0.0

    def test_gamma_varies_across_steps(self):
        gen = small_generator(steps=4)
        x, grad = random_pair()
        gammas = [gen.gamma_forward(t, x, grad) for t in range(4)]
        assert np.std(gammas) > 0.0

    def test_head_scale_bounds_initial_output(self):
        # softplus of the near-zero initial head stays within a few units,
        # so gamma is on the order of head_scale at init
        gen = ScalingFactorGenerator(1, SHAPE, seed=0, head_scale=100.0,
                                     hidden=(12, 6))
        x, grad = random_pair(1)
        assert 1.0 < gen.gamma_forward(0, x, grad) < 1000.0

    def test_gradient_normalization_is_scale_invariant(self):
        # the gradient input is normalized by its peak, so rescaling the
        # gradient leaves gamma unchanged
        gen = small_generator()
        x, grad = random_pair(2)
        assert gen.gamma_forward(0, x, grad) == pytest.approx(
            gen.gamma_forward(0, x, grad * 1000.0), rel=1e-12)

    def test_rejects_shape_mismatch(self):
        gen = small_generator()
        with pytest.raises(ValueError):
            gen.gamma_forward(0, np.zeros((4, 4, 1)), np.zeros((4, 4, 1)))


class TestParameterGradient:
    @pytest.mark.parametrize("arch", ["mlp", "conv"])
    def test_matches_finite_differences(self, arch):
        gen = small_generator(arch=arch, seed=5)
        x, grad = random_pair(3)
        t = 1
        upstream = 0.83
        analytic = gen.parameter_gradient(t, x, grad, upstream)
        assert set(analytic) == set(gen.theta[t])
        rng = make_rng(4, 63)
        h = 1e-6
        for name, g in analytic.items():
            flat = gen.theta[t][name].reshape(-1)
            idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idx:
                old = flat[i]
                flat[i] = old + h
                up = gen.gamma_forward(t, x, grad)
                flat[i] = old - h
                down = gen.gamma_forward(t, x, grad)
                flat[i] = old
                fd = upstream * (up - down) / (2 * h)
                assert g.reshape(-1)[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_other_steps_untouched_by_update(self):
        gen = small_generator(steps=3)
        x, grad = random_pair(4)
        before = {k: v.copy() for k, v in gen.theta[2].items()}
        grads = gen.parameter_gradient(0, x, grad, 1.0)
        for k, g in grads.items():
            gen.theta[0][k] = gen.theta[0][k] + 0.1 * g
        for k in before:
            assert np.array_equal(gen.theta[2][k], before[k])


class TestTraining:
    def make_pool(self, train_set, n=2):
        kinds = ["mlp-1-hidden", "tiny-conv", "softmax-linear"]
        return [train_classifier(train_set, kinds[i % 3],
                                 TrainConfig(epochs=2, seed=i))[0] for i in range(n)]

    def test_rejects_single_model_pool(self):
        ds = synth_dataset("blobs", 30, SHAPE, seed=0)
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=0)
        cfg = GeneratorTrainConfig(total_steps=1, attack_steps=2,
                                   learning_rate=0.1, epsilon=8.0)
        with pytest.raises(ValueError, match="two"):
            train_generator(ds, [model], cfg)

    def test_training_changes_parameters(self):
        ds = synth_dataset("blobs", 40, SHAPE, seed=1)
        pool = self.make_pool(ds)
        cfg = GeneratorTrainConfig(total_steps=20, attack_steps=2,
                                   learning_rate=10.0, epsilon=8.0, seed=0)
        gen = train_generator(ds, pool, cfg, head_scale=1e5, hidden=(12, 6))
        fresh = ScalingFactorGenerator(2, SHAPE, seed=0, head_scale=1e5,
                                       hidden=(12, 6))
        moved = any(
            not np.array_equal(gen.theta[t][k], fresh.theta[t][k])
            for t in range(2) for k in gen.theta[t]
        )
        assert moved

    def test_training_is_deterministic(self):
        ds = synth_dataset("blobs", 30, SHAPE, seed=2)
        pool = self.make_pool(ds)
        cfg = GeneratorTrainConfig(total_steps=5, attack_steps=2,
                                   learning_rate=1.0, epsilon=8.0, seed=9)
        g1 = train_generator(ds, pool, cfg, hidden=(12, 6))
        g2 = train_generator(ds, pool, cfg, hidden=(12, 6))
        for t in range(2):
            for k in g1.theta[t]:
                assert np.array_equal(g1.theta[t][k], g2.theta[t][k])


class TestAdaptiveAttack:
    def test_budget_respected(self):
        gen = small_generator(steps=3)
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=0)
        x, _ = random_pair(5)
        res = run_attack_adaptive(gen, [model], x, 0, epsilon=8.0, steps=3)
        assert np.abs(res.adversarial - x).max() <= 8.0 + 1e-9
        assert res.adversarial.min() >= 0.0 and res.adversarial.max() <= 255.0

    def test_trace_records_generated_gammas(self):
        gen = small_generator(steps=3)
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=1)
        x, _ = random_pair(6)
        res = run_attack_adaptive(gen, [model], x, 1, epsilon=8.0, steps=3)
        assert len(res.step_trace) == 3
        assert all(g > 0 for g in res.step_trace)

    def test_step_count_must_match_training(self):
        gen = small_generator(steps=3)
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=0)
        x, _ = random_pair(7)
        with pytest.raises(ValueError):
            run_attack_adaptive(gen, [model], x, 0, epsilon=8.0, steps=5)

    @pytest.mark.parametrize("arch", ["mlp", "conv"])
    def test_matches_the_plain_adaptive_loop(self, arch):
        # reference: the adaptive loop as written before AdaptiveStep ran in
        # run_attack, without momentum or transforms
        def reference(gen, models, x, y, epsilon, targets):
            x_adv = x.copy()
            trace = []
            for t in range(gen.steps):
                grad = ensemble_gradient(models, x_adv, y)
                gamma = gen.gamma_forward(t, x_adv, grad)
                x_adv = project(x_adv + gamma * grad, x, epsilon)
                trace.append(gamma)
            return (x_adv, trace, [m.predict(x_adv) != y for m in targets],
                    ensemble_loss(models, x_adv, y))

        gen = ScalingFactorGenerator(4, SHAPE, arch=arch, seed=3, hidden=(12, 6),
                                     conv_channels=4, head_scale=1e4)
        sources = [build_model(k, SHAPE, 3, seed=s)
                   for s, k in enumerate(("mlp-1-hidden", "tiny-conv"))]
        targets = sources + [build_model("softmax-linear", SHAPE, 3, seed=9)]
        rng = make_rng(11, 64)
        for i in range(6):
            x = rng.uniform(0, 255, size=SHAPE.dims)
            y = i % 3
            adv, trace, success, loss = reference(gen, sources, x, y, 4.0, targets)
            res = run_attack_adaptive(gen, sources, x, y, 4.0, 4, target_models=targets)
            assert np.array_equal(res.adversarial, adv)
            assert res.step_trace == trace
            assert res.success == success
            assert res.final_loss == loss
            assert res.steps_used == 4 and not res.early_stopped

    def test_needs_a_model(self):
        gen = small_generator(steps=2)
        x, _ = random_pair(8)
        with pytest.raises(ValueError):
            run_attack_adaptive(gen, [], x, 0, epsilon=8.0, steps=2)


class TestCheckpoints:
    @pytest.mark.parametrize("arch", ["mlp", "conv"])
    def test_roundtrip_preserves_gamma(self, arch, tmp_path):
        gen = small_generator(arch=arch, seed=7)
        path = str(tmp_path / "gen.json")
        save_generator(gen, path)
        loaded = load_generator(path)
        x, grad = random_pair(9)
        for t in range(gen.steps):
            assert loaded.gamma_forward(t, x, grad) == pytest.approx(
                gen.gamma_forward(t, x, grad), rel=1e-12)
        assert loaded.arch == arch
        assert loaded.steps == gen.steps

    def test_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "not-a-generator"}')
        with pytest.raises(ValueError):
            load_generator(str(path))
