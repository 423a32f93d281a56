"""Tests for the per-step scaling-factor generator and adaptive attack."""

import dataclasses
import json
import math

import numpy as np
import pytest

import sliding_window_conv as sliding
from advgrad import generator
from advgrad.attacks import ensemble_gradient, project
from advgrad.generator import (
    GeneratorTrainConfig,
    ScalingFactorGenerator,
    load_generator,
    run_attack_adaptive,
    save_generator,
    train_generator,
)
from advgrad.harness import synth_dataset
from advgrad.models import Model, TrainConfig, build_model, train_classifier
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

    def test_train_config_rejects_negative_total_steps(self):
        with pytest.raises(ValueError, match="total_steps"):
            GeneratorTrainConfig(total_steps=-1, attack_steps=2, learning_rate=0.1,
                                 epsilon=8.0)

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
    def test_train_config_rejects_non_finite_learning_rate(self, learning_rate):
        with pytest.raises(ValueError, match="learning rate"):
            GeneratorTrainConfig(total_steps=1, attack_steps=2, learning_rate=learning_rate,
                                 epsilon=8.0)

    # a bad epsilon fails when built, also with total_steps=0, where no
    # projection would run to catch it
    @pytest.mark.parametrize("epsilon", [-1.0, math.nan])
    @pytest.mark.parametrize("total_steps", [0, 1])
    def test_train_config_rejects_a_bad_epsilon(self, epsilon, total_steps):
        with pytest.raises(ValueError, match="epsilon"):
            GeneratorTrainConfig(total_steps=total_steps, attack_steps=2, learning_rate=0.1,
                                 epsilon=epsilon)

    # unchecked, attack_steps=True built a generator whose steps was True, and
    # total_steps=2.5 failed only inside the training loop
    @pytest.mark.parametrize("field", ["total_steps", "attack_steps"])
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, np.float64(2.0), "3", None])
    def test_train_config_rejects_a_count_that_is_not_an_integer(self, field, value):
        counts = {"total_steps": 1, "attack_steps": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GeneratorTrainConfig(**counts, learning_rate=0.1, epsilon=8.0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True], ids=repr)
    def test_train_config_rejects_a_seed_make_rng_would_reject(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            GeneratorTrainConfig(total_steps=1, attack_steps=2, learning_rate=0.1,
                                 epsilon=8.0, seed=seed)

    def test_train_config_takes_numpy_integer_counts(self):
        cfg = GeneratorTrainConfig(total_steps=np.int64(2), attack_steps=np.int32(3),
                                   learning_rate=0.1, epsilon=8.0)
        assert (cfg.total_steps, cfg.attack_steps) == (2, 3)

    def test_train_config_accepts_an_infinite_epsilon(self):
        cfg = GeneratorTrainConfig(total_steps=1, attack_steps=2, learning_rate=0.1,
                                   epsilon=math.inf)
        assert cfg.epsilon == math.inf


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


    @pytest.mark.parametrize("arch,shape", [("mlp", SHAPE), ("mlp", ImageShape(4, 4, 3)),
                                            ("conv", ImageShape(16, 16, 2))])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_a_batch_gives_each_row_the_one_image_gamma_bit_for_bit(self, arch, shape, n):
        gen = ScalingFactorGenerator(3, shape, arch=arch, seed=4, hidden=(12, 6),
                                     conv_channels=4, head_scale=1e3)
        rng = make_rng(n, 61)
        x = rng.uniform(0, 255, size=(n,) + shape.dims)
        grad = rng.normal(scale=1e-4, size=(n,) + shape.dims)
        grad[0] = 0.0  # a zero gradient reads 0 in the generator's input
        for t in range(gen.steps):
            gammas = gen.gamma_forward(t, x, grad)
            assert gammas.shape == (n,) and gammas.dtype == np.float64
            assert gammas.tolist() == [gen.gamma_forward(t, xi, gi) for xi, gi in zip(x, grad)]
        assert isinstance(gen.gamma_forward(0, x[0], grad[0]), float)


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

    def test_conv_kernels_match_finite_differences_on_16x16(self):
        # on 8x8 inputs the K gradients are identically zero (see below), so
        # the oracle above cannot see the conv stack; 16x16 can
        shape = ImageShape(16, 16, 1)
        gen = ScalingFactorGenerator(1, shape, arch="conv", seed=8, hidden=(12, 6),
                                     conv_channels=4)
        rng = make_rng(5, 63)
        x = rng.uniform(0, 255, size=shape.dims)
        grad = rng.normal(scale=1e-4, size=shape.dims)
        analytic = gen.parameter_gradient(0, x, grad, 1.0)
        h = 1e-6
        for name in ("K1", "K2", "K3"):
            flat = gen.theta[0][name].reshape(-1)
            for i in rng.choice(flat.size, size=4, replace=False):
                old = flat[i]
                flat[i] = old + h
                up = gen.gamma_forward(0, x, grad)
                flat[i] = old - h
                down = gen.gamma_forward(0, x, grad)
                flat[i] = old
                fd = (up - down) / (2 * h)
                assert analytic[name].reshape(-1)[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)
            assert np.abs(analytic[name]).max() > 1e-6

    def test_conv_arch_matches_per_tap_loops(self):
        # reference: the conv stack as written with per-tap tensordot loops,
        # before it used the shared im2col conv primitive
        def conv_s2(x, W, b):
            ho, wo = x.shape[0] // 2, x.shape[1] // 2
            xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
            out = np.zeros((ho, wo, W.shape[3]))
            for di in range(3):
                for dj in range(3):
                    out += np.tensordot(xp[di:di + 2 * ho:2, dj:dj + 2 * wo:2], W[di, dj],
                                        axes=([2], [0]))
            return out + b, xp

        def conv_s2_backward(dout, xp, W):
            ho, wo, _ = dout.shape
            dW, dxp = np.zeros_like(W), np.zeros_like(xp)
            for di in range(3):
                for dj in range(3):
                    sl = np.s_[di:di + 2 * ho:2, dj:dj + 2 * wo:2]
                    dW[di, dj] = np.tensordot(xp[sl], dout, axes=([0, 1], [0, 1]))
                    dxp[sl] += np.tensordot(dout, W[di, dj], axes=([2], [1]))
            return dxp[1:-1, 1:-1], dW, dout.sum(axis=(0, 1))

        def norm(z):
            inv = 1.0 / np.sqrt(z.var(axis=(0, 1)) + 1e-5)
            return (z - z.mean(axis=(0, 1))) * inv, inv

        def norm_backward(dy, xhat, inv):
            n = xhat.shape[0] * xhat.shape[1]
            return (inv / n) * (n * dy - dy.sum(axis=(0, 1)) - xhat * (dy * xhat).sum(axis=(0, 1)))

        def reference(p, x, grad, upstream, head_scale):
            a = np.concatenate([x / 255.0 - 0.5, grad / np.abs(grad).max()], axis=2)
            stages = []
            for i in (1, 2, 3):
                z, xp = conv_s2(a, p[f"K{i}"], p[f"c{i}"])
                a, inv = norm(z)
                stages.append((xp, a, inv))
            h = p["W1"] @ a.reshape(-1) + p["b1"]
            raw = float(p["W2"] @ h + p["b2"][0])
            draw = upstream * head_scale / (1.0 + np.exp(-raw))
            dh = draw * p["W2"]
            grads = {"W2": draw * h, "b2": np.array([draw]),
                     "W1": np.outer(dh, a.reshape(-1)), "b1": dh}
            da = (p["W1"].T @ dh).reshape(a.shape)
            for i in (3, 2, 1):
                xp, xhat, inv = stages[i - 1]
                da, grads[f"K{i}"], grads[f"c{i}"] = conv_s2_backward(
                    norm_backward(da, xhat, inv), xp, p[f"K{i}"])
            return head_scale * np.logaddexp(0.0, raw), grads

        # 16x16 keeps a 2x2 map after three stride-2 stages; on 8x8 the last
        # instance norm sees a 1x1 map, outputs zeros and zeroes the K grads
        shape = ImageShape(16, 16, 2)
        gen = ScalingFactorGenerator(2, shape, arch="conv", seed=6, hidden=(12, 6),
                                     conv_channels=4)
        rng = make_rng(12, 60)
        for _ in range(3):
            x = rng.uniform(0, 255, size=shape.dims)
            grad = rng.normal(scale=1e-4, size=shape.dims)
            for t in range(gen.steps):
                gamma, want = reference(gen.theta[t], x, grad, 0.7, gen.head_scale)
                assert gen.gamma_forward(t, x, grad) == pytest.approx(gamma, rel=1e-12)
                got = gen.parameter_gradient(t, x, grad, 0.7)
                assert list(got) == list(want)
                assert all(np.abs(want[f"K{i}"]).max() > 0 for i in (1, 2, 3))
                # the c_i gradients are zero up to rounding (instance norm
                # removes a bias), so the tolerance follows the largest entry
                scale = max(np.abs(v).max() for v in want.values())
                for k in want:
                    np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-12 * scale)

    def test_conv_arch_matches_the_sliding_window_kernel_bit_for_bit(self, monkeypatch):
        # the conv stack runs the shared conv primitive at stride 2
        shape = ImageShape(16, 16, 2)
        gen = ScalingFactorGenerator(2, shape, arch="conv", seed=9, hidden=(12, 6),
                                     conv_channels=4)
        rng = make_rng(13, 60)
        x = rng.uniform(0, 255, size=shape.dims)
        grad = rng.normal(scale=1e-4, size=shape.dims)
        got = [(gen.gamma_forward(t, x, grad), gen.parameter_gradient(t, x, grad, 0.7))
               for t in range(gen.steps)]
        monkeypatch.setattr(generator, "_conv3x3", sliding._conv3x3)
        monkeypatch.setattr(generator, "_conv3x3_backward", sliding._conv3x3_backward)
        for t, (gamma, grads) in enumerate(got):
            assert gamma == gen.gamma_forward(t, x, grad)
            want = gen.parameter_gradient(t, x, grad, 0.7)
            assert list(grads) == list(want)
            assert all(np.array_equal(grads[k], want[k]) for k in want)

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

    def test_rejects_an_empty_dataset(self):
        ds = synth_dataset("blobs", 30, SHAPE, seed=0).subset(np.arange(0))
        pool = [build_model(kind, SHAPE, 3, seed=0) for kind in ("mlp-1-hidden", "tiny-conv")]
        cfg = GeneratorTrainConfig(total_steps=1, attack_steps=2, learning_rate=0.1, epsilon=8.0)
        with pytest.raises(ValueError, match="non-empty dataset"):
            train_generator(ds, pool, cfg)
        # with no episode to run, no example is needed
        fresh = train_generator(ds, pool, dataclasses.replace(cfg, total_steps=0), hidden=(12, 6))
        assert len(fresh.theta) == 2

    @pytest.mark.parametrize("shape,classes,message", [
        (SHAPE, 2, r"pool model 1 takes \(8, 8, 1\) images of 2 classes"),
        (ImageShape(8, 8, 3), 3, r"pool model 1 takes \(8, 8, 3\) images of 3 classes"),
    ], ids=["classes", "image-shape"])
    def test_rejects_a_pool_model_unlike_the_dataset_before_any_draw(self, monkeypatch, shape,
                                                                     classes, message):
        # a 2-class model in a 3-class pool used to fail only when an example
        # of label 2 was drawn, mid-training
        ds = synth_dataset("blobs", 30, SHAPE, seed=0, num_classes=3)
        pool = [build_model("mlp-1-hidden", SHAPE, 3, seed=0),
                build_model("mlp-1-hidden", shape, classes, seed=1)]
        cfg = GeneratorTrainConfig(total_steps=5, attack_steps=2, learning_rate=0.1,
                                   epsilon=8.0)

        def no_draws(*args, **kwargs):
            raise AssertionError("a stream was made before the checks")

        monkeypatch.setattr(generator, "make_rng", no_draws)
        with pytest.raises(ValueError, match=message):
            train_generator(ds, pool, cfg)

    @pytest.mark.parametrize("total_steps,attack_steps", [(0, 3), (1, 1), (7, 3), (2, 6)])
    def test_one_gradient_call_per_pool_model_per_front(self, monkeypatch, total_steps,
                                                        attack_steps):
        # total_steps + attack_steps fronts: the first only takes the first
        # episode's first gradient, the last only scores the last episode's
        # last step
        ds = synth_dataset("blobs", 30, SHAPE, seed=3, num_classes=3)
        pool = [build_model(kind, SHAPE, 3, seed=s)
                for s, kind in enumerate(("mlp-1-hidden", "tiny-conv", "softmax-linear"))]
        calls = []
        real = Model.input_gradient

        def counted(model, x, y):
            calls.append(len(x))
            return real(model, x, y)

        monkeypatch.setattr(Model, "input_gradient", counted)
        cfg = GeneratorTrainConfig(total_steps=total_steps, attack_steps=attack_steps,
                                   learning_rate=1.0, epsilon=8.0, seed=2)
        train_generator(ds, pool, cfg, hidden=(12, 6))
        assert len(calls) <= len(pool) * (total_steps + attack_steps)
        # each step reads one gradient row (the first step's comes with the
        # episode's entry, the others as next-step rows) and one score row
        assert sum(calls) == total_steps * (2 * attack_steps)

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
            return x_adv, trace, [m.predict(x_adv) != y for m in targets]

        gen = ScalingFactorGenerator(4, SHAPE, arch=arch, seed=3, hidden=(12, 6),
                                     conv_channels=4, head_scale=1e4)
        sources = [build_model(k, SHAPE, 3, seed=s)
                   for s, k in enumerate(("mlp-1-hidden", "tiny-conv"))]
        targets = sources + [build_model("softmax-linear", SHAPE, 3, seed=9)]
        rng = make_rng(11, 64)
        for i in range(6):
            x = rng.uniform(0, 255, size=SHAPE.dims)
            y = i % 3
            adv, trace, success = reference(gen, sources, x, y, 4.0, targets)
            res = run_attack_adaptive(gen, sources, x, y, 4.0, 4, target_models=targets)
            assert np.array_equal(res.adversarial, adv)
            assert res.step_trace == trace
            assert res.success == success
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

    @pytest.mark.parametrize("edit,message", [
        (lambda theta: theta.pop(), "2 step sets for 3 steps"),
        (lambda theta: theta.append(theta[0]), "4 step sets for 3 steps"),
        (lambda theta: theta[1].pop("b3"), "step 1 .* expected"),
        (lambda theta: theta[2].update(W1={"shape": [1], "data": [0.0]}),
         "step 2 .* 'W1' has shape"),
    ], ids=["too-few-steps", "too-many-steps", "missing-name", "wrong-shape"])
    def test_rejects_parameters_unlike_the_generator_it_builds(self, tmp_path, edit,
                                                              message):
        # unchecked, a 3-step checkpoint cut to 2 sets loaded, then raised
        # IndexError at attack step 2
        path = tmp_path / "gen.json"
        save_generator(small_generator(steps=3, seed=7), str(path))
        doc = json.loads(path.read_text())
        edit(doc["theta"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_generator(str(path))

    def test_loads_the_v1_layout(self, tmp_path):
        # a checkpoint in the advgrad-generator-v1 layout, written by hand
        step = {
            "W1": {"shape": [2, 2], "data": [0.1, -0.2, 0.3, 0.4]},
            "b1": {"shape": [2], "data": [0.0, 0.1]},
            "W2": {"shape": [1, 2], "data": [0.5, -0.5]},
            "b2": {"shape": [1], "data": [0.2]},
            "W3": {"shape": [1], "data": [1.5]},
            "b3": {"shape": [1], "data": [-0.3]},
        }
        doc = {"format": "advgrad-generator-v1", "arch": "mlp", "steps": 1,
               "head_scale": 2.0, "hidden": [2, 1], "conv_channels": 32,
               "image_shape": [1, 1, 1], "theta": [step]}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        gen = load_generator(str(path))
        assert (gen.arch, gen.steps, gen.hidden) == ("mlp", 1, (2, 1))
        assert np.array_equal(gen.theta[0]["W1"], np.array([[0.1, -0.2], [0.3, 0.4]]))
        x, grad = np.array([[[255.0]]]), np.array([[[-3.0]]])
        v = np.array([0.5, -1.0])  # standardized pixel, peak-normalized gradient
        h1 = np.tanh(np.array([[0.1, -0.2], [0.3, 0.4]]) @ v + np.array([0.0, 0.1]))
        h2 = np.tanh(np.array([[0.5, -0.5]]) @ h1 + 0.2)
        raw = 1.5 * h2[0] - 0.3
        assert gen.gamma_forward(0, x, grad) == pytest.approx(
            2.0 * np.logaddexp(0.0, raw), rel=1e-12)
        save_generator(gen, str(tmp_path / "again.json"))
        assert json.loads((tmp_path / "again.json").read_text()) == doc
