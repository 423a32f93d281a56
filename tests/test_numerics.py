"""Tests for the shared numeric utilities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliding_window_conv as sliding
from advgrad import generator
from advgrad.attacks import (
    MAX_STEPS, AttackConfig, Dim, Emi, FixedScaleStep, SignStep, Tim, Vt, config_from_dict,
    dim_transform, project,
)
from advgrad.generator import (
    MAX_TOTAL_STEPS, GeneratorTrainConfig, ScalingFactorGenerator, load_generator, save_generator,
)
from advgrad.harness import ExperimentConfig
from advgrad.models import MAX_EPOCHS, TrainConfig
from advgrad.numerics import (
    ImageShape,
    _conv3x3,
    _conv3x3_backward,
    _conv3x3_gather,
    _conv3x3_scatter,
    finite_diff_gradient,
    finite_diff_hessian,
    gaussian_kernel_2d,
    make_rng,
)


class TestImageShape:
    def test_dims_and_size(self):
        s = ImageShape(8, 8, 1)
        assert s.dims == (8, 8, 1)
        assert s.size == 64

    def test_rgb_size(self):
        assert ImageShape(32, 32, 3).size == 3072

    @pytest.mark.parametrize("dims", [(0, 8, 1), (8, 0, 1), (8, 8, 0), (-1, 8, 1),
                                      (8.0, 8, 1), (True, 8, 1)])
    def test_rejects_degenerate_dims(self, dims):
        with pytest.raises(ValueError):
            ImageShape(*dims)


def _experiment(train_fraction):
    return ExperimentConfig(dataset={}, models=[], attacks=[{}], sources=["a"], targets=["a"],
                            seeds=[0], output_dir="out", train_fraction=train_fraction)


# every real-valued setting: (name, a call that sets it to v, its interval, a
# value inside it); each is checked by _check_real
REAL_SETTINGS = [
    ("alpha", lambda v: SignStep(v), "(0, inf)", 2),
    ("gamma", lambda v: FixedScaleStep(v), "(0, inf)", 16),
    ("p", lambda v: Dim(p=v), "[0, 1]", 1),
    ("min_fraction", lambda v: Dim(min_fraction=v), "(0, 1]", 1),
    ("sigma", lambda v: Tim(sigma=v), "(0, inf]", 1),
    ("beta", lambda v: Vt(beta=v), "[0, inf)", 2),
    ("eta", lambda v: Emi(eta=v), "[0, inf)", 7),
    ("epsilon", lambda v: AttackConfig(epsilon=v, steps=1, step_rule=SignStep(1.0)),
     "[0, inf]", 16),
    ("momentum", lambda v: AttackConfig(epsilon=8.0, steps=1, step_rule=SignStep(1.0),
                                        momentum=v), "[0, inf)", 1),
    ("p", lambda v: dim_transform(np.zeros((4, 4, 1)), v, make_rng(0)), "[0, 1]", 1),
    # unchecked, 0.0 shrank a side to nothing in 14 of 50 seeds and NaN
    # raised from math.ceil
    ("min_fraction", lambda v: dim_transform(np.zeros((4, 4, 1)), 1.0, make_rng(0),
                                             min_fraction=v), "(0, 1]", 1),
    ("epsilon", lambda v: project(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), v), "[0, inf]", 8),
    ("learning_rate", lambda v: TrainConfig(learning_rate=v), "(0, inf)", 1),
    ("learning_rate", lambda v: GeneratorTrainConfig(total_steps=1, attack_steps=1,
                                                     learning_rate=v, epsilon=8.0),
     "(0, inf)", 1),
    ("epsilon", lambda v: GeneratorTrainConfig(total_steps=1, attack_steps=1,
                                               learning_rate=0.1, epsilon=v), "[0, inf]", 8),
    ("head_scale", lambda v: ScalingFactorGenerator(1, ImageShape(2, 2, 1), head_scale=v,
                                                    hidden=(2, 2)), "(0, inf)", 10),
    ("train_fraction", _experiment, "(0, 1)", 0.5),
    ("sigma", lambda v: gaussian_kernel_2d(3, v), "(0, inf]", 1),
    ("h", lambda v: finite_diff_gradient(lambda x: 0.0, np.zeros(1), h=v), "(0, inf]", 1),
    ("h", lambda v: finite_diff_hessian(lambda x: 0.0, np.zeros(1), h=v), "(0, inf]", 1),
]
REAL_IDS = ["SignStep", "FixedScaleStep", "Dim-p", "Dim-min_fraction", "Tim", "Vt", "Emi",
            "AttackConfig-epsilon", "AttackConfig-momentum", "dim_transform",
            "dim_transform-min_fraction", "project",
            "TrainConfig", "GeneratorTrainConfig-learning_rate", "GeneratorTrainConfig-epsilon",
            "ScalingFactorGenerator", "ExperimentConfig", "gaussian_kernel_2d",
            "finite_diff_gradient", "finite_diff_hessian"]


def just_outside(interval):
    """The floats next to the interval's ends that lie outside it."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    out = [np.nextafter(low, -math.inf) if interval[0] == "[" else low]
    if interval[-1] == ")":
        out.append(high)
    elif high < math.inf:
        out.append(np.nextafter(high, math.inf))
    return out


class TestRealSettings:
    @pytest.mark.parametrize("name,make,interval,inside", REAL_SETTINGS, ids=REAL_IDS)
    def test_rejects_a_string_a_bool_nan_and_a_value_just_outside(self, name, make, interval,
                                                                  inside):
        # a string raised TypeError from a comparison, and True ran as 1
        for value in ["1", str(inside), True, False, np.bool_(True), math.nan, np.float32("nan"),
                      [inside], *just_outside(interval)]:
            message = f"{name} must be a real number in {interval}, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(value)

    @pytest.mark.parametrize("name,make,interval,inside", REAL_SETTINGS, ids=REAL_IDS)
    def test_accepts_a_json_int_a_float_and_numpy_reals(self, name, make, interval, inside):
        values = [inside, float(inside), np.float64(inside), np.float32(inside)]
        if float(inside).is_integer():
            values += [int(inside), np.int64(inside), np.uint8(inside)]
        for value in values:
            make(value)


ONE_STEP_GENERATOR = ScalingFactorGenerator(1, ImageShape(2, 2, 1), hidden=(2, 2))


def _generator_checkpoint(steps, tmp_path):
    """Load a one-step generator checkpoint whose steps key was set to steps."""
    path = tmp_path / "gen.json"
    save_generator(ONE_STEP_GENERATOR, str(path))
    path.write_text(path.read_text().replace('"steps": 1,', f'"steps": {steps},'))
    return load_generator(str(path))


# every count that sets a loop length or a number of parameter sets: (name, a
# call that sets it to v, its ceiling); each is checked by _check_count
COUNT_CEILINGS = [
    ("steps", lambda v, _: AttackConfig(epsilon=8.0, steps=v, step_rule=SignStep(1.0)),
     MAX_STEPS),
    ("steps", lambda v, _: config_from_dict(
        {"epsilon": 8.0, "steps": v, "step_rule": {"type": "sign", "alpha": 1.0}}), MAX_STEPS),
    ("epochs", lambda v, _: TrainConfig(epochs=v), MAX_EPOCHS),
    ("total_steps", lambda v, _: GeneratorTrainConfig(total_steps=v, attack_steps=1,
                                                      learning_rate=1.0, epsilon=8.0),
     MAX_TOTAL_STEPS),
    ("attack_steps", lambda v, _: GeneratorTrainConfig(total_steps=1, attack_steps=v,
                                                       learning_rate=1.0, epsilon=8.0),
     MAX_STEPS),
    ("steps", lambda v, _: ScalingFactorGenerator(v, ImageShape(2, 2, 1), hidden=(2, 2)),
     MAX_STEPS),
    ("steps", _generator_checkpoint, MAX_STEPS),
]
COUNT_IDS = ["AttackConfig", "config_from_dict", "TrainConfig",
             "GeneratorTrainConfig-total_steps", "GeneratorTrainConfig-attack_steps",
             "ScalingFactorGenerator", "generator-checkpoint"]


class TestCountCeilings:
    @pytest.mark.parametrize("name,make,ceiling", COUNT_CEILINGS, ids=COUNT_IDS)
    def test_a_count_past_its_ceiling_fails_in_its_check(self, name, make, ceiling,
                                                         tmp_path, monkeypatch):
        # unchecked, 2**70 steps or epochs ran without end, and a generator
        # built one parameter set per step; no stream may be made before the check
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator stream was made before the checks")

        monkeypatch.setattr(generator, "make_rng", no_draws)
        for value in (ceiling + 1, 2**70):
            message = f"{name} must be <= {ceiling}, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(value, tmp_path)

    @pytest.mark.parametrize("name,make,ceiling", COUNT_CEILINGS, ids=COUNT_IDS)
    def test_a_count_at_its_ceiling_passes_its_check(self, name, make, ceiling, tmp_path):
        if make is _generator_checkpoint:
            ceiling = 1  # the checkpoint holds one step set; the builder covers the ceiling
        make(ceiling, tmp_path)


class TestMakeRng:
    def test_same_key_reproduces(self):
        a = make_rng(7, 3).random(10)
        b = make_rng(7, 3).random(10)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = make_rng(7, 0).random(10)
        b = make_rng(7, 1).random(10)
        assert not np.array_equal(a, b)

    def test_streams_independent_of_consumption_order(self):
        # drawing from one stream must not perturb another
        r0 = make_rng(5, 0)
        r1 = make_rng(5, 1)
        r0.random(1000)
        from_interleaved = r1.random(4)
        assert np.array_equal(from_interleaved, make_rng(5, 1).random(4))

    def test_counter_based_bit_generator(self):
        assert isinstance(make_rng(0).bit_generator, np.random.Philox)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (2**63 - 1, 1000)])
    def test_an_in_range_key_keeps_its_draws(self, seed, stream):
        # the draws of the list key [int(seed), int(stream)] that make_rng used to build
        old = np.random.Generator(np.random.Philox(key=[seed, stream]))
        assert np.array_equal(make_rng(seed, stream).integers(0, 2**63, size=8),
                              old.integers(0, 2**63, size=8))

    @pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (2**63 - 1, 1000), (2**63, 5),
                                             (2**63 + 1, 5), (2**63 + 1000, 5), (2**64 - 1, 5)])
    def test_the_state_is_that_of_a_philox_keyed_directly(self, seed, stream):
        keyed = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        assert repr(make_rng(seed, stream).bit_generator.state) == repr(keyed.state)

    def test_seeds_from_2_to_the_63_get_distinct_keys(self):
        # a list key turned these into float64: the first three shared one
        # key, and 2**64 - 1 got seed 0's
        seeds = [0, 2**63, 2**63 + 1, 2**63 + 1000, 2**64 - 1]
        keys = [make_rng(s, 5).bit_generator.state["state"]["key"].tolist() for s in seeds]
        assert keys == [[s, 5] for s in seeds]
        assert not np.array_equal(make_rng(2**64 - 1).random(4), make_rng(0).random(4))

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True, np.int64(-1), "3", None], ids=repr)
    @pytest.mark.parametrize("which", ["seed", "stream"])
    def test_a_key_word_outside_the_64_bit_range_is_rejected(self, which, bad):
        with pytest.raises(ValueError, match=f"^{which} must be"):
            make_rng(**{"seed": 0, "stream": 0, which: bad})


class TestFiniteDiffGradient:
    def test_quadratic_is_exact_to_roundoff(self):
        # f(x) = x.Ax has gradient (A + A^T)x; central differences are exact
        # for quadratics up to floating-point cancellation
        rng = make_rng(0)
        A = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        grad = finite_diff_gradient(lambda v: float(v @ A @ v), x)
        expected = (A + A.T) @ x
        assert np.allclose(grad, expected, atol=1e-7)

    def test_sin_sum(self):
        x = np.array([0.3, -1.2, 2.0])
        grad = finite_diff_gradient(lambda v: float(np.sin(v).sum()), x)
        assert np.allclose(grad, np.cos(x), atol=1e-9)

    def test_preserves_input_shape(self):
        x = np.zeros((2, 3, 1))
        grad = finite_diff_gradient(lambda v: float((v**2).sum()), x)
        assert grad.shape == (2, 3, 1)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_raises_on_non_finite(self):
        with pytest.raises(FloatingPointError):
            finite_diff_gradient(lambda v: float("nan"), np.zeros(2))


class TestFiniteDiffHessian:
    def test_quadratic_hessian(self):
        rng = make_rng(1)
        B = rng.normal(size=(4, 4))
        H = B + B.T
        x = rng.normal(size=4)
        est = finite_diff_hessian(lambda v: float(0.5 * v @ H @ v), x)
        assert np.allclose(est, H, atol=1e-5)

    def test_result_is_symmetric(self):
        est = finite_diff_hessian(lambda v: float(np.exp(v).sum() + v[0] * v[1]),
                                  np.array([0.1, 0.2, -0.3]))
        assert np.array_equal(est, est.T)


class TestGaussianKernel:
    def test_frozen_values_k3_sigma1(self):
        # independent evaluation: exp(-r^2/2) on the 3x3 grid, normalized
        k = gaussian_kernel_2d(3, 1.0)
        assert k[1, 1] == pytest.approx(0.20417995557165805, rel=1e-12)
        assert k[0, 1] == pytest.approx(0.12384140315297394, rel=1e-12)
        assert k[0, 0] == pytest.approx(0.0751136079541115, rel=1e-12)

    def test_k1_is_identity(self):
        assert np.array_equal(gaussian_kernel_2d(1, 2.0), np.ones((1, 1)))

    @given(k=st.sampled_from([1, 3, 5, 7]), sigma=st.floats(0.2, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_normalized_and_symmetric(self, k, sigma):
        kernel = gaussian_kernel_2d(k, sigma)
        assert kernel.shape == (k, k)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(kernel, kernel.T)
        assert np.allclose(kernel, kernel[::-1, ::-1])
        assert kernel.min() > 0

    @pytest.mark.parametrize("k", [0, 2, 4, -3])
    def test_rejects_even_or_nonpositive_k(self, k):
        with pytest.raises(ValueError):
            gaussian_kernel_2d(k, 1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel_2d(3, 0.0)


def conv3x3_reference(x, W, b, stride, dout):
    """Nested-loop 3x3 convolution with zero padding 1, and its gradients for
    the upstream gradient dout, straight from the definition."""
    n, h, w, cin = x.shape
    cout = W.shape[3]
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    xp = np.zeros((n, h + 2, w + 2, cin))
    xp[:, 1:h + 1, 1:w + 1] = x
    out = np.zeros((n, ho, wo, cout))
    dxp = np.zeros_like(xp)
    dW = np.zeros_like(W)
    db = np.zeros(cout)
    for m in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    out[m, i, j, co] = b[co]
                    db[co] += dout[m, i, j, co]
                    for di in range(3):
                        for dj in range(3):
                            for ci in range(cin):
                                r, c = stride * i + di, stride * j + dj
                                out[m, i, j, co] += xp[m, r, c, ci] * W[di, dj, ci, co]
                                dW[di, dj, ci, co] += xp[m, r, c, ci] * dout[m, i, j, co]
                                dxp[m, r, c, ci] += W[di, dj, ci, co] * dout[m, i, j, co]
    return out, dxp[:, 1:h + 1, 1:w + 1], dW, db


class TestConv3x3:
    @given(n=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6),
           cin=st.integers(1, 3), cout=st.integers(1, 3), stride=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_nested_loops(self, n, h, w, cin, cout, stride, seed):
        rng = make_rng(seed, 80)
        x = rng.normal(size=(n, h, w, cin))
        W = rng.normal(size=(3, 3, cin, cout))
        b = rng.normal(size=cout)
        out, cache = _conv3x3(x, W, b, stride=stride)
        dout = rng.normal(size=out.shape)
        dx, dW, db = _conv3x3_backward(dout, cache, W)
        ref_out, ref_dx, ref_dW, ref_db = conv3x3_reference(x, W, b, stride, dout)
        assert out.shape == ref_out.shape
        for got, want in ((out, ref_out), (dx, ref_dx), (dW, ref_dW), (db, ref_db)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(n=st.integers(1, 33), h=st.integers(1, 17), w=st.integers(1, 17),
           cin=st.sampled_from([1, 2, 3, 4, 5, 6, 32]), cout=st.integers(1, 6),
           stride=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_sliding_window_pair_bit_for_bit(self, n, h, w, cin, cout, stride, seed):
        rng = make_rng(seed, 81)
        x = rng.normal(size=(n, h, w, cin))
        W = rng.normal(size=(3, 3, cin, cout))
        b = rng.normal(size=cout)
        out, cache = _conv3x3(x, W, b, stride=stride)
        ref_out, ref_cache = sliding._conv3x3(x, W, b, stride=stride)
        dout = rng.normal(size=out.shape)
        got = (out,) + _conv3x3_backward(dout, cache, W)
        want = (ref_out,) + sliding._conv3x3_backward(dout, ref_cache, W)
        if n == w == cout == 1:
            # here the sliding-window im2col matrix is a view whose rows overlap
            # in memory; numpy multiplies it by the weight vector with its own
            # loop instead of BLAS, so the two agree to rounding only
            for g, r in zip(got, want):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)
        else:
            for g, r in zip(got, want):
                assert g.shape == r.shape
                assert np.array_equal(g, r)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_params_false_gives_the_same_dx_and_no_weight_gradients(self, stride):
        rng = make_rng(3, 82)
        x = rng.normal(size=(5, 7, 6, 3))
        W = rng.normal(size=(3, 3, 3, 4))
        out, cache = _conv3x3(x, W, rng.normal(size=4), stride=stride)
        dout = rng.normal(size=out.shape)
        dx, dW, db = _conv3x3_backward(dout, cache, W, params=False)
        assert dW is None and db is None
        assert np.array_equal(dx, _conv3x3_backward(dout, cache, W)[0])

    def test_index_tables_are_cached_and_read_only(self):
        gather = _conv3x3_gather(5, 4, 3, 2)
        scatter = _conv3x3_scatter(5, 4, 3, 2, 7)
        assert gather is _conv3x3_gather(5, 4, 3, 2)
        assert scatter is _conv3x3_scatter(5, 4, 3, 2, 7)
        for table in (gather, scatter):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_index_table_caches_are_bounded(self):
        W, b = np.zeros((3, 3, 1, 1)), np.zeros(1)
        # more distinct (shape, n) keys than either cache holds
        for n in range(1, _conv3x3_scatter.cache_info().maxsize + 10):
            out, cache = _conv3x3(np.zeros((n, 2, n, 1)), W, b)
            _conv3x3_backward(out, cache, W)
        for cached in (_conv3x3_gather, _conv3x3_scatter):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize == info.maxsize
