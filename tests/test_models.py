"""Tests for the desk-scale classifiers and their hand-written gradients."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_models
import sliding_window_conv as sliding
from advgrad import models, numerics
from advgrad.models import (
    LabeledDataset,
    _avgpool2,
    _avgpool2_backward,
    _avgpool2_strided,
    _log_softmax,
    _pool_tanh_backward,
    _softmax,
    TrainConfig,
    accuracy,
    build_model,
    load_model,
    save_model,
    train_classifier,
)
from advgrad.numerics import ImageShape, finite_diff_gradient, make_rng

SHAPE = ImageShape(8, 8, 1)
KINDS = ("softmax-linear", "mlp-1-hidden", "tiny-conv")


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, signed zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_image(rng, shape=SHAPE):
    return rng.uniform(0.0, 255.0, size=shape.dims)


def without(key):
    """A checkpoint edit that drops key from the document."""
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def tiny_dataset(n=30, seed=0, num_classes=3):
    rng = make_rng(seed, 50)
    images = rng.uniform(0.0, 255.0, size=(n,) + SHAPE.dims)
    labels = np.arange(n) % num_classes
    return LabeledDataset(images, labels, num_classes)


class TestLabeledDataset:
    def test_length_and_shape(self):
        ds = tiny_dataset(12)
        assert len(ds) == 12
        assert ds.image_shape == SHAPE

    def test_subset_keeps_classes(self):
        ds = tiny_dataset(12)
        sub = ds.subset(np.array([0, 5, 7]))
        assert len(sub) == 3
        assert sub.num_classes == ds.num_classes

    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.full((2, 4, 4, 1), 300.0), np.zeros(2, dtype=int), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, bad):
        images = np.zeros((2, 4, 4, 1))
        images[1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LabeledDataset(images, np.zeros(2, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match=re.escape("labels out of range for 3 classes")):
            LabeledDataset(np.zeros((2, 4, 4, 1)), np.array([0, 5]), 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 4, 4, 1)), np.zeros(3, dtype=int), 2)

    @pytest.mark.parametrize("labels,num_classes,message", [
        ([0.5, 1.7], 3, "labels must be integers, got float64"),
        ([True, False], 3, "labels must be integers, got bool"),
        (["0", "1"], 3, "labels must be integers, got <U1"),
        ([0, 1], 3.0, "num_classes must be an integer, got 3.0"),
        ([0, 1], 0, "num_classes must be >= 1, got 0"),
    ], ids=["floats", "bools", "strings", "float-classes", "no-classes"])
    def test_rejects_labels_that_are_not_integers(self, labels, num_classes, message):
        # [0.5, 1.7] was truncated to [0, 1] without a word
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledDataset(np.zeros((2, 2, 2, 1)), labels, num_classes)

    def test_an_empty_label_list_stays_valid(self):
        ds = LabeledDataset(np.zeros((0, 2, 2, 1)), [], 3)
        assert len(ds) == 0 and ds.labels.dtype == np.int64


class TestForward:
    @pytest.mark.parametrize("kind", KINDS)
    def test_logit_count(self, kind):
        model = build_model(kind, SHAPE, 3, seed=0)
        logits = model.logits(random_image(make_rng(0)))
        assert logits.shape == (3,)

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_build(self, kind):
        x = random_image(make_rng(1))
        a = build_model(kind, SHAPE, 3, seed=4).logits(x)
        b = build_model(kind, SHAPE, 3, seed=4).logits(x)
        assert np.array_equal(a, b)

    def test_uniform_logits_loss_is_log_k(self):
        # zeroed weights give uniform softmax, so the loss is ln(num_classes)
        model = build_model("softmax-linear", SHAPE, 10, seed=0)
        model.params["W"][:] = 0.0
        loss = model.cross_entropy_loss(random_image(make_rng(2)), 3)
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)

    def test_two_class_margin_loss(self):
        # logits (4, 0) on the true class: loss = ln(1 + e^-4)
        model = build_model("softmax-linear", ImageShape(1, 1, 1), 2, seed=0)
        model.params["W"][:] = 0.0
        model.params["b"] = np.array([4.0, 0.0])
        loss = model.cross_entropy_loss(np.array([[[128.0]]]), 0)
        assert loss == pytest.approx(0.018149927917809738, rel=1e-12)

    def test_predict_matches_argmax(self):
        model = build_model("mlp-1-hidden", SHAPE, 3, seed=0)
        x = random_image(make_rng(3))
        assert model.predict(x) == int(np.argmax(model.logits(x)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_wrong_shape(self, kind):
        model = build_model(kind, SHAPE, 3, seed=0)
        with pytest.raises(ValueError):
            model.logits(np.zeros((4, 4, 1)))

    def test_rejects_label_out_of_range(self):
        model = build_model("softmax-linear", SHAPE, 3, seed=0)
        with pytest.raises(ValueError):
            model.cross_entropy_loss(random_image(make_rng(0)), 3)

    def test_tiny_conv_needs_divisible_sides(self):
        with pytest.raises(ValueError):
            build_model("tiny-conv", ImageShape(6, 6, 1), 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_model("resnet-50", SHAPE, 3)


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_input_gradient_matches_finite_differences(self, kind):
        model = build_model(kind, SHAPE, 3, seed=1)
        rng = make_rng(9)
        for _ in range(3):
            x = random_image(rng)
            y = int(rng.integers(3))
            analytic = model.input_gradient(x, y)
            oracle = finite_diff_gradient(lambda v: model.cross_entropy_loss(v, y), x)
            denom = max(np.linalg.norm(oracle), 1e-12)
            assert np.linalg.norm(analytic - oracle) / denom < 1e-6

    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_gradients_match_finite_differences(self, kind):
        model = build_model(kind, SHAPE, 3, seed=2)
        rng = make_rng(10)
        x = random_image(rng)
        y = 1
        grads = model.parameter_gradients(x, y)
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            flat = model.params[name].reshape(-1)
            # probe a handful of coordinates per tensor
            idx = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for i in idx:
                h = 1e-5
                old = flat[i]
                flat[i] = old + h
                up = model.cross_entropy_loss(x, y)
                flat[i] = old - h
                down = model.cross_entropy_loss(x, y)
                flat[i] = old
                fd = (up - down) / (2 * h)
                assert g.reshape(-1)[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_tiny_conv_input_gradient_matches_finite_differences_on_16x16x3(self):
        # the conv index tables are keyed by shape, so check a second one
        shape = ImageShape(16, 16, 3)
        model = build_model("tiny-conv", shape, 3, seed=5)
        rng = make_rng(14)
        x = random_image(rng, shape)
        y = 2
        analytic = model.input_gradient(x, y)
        # pixel gradients here are about 1e-6, so a step of 1e-5 would leave
        # the central difference dominated by the rounding of the loss
        oracle = finite_diff_gradient(lambda v: model.cross_entropy_loss(v, y), x, h=1e-3)
        assert np.linalg.norm(analytic - oracle) / np.linalg.norm(oracle) < 1e-6

    def test_tiny_conv_parameter_gradients_match_finite_differences_on_16x16x3(self):
        shape = ImageShape(16, 16, 3)
        model = build_model("tiny-conv", shape, 3, seed=6)
        rng = make_rng(15)
        x = random_image(rng, shape)
        y = 0
        grads = model.parameter_gradients(x, y)
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            flat = model.params[name].reshape(-1)
            oracle = finite_diff_gradient(
                lambda v: _loss_with(model, name, v, x, y), flat.copy())
            assert np.linalg.norm(g.reshape(-1) - oracle) / np.linalg.norm(oracle) < 1e-6

    def test_softmax_linear_gradient_closed_form(self):
        # for the linear model, d loss / dx = W^T (p - onehot) / 255
        model = build_model("softmax-linear", SHAPE, 3, seed=3)
        x = random_image(make_rng(11))
        p = np.exp(model.logits(x))
        p /= p.sum()
        onehot = np.zeros(3)
        onehot[2] = 1.0
        expected = (model.params["W"].T @ (p - onehot)).reshape(SHAPE.dims) / 255.0
        assert np.allclose(model.input_gradient(x, 2), expected, atol=1e-12)


def _loss_with(model, name, values, x, y):
    """Loss at (x, y) with parameter `name` set to the flat `values`."""
    saved = model.params[name]
    model.params[name] = values.reshape(saved.shape)
    try:
        return model.cross_entropy_loss(x, y)
    finally:
        model.params[name] = saved


def per_image_sgd(dataset, kind, cfg):
    """Reference: the SGD loop before batching, one parameter_gradients call
    per image summed into the minibatch gradient."""
    model = build_model(kind, dataset.image_shape, dataset.num_classes, seed=cfg.seed)
    rng = make_rng(cfg.seed, stream=1)
    n = len(dataset)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            total = {k: np.zeros_like(v) for k, v in model.params.items()}
            for i in batch:
                for k, g in model.parameter_gradients(dataset.images[i],
                                                      int(dataset.labels[i])).items():
                    total[k] += g
            scale = cfg.learning_rate / len(batch)
            for k in model.params:
                model.params[k] -= scale * total[k]
    return model


class TestBatchedCore:
    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_single_images(self, kind, n):
        model = build_model(kind, SHAPE, 3, seed=4)
        ds = tiny_dataset(n, seed=n)
        logits, _ = model._forward(model._standardize(ds.images))
        dx, grads = model._loss_backward(ds.images, ds.labels, params=True)
        dx_only, none = model._loss_backward(ds.images, ds.labels, params=False)
        assert none is None
        assert np.array_equal(dx_only, dx)
        total = {k: np.zeros_like(v) for k, v in model.params.items()}
        for i, (x, y) in enumerate(zip(ds.images, ds.labels)):
            np.testing.assert_allclose(logits[i], model.logits(x), rtol=0, atol=1e-12)
            np.testing.assert_allclose(dx[i], model.input_gradient(x, int(y)),
                                       rtol=0, atol=1e-12)
            for k, g in model.parameter_gradients(x, int(y)).items():
                total[k] += g
        assert set(grads) == set(model.params)
        for k in total:
            np.testing.assert_allclose(grads[k], total[k], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_matches_per_image_loop(self, kind):
        # 30 images in minibatches of 8 leave a ragged last batch
        ds = tiny_dataset(30, seed=6)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.1, seed=2)
        trained, acc = train_classifier(ds, kind, cfg)
        reference = per_image_sgd(ds, kind, cfg)
        for k in reference.params:
            np.testing.assert_allclose(trained.params[k], reference.params[k],
                                       rtol=0, atol=1e-12)
        assert acc == np.mean([reference.predict(x) == y
                               for x, y in zip(ds.images, ds.labels)])

    @pytest.mark.parametrize("dims", [(8, 8, 1), (4, 4, 2), (16, 16, 3)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_stack_of_batches_matches_one_call_per_batch_bit_for_bit(self, kind, dims):
        # a product over all 96 rows at once would give some rows other bits
        model = build_model(kind, ImageShape(*dims), 3, seed=6)
        z = make_rng(9).uniform(-0.5, 0.5, size=(3, 32) + dims)
        logits, _ = model._forward(z)
        assert logits.shape == (3, 32, 3)
        for stacked, batch in zip(logits, z):
            assert np.array_equal(stacked, model._forward(batch)[0])

    def test_tiny_conv_convolves_a_stack_one_batch_at_a_time(self, monkeypatch):
        # so its im2col buffers stay the size of one batch's
        rows, conv = [], models._conv3x3
        monkeypatch.setattr(models, "_conv3x3", lambda x, *args, work=None: rows.append(len(x))
                            or conv(x, *args))
        build_model("tiny-conv", SHAPE, 3, seed=6)._forward(np.zeros((3, 32) + SHAPE.dims))
        assert rows == [32] * 6

    @pytest.mark.parametrize("kind", KINDS)
    def test_accuracy_matches_predict_across_chunks(self, kind):
        # 70 images span several forward chunks, the last one partial
        ds = tiny_dataset(70, seed=8)
        model = build_model(kind, SHAPE, 3, seed=5)
        expected = np.mean([model.predict(x) == y for x, y in zip(ds.images, ds.labels)])
        assert accuracy(model, ds) == expected

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 70])
    @pytest.mark.parametrize("kind", KINDS)
    def test_accuracy_returns_what_the_chunked_forward_loop_returned(self, kind, n):
        ds = tiny_dataset(n, seed=10 + n)
        for seed in range(3):
            model = build_model(kind, SHAPE, 3, seed=seed)
            assert accuracy(model, ds) == chunked_forward_accuracy(model, ds)


def chunked_forward_accuracy(model, dataset):
    """Reference: accuracy as it was before it called the batched predict, the
    forward core on 32-row chunks and np.argmax over each chunk's logits."""
    if len(dataset) == 0:
        return 0.0
    correct = 0
    for start in range(0, len(dataset), 32):
        chunk = slice(start, start + 32)
        logits, _ = model._forward(model._standardize(dataset.images[chunk]))
        correct += int(np.sum(np.argmax(logits, axis=1) == dataset.labels[chunk]))
    return correct / len(dataset)


class TestBatchedPredict:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           dims=st.sampled_from([(8, 8, 1), (4, 4, 2), (16, 16, 3)]),
           n=st.integers(1, 300), seed=st.integers(0, 2**16))
    @example(kind="tiny-conv", dims=(16, 16, 3), n=31, seed=0)
    @example(kind="mlp-1-hidden", dims=(8, 8, 1), n=32, seed=1)
    @example(kind="softmax-linear", dims=(4, 4, 2), n=33, seed=2)
    # one whole stack of 4 chunks at 8x8x1, one more row, and several stacks
    @example(kind="mlp-1-hidden", dims=(8, 8, 1), n=128, seed=3)
    @example(kind="softmax-linear", dims=(8, 8, 1), n=129, seed=4)
    @example(kind="tiny-conv", dims=(4, 4, 2), n=300, seed=5)
    def test_a_batch_predicts_what_each_image_predicts(self, kind, dims, n, seed):
        model = build_model(kind, ImageShape(*dims), 4, seed=seed)
        x = make_rng(seed, 51).uniform(0.0, 255.0, size=(n,) + dims)
        classes = model.predict(x)
        assert classes.shape == (n,) and classes.dtype == np.int64
        each = np.array([model.logits(image) for image in x])
        chunks = [model._forward(model._standardize(x[start:start + models.CHUNK_ROWS]))[0]
                  for start in range(0, n, models.CHUNK_ROWS)]
        np.testing.assert_allclose(np.concatenate(chunks), each, rtol=1e-12, atol=1e-12)
        assert np.array_equal(classes, np.argmax(np.concatenate(chunks), axis=1))
        top = np.sort(each, axis=1)
        clear = top[:, -1] - top[:, -2] > 1e-9
        assert clear.any()
        assert np.array_equal(classes[clear], [model.predict(image) for image in x[clear]])

    def test_an_empty_batch_predicts_no_classes(self):
        classes = build_model("tiny-conv", SHAPE, 3).predict(np.zeros((0,) + SHAPE.dims))
        assert classes.shape == (0,) and classes.dtype == np.int64

    def test_a_batch_of_another_shape_is_rejected(self):
        with pytest.raises(ValueError, match="batch shape"):
            build_model("mlp-1-hidden", SHAPE, 3).predict(np.zeros((2, 4, 4, 1)))

    def test_one_image_still_predicts_an_int(self):
        model = build_model("softmax-linear", SHAPE, 3)
        assert type(model.predict(np.zeros(SHAPE.dims))) is int


def log_softmax_whole_array(logits):
    """Reference: the log-softmax before it took an axis, reducing over the
    whole array (correct for one logit vector only)."""
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


class TestLogSoftmax:
    def test_vector_matches_the_whole_array_form_bit_for_bit(self):
        rng = make_rng(12)
        for scale in (1e-3, 1.0, 50.0, 800.0):
            logits = rng.normal(size=7) * scale
            assert np.array_equal(_log_softmax(logits), log_softmax_whole_array(logits))

    def test_each_row_of_a_batch_is_normalized_on_its_own(self):
        logits = make_rng(13).normal(size=(5, 4)) * 30.0
        out = _log_softmax(logits)
        for i, row in enumerate(logits):
            assert np.array_equal(out[i], _log_softmax(row))
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestSoftmax:
    # large logits overflow exp unless shifted, equal ones tie, and +-0.0 check
    # that the shift keeps the signs the keepdims form gives
    LOGITS = st.one_of(st.sampled_from([0.0, -0.0, 700.0, -700.0, 1e300, -1e300]),
                       st.floats(-1e3, 1e3))

    @settings(max_examples=300, deadline=None)
    @given(logits=hnp.arrays(np.float64, st.integers(1, 12), elements=LOGITS))
    def test_vector_equals_the_row_of_the_batch_form_bit_for_bit(self, logits):
        one, row = _softmax(logits), _softmax(logits[None])[0]
        assert np.array_equal(one, row)
        assert np.array_equal(np.signbit(one), np.signbit(row))

    def test_equal_logits_give_equal_probabilities(self):
        assert np.array_equal(_softmax(np.full(4, 3.5)), np.full(4, 0.25))

    # below SHORT_SOFTMAX logits a vector takes its max and sum in Python;
    # NaN and +-inf at any position, and +-0.0 ties, must keep the ufuncs' bits
    @settings(max_examples=500, deadline=None)
    @given(logits=hnp.arrays(np.float64, st.integers(1, models.SHORT_SOFTMAX - 1),
                             elements=st.one_of(LOGITS, st.sampled_from(
                                 [math.nan, -math.nan, math.inf, -math.inf]))))
    @example(logits=np.array([1.0, math.nan, 2.0]))
    @example(logits=np.array([-0.0, 0.0, -0.0]))
    @example(logits=np.array([-math.inf, -math.inf]))
    def test_a_short_vector_equals_the_ufunc_form_bit_for_bit(self, logits):
        assert len(logits) < models.SHORT_SOFTMAX
        with np.errstate(invalid="ignore"):  # inf - inf
            e = logits - np.maximum.reduce(logits)
            np.exp(e, out=e)
            e /= np.add.reduce(e)
            assert same_bits(_softmax(logits), e)

    def test_a_ten_class_one_image_gradient_keeps_the_reference_bits(self):
        # ten logits take the ufuncs' pairwise sum, as before the short path
        for kind in KINDS:
            for seed in range(4):
                model = build_model(kind, SHAPE, 10, seed=seed)
                twin = reference_models.reference_copy(model)
                x = random_image(make_rng(seed, 54))
                for label in (0, 9):
                    assert same_bits(model.input_gradient(x, label),
                                     twin.input_gradient(x, label))


class TestLabelCheck:
    BAD = [True, False, np.True_, 1.0, np.float64(1.0), "1", None]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("y", BAD, ids=repr)
    def test_rejects_non_integer_labels(self, kind, y):
        model = build_model(kind, SHAPE, 3, seed=0)
        x = random_image(make_rng(16))
        for method in (model.input_gradient, model.cross_entropy_loss,
                       model.parameter_gradients):
            with pytest.raises(ValueError, match="integer"):
                method(x, y)

    @pytest.mark.parametrize("kind", KINDS)
    def test_accepts_python_and_numpy_integers(self, kind):
        model = build_model(kind, SHAPE, 3, seed=0)
        x = random_image(make_rng(17))
        for y in (np.int64(2), np.int32(2), np.uint8(2)):
            assert np.array_equal(model.input_gradient(x, y), model.input_gradient(x, 2))
            assert model.cross_entropy_loss(x, y) == model.cross_entropy_loss(x, 2)
            got, want = model.parameter_gradients(x, y), model.parameter_gradients(x, 2)
            assert all(np.array_equal(got[k], want[k]) for k in want)


class TestConvKernel:
    """TinyConv against the sliding-window conv pair it used before the
    index-table kernel, and the pooling helpers against their numpy forms."""

    def test_pooling_matches_mean_and_repeat_bit_for_bit(self):
        rng = make_rng(18)
        for shape in ((1, 8, 8, 6), (7, 4, 6, 3), (32, 2, 2, 1)):
            x = rng.normal(size=shape)
            n, h, w, c = shape
            assert np.array_equal(_avgpool2(x),
                                  x.reshape(n, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4)))
            assert np.array_equal(_avgpool2_backward(x),
                                  np.repeat(np.repeat(x, 2, axis=1), 2, axis=2) / 4.0)
            quarter = (x / 4.0)[:, :, None, :, None]  # reference: the broadcast form
            assert np.array_equal(_avgpool2_backward(x), np.broadcast_to(
                quarter, (n, h, 2, w, 2, c)).reshape(n, 2 * h, 2 * w, c))

    @settings(max_examples=300, deadline=None)
    @given(shape=st.tuples(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9),
                           st.integers(1, 12)),
           data=st.data())
    @example(shape=(32, 4, 4, 6), data=None)  # TinyConv's first pool on a minibatch
    @example(shape=(32, 4, 4, 1), data=None)  # the same with channels (1, 1)
    def test_strided_pool_equals_the_reshaped_sum_bit_for_bit(self, shape, data):
        n, half_h, half_w, c = shape
        shape = (n, 2 * half_h, 2 * half_w, c)
        if data is None:
            x = make_rng(18).normal(size=shape)
        else:
            # magnitudes far apart, so that the order of the adds shows in the bits
            x = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
                st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300]))))
        want = x.reshape(n, half_h, 2, half_w, 2, c).sum(axis=(2, 4)) / 4.0
        assert same_bits(_avgpool2(x), want)
        if c > 1:
            assert same_bits(_avgpool2_strided(x), want)

    @pytest.mark.parametrize("shape", [(1, 4, 4, 6), (7, 2, 3, 1), (32, 4, 4, 6)])
    def test_fused_pool_and_tanh_backward_matches_the_product_bit_for_bit(self, shape):
        rng = make_rng(20)
        n, h, w, c = shape
        d = rng.normal(size=shape)
        t = np.tanh(rng.normal(size=(n, 2 * h, 2 * w, c)))
        want = _avgpool2_backward(d) * (1.0 - t * t)
        assert same_bits(_pool_tanh_backward(d, t), want)
        out = np.full(t.shape, np.nan)
        assert _pool_tanh_backward(d, t, out) is out
        assert same_bits(out, want)

    def test_only_parameter_gradients_ask_the_kernel_for_weight_gradients(self, monkeypatch):
        model = build_model("tiny-conv", SHAPE, 3, seed=0)
        asked = []
        kernel = models._conv3x3_backward

        def spy(dout, cache, W, params=True, inputs=True):
            asked.append(params)
            return kernel(dout, cache, W, params, inputs=inputs)

        monkeypatch.setattr(models, "_conv3x3_backward", spy)
        x = random_image(make_rng(19))
        model.input_gradient(x, 1)
        model.input_gradient(x[None], 1)
        assert asked == [False] * 4
        model.parameter_gradients(x, 1)
        assert asked[4:] == [True] * 2

    @pytest.mark.parametrize("shape", [SHAPE, ImageShape(16, 16, 3)], ids=str)
    def test_training_and_gradients_match_the_sliding_window_kernel(self, shape, monkeypatch):
        from advgrad.harness import synth_dataset
        ds = synth_dataset("blobs", 40, shape, seed=3, num_classes=3)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.2, seed=1)
        model, acc = train_classifier(ds, "tiny-conv", cfg)
        with monkeypatch.context() as patch:
            patch.setattr(models, "_conv3x3",
                          lambda x, W, b, stride=1, work=None: sliding._conv3x3(x, W, b, stride))
            patch.setattr(models, "_conv3x3_backward",
                          lambda dout, cache, W, params=True, inputs=True:
                          sliding._conv3x3_backward(dout, cache, W))
            reference, ref_acc = train_classifier(ds, "tiny-conv", cfg)
            ref_out = [(reference.logits(x), reference.input_gradient(x, int(y)))
                       for x, y in zip(ds.images[:5], ds.labels[:5])]
            ref_batch = reference.input_gradient(ds.images, ds.labels)
        assert acc == ref_acc
        for k in reference.params:
            assert np.array_equal(model.params[k], reference.params[k])
        for (x, y), (logits, grad) in zip(zip(ds.images[:5], ds.labels[:5]), ref_out):
            assert np.array_equal(model.logits(x), logits)
            assert np.array_equal(model.input_gradient(x, int(y)), grad)
        assert np.array_equal(model.input_gradient(ds.images, ds.labels), ref_batch)


class TestBatchedInputGradient:
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_stacked_single_images(self, kind):
        model = build_model(kind, SHAPE, 3, seed=7)
        ds = tiny_dataset(6, seed=11)
        stacked = np.stack([model.input_gradient(x, int(y))
                            for x, y in zip(ds.images, ds.labels)])
        np.testing.assert_allclose(model.input_gradient(ds.images, ds.labels), stacked,
                                   rtol=1e-12, atol=1e-15)
        one_label = np.stack([model.input_gradient(x, 2) for x in ds.images])
        np.testing.assert_allclose(model.input_gradient(ds.images, 2), one_label,
                                   rtol=1e-12, atol=1e-15)

    BAD = [
        ("trailing shape", np.zeros((2, 4, 4, 1)), 0, "shape"),
        ("label count", np.zeros((3,) + SHAPE.dims), np.array([0, 1]), "labels for a batch"),
        ("float label", np.zeros((2,) + SHAPE.dims), 1.0, "integers"),
        ("float labels", np.zeros((2,) + SHAPE.dims), np.array([0.0, 1.0]), "integers"),
        ("label range", np.zeros((2,) + SHAPE.dims), np.array([0, 3]), "out of range"),
        ("negative label", np.zeros((2,) + SHAPE.dims), -1, "out of range"),
        ("large label", np.zeros((2,) + SHAPE.dims), 3, "out of range"),
        ("numpy label", np.zeros((2,) + SHAPE.dims), np.int64(3), "out of range"),
        ("bool label", np.zeros((2,) + SHAPE.dims), True, "integers"),
        ("numpy bool label", np.zeros((2,) + SHAPE.dims), np.bool_(True), "integers"),
    ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_label_of_any_integer_type_labels_every_row(self, kind):
        model = build_model(kind, SHAPE, 3, seed=0)
        batch = make_rng(0, 93).uniform(0, 255, size=(4,) + SHAPE.dims)
        expected = model.input_gradient(batch, np.full(len(batch), 2))
        for label in (2, np.int64(2), np.uint8(2), np.array(2)):
            got = model.input_gradient(batch, label)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("x,y,match", [b[1:] for b in BAD], ids=[b[0] for b in BAD])
    def test_bad_batch_raises_before_any_forward_pass(self, kind, x, y, match, monkeypatch):
        model = build_model(kind, SHAPE, 3, seed=0)
        forwards = []
        monkeypatch.setattr(model, "_forward", lambda z: forwards.append(z))
        with pytest.raises(ValueError, match=match):
            model.input_gradient(x, y)
        assert forwards == []


class TestTraining:
    def test_training_reaches_high_accuracy_on_separable_data(self):
        from advgrad.harness import synth_dataset
        ds = synth_dataset("blobs", 90, SHAPE, seed=0, num_classes=3)
        model, train_acc = train_classifier(ds, "mlp-1-hidden",
                                            TrainConfig(epochs=10, seed=0))
        assert train_acc >= 0.95
        assert accuracy(model, ds) == train_acc

    def test_training_is_deterministic(self):
        ds = tiny_dataset(24, seed=5)
        cfg = TrainConfig(epochs=2, seed=7)
        m1, _ = train_classifier(ds, "softmax-linear", cfg)
        m2, _ = train_classifier(ds, "softmax-linear", cfg)
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    def test_zero_epochs_returns_initial_model(self):
        ds = tiny_dataset(10)
        trained, _ = train_classifier(ds, "softmax-linear", TrainConfig(epochs=0, seed=3))
        fresh = build_model("softmax-linear", SHAPE, 3, seed=3)
        assert np.array_equal(trained.params["W"], fresh.params["W"])

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_rejects_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    # unchecked, batch_size=True trained with batches of 1
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, np.float64(3.0), "3", None])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True], ids=repr)
    def test_rejects_a_seed_make_rng_would_reject(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            TrainConfig(seed=seed)

    def test_rejects_empty_dataset(self):
        empty = LabeledDataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError):
            train_classifier(empty, "softmax-linear", TrainConfig())

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
    def test_rejects_non_finite_learning_rate(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("kind", KINDS)
    def test_skipping_the_input_gradient_leaves_training_bit_identical(self, kind, monkeypatch):
        ds = tiny_dataset(40, seed=8)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
        model, acc = train_classifier(ds, kind, cfg)
        cls = models.MODEL_CLASSES[kind]
        loss_backward, rows = cls._loss_backward, []

        def formed_then_dropped(self, x, y, params, inputs=True, work=None):
            # the training path as it was: the input gradient formed, then dropped
            rows.append(len(x))
            return loss_backward(self, x, y, params)

        with monkeypatch.context() as patch:
            patch.setattr(cls, "_loss_backward", formed_then_dropped)
            reference, ref_acc = train_classifier(ds, kind, cfg)
        assert rows == [16, 16, 8] * 2  # the patch ran once per minibatch
        assert acc == ref_acc
        for k in reference.params:
            assert np.array_equal(model.params[k], reference.params[k])

    def test_training_never_scatters_the_first_conv_layer_input_gradient(self, monkeypatch):
        scattered = []
        scatter = numerics._conv3x3_scatter

        def spy(h, w, c, stride, n):
            scattered.append((h, w, c))
            return scatter(h, w, c, stride, n)

        monkeypatch.setattr(numerics, "_conv3x3_scatter", spy)
        model, _ = train_classifier(tiny_dataset(20, seed=9), "tiny-conv",
                                    TrainConfig(epochs=1, batch_size=8, seed=0))
        # 3 minibatches, each scattering into layer 2's 4x4x6 input only
        assert scattered == [(4, 4, 6)] * 3
        model.input_gradient(random_image(make_rng(10)), 1)
        assert scattered[3:] == [(4, 4, 6), (8, 8, 1)]


def allocating_training(monkeypatch, dataset, kind, cfg, **kwargs):
    """train_classifier with every minibatch's arrays allocated afresh: the
    workspace it passes to _loss_backward is dropped.  Fails unless the
    patched _loss_backward ran once per minibatch."""
    cls = models.MODEL_CLASSES[kind]
    loss_backward, calls = cls._loss_backward, []

    def without_workspace(self, x, y, params, inputs=True, work=None):
        calls.append(len(x))
        return loss_backward(self, x, y, params, inputs)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "_loss_backward", without_workspace)
        out = train_classifier(dataset, kind, cfg, **kwargs)
    assert len(calls) == cfg.epochs * math.ceil(len(dataset) / cfg.batch_size)
    return out


class TestTrainingWorkspace:
    """train_classifier's one workspace per call, which TinyConv's conv layers
    write their minibatch arrays into, against fresh arrays per minibatch."""

    # 40 images at batch 16 leave a short last minibatch of 8
    @pytest.mark.parametrize("batch_size", [16, 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_training_is_bit_identical_to_allocating_each_minibatch(self, kind, batch_size,
                                                                   monkeypatch):
        ds = tiny_dataset(40, seed=12)
        cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=5)
        model, acc = train_classifier(ds, kind, cfg)
        reference, ref_acc = allocating_training(monkeypatch, ds, kind, cfg)
        assert acc == ref_acc
        for k in reference.params:
            assert same_bits(model.params[k], reference.params[k])

    def test_conv_layers_with_equal_column_shapes_keep_their_own_buffers(self, monkeypatch):
        # channels (4, 4) on 8x8x1 images: both layers' im2col columns are
        # (16, 576) at batch 16, and a shared buffer would lose layer 1's
        ds = tiny_dataset(40, seed=13)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=6)
        model, acc = train_classifier(ds, "tiny-conv", cfg, channels=(4, 4))
        reference, ref_acc = allocating_training(monkeypatch, ds, "tiny-conv", cfg,
                                                 channels=(4, 4))
        assert acc == ref_acc
        for k in reference.params:
            assert same_bits(model.params[k], reference.params[k])

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_buffer_is_made_once_per_run_and_reused_by_every_minibatch(self, kind,
                                                                           monkeypatch):
        cls = models.MODEL_CLASSES[kind]
        loss_backward = cls._loss_backward
        seen = []  # per minibatch: its row count and the id of every workspace buffer

        def spy(self, x, y, params, inputs=True, work=None):
            out = loss_backward(self, x, y, params, inputs, work)
            seen.append((len(x), {(layer, key): id(buf)
                                  for layer, bufs in work.items() for key, buf in bufs.items()}))
            return out

        monkeypatch.setattr(cls, "_loss_backward", spy)
        train_classifier(tiny_dataset(40, seed=14), kind,
                         TrainConfig(epochs=3, batch_size=16, seed=7))
        assert [rows for rows, _ in seen] == [16, 16, 8] * 3
        final = seen[-1][1]
        if kind != "tiny-conv":
            assert final == {}  # the dense models keep no arrays
            return
        # per batch shape: each layer's padded input, columns, output and
        # pre-activation gradient, and layer 2's window gradients
        names = [(layer, name) for layer, (name, shape) in final]
        assert sorted(set(names)) == [
            ("conv1", "cols"), ("conv1", "dpre"), ("conv1", "out"), ("conv1", "padded"),
            ("conv2", "cols"), ("conv2", "dcols"), ("conv2", "dpre"), ("conv2", "out"),
            ("conv2", "padded")]
        assert len(names) == 2 * 9
        assert seen[2][1] == final  # every buffer made in the first epoch
        for _, ids in seen:
            assert ids.items() <= final.items()  # none replaced or dropped


class TestCheckpoints:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_preserves_logits(self, kind, tmp_path):
        model = build_model(kind, SHAPE, 3, seed=6)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        x = random_image(make_rng(12))
        assert np.allclose(model.logits(x), loaded.logits(x), atol=1e-12)
        assert loaded.kind == kind

    def test_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize("edit,message", [
        (lambda params: params.pop("W2"), "expected"),
        (lambda params: params.update(W3=params["W2"]), "expected"),
        (lambda params: params.update(W1={"shape": [3, 64], "data": [0.0] * 192}),
         "'W1' has shape"),
    ], ids=["missing", "unknown", "wrong-shape"])
    def test_rejects_parameters_unlike_the_model_it_builds(self, tmp_path, edit, message):
        # unchecked, a missing W2 kept its random initial value, and a wrong
        # W1 shape loaded and failed only at the first forward pass
        path = tmp_path / "model.json"
        save_model(build_model("mlp-1-hidden", SHAPE, 3, seed=6), str(path))
        doc = json.loads(path.read_text())
        edit(doc["params"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(str(path))

    @pytest.mark.parametrize("kind,edit,message", [
        ("mlp-1-hidden", lambda doc: [doc], "model checkpoint must be a JSON object"),
        ("mlp-1-hidden", without("kind"), "missing required key 'kind'"),
        ("mlp-1-hidden", without("image_shape"), "missing required key 'image_shape'"),
        ("mlp-1-hidden", lambda doc: {**doc, "kind": ["tiny-conv"]}, "unknown model kind"),
        ("mlp-1-hidden", lambda doc: {**doc, "seed": 0},
         "unknown key 'seed' in model checkpoint"),
        ("mlp-1-hidden", lambda doc: {**doc, "hyper": {"hidden": 32, "width": 2}},
         "unknown key 'width' in model checkpoint hyper"),
        ("softmax-linear", lambda doc: {**doc, "hyper": {"hidden": 32}},
         "unknown key 'hidden' in model checkpoint hyper"),
        ("mlp-1-hidden", lambda doc: {**doc, "image_shape": [8.0, 8, 1]},
         "model checkpoint: image height must be an integer, got 8.0"),
        # these raised TypeError or OverflowError from numpy or ImageShape(*...)
        ("mlp-1-hidden", lambda doc: {**doc, "hyper": {"hidden": 2.5}},
         "hidden must be an integer, got 2.5"),
        ("mlp-1-hidden", lambda doc: {**doc, "hyper": {"hidden": 0}},
         "hidden must be >= 1, got 0"),
        ("tiny-conv", lambda doc: {**doc, "hyper": {"channels": 6}},
         "channels must be two integers, got 6"),
        ("tiny-conv", lambda doc: {**doc, "hyper": {"channels": [6, "6"]}},
         r"channels\[1\] must be an integer, got '6'"),
        ("mlp-1-hidden", lambda doc: {**doc, "num_classes": "3"},
         "num_classes must be an integer, got '3'"),
        ("mlp-1-hidden", lambda doc: {**doc, "image_shape": 8},
         r"model checkpoint: image_shape must be \[height, width, channels\], got 8"),
        ("mlp-1-hidden", lambda doc: {**doc, "image_shape": [8, 8]},
         r"model checkpoint: image_shape must be \[height, width, channels\], got \[8, 8\]"),
        # these raised TypeError from the array decoding
        ("mlp-1-hidden", lambda doc: {**doc, "params": 5},
         "model checkpoint arrays must be a JSON object, got 5"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "W1": 5}},
         "model checkpoint array 'W1' must be a JSON object, got 5"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "W1": {
            "shape": "x", "data": [0.0]}}},
         "model checkpoint array 'W1' shape must be a JSON list, got 'x'"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "W1": {
            "shape": [32, 64.0], "data": [0.0]}}},
         "model checkpoint array 'W1' shape entry must be an integer, got 64.0"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "W1": {
            "shape": [32, 64], "data": [0.0]}}},
         "model checkpoint array 'W1' data are not numbers that fill its shape"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "b1": {
            "shape": [32], "data": ["x"] * 32}}},
         "model checkpoint array 'b1' data are not numbers that fill its shape"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "b1": {
            "shape": [32], "data": [{}] * 32}}},
         "model checkpoint array 'b1' data are not numbers that fill its shape"),
        ("mlp-1-hidden", lambda doc: {**doc, "params": {**doc["params"], "b1": {
            "shape": [32], "data": 5}}},
         "model checkpoint array 'b1' data must be a JSON list, got 5"),
        # numpy parsed these as 1.5, 2.0 and 1.0
        ("softmax-linear", lambda doc: {**doc, "params": {**doc["params"], "b": {
            "shape": [3], "data": ["1.5", "2", 0.0]}}},
         "model checkpoint array 'b' data are not numbers that fill its shape"),
        ("softmax-linear", lambda doc: {**doc, "params": {**doc["params"], "b": {
            "shape": [3], "data": [True, 0.0, 0.0]}}},
         "model checkpoint array 'b' data are not numbers that fill its shape"),
    ], ids=["list", "no-kind", "no-image-shape", "list-kind", "unknown-key", "unknown-hyper",
            "hyper-of-another-kind", "float-dim", "float-hidden", "no-hidden",
            "one-channel-count", "string-channel", "string-classes", "int-shape",
            "two-dims", "int-params", "int-array", "string-shape", "float-shape-entry",
            "short-data", "string-data", "object-data", "int-data", "numeric-string-data",
            "bool-data"])
    def test_rejects_a_malformed_checkpoint(self, tmp_path, kind, edit, message):
        # unchecked, a list raised AttributeError, a missing key KeyError, and
        # an unknown key loaded silently
        path = tmp_path / "model.json"
        save_model(build_model(kind, SHAPE, 3, seed=6), str(path))
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_model(str(path))

    # json reads the first three as nan, inf and inf; the last is an int past
    # the float range, which raised OverflowError from np.asarray
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "10**400"])
    def test_rejects_a_non_finite_array_entry(self, tmp_path, token):
        # a NaN bias loaded, and predict then gave class 0 for every image
        path = tmp_path / "model.json"
        save_model(build_model("softmax-linear", SHAPE, 3, seed=6), str(path))
        doc = json.loads(path.read_text())
        doc["params"]["b"]["data"][1] = "TOKEN"
        path.write_text(json.dumps(doc).replace('"TOKEN"', token))
        message = "model checkpoint array 'b' data are not all finite floats"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(str(path))

    def test_loads_the_v1_layout(self, tmp_path):
        # a checkpoint in the advgrad-model-v1 layout, written by hand
        doc = {
            "format": "advgrad-model-v1", "kind": "mlp-1-hidden",
            "image_shape": [1, 2, 1], "num_classes": 2, "hyper": {"hidden": 2},
            "params": {
                "W1": {"shape": [2, 2], "data": [0.1, -0.2, 0.3, 0.4]},
                "b1": {"shape": [2], "data": [0.5, -0.5]},
                "W2": {"shape": [2, 2], "data": [1.0, 2.0, -1.0, 0.0]},
                "b2": {"shape": [2], "data": [0.25, -0.25]},
            },
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        model = load_model(str(path))
        assert model.kind == "mlp-1-hidden" and model.hidden == 2
        assert np.array_equal(model.params["W2"], np.array([[1.0, 2.0], [-1.0, 0.0]]))
        x = np.array([[[0.0], [255.0]]])
        h = np.tanh(np.array([[0.1, -0.2], [0.3, 0.4]]) @ np.array([-0.5, 0.5])
                    + np.array([0.5, -0.5]))
        expected = np.array([[1.0, 2.0], [-1.0, 0.0]]) @ h + np.array([0.25, -0.25])
        np.testing.assert_allclose(model.logits(x), expected, rtol=0, atol=1e-12)
        # and saving writes the same layout back
        save_model(model, str(tmp_path / "again.json"))
        assert json.loads((tmp_path / "again.json").read_text()) == doc


class TestOnePassImageGradient:
    """A dense model's one-image input_gradient runs its one-pass
    `_loss_backward`: the reference twin's bits, a fresh array and the same
    checks, on both sides of SHORT_SOFTMAX."""

    DENSE = ("softmax-linear", "mlp-1-hidden")
    SHAPES = (ImageShape(4, 4, 2), ImageShape(8, 8, 1), ImageShape(16, 16, 3))

    @staticmethod
    def same_bits_or_nan(a, b):
        """same_bits, with NaN entries equal whatever their bits."""
        nan = np.isnan(a)
        return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
                and same_bits(a[~nan], b[~nan]))

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(DENSE), shape=st.sampled_from(SHAPES),
           classes=st.integers(2, 10), seed=st.integers(0, 2**16),
           weight_scale=st.sampled_from([1.0, 8.0, 40.0]), nan_pixel=st.booleans())
    @example(kind="mlp-1-hidden", shape=SHAPE, classes=3, seed=0, weight_scale=1.0,
             nan_pixel=True)
    @example(kind="softmax-linear", shape=ImageShape(16, 16, 3), classes=10, seed=1,
             weight_scale=40.0, nan_pixel=True)
    def test_equals_the_loss_backward_and_the_reference_bit_for_bit(
            self, kind, shape, classes, seed, weight_scale, nan_pixel):
        model = build_model(kind, shape, classes, seed=seed)
        for value in model.params.values():
            value *= weight_scale
        rng = make_rng(seed, 55)
        x = rng.uniform(0.0, 255.0, size=shape.dims)
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = 255.0
        if nan_pixel:
            x[tuple(rng.integers(0, n) for n in shape.dims)] = math.nan
        label = seed % classes
        with np.errstate(invalid="ignore"):
            got = model.input_gradient(x, label)
            assert self.same_bits_or_nan(got, model._loss_backward(x, label, params=False)[0])
            twin = reference_models.reference_copy(model)
            assert self.same_bits_or_nan(got, twin.input_gradient(x, label))
        assert np.isnan(got).all() == nan_pixel

    @pytest.mark.parametrize("kind", DENSE)
    def test_returns_a_fresh_writable_array(self, kind):
        # ensemble_gradient adds the other models' gradients into the first's
        model = build_model(kind, SHAPE, 3, seed=0)
        x, other = random_image(make_rng(56)), random_image(make_rng(57))
        first = model.input_gradient(x, 1)
        kept = first.copy()
        second = model.input_gradient(other, 2)
        assert first.flags.writeable and same_bits(first, kept)
        for array in [second, x, *model.params.values()]:
            assert not np.shares_memory(first, array)
        first += second
        assert same_bits(model.input_gradient(x, 1), kept)

    BAD = [
        ("shape", np.zeros((4, 4, 1)), 0,
         "input shape (4, 4, 1) does not match model shape (8, 8, 1)"),
        ("bool label", np.zeros(SHAPE.dims), True, "label must be an integer, got True"),
        ("label range", np.zeros(SHAPE.dims), 3, "label 3 out of range for 3 classes"),
    ]

    @pytest.mark.parametrize("kind", DENSE)
    @pytest.mark.parametrize("x,y,message", [b[1:] for b in BAD], ids=[b[0] for b in BAD])
    def test_bad_input_raises_before_the_one_pass(self, kind, x, y, message, monkeypatch):
        model = build_model(kind, SHAPE, 3, seed=0)
        passes = []
        monkeypatch.setattr(model, "_loss_backward", lambda *args: passes.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            model.input_gradient(x, y)
        assert passes == []


class TestReferencePath:
    """The model path against its verbatim copy from before its numpy calls
    were cut (``tests/reference_models.py``): np.dot in place of ``@`` on one
    row or one batch, the ufunc reductions of the softmax, a 0-d label's
    one-hot as one column, in-place updates and the strided pool all keep
    every bit."""

    @staticmethod
    def model_and_twin(kind, seed, weight_scale):
        model = build_model(kind, SHAPE, 4, seed=seed)
        for value in model.params.values():
            value *= weight_scale  # a larger scale gives trained-model logit gaps
        return model, reference_models.reference_copy(model)

    @staticmethod
    def images(seed, rows):
        rng = make_rng(seed, 51)
        x = rng.uniform(0.0, 255.0, size=(rows,) + SHAPE.dims)
        # pixels at the ends of the range, where the iterates of an attack sit
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = 255.0
        return x

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16),
           weight_scale=st.sampled_from([1.0, 8.0, 40.0]), rows=st.integers(1, 40),
           one_label=st.booleans())
    def test_batches_equal_the_reference_bit_for_bit(self, kind, seed, weight_scale, rows,
                                                     one_label):
        model, twin = self.model_and_twin(kind, seed, weight_scale)
        x = self.images(seed, rows)
        y = np.int64(seed % 4) if one_label else make_rng(seed, 52).integers(0, 4, size=rows)
        assert same_bits(model.input_gradient(x, y), twin.input_gradient(x, y))
        assert np.array_equal(model.predict(x), twin.predict(x))
        logits, _ = model._forward(model._standardize(x))
        assert same_bits(logits, twin._forward(twin._standardize(x))[0])

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16),
           weight_scale=st.sampled_from([1.0, 8.0, 40.0]), label=st.integers(0, 3))
    def test_one_image_equals_the_reference_bit_for_bit(self, kind, seed, weight_scale, label):
        model, twin = self.model_and_twin(kind, seed, weight_scale)
        x = self.images(seed, 1)[0]
        assert same_bits(model.input_gradient(x, label), twin.input_gradient(x, label))
        assert same_bits(model.logits(x), twin.logits(x))
        assert model.predict(x) == twin.predict(x)
        assert model.cross_entropy_loss(x, label) == twin.cross_entropy_loss(x, label)
        got, want = model.parameter_gradients(x, label), twin.parameter_gradients(x, label)
        assert all(same_bits(got[k], want[k]) for k in want)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16),
           stack=st.sampled_from([(2, 32), (3, 5), (1, 40)]))
    def test_stacks_and_training_batches_equal_the_reference_bit_for_bit(self, kind, seed,
                                                                          stack):
        # a stack keeps one GEMM per batch (np.matmul); np.dot would merge them
        model, twin = self.model_and_twin(kind, seed, 8.0)
        z = model._standardize(self.images(seed, stack[0] * stack[1]))
        z = z.reshape(stack + SHAPE.dims)
        assert same_bits(model._forward(z)[0], twin._forward(z)[0])
        x, y = self.images(seed, 16), make_rng(seed, 53).integers(0, 4, size=16)
        # a full and a short last minibatch, and a 0-d label for every row,
        # each also in train_classifier's call
        for rows, labels in ((16, y), (7, y[:7]), (16, np.array(seed % 4))):
            dx, grads = model._loss_backward(x[:rows], labels, params=True)
            ref_dx, ref_grads = twin._loss_backward(x[:rows], labels, params=True)
            assert same_bits(dx, ref_dx)
            assert all(same_bits(grads[k], ref_grads[k]) for k in ref_grads)
            none, grads = model._loss_backward(x[:rows], labels, params=True, inputs=False,
                                               work={})
            assert none is None and set(grads) == set(ref_grads)
            assert all(same_bits(grads[k], ref_grads[k]) for k in ref_grads)
