"""Micro-benchmarks of the model path: input_gradient and predict per model kind.

Each case runs the library model and, beside it, its reference twin from
``tests/reference_models.py``: the same parameters through the model path as
it was before its numpy calls were cut (``@`` products, wrapped reductions, a
fancy-indexed one-hot, allocating updates, the reshaped-sum pool).  The two
return the same bits (``tests/test_models.py``).  Every kind runs at 8x8x1
with 3 classes, on one (H, W, C) image (N = 1, the attack step's call), on
14 rows (an experiment cell of 12 examples is of that size) and on 32 rows
(the training minibatch and predict's chunk), with one label for every row.
Batched predict of the MLP and the tiny convnet also runs on 480 rows, an
eval set's accuracy pass, beside one forward pass per 32-row chunk (predict
before whole chunks were stacked; the same classes).  One tiny-conv SGD
epoch runs at the ``transfer`` workload's setting (480 blob images, batch
32) through `train_classifier`, which also builds the model and scores it
once: with its workspace, and allocating every minibatch's arrays afresh
(the same bits).
Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_model_gradient.py --benchmark-max-time=1 \
        --benchmark-json=BENCH_models.json

One-image cases take a few to a few tens of microseconds.  Compare each
case's ``min`` and compare library with reference within one run, as for the
other files under ``bench/``.

The tier-1 suite does not collect this directory; ``tests/test_bench_smoke.py``
runs each case once, untimed.
"""

import numpy as np
import pytest

import reference_models
from advgrad import models
from advgrad.harness import synth_dataset
from advgrad.models import CHUNK_ROWS, MODEL_KINDS, TrainConfig, build_model, train_classifier
from advgrad.numerics import ImageShape, make_rng

SHAPE = ImageShape(8, 8, 1)
ROWS = [1, 14, 32]
PATHS = ("library", "reference")


def _model(kind, path):
    model = build_model(kind, SHAPE, 3, seed=0)
    return model if path == "library" else reference_models.reference_copy(model)


def _inputs(rows):
    x = make_rng(0, 94).uniform(0.0, 255.0, size=(rows,) + SHAPE.dims)
    return x[0] if rows == 1 else x


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_input_gradient(benchmark, kind, rows, path):
    benchmark(_model(kind, path).input_gradient, _inputs(rows), 1)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict(benchmark, kind, rows, path):
    benchmark(_model(kind, path).predict, _inputs(rows))


def _chunk_loop_predict(model, x):
    """The classes of batch x from one forward pass per CHUNK_ROWS rows."""
    return np.concatenate([
        np.argmax(model._forward(model._standardize(x[start:start + CHUNK_ROWS]))[0], axis=1)
        for start in range(0, len(x), CHUNK_ROWS)])


@pytest.mark.parametrize("path", ("library", "chunk-loop"))
@pytest.mark.parametrize("kind", ["mlp-1-hidden", "tiny-conv"])
def test_predict_480_rows(benchmark, kind, path):
    model, x = _model(kind, "library"), _inputs(480)
    predict = model.predict if path == "library" else lambda x: _chunk_loop_predict(model, x)
    assert np.array_equal(benchmark(predict, x), model.predict(x))


@pytest.mark.parametrize("path", ("workspace", "allocating"))
def test_tiny_conv_sgd_epoch(benchmark, path, monkeypatch):
    dataset = synth_dataset("blobs", 480, SHAPE, seed=0, num_classes=3)
    if path == "allocating":
        loss_backward = models.Model._loss_backward
        monkeypatch.setattr(models.Model, "_loss_backward",
                            lambda self, x, y, params, inputs=True, work=None:
                            loss_backward(self, x, y, params, inputs))
    benchmark(train_classifier, dataset, "tiny-conv", TrainConfig(epochs=1, seed=100))
