"""Micro-benchmarks of the 3x3 conv primitive and of TinyConv around it.

Each case runs the index-table kernel of `advgrad.numerics` and, beside it,
the sliding-window kernel it replaced (``tests/sliding_window_conv.py``), on
one image and on a batch of 32.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_conv.py --benchmark-json=BENCH_conv.json

The tier-1 suite does not collect this directory; ``tests/test_bench_smoke.py``
runs each case once, untimed.
"""

import numpy as np
import pytest

import sliding_window_conv as sliding
from advgrad import models, numerics
from advgrad.models import build_model
from advgrad.numerics import ImageShape, make_rng

KERNELS = {
    "index-table": (numerics._conv3x3, numerics._conv3x3_backward),
    "sliding-window": (lambda x, W, b, stride=1, work=None: sliding._conv3x3(x, W, b, stride),
                       lambda dout, cache, W, params=True, inputs=True:
                       sliding._conv3x3_backward(dout, cache, W)),
}
# TinyConv's two conv layers at its 8x8x1 and 16x16x3 input shapes: (H, W, Cin, Cout)
LAYERS = [(8, 8, 1, 6), (4, 4, 6, 6), (16, 16, 3, 6), (8, 8, 6, 6)]
IMAGES = [ImageShape(8, 8, 1), ImageShape(16, 16, 3)]
BATCHES = [1, 32]


def _layer_id(layer):
    return "{}x{}x{}-{}".format(*layer)


def _conv_inputs(layer, n):
    h, w, cin, cout = layer
    rng = make_rng(0, 90)
    return (rng.normal(size=(n, h, w, cin)), rng.normal(size=(3, 3, cin, cout)),
            rng.normal(size=cout))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("layer", LAYERS, ids=_layer_id)
def test_conv3x3_forward(benchmark, layer, n, kernel):
    forward, _ = KERNELS[kernel]
    x, W, b = _conv_inputs(layer, n)
    benchmark(forward, x, W, b)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("layer", LAYERS, ids=_layer_id)
def test_conv3x3_backward(benchmark, layer, n, kernel):
    forward, backward = KERNELS[kernel]
    x, W, b = _conv_inputs(layer, n)
    out, cache = forward(x, W, b)
    benchmark(backward, make_rng(1, 90).normal(size=out.shape), cache, W)


@pytest.fixture
def tiny_conv(request, monkeypatch):
    """A 3-class TinyConv on the given image shape, running the given kernel."""
    shape, kernel = request.param
    forward, backward = KERNELS[kernel]
    monkeypatch.setattr(models, "_conv3x3", forward)
    monkeypatch.setattr(models, "_conv3x3_backward", backward)
    return build_model("tiny-conv", shape, 3, seed=0)


MODEL_CASES = [(shape, kernel) for shape in IMAGES for kernel in KERNELS]
MODEL_IDS = [f"{s.height}x{s.width}x{s.channels}-{k}" for s, k in MODEL_CASES]


def _images(shape, n):
    return make_rng(2, 90).uniform(0.0, 255.0, size=(n,) + shape.dims)


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("tiny_conv", MODEL_CASES, ids=MODEL_IDS, indirect=True)
def test_tiny_conv_input_gradient(benchmark, tiny_conv, n):
    x = _images(tiny_conv.image_shape, n)
    if n == 1:
        benchmark(tiny_conv.input_gradient, x[0], 1)
    else:
        benchmark(tiny_conv.input_gradient, x, np.arange(n) % 3)


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("tiny_conv", MODEL_CASES, ids=MODEL_IDS, indirect=True)
def test_tiny_conv_predict(benchmark, tiny_conv, n):
    # N=1 is Model.predict; a batch runs the forward core as accuracy() does
    x = _images(tiny_conv.image_shape, n)
    if n == 1:
        benchmark(tiny_conv.predict, x[0])
    else:
        benchmark(lambda: np.argmax(tiny_conv._forward(tiny_conv._standardize(x))[0], axis=1))
