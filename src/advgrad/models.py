"""Small differentiable classifiers with exact hand-written gradients.

Three architectures are provided: a softmax-linear model, a one-hidden-layer
tanh MLP, and a tiny two-stage convnet with average pooling.  Inputs live on
the 0-255 pixel scale; each model standardizes internally (divide by 255,
subtract 0.5), so all gradients returned here are with respect to 0-255
pixels.

Each model implements two numeric methods.  `_forward(z, work=None)` gives
(logits, cache) for `logits`, `predict`'s chunks and the interaction stacks.
`_loss_backward(x, y, params, inputs=True, work=None)` is the cross-entropy
backward in one pass: one image, a batch, or an SGD minibatch with its
parameter gradients.  A one-image `input_gradient` calls it as
``self._loss_backward(x, y, False)[0]``, the call each source model gets at
each plain attack step, so the dense models run it near its floor of numpy
calls, each kept cheap, with the bits of the plain ``@`` forms
(``tests/reference_models.py``).  Products of one row or one batch run
np.dot, which costs less per call than ``@``; an (M, N, d) stack runs
np.matmul, one GEMM per batch, since np.dot would merge the batches into one
GEMM whose row bits differ.  Bias adds, tanh, the softmax's exp and
normalization, the tanh slope and the final 1/255 scale run in place on fresh
arrays; the softmax calls np.maximum.reduce and np.add.reduce directly, or
for a vector of a few classes takes its max and sum in Python with the same
bits; a batch with one label subtracts its one-hot as one column
(`_subtract_one_hot`).  TinyConv's `_loss_backward` runs its `_forward` and
its private `_backward`; its 2x2 pool adds four strided quarters on larger
inputs (`_avgpool2`).

Training keeps one workspace per `train_classifier` call, a dict that
TinyConv's conv layers write their large minibatch arrays into (see
`numerics._work_buffer`): glibc can hand fresh arrays of that size (100 to
220 KB at batch 32 on 8x8x1 images) back to the OS when they are freed, and
the next minibatch then faults their pages in again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    ImageShape, _check_count, _check_keys, _check_pair, _check_real, _check_seed, _conv3x3,
    _conv3x3_backward, _decode_arrays, _encode_arrays, _image_shape, _read_checkpoint,
    _work_buffer, _write_checkpoint, make_rng,
)

__all__ = [
    "LabeledDataset",
    "TrainConfig",
    "Model",
    "SoftmaxLinear",
    "TanhMLP",
    "TinyConv",
    "build_model",
    "train_classifier",
    "accuracy",
    "save_model",
    "load_model",
]

MODEL_KINDS = ("softmax-linear", "mlp-1-hidden", "tiny-conv")

CHECKPOINT_FORMAT = "advgrad-model-v1"

# _chunk_logits scores many rows CHUNK_ROWS per GEMM.  A product's row bits
# depend on its row count, so this fixes the bits of batched predict and of
# interaction's model set function.  Whole chunks are stacked up to
# BLOCK_BYTES of standardized input per forward pass (at least one chunk: 4 at
# 8x8x1, 1 at 16x16x3), below glibc's 128 KiB mmap threshold, so temporaries
# reuse heap memory (576 rows in one pass took about 112 minor page faults per
# interaction estimate); small chunks keep the im2col buffers small.
CHUNK_ROWS = 32
BLOCK_BYTES = 1 << 16

# the ceiling of TrainConfig.epochs, whose default is 15
MAX_EPOCHS = 1000

# _softmax normalizes a logit vector shorter than this in Python (3.6 against
# 2.2 us for 3 classes, min of 60 interleaved rounds on a 2-core Xeon)
SHORT_SOFTMAX = 8


@dataclass
class LabeledDataset:
    """Images on the 0-255 scale with integer class labels."""

    images: np.ndarray  # (n, H, W, C) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        _check_count("num_classes", self.num_classes, 1)
        self.labels = _check_labels(self.labels, self.num_classes).astype(np.int64)
        if self.images.ndim != 4:
            raise ValueError("images must have shape (n, H, W, C)")
        if self.labels.shape != (len(self.images),):
            raise ValueError("images and labels must have matching length")
        # min() and max() propagate NaN, which fails both comparisons
        if self.images.size and not (0 <= self.images.min() and self.images.max() <= 255):
            raise ValueError("pixels must be finite and lie in [0, 255]")

    def __len__(self):
        return len(self.images)

    @property
    def image_shape(self) -> ImageShape:
        return ImageShape(*self.images.shape[1:])

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(self.images[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _check_count("epochs", self.epochs, 0, MAX_EPOCHS)
        _check_count("batch_size", self.batch_size, 1)
        _check_seed("seed", self.seed)
        _check_real("learning_rate", self.learning_rate, "(0, inf)")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of one logit vector or a batch of them.

    The ufunc reductions are called directly, without the .max() and .sum()
    wrappers, in their keepdims form, so a vector has the bits of a batch row.

    A vector of fewer than SHORT_SOFTMAX logits (an attack step's few classes)
    takes its max and its sum in Python, over ``tolist()``; exp stays np.exp.
    numpy's add.reduce adds fewer than 8 values in order, starting from 0.0,
    so the loop below gives its bits; from 8 values on it sums pairwise and
    the rounding can differ.  Python's max can differ from
    np.maximum.reduce only in the sign of a zero, which the shift and exp
    erase, and by skipping a NaN.  So a sum that comes out NaN (a NaN or +inf
    logit, or every logit -inf) is redone by the ufuncs, which also fixes the
    NaN's bits.
    """
    if logits.ndim == 1 and len(logits) < SHORT_SOFTMAX:
        e = logits - max(logits.tolist())
        np.exp(e, out=e)
        total = 0.0
        for value in e.tolist():
            total += value  # not sum(): Python 3.12 compensates it
        if total == total:  # not NaN
            e /= total
            return e
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of one logit vector or a batch of them."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_label(y: int, num_classes: int):
    """ValueError unless y is an int or numpy integer (not a bool) in [0, num_classes)."""
    _check_count("label", y)
    if not 0 <= y < num_classes:
        raise ValueError(f"label {y} out of range for {num_classes} classes")


def _check_labels(labels, num_classes: int) -> np.ndarray:
    """labels as an array, ValueError unless its dtype is an integer one and
    each label lies in [0, num_classes).  An empty list reads as float64, so
    an empty array of any dtype passes, as int64."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        if labels.size:
            raise ValueError(f"labels must be integers, got {labels.dtype}")
        return labels.astype(np.int64)
    if labels.ndim == 0:  # int() costs less than min() and max()
        bad = not 0 <= int(labels) < num_classes
    else:
        bad = labels.size and (labels.min() < 0 or labels.max() >= num_classes)
    if bad:
        raise ValueError(f"labels out of range for {num_classes} classes")
    return labels


def _subtract_one_hot(p: np.ndarray, y):
    """p -= one_hot(y) in place, for the probabilities p of one image and an
    int label, or of a batch and a 0-d label (one column: it is not
    repeated) or (N,) labels."""
    if p.ndim == 1:
        p[y] -= 1.0
    elif y.ndim == 0:
        p[:, y] -= 1.0
    else:
        p[np.arange(len(p)), y] -= 1.0


class Model:
    """Base classifier: subclasses implement two numeric methods, _forward
    and _loss_backward, each on one image or a batch.

    The public methods take one image; predict and input_gradient also take a
    batch, and train_classifier runs _loss_backward on whole minibatches.
    """

    kind: str = ""
    # the constructor arguments a checkpoint records, under "hyper", besides
    # the image shape and class count
    checkpoint_args: tuple[str, ...] = ()

    def __init__(self, image_shape: ImageShape, num_classes: int):
        self.check_image_shape(image_shape)
        _check_count("num_classes", num_classes, 1)
        self.image_shape = image_shape
        self.num_classes = num_classes
        self.params: dict[str, np.ndarray] = {}

    @staticmethod
    def check_image_shape(image_shape: ImageShape):
        """ValueError if this kind cannot take image_shape; every shape fits by default."""

    # -- forward -----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.image_shape.dims:
            raise ValueError(
                f"input shape {x.shape} does not match model shape {self.image_shape.dims}"
            )
        return x

    def _check_rows(self, x: np.ndarray):
        """ValueError unless x is an (N, H, W, C) batch of this model's images."""
        if x.shape[1:] != self.image_shape.dims:
            raise ValueError(f"batch shape {x.shape} does not match model shape "
                             f"(N,) + {self.image_shape.dims}")

    def _check_batch(self, x: np.ndarray, y):
        """Labels for batch x from one integer label or an (N,) integer array:
        a 0-d label for every row, or the (N,) labels (see _subtract_one_hot)."""
        self._check_rows(x)
        labels = _check_labels(y, self.num_classes)
        if labels.ndim and labels.shape != (len(x),):
            raise ValueError(f"got {labels.shape} labels for a batch of {len(x)} images")
        return labels

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        z = x / 255.0
        z -= 0.5
        return z

    def _forward(self, z: np.ndarray, work=None):
        """Return (logits, cache) for standardized z of shape (N, H, W, C) or (H, W, C).

        Logits are (N, num_classes) or (num_classes,); the cache feeds
        TinyConv's _backward and is None for the dense models.  z may also be
        a stack (M, N, H, W, C) of M batches, for logits of shape
        (M, N, num_classes) equal bit for bit to M calls on the batches: each
        batch runs its own GEMMs, whose row bits depend on the row count.
        `work` is a training workspace (see `numerics._work_buffer`); only
        TinyConv keeps arrays there, with the bits of fresh ones.
        """
        raise NotImplementedError

    def logits(self, x: np.ndarray) -> np.ndarray:
        out, _ = self._forward(self._standardize(self._check_input(x)))
        return out

    def _chunk_logits(self, count: int, rows) -> np.ndarray:
        """(count, num_classes) logits; rows(a, b) gives standardized rows
        [a, b) in any shape that holds b - a images.  One GEMM per CHUNK_ROWS
        rows: whole chunks in stacks of up to BLOCK_BYTES of input (at least
        one chunk) per forward pass, then a last, shorter chunk in a pass of
        its own (padded, its rows would take other bits).  So each row has
        the bits of a forward pass over its own chunk."""
        dims = self.image_shape.dims
        block = CHUNK_ROWS * max(1, BLOCK_BYTES // (CHUNK_ROWS * 8 * self.image_shape.size))
        logits = np.empty((count, self.num_classes))
        whole = count - count % CHUNK_ROWS
        for start in range(0, whole, block):
            stop = min(start + block, whole)
            stack, _ = self._forward(rows(start, stop).reshape((-1, CHUNK_ROWS) + dims))
            logits[start:stop] = stack.reshape(stop - start, -1)
        if whole < count:
            logits[whole:] = self._forward(rows(whole, count).reshape((-1,) + dims))[0]
        return logits

    def predict(self, x: np.ndarray):
        """The class of one (H, W, C) image as an int, or the (N,) int64 classes
        of an (N, H, W, C) batch, whose logits come from _chunk_logits.
        np.argmax breaks ties toward the lowest class index.  A batch row's
        logits can differ from the image's own in the last bits, so a
        near-tie may go the other way."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            return int(self.logits(x).argmax())  # np.argmax's wrapper costs 1 us
        self._check_rows(x)
        logits = self._chunk_logits(len(x), lambda a, b: self._standardize(x[a:b]))
        return np.argmax(logits, axis=1).astype(np.int64, copy=False)

    def cross_entropy_loss(self, x: np.ndarray, y: int) -> float:
        _check_label(y, self.num_classes)
        return float(-_log_softmax(self.logits(x))[y])

    # -- gradients ---------------------------------------------------------

    def _loss_backward(self, x: np.ndarray, y, params: bool, inputs: bool = True, work=None):
        """Cross-entropy backward, one pass from the 0-255 pixels, for one
        checked float64 image and an int label, or for a batch (N, H, W, C)
        and a 0-d or (N,) label array.  Returns (dx, a fresh array of x's
        shape on the 0-255 scale, or None when inputs is False; param_grads
        summed over the batch, or None when params is False).  Parameter
        gradients need a batch.  `work` is a training workspace, as for
        _forward."""
        raise NotImplementedError

    def input_gradient(self, x: np.ndarray, y) -> np.ndarray:
        """Exact gradient of the cross-entropy loss w.r.t. 0-255 pixels.

        x is one (H, W, C) image with an int label, or an (N, H, W, C) batch
        with one int label for every row or an (N,) label array; the result has
        x's shape.  A batch row can differ from the same image's single-image
        gradient in the last bits (a batch runs matrix-matrix products).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.image_shape.dims:
            if x.ndim == 4:
                return self._loss_backward(x, self._check_batch(x, y), False)[0]
            self._check_input(x)  # raises its shape error
        _check_label(y, self.num_classes)
        return self._loss_backward(x, y, False)[0]

    def parameter_gradients(self, x: np.ndarray, y: int) -> dict[str, np.ndarray]:
        x = self._check_input(x)
        _check_label(y, self.num_classes)
        return self._loss_backward(x[None], np.array([y]), params=True, inputs=False)[1]


class SoftmaxLinear(Model):
    kind = "softmax-linear"

    def __init__(self, image_shape, num_classes, rng=None):
        super().__init__(image_shape, num_classes)
        d = image_shape.size
        rng = rng or make_rng(0)
        bound = 1.0 / np.sqrt(d)
        self.params = {
            "W": rng.uniform(-bound, bound, size=(num_classes, d)),
            "b": np.zeros(num_classes),
        }

    def _forward(self, z, work=None):
        # (H, W, C) -> (d,), (N, H, W, C) -> (N, d) and (M, N, H, W, C) ->
        # (M, N, d); a stack goes to np.matmul, one GEMM per batch
        zf = z.reshape(z.shape[:-3] + (-1,))
        logits = (np.dot if zf.ndim < 3 else np.matmul)(zf, self.params["W"].T)
        logits += self.params["b"]
        return logits, None  # _loss_backward runs its own forward

    def _loss_backward(self, x, y, params, inputs=True, work=None):
        z = x / 255.0
        z -= 0.5
        # (H, W, C) -> (d,) and (N, H, W, C) -> (N, d); ravel costs the least
        zf = z.reshape(len(z), -1) if z.ndim == 4 else z.ravel()
        W = self.params["W"]
        e = np.dot(zf, W.T)
        e += self.params["b"]
        e = _softmax(e)
        _subtract_one_hot(e, y)
        grads = {"W": np.dot(e.T, zf), "b": e.sum(axis=0)} if params else None
        if not inputs:
            return None, grads
        dz = np.dot(e, W)
        dz /= 255.0
        return dz.reshape(x.shape), grads


class TanhMLP(Model):
    kind = "mlp-1-hidden"
    checkpoint_args = ("hidden",)

    def __init__(self, image_shape, num_classes, rng=None, hidden: int = 32):
        super().__init__(image_shape, num_classes)
        _check_count("hidden", hidden, 1)
        self.hidden = hidden
        d = image_shape.size
        rng = rng or make_rng(0)
        b1 = 1.0 / np.sqrt(d)
        b2 = 1.0 / np.sqrt(hidden)
        self.params = {
            "W1": rng.uniform(-b1, b1, size=(hidden, d)),
            "b1": np.zeros(hidden),
            "W2": rng.uniform(-b2, b2, size=(num_classes, hidden)),
            "b2": np.zeros(num_classes),
        }

    def _forward(self, z, work=None):
        zf = z.reshape(z.shape[:-3] + (-1,))
        dot = np.dot if zf.ndim < 3 else np.matmul  # as in SoftmaxLinear
        h = dot(zf, self.params["W1"].T)
        h += self.params["b1"]
        np.tanh(h, out=h)
        logits = dot(h, self.params["W2"].T)
        logits += self.params["b2"]
        return logits, None  # as in SoftmaxLinear

    def _loss_backward(self, x, y, params, inputs=True, work=None):
        # the tanh slope 1 - h * h is formed in h's array once h has served
        # the forward and W2's gradient
        p = self.params
        z = x / 255.0
        z -= 0.5
        zf = z.reshape(len(z), -1) if z.ndim == 4 else z.ravel()  # as in SoftmaxLinear
        W1, W2 = p["W1"], p["W2"]
        h = np.dot(zf, W1.T)
        h += p["b1"]
        np.tanh(h, out=h)
        e = np.dot(h, W2.T)
        e += p["b2"]
        e = _softmax(e)
        _subtract_one_hot(e, y)
        grads = {"W2": np.dot(e.T, h), "b2": e.sum(axis=0)} if params else None
        da1 = np.dot(e, W2)
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
        da1 *= h
        if params:
            grads["W1"] = np.dot(da1.T, zf)
            grads["b1"] = da1.sum(axis=0)
        if not inputs:
            return None, grads
        dz = np.dot(da1, W1)
        dz /= 255.0
        return dz.reshape(x.shape), grads


# the least input size at which _avgpool2 adds the strided quarters; below it
# the one reshaped sum is as fast or faster (timeit, 2-core host, min of 7:
# 3.2 against 4.4 us for (1, 8, 8, 6), 4.9 against 4.9 us for (2, 8, 8, 6)),
# above it the adds are faster (6.4 against 5.2 us for (3, 8, 8, 6), 14.2
# against 7.5 us for (32, 4, 4, 6), 52 against 17 us for (32, 8, 8, 6))
POOL_STRIDED_SIZE = 1024


def _avgpool2(x):
    """2x2 average pool of an (N, H, W, C) batch, bit for bit the sum and
    division np.mean(axis=(2, 4)) runs on the (N, H/2, 2, W/2, 2, C) view.

    With more than one channel numpy's sum adds each window's four values to
    0.0 in the order (0, 0), (0, 1), (1, 0), (1, 1), so from
    POOL_STRIDED_SIZE values on the pool adds the four strided quarters in
    that order.  With one channel numpy sums each of the window's two rows
    first, so the reshaped sum always runs.
    """
    n, h, w, c = x.shape
    if c == 1 or x.size < POOL_STRIDED_SIZE:
        out = np.add.reduce(x.reshape(n, h // 2, 2, w // 2, 2, c), axis=(2, 4))
        out /= 4.0
        return out
    return _avgpool2_strided(x)


def _avgpool2_strided(x):
    """The four-add form of _avgpool2 for an (N, H, W, C) batch with even H
    and W; equal to the reshaped sum bit for bit when C > 1."""
    out = x[:, 0::2, 0::2] + 0.0  # numpy's sum starts at 0.0, which turns -0.0 into +0.0
    out += x[:, 0::2, 1::2]
    out += x[:, 1::2, 0::2]
    out += x[:, 1::2, 1::2]
    out /= 4.0
    return out


def _avgpool2_backward(d):
    """The gradient of _avgpool2 for the gradient d of its output: d / 4 on
    each of a window's four inputs.  The reference of `_pool_tanh_backward`."""
    n, h, w, c = d.shape
    out = np.empty((n, h, 2, w, 2, c))
    out[...] = (d / 4.0)[:, :, None, :, None]
    return out.reshape(n, 2 * h, 2 * w, c)


def _pool_tanh_backward(d, t, out=None):
    """The gradient through ``_avgpool2(t)``, t = tanh(a), with respect to a:
    ``_avgpool2_backward(d) * (1 - t * t)`` bit for bit (the product
    commutes), formed in one array, `out` if given."""
    n, h, w, c = d.shape
    out = np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=out)
    windows = out.reshape(n, h, 2, w, 2, c)
    np.multiply(windows, (d / 4.0)[:, :, None, :, None], out=windows)
    return out


def _layer_workspaces(work):
    """The workspaces of TinyConv's two conv layers in its training workspace
    `work`, or (None, None) without one.  Each layer has its own: with
    channels (4, C2) on one-channel images the layers' im2col columns have
    one shape."""
    if work is None:
        return None, None
    return work.setdefault("conv1", {}), work.setdefault("conv2", {})


class TinyConv(Model):
    """conv3x3 -> tanh -> avgpool2 -> conv3x3 -> tanh -> avgpool2 -> linear."""

    kind = "tiny-conv"
    checkpoint_args = ("channels",)

    def __init__(self, image_shape, num_classes, rng=None, channels: tuple[int, int] = (6, 6)):
        super().__init__(image_shape, num_classes)
        _check_pair("channels", channels)
        self.channels = tuple(channels)
        c1, c2 = self.channels
        rng = rng or make_rng(0)
        cin = image_shape.channels
        flat = (image_shape.height // 4) * (image_shape.width // 4) * c2
        self.params = {
            "W1": rng.uniform(-1, 1, size=(3, 3, cin, c1)) / np.sqrt(9 * cin),
            "b1": np.zeros(c1),
            "W2": rng.uniform(-1, 1, size=(3, 3, c1, c2)) / np.sqrt(9 * c1),
            "b2": np.zeros(c2),
            "W3": rng.uniform(-1, 1, size=(num_classes, flat)) / np.sqrt(flat),
            "b3": np.zeros(num_classes),
        }

    @staticmethod
    def check_image_shape(image_shape: ImageShape):
        # the two 2x2 average pools halve height and width twice
        if image_shape.height % 4 or image_shape.width % 4:
            raise ValueError("tiny-conv needs height and width divisible by 4")

    def _forward(self, z, work=None):
        if z.ndim == 5:
            # one batch at a time: merged, the batches would grow the im2col
            # buffers with the stack, and a product's row bits can change with
            # its row count
            return np.stack([self._forward(batch)[0] for batch in z]), None
        work1, work2 = _layer_workspaces(work)
        lead = z.shape[:-3]
        c1, conv1 = _conv3x3(z.reshape((-1,) + z.shape[-3:]), self.params["W1"], self.params["b1"],
                             work=work1)
        t1 = np.tanh(c1, out=c1)
        c2, conv2 = _conv3x3(_avgpool2(t1), self.params["W2"], self.params["b2"], work=work2)
        t2 = np.tanh(c2, out=c2)
        flat = _avgpool2(t2).reshape(len(t2), -1)
        logits = flat @ self.params["W3"].T
        logits += self.params["b3"]
        return logits.reshape(lead + (-1,)), (lead, conv1, t1, conv2, t2, flat)

    def _loss_backward(self, x, y, params, inputs=True, work=None):
        logits, cache = self._forward(self._standardize(x), work)
        dlogits = _softmax(logits)
        _subtract_one_hot(dlogits, y)
        dz, grads = self._backward(dlogits, cache, params, inputs, work)
        if inputs:
            dz /= 255.0  # _backward's dz is a fresh array
        return dz, grads

    def _backward(self, dlogits, cache, params, inputs=True, work=None):
        """(dz of z's shape, or None when inputs is False; param_grads or
        None) from the logit gradient and _forward's cache of one image or a
        batch; `work` is the workspace _forward was given."""
        lead, conv1, t1, conv2, t2, flat = cache
        work1, work2 = _layer_workspaces(work)
        dlogits = dlogits.reshape(len(flat), -1)
        n, h, w, c = t2.shape
        dp2 = (dlogits @ self.params["W3"]).reshape(n, h // 2, w // 2, c)
        dc2 = _pool_tanh_backward(dp2, t2, _work_buffer(work2, "dpre", t2.shape))
        dp1, dW2, db2 = _conv3x3_backward(dc2, conv2, self.params["W2"], params)
        dc1 = _pool_tanh_backward(dp1, t1, _work_buffer(work1, "dpre", t1.shape))
        dz, dW1, db1 = _conv3x3_backward(dc1, conv1, self.params["W1"], params, inputs=inputs)
        grads = None
        if params:
            grads = {"W3": dlogits.T @ flat, "b3": dlogits.sum(axis=0),
                     "W2": dW2, "b2": db2, "W1": dW1, "b1": db1}
        if not inputs:
            return None, grads
        return dz.reshape(lead + self.image_shape.dims), grads


MODEL_CLASSES = {cls.kind: cls for cls in (SoftmaxLinear, TanhMLP, TinyConv)}


def _model_class(kind) -> type[Model]:
    # tuple membership compares with ==, so an unhashable kind is unknown too
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    return MODEL_CLASSES[kind]


def build_model(kind: str, image_shape: ImageShape, num_classes: int, seed: int = 0, **kwargs) -> Model:
    rng = make_rng(seed, stream=17)
    return _model_class(kind)(image_shape, num_classes, rng=rng, **kwargs)


def train_classifier(dataset: LabeledDataset, kind: str, cfg: TrainConfig, **kwargs):
    """Minibatch SGD on the cross-entropy loss.

    Deterministic given cfg.seed; returns (model, final_train_accuracy).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    model = build_model(kind, dataset.image_shape, dataset.num_classes, seed=cfg.seed, **kwargs)
    rng = make_rng(cfg.seed, stream=1)
    n = len(dataset)
    work = {}  # every minibatch's large arrays, one set per batch shape
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            # the input gradient is not needed, so the first layer's is never formed
            _, grads = model._loss_backward(dataset.images[batch], dataset.labels[batch],
                                            params=True, inputs=False, work=work)
            scale = cfg.learning_rate / len(batch)
            for k in model.params:
                model.params[k] -= scale * grads[k]
    return model, accuracy(model, dataset)


def accuracy(model: Model, dataset: LabeledDataset) -> float:
    """The fraction of dataset the model classifies right, from one batched predict."""
    if len(dataset) == 0:
        return 0.0
    return int(np.sum(model.predict(dataset.images) == dataset.labels)) / len(dataset)


def save_model(model: Model, path: str):
    """Write a versioned JSON checkpoint (kind tag, shapes, parameter arrays)."""
    _write_checkpoint(path, CHECKPOINT_FORMAT, {
        "kind": model.kind,
        "image_shape": list(model.image_shape.dims),
        "num_classes": model.num_classes,
        "hyper": {name: getattr(model, name) for name in model.checkpoint_args},
        "params": _encode_arrays(model.params),
    })


def load_model(path: str) -> Model:
    """Inverse of save_model; a malformed checkpoint raises ValueError naming the problem."""
    doc = _read_checkpoint(path, CHECKPOINT_FORMAT,
                           ("kind", "image_shape", "num_classes", "hyper", "params"),
                           ("kind", "image_shape", "num_classes", "params"), "model checkpoint")
    hyper = doc.get("hyper", {})
    _check_keys(hyper, _model_class(doc["kind"]).checkpoint_args, (), "model checkpoint hyper")
    model = build_model(doc["kind"], _image_shape(doc["image_shape"], "model checkpoint"),
                        doc["num_classes"], **hyper)
    model.params.update(_decode_arrays(doc["params"], model.params, "model checkpoint"))
    return model
