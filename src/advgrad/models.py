"""Small differentiable classifiers with exact hand-written gradients.

Three architectures are provided: a softmax-linear model, a one-hidden-layer
tanh MLP, and a tiny two-stage convnet with average pooling.  Inputs live on
the 0-255 pixel scale; each model standardizes internally (divide by 255,
subtract 0.5), so all gradients returned here are with respect to 0-255
pixels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import ImageShape, make_rng

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


@dataclass
class LabeledDataset:
    """Images on the 0-255 scale with integer class labels."""

    images: np.ndarray  # (n, H, W, C) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError("images must have shape (n, H, W, C)")
        if len(self.labels) != len(self.images):
            raise ValueError("images and labels must have matching length")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
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


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


class Model:
    """Base classifier: subclasses implement _forward and _backward."""

    kind: str = ""

    def __init__(self, image_shape: ImageShape, num_classes: int):
        self.image_shape = image_shape
        self.num_classes = num_classes
        self.params: dict[str, np.ndarray] = {}

    # -- forward -----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.image_shape.dims:
            raise ValueError(
                f"input shape {x.shape} does not match model shape {self.image_shape.dims}"
            )
        return x

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return x / 255.0 - 0.5

    def _forward(self, x: np.ndarray):
        """Return (logits, cache). Cache feeds _backward."""
        raise NotImplementedError

    def _backward(self, dlogits: np.ndarray, cache):
        """Return (dx_standardized, param_grads)."""
        raise NotImplementedError

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        out, _ = self._forward(self._standardize(x))
        return out

    def predict(self, x: np.ndarray) -> int:
        # np.argmax breaks ties toward the lowest class index
        return int(np.argmax(self.logits(x)))

    def cross_entropy_loss(self, x: np.ndarray, y: int) -> float:
        if not 0 <= y < self.num_classes:
            raise ValueError(f"label {y} out of range for {self.num_classes} classes")
        return float(-_log_softmax(self.logits(x))[y])

    # -- gradients ---------------------------------------------------------

    def _loss_backward(self, x: np.ndarray, y: int):
        x = self._check_input(x)
        if not 0 <= y < self.num_classes:
            raise ValueError(f"label {y} out of range for {self.num_classes} classes")
        z = self._standardize(x)
        logits, cache = self._forward(z)
        p = _softmax(logits)
        dlogits = p.copy()
        dlogits[y] -= 1.0
        dz, grads = self._backward(dlogits, cache)
        return dz / 255.0, grads, logits

    def input_gradient(self, x: np.ndarray, y: int) -> np.ndarray:
        """Exact gradient of the cross-entropy loss w.r.t. 0-255 pixels."""
        dx, _, _ = self._loss_backward(x, y)
        return dx

    def parameter_gradients(self, x: np.ndarray, y: int) -> dict[str, np.ndarray]:
        _, grads, _ = self._loss_backward(x, y)
        return grads


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

    def _forward(self, z):
        zf = z.reshape(-1)
        return self.params["W"] @ zf + self.params["b"], zf

    def _backward(self, dlogits, zf):
        grads = {"W": np.outer(dlogits, zf), "b": dlogits.copy()}
        dz = self.params["W"].T @ dlogits
        return dz.reshape(self.image_shape.dims), grads


class TanhMLP(Model):
    kind = "mlp-1-hidden"

    def __init__(self, image_shape, num_classes, rng=None, hidden: int = 32):
        super().__init__(image_shape, num_classes)
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

    def _forward(self, z):
        zf = z.reshape(-1)
        h = np.tanh(self.params["W1"] @ zf + self.params["b1"])
        logits = self.params["W2"] @ h + self.params["b2"]
        return logits, (zf, h)

    def _backward(self, dlogits, cache):
        zf, h = cache
        dh = self.params["W2"].T @ dlogits
        da1 = dh * (1.0 - h * h)
        grads = {
            "W2": np.outer(dlogits, h),
            "b2": dlogits.copy(),
            "W1": np.outer(da1, zf),
            "b1": da1,
        }
        dz = self.params["W1"].T @ da1
        return dz.reshape(self.image_shape.dims), grads


def _conv_same(x, W, b):
    """3x3 same-padded convolution, x: (H, W, Cin), W: (3, 3, Cin, Cout)."""
    H, Wd, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((H, Wd, W.shape[3]))
    for di in range(3):
        for dj in range(3):
            out += np.tensordot(xp[di:di + H, dj:dj + Wd, :], W[di, dj], axes=([2], [0]))
    return out + b, xp


def _conv_same_backward(dout, xp, W):
    H, Wd, _ = dout.shape
    dW = np.zeros_like(W)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            dW[di, dj] = np.tensordot(xp[di:di + H, dj:dj + Wd, :], dout, axes=([0, 1], [0, 1]))
            dxp[di:di + H, dj:dj + Wd, :] += np.tensordot(dout, W[di, dj], axes=([2], [1]))
    db = dout.sum(axis=(0, 1))
    return dxp[1:1 + H, 1:1 + Wd, :], dW, db


def _avgpool2(x):
    H, W, C = x.shape
    return x.reshape(H // 2, 2, W // 2, 2, C).mean(axis=(1, 3))


def _avgpool2_backward(d):
    return np.repeat(np.repeat(d, 2, axis=0), 2, axis=1) / 4.0


class TinyConv(Model):
    """conv3x3 -> tanh -> avgpool2 -> conv3x3 -> tanh -> avgpool2 -> linear."""

    kind = "tiny-conv"

    def __init__(self, image_shape, num_classes, rng=None, channels: tuple[int, int] = (6, 6)):
        super().__init__(image_shape, num_classes)
        if image_shape.height % 4 or image_shape.width % 4:
            raise ValueError("tiny-conv needs height and width divisible by 4")
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

    def _forward(self, z):
        c1, xp1 = _conv_same(z, self.params["W1"], self.params["b1"])
        t1 = np.tanh(c1)
        p1 = _avgpool2(t1)
        c2, xp2 = _conv_same(p1, self.params["W2"], self.params["b2"])
        t2 = np.tanh(c2)
        p2 = _avgpool2(t2)
        flat = p2.reshape(-1)
        logits = self.params["W3"] @ flat + self.params["b3"]
        return logits, (xp1, t1, xp2, t2, p2.shape, flat)

    def _backward(self, dlogits, cache):
        xp1, t1, xp2, t2, p2_shape, flat = cache
        grads = {"W3": np.outer(dlogits, flat), "b3": dlogits.copy()}
        dp2 = (self.params["W3"].T @ dlogits).reshape(p2_shape)
        dt2 = _avgpool2_backward(dp2)
        dc2 = dt2 * (1.0 - t2 * t2)
        dp1, grads["W2"], grads["b2"] = _conv_same_backward(dc2, xp2, self.params["W2"])
        dt1 = _avgpool2_backward(dp1)
        dc1 = dt1 * (1.0 - t1 * t1)
        dz, grads["W1"], grads["b1"] = _conv_same_backward(dc1, xp1, self.params["W1"])
        return dz, grads


def build_model(kind: str, image_shape: ImageShape, num_classes: int, seed: int = 0, **kwargs) -> Model:
    rng = make_rng(seed, stream=17)
    if kind == "softmax-linear":
        return SoftmaxLinear(image_shape, num_classes, rng=rng, **kwargs)
    if kind == "mlp-1-hidden":
        return TanhMLP(image_shape, num_classes, rng=rng, **kwargs)
    if kind == "tiny-conv":
        return TinyConv(image_shape, num_classes, rng=rng, **kwargs)
    raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")


def train_classifier(dataset: LabeledDataset, kind: str, cfg: TrainConfig, **kwargs):
    """Minibatch SGD on the cross-entropy loss.

    Deterministic given cfg.seed; returns (model, final_train_accuracy).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    model = build_model(kind, dataset.image_shape, dataset.num_classes, seed=cfg.seed, **kwargs)
    rng = make_rng(cfg.seed, stream=1)
    n = len(dataset)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            total = {k: np.zeros_like(v) for k, v in model.params.items()}
            for i in batch:
                for k, g in model.parameter_gradients(dataset.images[i], int(dataset.labels[i])).items():
                    total[k] += g
            scale = cfg.learning_rate / len(batch)
            for k in model.params:
                model.params[k] -= scale * total[k]
    return model, accuracy(model, dataset)


def accuracy(model: Model, dataset: LabeledDataset) -> float:
    if len(dataset) == 0:
        return 0.0
    correct = sum(
        model.predict(x) == int(y) for x, y in zip(dataset.images, dataset.labels)
    )
    return correct / len(dataset)


def save_model(model: Model, path: str):
    """Write a versioned JSON checkpoint (kind tag, shapes, parameter arrays)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "kind": model.kind,
        "image_shape": list(model.image_shape.dims),
        "num_classes": model.num_classes,
        "hyper": {},
        "params": {
            k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in model.params.items()
        },
    }
    if isinstance(model, TanhMLP):
        doc["hyper"]["hidden"] = model.hidden
    if isinstance(model, TinyConv):
        doc["hyper"]["channels"] = list(model.channels)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path: str) -> Model:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
    shape = ImageShape(*doc["image_shape"])
    hyper = doc.get("hyper", {})
    kwargs = {}
    if doc["kind"] == "mlp-1-hidden" and "hidden" in hyper:
        kwargs["hidden"] = hyper["hidden"]
    if doc["kind"] == "tiny-conv" and "channels" in hyper:
        kwargs["channels"] = tuple(hyper["channels"])
    model = build_model(doc["kind"], shape, doc["num_classes"], **kwargs)
    for k, spec in doc["params"].items():
        model.params[k] = np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
    return model
