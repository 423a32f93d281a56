"""Trainable per-step scaling-factor generator for the adaptive attack.

One independent parameter set per attack step maps (current iterate,
gradient) to a positive scalar step scale.  Two architectures share the
same linear tail: an MLP over the concatenated flattened inputs, and a
strided conv stack with instance normalization for image sides divisible
by 8.  The conv stack only works from side 16 up: at 8x8 its third
stride-2 stage leaves a 1x1 map, which instance normalization sends to
exactly 0, so gamma ignores the iterate and the gradient and the conv
kernels get zero gradient.  All gradients are hand-written and
finite-difference checked.  The attack itself is attacks.run_attack with
an AdaptiveStep rule.

The forward and backward passes run n rows at once, each row with the
parameters of its own step; the single-image gamma_forward and
parameter_gradient are the one-row case.  train_generator runs its
episodes on a wavefront: step t of episode k needs only theta_t as episode
k - 1 left it and its own iterate from step t - 1, so the steps with
k + t = tau form one front, with one batched generator step and one
input_gradient call per pool model.  In exact arithmetic that is the serial
episode loop; in floating point theta differs from it only where a batched
model gradient differs from the single-image one in its last bits, which
training carries forward (the tests bound the drift at 1e-12 relative at
learning rate 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# project is re-exported: callers and the benchmark's tracer use generator.project
from .attacks import (
    AdaptiveStep, AttackConfig, AttackResult, _attack_loop, _box, _clamp, project,
)
from .numerics import (
    ImageShape, _check_count, _check_seed, _conv3x3, _conv3x3_backward, _decode_arrays,
    _encode_arrays, make_rng,
)

__all__ = [
    "GeneratorTrainConfig",
    "ScalingFactorGenerator",
    "train_generator",
    "run_attack_adaptive",
    "save_generator",
    "load_generator",
]

GENERATOR_FORMAT = "advgrad-generator-v1"
_IN_EPS = 1e-5


@dataclass
class GeneratorTrainConfig:
    total_steps: int
    attack_steps: int
    learning_rate: float
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        # a NaN fails every comparison, so each check asks for the valid range
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        _check_count("attack_steps", self.attack_steps, 1)
        _check_count("total_steps", self.total_steps, 0)
        _check_seed("seed", self.seed)


def _instance_norm(x):
    """Per-channel spatial normalization without affine parameters; x: (N, H, W, C)."""
    m = x.mean(axis=(1, 2), keepdims=True)
    v = x.var(axis=(1, 2), keepdims=True)
    inv = 1.0 / np.sqrt(v + _IN_EPS)
    xhat = (x - m) * inv
    return xhat, (xhat, inv)


def _instance_norm_backward(dy, cache):
    xhat, inv = cache
    n = xhat.shape[1] * xhat.shape[2]
    s1 = dy.sum(axis=(1, 2), keepdims=True)
    s2 = (dy * xhat).sum(axis=(1, 2), keepdims=True)
    return (inv / n) * (n * dy - s1 - xhat * s2)


class ScalingFactorGenerator:
    """T per-step parameter sets with identical architecture.

    The head output is mapped through a scaled softplus so the generated
    scale is strictly positive for every input.
    """

    def __init__(self, steps: int, image_shape: ImageShape, arch: str = "mlp",
                 seed: int = 0, head_scale: float = 10.0,
                 hidden: tuple[int, int] = (512, 128), conv_channels: int = 32):
        if steps < 1:
            raise ValueError("need at least one attack step")
        if arch not in ("mlp", "conv"):
            raise ValueError(f"unknown generator architecture {arch!r}")
        if head_scale <= 0:
            raise ValueError("head scale must be positive")
        if arch == "conv" and (image_shape.height < 8 or image_shape.height % 8
                               or image_shape.width % 8):
            raise ValueError("conv generator needs image sides divisible by 8 and >= 8")
        self.steps = steps
        self.image_shape = image_shape
        self.arch = arch
        self.head_scale = head_scale
        self.hidden = tuple(hidden)
        self.conv_channels = conv_channels
        rng = make_rng(seed, stream=5)
        self.theta = [self._init_step_params(rng) for _ in range(steps)]

    # -- parameter layout --------------------------------------------------

    def _init_step_params(self, rng):
        def u(*shape):
            return rng.uniform(-0.05, 0.05, size=shape)

        if self.arch == "mlp":
            d = 2 * self.image_shape.size
            h1, h2 = self.hidden
            return {
                "W1": u(h1, d), "b1": np.zeros(h1),
                "W2": u(h2, h1), "b2": np.zeros(h2),
                "W3": u(h2), "b3": np.zeros(1),
            }
        c = self.conv_channels
        cin = 2 * self.image_shape.channels
        flat = (self.image_shape.height // 8) * (self.image_shape.width // 8) * c
        h2 = self.hidden[1]
        return {
            "K1": u(3, 3, cin, c), "c1": np.zeros(c),
            "K2": u(3, 3, c, c), "c2": np.zeros(c),
            "K3": u(3, 3, c, c), "c3": np.zeros(c),
            "W1": u(h2, flat), "b1": np.zeros(h2),
            "W2": u(h2), "b2": np.zeros(1),
        }

    # -- forward / backward ------------------------------------------------
    #
    # Both passes run n rows at once.  Row i has its own parameter set: p[k][i]
    # is parameter k of row i's step.  A single-image call is the n = 1 case,
    # on views of theta[t] (_step_params); train_generator passes a slice of
    # its (T, ...) parameter stack, one consecutive step per row.

    def _step_params(self, t):
        return {k: v[None] for k, v in self.theta[t].items()}

    def _inputs(self, x_adv, grad):
        """Rows [x / 255 - 0.5 | grad / peak] of n flattened (iterate, gradient)
        pairs, where peak is the row's largest |grad|; without a positive peak
        the gradient part reads 0."""
        x_adv = np.asarray(x_adv, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if x_adv.shape[1:] != self.image_shape.dims or grad.shape != x_adv.shape:
            raise ValueError("iterate and gradient must both match the generator image shape")
        n, d = len(x_adv), self.image_shape.size
        grad = grad.reshape(n, d)
        v = np.zeros((n, 2 * d))
        np.subtract(x_adv.reshape(n, d) / 255.0, 0.5, out=v[:, :d])
        peak = np.abs(grad).max(axis=1, keepdims=True)
        np.divide(grad, peak, out=v[:, d:], where=peak > 0)
        return v

    def _forward(self, p, x_adv, grad):
        """gamma (n,) and the backward cache of n (iterate, gradient) rows."""
        v = self._inputs(x_adv, grad)
        if self.arch == "mlp":
            # matmul over the stacks takes one BLAS matrix-vector product (the
            # last layer: one dot) per row, with the bits of p[k][i] @ v[i]
            h1 = np.tanh(np.matmul(p["W1"], v[:, :, None])[:, :, 0] + p["b1"])
            h2 = np.tanh(np.matmul(p["W2"], h1[:, :, None])[:, :, 0] + p["b2"])
            raw = np.matmul(p["W3"][:, None, :], h2[:, :, None])[:, 0, 0] + p["b3"][:, 0]
            cache = ("mlp", v, h1, h2, raw)
        else:
            dims, d = self.image_shape.dims, self.image_shape.size
            rows = [self._conv_forward({k: w[i] for k, w in p.items()},
                                       v[i, :d].reshape(dims), v[i, d:].reshape(dims))
                    for i in range(len(v))]
            raw = np.array([row[-1] for row in rows])
            cache = ("conv", rows, raw)
        return self.head_scale * np.logaddexp(0.0, raw), cache

    @staticmethod
    def _conv_forward(p, xs, gs):
        a = np.concatenate([xs, gs], axis=2)[None]
        layers = []  # (conv cache, instance-norm cache) of conv stages 1, 2, 3
        for i in (1, 2, 3):
            z, conv_cache = _conv3x3(a, p[f"K{i}"], p[f"c{i}"], stride=2)
            a, norm_cache = _instance_norm(z)
            layers.append((conv_cache, norm_cache))
        flat = a.reshape(-1)
        h = p["W1"] @ flat + p["b1"]
        return layers, a.shape, flat, h, float(p["W2"] @ h + p["b2"][0])

    def gamma_forward(self, t, x_adv, grad) -> float:
        """Positive step scale for attack step t (0-based)."""
        gamma, _ = self._forward(self._step_params(t), np.asarray(x_adv, dtype=np.float64)[None],
                                 np.asarray(grad, dtype=np.float64)[None])
        return float(gamma[0])

    def parameter_gradient(self, t, x_adv, grad, upstream: float) -> dict[str, np.ndarray]:
        """upstream * d(gamma)/d(theta_t), exact."""
        p = self._step_params(t)
        _, cache = self._forward(p, np.asarray(x_adv, dtype=np.float64)[None],
                                 np.asarray(grad, dtype=np.float64)[None])
        return {k: g[0] for k, g in self._backward(p, cache, np.array([upstream])).items()}

    def _backward(self, p, cache, upstream):
        """upstream[i] * d(gamma_i)/d(row i's parameters), stacked as p is."""
        raw = cache[-1]
        e = np.exp(-np.abs(raw))  # the sigmoid of raw, without overflow on either side
        draw = upstream * self.head_scale * np.where(raw >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        if cache[0] == "mlp":
            _, v, h1, h2, _ = cache
            d = draw[:, None]
            grads = {"W3": d * h2, "b3": d}
            da2 = d * p["W3"] * (1.0 - h2 * h2)
            # each outer product entry is one product, which einsum rounds as `*` does
            grads["W2"] = np.einsum("ni,nj->nij", da2, h1)
            grads["b2"] = da2
            dh1 = np.matmul(p["W2"].transpose(0, 2, 1), da2[:, :, None])[:, :, 0]
            da1 = dh1 * (1.0 - h1 * h1)
            grads["W1"] = np.einsum("ni,nj->nij", da1, v)
            grads["b1"] = da1
            return grads
        rows = [self._conv_backward({k: w[i] for k, w in p.items()}, row, draw[i])
                for i, row in enumerate(cache[1])]
        return {k: np.stack([g[k] for g in rows]) for k in rows[0]}

    @staticmethod
    def _conv_backward(p, row, draw):
        layers, a_shape, flat, h, _ = row
        grads = {"W2": draw * h, "b2": np.array([draw])}
        dh = draw * p["W2"]
        grads["W1"] = dh[:, None] * flat
        grads["b1"] = dh
        da = (p["W1"].T @ dh).reshape(a_shape)
        for i in (3, 2, 1):
            conv_cache, norm_cache = layers[i - 1]
            dz = _instance_norm_backward(da, norm_cache)
            da, grads[f"K{i}"], grads[f"c{i}"] = _conv3x3_backward(dz, conv_cache, p[f"K{i}"])
        return grads


def train_generator(dataset, model_pool, cfg: GeneratorTrainConfig,
                    arch: str = "mlp", head_scale: float = 10.0,
                    hidden: tuple[int, int] = (512, 128)) -> ScalingFactorGenerator:
    """Per-step gradient ascent on the transfer loss.

    Each of cfg.total_steps episodes samples an example and two distinct pool
    models, and runs a cfg.attack_steps-step attack on the example: c_x
    supplies the attack gradients, c_y scores the iterates.  Step t's
    parameters are updated from loss_t alone; earlier iterates are treated as
    constants (no cross-step backpropagation).

    The episodes run on a wavefront.  Step t of episode k reads only theta_t
    as episode k - 1 left it and its own iterate from step t - 1, so the
    steps with k + t = tau are independent, and front tau runs them together:
    up to attack_steps episodes are in flight, one enters per front (its
    draws in the order of the serial loop), and each front makes one
    input_gradient call per pool model.  That call covers every row the model
    scores, every row whose next gradient it supplies (both at the new
    iterate) and the entering episode's first gradient.  Each theta_t still
    takes its updates in episode order, so in exact arithmetic the fronts give
    the serial loop's theta.  A batched input_gradient may differ from the
    single-image call in its last bits, so theta agrees with the serial loop
    to rounding that training carries forward, and bit for bit when every
    model computes its batch one row at a time.  The drift grows with the
    learning rate.  Over 20 seeds of 12 episodes x 4 steps (8x8x1 images,
    hidden=(8, 4), pools of 2-4 models), the largest deviation of a step's
    parameters, over its largest parameter, was 6e-16 at learning rate 0.3,
    2.8e-15 at 1 and 1.5e-12 at 7.5; hypothesis found 6.1e-12 at 7.5 after
    7 episodes.  The tests hold it to 1e-12 relative at learning rate 1.
    """
    if len(model_pool) < 2:
        raise ValueError(
            "training the scaling-factor generator requires at least two "
            "white-box models; a single model drives the scale arbitrarily "
            "high and destroys transferability"
        )
    if cfg.total_steps and not len(dataset):
        raise ValueError("training the scaling-factor generator needs a non-empty dataset")
    for j, model in enumerate(model_pool):
        if (model.image_shape, model.num_classes) != (dataset.image_shape, dataset.num_classes):
            raise ValueError(
                f"pool model {j} takes {model.image_shape.dims} images of "
                f"{model.num_classes} classes; the dataset holds "
                f"{dataset.image_shape.dims} images of {dataset.num_classes} classes")
    gen = ScalingFactorGenerator(
        cfg.attack_steps, dataset.image_shape, arch=arch, seed=cfg.seed,
        head_scale=head_scale, hidden=hidden,
    )
    # one (T, ...) array per parameter, with theta[t][k] a view of its row t,
    # so that the consecutive steps of a front are one slice
    stack = {k: np.stack([p[k] for p in gen.theta]) for k in gen.theta[0]}
    gen.theta = [{k: s[t] for k, s in stack.items()} for t in range(gen.steps)]
    rng = make_rng(cfg.seed, stream=9)
    last, dims = cfg.attack_steps - 1, dataset.image_shape.dims
    # row t holds the episode now at attack step t: its iterate, c_x's
    # gradient there, its budget box and label, and the pool indices of c_x
    # and c_y; rows [a, b) are in flight
    x_at, g_at, lo, hi = (np.empty((cfg.attack_steps,) + dims) for _ in range(4))
    label, cx, cy = (np.empty(cfg.attack_steps, dtype=np.int64) for _ in range(3))
    a = b = started = 0
    while started < cfg.total_steps or a < b:
        n = b - a
        params = {k: s[a:b] for k, s in stack.items()}
        x_next = x_at[a:b]  # no row in flight on the first front
        if n:
            gamma, cache = gen._forward(params, x_at[a:b], g_at[a:b])
            x_next = x_at[a:b] + gamma[:, None, None, None] * g_at[a:b]
            _clamp(x_next, lo[a:b], hi[a:b], out=x_next)
        keep = min(b, last) - a  # front rows [0, keep) take another step
        # the rows each c_x attacks: x_next of those rows, then the entering example
        points, labels, grad_by = x_next[:keep], label[a:a + keep], cx[a:a + keep]
        entering = started < cfg.total_steps
        if entering:
            i = int(rng.integers(len(dataset)))
            new_cx, new_cy = (int(j) for j in rng.choice(len(model_pool), size=2, replace=False))
            x = dataset.images[i]
            points = np.concatenate([points, x[None]])
            labels = np.append(labels, dataset.labels[i])
            grad_by = np.append(grad_by, new_cx)
            started += 1
        score, grads = np.empty_like(x_next), np.empty_like(points)
        for m, model in enumerate(model_pool):
            scored, attacked = np.flatnonzero(cy[a:b] == m), np.flatnonzero(grad_by == m)
            if len(scored) or len(attacked):
                out = model.input_gradient(np.concatenate([x_next[scored], points[attacked]]),
                                           np.concatenate([label[a:b][scored], labels[attacked]]))
                score[scored], grads[attacked] = out[:len(scored)], out[len(scored):]
        if n:
            upstream = (score * g_at[a:b]).reshape(n, -1).sum(axis=1)
            for k, g in gen._backward(params, cache, upstream).items():
                g *= cfg.learning_rate  # in place: no second temporary of W1's size
                params[k] += g
        # the rows that take another step move on to row t + 1
        for buf, front in ((x_at, x_next), (g_at, grads), (lo, lo[a:b]), (hi, hi[a:b]),
                           (label, label[a:b]), (cx, cx[a:b]), (cy, cy[a:b])):
            buf[a + 1:a + 1 + keep] = front[:keep]
        a, b = a + 1, a + 1 + keep
        if entering:
            a = 0
            x_at[0], g_at[0], label[0], cx[0], cy[0] = x, grads[-1], labels[-1], new_cx, new_cy
            lo[0], hi[0] = _box(x, cfg.epsilon)
    return gen


def run_attack_adaptive(gen: ScalingFactorGenerator, models, x, y,
                        epsilon: float, steps: int,
                        target_models=None) -> AttackResult:
    """run_attack on the white-box ensemble with AdaptiveStep(gen).

    No momentum or transforms; success is scored on target_models, or on
    the white-box models when none are given.
    """
    cfg = AttackConfig(epsilon=epsilon, steps=steps, step_rule=AdaptiveStep(gen))
    targets = models if target_models is None else target_models
    return _attack_loop(models, targets, x, y, cfg, None)


def save_generator(gen: ScalingFactorGenerator, path: str):
    doc = {
        "format": GENERATOR_FORMAT,
        "arch": gen.arch,
        "steps": gen.steps,
        "head_scale": gen.head_scale,
        "hidden": list(gen.hidden),
        "conv_channels": gen.conv_channels,
        "image_shape": list(gen.image_shape.dims),
        "theta": [_encode_arrays(step) for step in gen.theta],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_generator(path: str) -> ScalingFactorGenerator:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != GENERATOR_FORMAT:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
    gen = ScalingFactorGenerator(
        doc["steps"], ImageShape(*doc["image_shape"]), arch=doc["arch"],
        head_scale=doc["head_scale"], hidden=tuple(doc["hidden"]),
        conv_channels=doc["conv_channels"],
    )
    if len(doc["theta"]) != gen.steps:
        raise ValueError(f"generator checkpoint holds {len(doc['theta'])} step sets "
                         f"for {gen.steps} steps")
    gen.theta = [_decode_arrays(step, like, f"step {t} of the generator checkpoint")
                 for t, (step, like) in enumerate(zip(doc["theta"], gen.theta))]
    return gen
