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
    ImageShape, _conv3x3, _conv3x3_backward, _decode_arrays, _encode_arrays, make_rng,
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
        if self.attack_steps < 1:
            raise ValueError("attack_steps must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")


def _softplus(raw: float) -> float:
    return float(np.logaddexp(0.0, raw))


def _sigmoid(raw: float) -> float:
    return float(1.0 / (1.0 + np.exp(-raw))) if raw >= 0 else float(np.exp(raw) / (1.0 + np.exp(raw)))


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

    def _inputs(self, x_adv, grad):
        x_adv = np.asarray(x_adv, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if x_adv.shape != self.image_shape.dims or grad.shape != x_adv.shape:
            raise ValueError("iterate and gradient must both match the generator image shape")
        xs = x_adv / 255.0 - 0.5
        peak = np.abs(grad).max()
        gs = grad / peak if peak > 0 else np.zeros_like(grad)
        return xs, gs

    def _forward(self, t, x_adv, grad):
        p = self.theta[t]
        xs, gs = self._inputs(x_adv, grad)
        if self.arch == "mlp":
            v = np.concatenate([xs.reshape(-1), gs.reshape(-1)])
            a1 = p["W1"] @ v + p["b1"]
            h1 = np.tanh(a1)
            a2 = p["W2"] @ h1 + p["b2"]
            h2 = np.tanh(a2)
            raw = float(p["W3"] @ h2 + p["b3"][0])
            cache = ("mlp", v, h1, h2, raw)
        else:
            a = np.concatenate([xs, gs], axis=2)[None]
            layers = []  # (conv cache, instance-norm cache) of conv stages 1, 2, 3
            for i in (1, 2, 3):
                z, conv_cache = _conv3x3(a, p[f"K{i}"], p[f"c{i}"], stride=2)
                a, norm_cache = _instance_norm(z)
                layers.append((conv_cache, norm_cache))
            flat = a.reshape(-1)
            h = p["W1"] @ flat + p["b1"]
            raw = float(p["W2"] @ h + p["b2"][0])
            cache = ("conv", layers, a.shape, flat, h, raw)
        gamma = self.head_scale * _softplus(raw)
        return gamma, cache

    def gamma_forward(self, t, x_adv, grad) -> float:
        """Positive step scale for attack step t (0-based)."""
        gamma, _ = self._forward(t, x_adv, grad)
        return gamma

    def parameter_gradient(self, t, x_adv, grad, upstream: float) -> dict[str, np.ndarray]:
        """upstream * d(gamma)/d(theta_t), exact."""
        _, cache = self._forward(t, x_adv, grad)
        return self._backward_cache(t, cache, upstream)

    def _backward_cache(self, t, cache, upstream):
        p = self.theta[t]
        raw = cache[-1]
        draw = upstream * self.head_scale * _sigmoid(raw)
        if cache[0] == "mlp":
            _, v, h1, h2, _ = cache
            grads = {"W3": draw * h2, "b3": np.array([draw])}
            dh2 = draw * p["W3"]
            da2 = dh2 * (1.0 - h2 * h2)
            grads["W2"] = da2[:, None] * h1
            grads["b2"] = da2
            dh1 = p["W2"].T @ da2
            da1 = dh1 * (1.0 - h1 * h1)
            grads["W1"] = da1[:, None] * v
            grads["b1"] = da1
            return grads
        _, layers, a_shape, flat, h, _ = cache
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

    Each outer step samples an example and two distinct pool models: one
    supplies attack gradients, the other scores the iterates.  Step t's
    parameters are updated from loss_t alone; earlier iterates are treated
    as constants (no cross-step backpropagation).
    """
    if len(model_pool) < 2:
        raise ValueError(
            "training the scaling-factor generator requires at least two "
            "white-box models; a single model drives the scale arbitrarily "
            "high and destroys transferability"
        )
    gen = ScalingFactorGenerator(
        cfg.attack_steps, dataset.image_shape, arch=arch, seed=cfg.seed,
        head_scale=head_scale, hidden=hidden,
    )
    rng = make_rng(cfg.seed, stream=9)
    n_models = len(model_pool)
    for _ in range(cfg.total_steps):
        i = int(rng.integers(len(dataset)))
        cx_i, cy_i = rng.choice(n_models, size=2, replace=False)
        _ascent_episode(gen, model_pool[int(cx_i)], model_pool[int(cy_i)],
                        dataset.images[i], int(dataset.labels[i]), cfg)
    return gen


def _ascent_episode(gen, c_x, c_y, x, y, cfg):
    """One outer step of train_generator: a cfg.attack_steps-step attack on
    (x, y) by c_x, scored by c_y, with theta_t updated in place after step t."""
    lo, hi = _box(x, cfg.epsilon)  # the budget box of x, built once
    x_adv = x.copy()
    for t in range(cfg.attack_steps):
        grad = c_x.input_gradient(x_adv, y)
        gamma, cache = gen._forward(t, x_adv, grad)
        x_next = x_adv + gamma * grad
        _clamp(x_next, lo, hi, out=x_next)
        score_grad = c_y.input_gradient(x_next, y)
        upstream = float(np.sum(score_grad * grad))
        theta = gen.theta[t]
        for k, gval in gen._backward_cache(t, cache, upstream).items():
            theta[k] += cfg.learning_rate * gval
        x_adv = x_next


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
