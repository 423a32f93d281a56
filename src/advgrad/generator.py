"""Trainable per-step scaling-factor generator for the adaptive attack.

One independent parameter set per attack step maps (current iterate,
gradient) to a positive scalar step scale.  Two architectures share the
same linear tail: an MLP over the concatenated flattened inputs, and a
strided conv stack with instance normalization for image inputs of side
>= 8.  All gradients are hand-written and finite-difference checked.  The
attack itself is attacks.run_attack with an AdaptiveStep rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .attacks import AdaptiveStep, AttackConfig, AttackResult, _attack_loop, project
from .numerics import ImageShape, make_rng

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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.attack_steps < 1:
            raise ValueError("attack_steps must be >= 1")


def _softplus(raw: float) -> float:
    return float(np.logaddexp(0.0, raw))


def _sigmoid(raw: float) -> float:
    return float(1.0 / (1.0 + np.exp(-raw))) if raw >= 0 else float(np.exp(raw) / (1.0 + np.exp(raw)))


def _conv_s2(x, W, b):
    """3x3 stride-2 convolution with padding 1; x: (H, W, Cin)."""
    H, Wd, _ = x.shape
    ho, wo = H // 2, Wd // 2
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((ho, wo, W.shape[3]))
    for di in range(3):
        for dj in range(3):
            out += np.tensordot(
                xp[di:di + 2 * ho:2, dj:dj + 2 * wo:2, :], W[di, dj], axes=([2], [0])
            )
    return out + b, xp


def _conv_s2_backward(dout, xp, W):
    ho, wo, _ = dout.shape
    dW = np.zeros_like(W)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            sl = np.s_[di:di + 2 * ho:2, dj:dj + 2 * wo:2, :]
            dW[di, dj] = np.tensordot(xp[sl], dout, axes=([0, 1], [0, 1]))
            dxp[sl] += np.tensordot(dout, W[di, dj], axes=([2], [1]))
    return dW, dout.sum(axis=(0, 1))


def _instance_norm(x):
    """Per-channel spatial normalization without affine parameters."""
    m = x.mean(axis=(0, 1), keepdims=True)
    v = x.var(axis=(0, 1), keepdims=True)
    inv = 1.0 / np.sqrt(v + _IN_EPS)
    xhat = (x - m) * inv
    return xhat, (xhat, inv)


def _instance_norm_backward(dy, cache):
    xhat, inv = cache
    n = xhat.shape[0] * xhat.shape[1]
    s1 = dy.sum(axis=(0, 1), keepdims=True)
    s2 = (dy * xhat).sum(axis=(0, 1), keepdims=True)
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
            img = np.concatenate([xs, gs], axis=2)
            z1, xp1 = _conv_s2(img, p["K1"], p["c1"])
            n1, nc1 = _instance_norm(z1)
            z2, xp2 = _conv_s2(n1, p["K2"], p["c2"])
            n2, nc2 = _instance_norm(z2)
            z3, xp3 = _conv_s2(n2, p["K3"], p["c3"])
            n3, nc3 = _instance_norm(z3)
            flat = n3.reshape(-1)
            h = p["W1"] @ flat + p["b1"]
            raw = float(p["W2"] @ h + p["b2"][0])
            cache = ("conv", xp1, nc1, xp2, nc2, xp3, nc3, n3.shape, flat, h, raw)
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
            grads["W2"] = np.outer(da2, h1)
            grads["b2"] = da2
            dh1 = p["W2"].T @ da2
            da1 = dh1 * (1.0 - h1 * h1)
            grads["W1"] = np.outer(da1, v)
            grads["b1"] = da1
            return grads
        _, xp1, nc1, xp2, nc2, xp3, nc3, n3_shape, flat, h, _ = cache
        grads = {"W2": draw * h, "b2": np.array([draw])}
        dh = draw * p["W2"]
        grads["W1"] = np.outer(dh, flat)
        grads["b1"] = dh
        dn3 = (p["W1"].T @ dh).reshape(n3_shape)
        dz3 = _instance_norm_backward(dn3, nc3)
        grads["K3"], grads["c3"] = _conv_s2_backward(dz3, xp3, p["K3"])
        dn2_full = np.zeros_like(xp3)
        # propagate through conv3 input to keep the chain exact
        ho, wo = dz3.shape[0], dz3.shape[1]
        for di in range(3):
            for dj in range(3):
                dn2_full[di:di + 2 * ho:2, dj:dj + 2 * wo:2, :] += np.tensordot(
                    dz3, p["K3"][di, dj], axes=([2], [1])
                )
        dn2 = dn2_full[1:-1, 1:-1, :]
        dz2 = _instance_norm_backward(dn2, nc2)
        grads["K2"], grads["c2"] = _conv_s2_backward(dz2, xp2, p["K2"])
        dn1_full = np.zeros_like(xp2)
        ho, wo = dz2.shape[0], dz2.shape[1]
        for di in range(3):
            for dj in range(3):
                dn1_full[di:di + 2 * ho:2, dj:dj + 2 * wo:2, :] += np.tensordot(
                    dz2, p["K2"][di, dj], axes=([2], [1])
                )
        dn1 = dn1_full[1:-1, 1:-1, :]
        dz1 = _instance_norm_backward(dn1, nc1)
        grads["K1"], grads["c1"] = _conv_s2_backward(dz1, xp1, p["K1"])
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
        x = dataset.images[i]
        y = int(dataset.labels[i])
        cx_i, cy_i = rng.choice(n_models, size=2, replace=False)
        c_x, c_y = model_pool[int(cx_i)], model_pool[int(cy_i)]
        x_adv = x.copy()
        for t in range(cfg.attack_steps):
            grad = c_x.input_gradient(x_adv, y)
            gamma, cache = gen._forward(t, x_adv, grad)
            x_next = project(x_adv + gamma * grad, x, cfg.epsilon)
            score_grad = c_y.input_gradient(x_next, y)
            upstream = float(np.sum(score_grad * grad))
            for k, gval in gen._backward_cache(t, cache, upstream).items():
                gen.theta[t][k] = gen.theta[t][k] + cfg.learning_rate * gval
            x_adv = x_next
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
        "theta": [
            {k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
             for k, v in step.items()}
            for step in gen.theta
        ],
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
    gen.theta = [
        {k: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
         for k, spec in step.items()}
        for step in doc["theta"]
    ]
    return gen
