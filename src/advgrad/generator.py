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

The forward and backward passes take one image or n rows at once, with one
step's parameters shared by every row or a stack of one step per row; the
one-image gamma_forward and parameter_gradient run theta_t on their image,
and gamma_forward on a batch runs theta_t on every row (the batched attack
loop calls it once per step), each row with the bits of its one-image call.
train_generator runs its episodes on a wavefront: step t of episode k needs
only theta_t as episode k - 1 left it and its own iterate from step t - 1,
so the steps with k + t = tau form one front, with one batched generator
step and one input_gradient call per pool model.  The episodes' examples and
model pairs are drawn before the fronts, a block at a time, and each episode
keeps one row of the training buffers for its whole attack.  In exact
arithmetic that is the serial episode loop; in floating point theta differs
from it only where a batched model gradient differs from the single-image
one in its last bits, which training carries forward (the tests bound the
drift at 1e-12 relative at learning rate 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# project is re-exported: callers and the benchmark's tracer use generator.project
from .attacks import (
    MAX_STEPS, AdaptiveStep, AttackConfig, AttackResult, _attack_loop, _box, _clamp, project,
)
from .numerics import (
    ImageShape, _check_count, _check_json, _check_pair, _check_real, _check_seed, _conv3x3,
    _conv3x3_backward, _decode_arrays, _encode_arrays, _image_shape, _read_checkpoint,
    _write_checkpoint, make_rng,
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
# every key of a generator checkpoint besides its format tag, all required
_CHECKPOINT_KEYS = ("arch", "steps", "head_scale", "hidden", "conv_channels", "image_shape",
                    "theta")
_IN_EPS = 1e-5
# train_generator draws its episodes in blocks of about this many bytes of
# per-episode rows (iterate, gradient and box of each): 64 episodes at 8x8x1.
# Smaller blocks train slower: 8 episodes per block took 77 ms against 73 ms
# for the transfer setting's 300 episodes (2-core Xeon, OpenBLAS)
_BLOCK_BYTES = 1 << 17
# the ceiling of GeneratorTrainConfig.total_steps, the training episodes; the
# CLI's default is 2000
MAX_TOTAL_STEPS = 1_000_000


@dataclass(frozen=True)
class GeneratorTrainConfig:
    total_steps: int
    attack_steps: int
    learning_rate: float
    epsilon: float
    seed: int = 0

    def __post_init__(self):
        _check_real("learning_rate", self.learning_rate, "(0, inf)")
        _check_real("epsilon", self.epsilon, "[0, inf]")
        _check_count("attack_steps", self.attack_steps, 1, MAX_STEPS)
        _check_count("total_steps", self.total_steps, 0, MAX_TOTAL_STEPS)
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
        _check_count("steps", steps, 1, MAX_STEPS)  # one parameter set per step
        if arch not in ("mlp", "conv"):
            raise ValueError(f"unknown generator architecture {arch!r}")
        _check_real("head_scale", head_scale, "(0, inf)")
        _check_pair("hidden", hidden)
        _check_count("conv_channels", conv_channels, 1)
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
    # Both passes take one image or n rows at once: the inputs have the image
    # shape, with a leading row axis for n rows.  Each parameter p[k] is either
    # one step's array, shared by every row (gamma_forward and
    # parameter_gradient pass theta[t]), or a stack with one step per row,
    # p[k][i] for row i (train_generator passes a slice of its (T, ...)
    # parameter stack).  Either way each row gets the bits of its one-image call.

    def _inputs(self, x_adv, grad):
        """[x / 255 - 0.5 | grad / peak] of the flattened (iterate, gradient)
        pair of one image or of each of n rows, where peak is the pair's
        largest |grad|; without a positive peak the gradient part reads 0."""
        x_adv = np.asarray(x_adv, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if (x_adv.ndim not in (3, 4) or x_adv.shape[-3:] != self.image_shape.dims
                or grad.shape != x_adv.shape):
            raise ValueError("iterate and gradient must both match the generator image shape")
        d = self.image_shape.size
        v = np.zeros(x_adv.shape[:-3] + (2 * d,))
        xs, gs = v[..., :d], v[..., d:]
        np.subtract(x_adv.reshape(xs.shape) / 255.0, 0.5, out=xs)
        grad = grad.reshape(gs.shape)
        if grad.ndim == 1:
            # one image: a scalar test costs less than a masked divide
            peak = np.abs(grad).max()
            if peak > 0:
                np.divide(grad, peak, out=gs)
        else:
            peak = np.abs(grad).max(axis=1, keepdims=True)
            np.divide(grad, peak, out=gs, where=peak > 0)
        return v

    def _forward(self, p, x_adv, grad):
        """gamma (a scalar, or (n,)) and the backward cache of one (iterate,
        gradient) pair or of n rows."""
        v = self._inputs(x_adv, grad)
        if self.arch == "mlp":
            # matmul takes one BLAS matrix-vector product (the last layer: one
            # dot) per row, with the bits of the row's own p[k] @ v
            h1 = np.tanh(np.matmul(p["W1"], v[..., None])[..., 0] + p["b1"])
            h2 = np.tanh(np.matmul(p["W2"], h1[..., None])[..., 0] + p["b2"])
            raw = np.matmul(p["W3"][..., None, :], h2[..., None])[..., 0, 0] + p["b3"][..., 0]
            cache = ("mlp", v, h1, h2, raw)
        else:
            dims, d = self.image_shape.dims, self.image_shape.size
            flat = v.reshape(-1, 2 * d)
            rows = [self._conv_forward(self._row_params(p, i), flat[i, :d].reshape(dims),
                                       flat[i, d:].reshape(dims))
                    for i in range(len(flat))]
            raw = np.array([row[-1] for row in rows]).reshape(v.shape[:-1])
            cache = ("conv", rows, raw)
        return self.head_scale * np.logaddexp(0.0, raw), cache

    @staticmethod
    def _row_params(p, i):
        """Row i's parameters: a stack has one more axis than a step's bias c1."""
        return {k: w[i] for k, w in p.items()} if p["c1"].ndim == 2 else p

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

    def gamma_forward(self, t, x_adv, grad):
        """Positive step scale for attack step t (0-based): a float for one
        image, an (N,) array for an (N, H, W, C) batch of iterates and
        gradients, each row with theta_t and the bits of its one-image call."""
        gamma, _ = self._forward(self.theta[t], x_adv, grad)
        return float(gamma) if gamma.ndim == 0 else gamma

    def parameter_gradient(self, t, x_adv, grad, upstream: float) -> dict[str, np.ndarray]:
        """upstream * d(gamma)/d(theta_t) at one image, exact."""
        p = self.theta[t]
        _, cache = self._forward(p, x_adv, grad)
        return self._backward(p, cache, upstream)

    def _backward(self, p, cache, upstream):
        """upstream * d(gamma)/d(parameters) of one image (shaped as p) or of
        each of n rows (stacked, one row each); upstream is a scalar or (n,)."""
        raw = cache[-1]
        e = np.exp(-np.abs(raw))  # the sigmoid of raw, without overflow on either side
        draw = upstream * self.head_scale * np.where(raw >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        if cache[0] == "mlp":
            _, v, h1, h2, _ = cache
            d = draw[..., None]
            grads = {"W3": d * h2, "b3": d}
            da2 = d * p["W3"] * (1.0 - h2 * h2)
            # each outer product entry is one product, which einsum rounds as `*` does
            grads["W2"] = np.einsum("...i,...j->...ij", da2, h1)
            grads["b2"] = da2
            dh1 = np.matmul(np.swapaxes(p["W2"], -1, -2), da2[..., None])[..., 0]
            da1 = dh1 * (1.0 - h1 * h1)
            grads["W1"] = np.einsum("...i,...j->...ij", da1, v)
            grads["b1"] = da1
            return grads
        flat = draw.reshape(-1)
        rows = [self._conv_backward(self._row_params(p, i), row, flat[i])
                for i, row in enumerate(cache[1])]
        return {k: np.stack([g[k] for g in rows]).reshape(draw.shape + rows[0][k].shape)
                for k in rows[0]}

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
    up to attack_steps episodes are in flight and one enters per front.  The
    episodes' draws are made before the fronts, in the serial loop's order
    and a block of episodes at a time (_BLOCK_BYTES), with their examples,
    labels and budget boxes; an episode keeps one buffer row from its entry
    to its last step.  Each front makes one input_gradient call per pool
    model.  That call covers every row the model scores, every row whose
    next gradient it supplies (both at the new iterate) and the entering
    episode's first gradient, gathered from the rows in that order, scored
    rows first.  Each theta_t still takes its updates in episode order, so
    in exact arithmetic the fronts give the serial loop's theta.  A batched
    input_gradient may differ from the single-image call in its last bits,
    so theta agrees with the serial loop to rounding that training carries
    forward, and bit for bit when every model computes its batch one row at
    a time.  The drift grows with the learning rate.  Over 20 seeds of 12
    episodes x 4 steps (8x8x1 images, hidden=(8, 4), pools of 2-4 models),
    the largest deviation of a step's parameters, over its largest
    parameter, was 6e-16 at learning rate 0.3, 2.8e-15 at 1 and 1.5e-12 at
    7.5; hypothesis found 6.1e-12 at 7.5 after 7 episodes.  The tests hold
    it to 1e-12 relative at learning rate 1.
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
    steps, last, dims = cfg.attack_steps, cfg.attack_steps - 1, dataset.image_shape.dims
    rng = make_rng(cfg.seed, stream=9)
    block = max(1, _BLOCK_BYTES // (4 * 8 * dataset.image_shape.size))
    rows = block + steps
    # row r holds one episode for its whole attack: its iterate, c_x's gradient
    # there, its budget box and label, and the pool indices of c_x and c_y.
    # The rows base + [a, b) are in flight, the episode at attack step t in
    # row base + t, and base drops by one per front, so an episode keeps its
    # row; the drawn episodes wait below, the next to enter in row base - 1.
    x_at, g_at, lo, hi = (np.empty((rows,) + dims) for _ in range(4))
    label = np.empty(rows, dtype=np.int64)
    cx, cy = [0] * rows, [0] * rows
    # a front's gamma * gradient rows, and the views of the stack that each
    # window (a, b) of steps uses, made once
    scaled = np.empty((steps,) + dims)
    windows = {}
    a = b = started = drawn = 0
    base = rows
    while started < cfg.total_steps or a < b:
        entering = started < cfg.total_steps
        if entering and started == drawn:
            # the episodes in flight move up to the last rows (a is 0 while
            # episodes enter), and the next block is drawn below them
            count = min(block, cfg.total_steps - drawn)
            top = rows - b
            for buf in (x_at, g_at, lo, hi, label, cx, cy):
                buf[top:rows] = buf[base:base + b]
            base, drawn = top, drawn + count
            # the block's first episode goes to the highest row, next to enter
            new = slice(base - count, base)
            example, c_x, c_y = _draw_episodes(rng, count, len(dataset), len(model_pool))[:, ::-1]
            cx[new], cy[new] = c_x.tolist(), c_y.tolist()
            x_at[new], label[new] = dataset.images[example], dataset.labels[example]
            lo[new], hi[new] = _box(x_at[new], cfg.epsilon)
        n, r0 = b - a, base + a
        keep = min(b, last) - a  # rows [r0, r0 + keep) take another step
        if n:
            if (a, b) not in windows:
                windows[a, b] = {k: s[a:b] for k, s in stack.items()}
            params = windows[a, b]
            x, g = x_at[r0:r0 + n], g_at[r0:r0 + n]
            gamma, cache = gen._forward(params, x, g)
            x += np.multiply(gamma[:, None, None, None], g, out=scaled[:n])
            _clamp(x, lo[r0:r0 + n], hi[r0:r0 + n], out=x)
        # query row u is x_at row ask[u]: c_y scores every row at its new
        # iterate (u < n), and c_x attacks there every row that takes another
        # step, after the entering episode's example in row r0 - 1
        ask = [*range(r0, r0 + n), *range(r0 - entering, r0 + keep)]
        # each model answers its rows in one input_gradient call: the rows it
        # scores, then the rows it attacks, the entering episode last.  A
        # batched gradient's bits can depend on its rows' count and places,
        # and in this order theta has the bits of the wavefront loop kept in
        # tests/reference_attack_step.py
        order, ends = [], []
        for m in range(len(model_pool)):
            order += [u for u in range(n) if cy[ask[u]] == m]
            order += [u for u in range(n + entering, len(ask)) if cx[ask[u]] == m]
            if entering and cx[r0 - 1] == m:
                order.append(n)
            ends.append(len(order))
        src = [ask[u] for u in order]
        points, labels = x_at[src], label[src]
        answer = np.empty_like(points)  # answer[u] for query row u
        start = 0
        for model, end in zip(model_pool, ends):
            if end > start:
                answer[order[start:end]] = model.input_gradient(points[start:end],
                                                                labels[start:end])
            start = end
        if n:
            upstream = (answer[:n] * g).reshape(n, -1).sum(axis=1)
            for k, grad in gen._backward(params, cache, upstream).items():
                if cfg.learning_rate != 1.0:  # a product by 1.0 keeps every bit
                    grad *= cfg.learning_rate  # in place: no second temporary of W1's size
                params[k] += grad
        g_at[r0 - entering:r0 + keep] = answer[n:]
        base, a, b = base - 1, a + 1, a + 1 + keep
        if entering:
            a, started = 0, started + 1
    return gen


def _draw_episodes(rng, count, n_examples, n_models):
    """(example, c_x, c_y) index arrays of the next count episodes, drawn as
    the serial loop draws them: one integers and one choice call per episode."""
    picks = np.empty((count, 3), dtype=np.int64)
    for row in picks:
        row[0] = rng.integers(n_examples)
        row[1:] = rng.choice(n_models, size=2, replace=False)
    return picks.T


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
    _write_checkpoint(path, GENERATOR_FORMAT, {
        "arch": gen.arch,
        "steps": gen.steps,
        "head_scale": gen.head_scale,
        "hidden": list(gen.hidden),
        "conv_channels": gen.conv_channels,
        "image_shape": list(gen.image_shape.dims),
        "theta": [_encode_arrays(step) for step in gen.theta],
    })


def load_generator(path: str) -> ScalingFactorGenerator:
    """Inverse of save_generator; a malformed checkpoint raises ValueError naming the problem."""
    doc = _read_checkpoint(path, GENERATOR_FORMAT, _CHECKPOINT_KEYS, _CHECKPOINT_KEYS,
                           "generator checkpoint")
    _check_json("generator checkpoint theta", doc["theta"], list)
    # counted before the generator builds one parameter set per step
    _check_count("steps", doc["steps"], 1, MAX_STEPS)
    if len(doc["theta"]) != doc["steps"]:
        raise ValueError(f"generator checkpoint holds {len(doc['theta'])} step sets "
                         f"for {doc['steps']} steps")
    gen = ScalingFactorGenerator(
        doc["steps"], _image_shape(doc["image_shape"], "generator checkpoint"), arch=doc["arch"],
        head_scale=doc["head_scale"], hidden=doc["hidden"],
        conv_channels=doc["conv_channels"],
    )
    gen.theta = [_decode_arrays(step, like, f"step {t} of the generator checkpoint")
                 for t, (step, like) in enumerate(zip(doc["theta"], gen.theta))]
    return gen
