"""The attack loop and the generator training loop as they were before their
per-attack invariants were hoisted and their per-point work vectorized, and
before training ran its episodes on a wavefront.  They are kept verbatim as
the references of `advgrad.attacks.run_attack` and
`advgrad.generator.train_generator` (tests) and as their timing baseline
(``bench/``).

Each step here rebuilds the projection box with two clips, takes the
gradient's L1 norm twice under momentum, averages a one-model ensemble,
multiplies by the sign flip and looks up every transform again.  It draws
each EMI offset and each VT neighbour with its own call and stacks the
points, builds DIM's resize index, and adds the EMI and VT rows, the SIM
scales and the TIM taps one Python-level add at a time.  `run_attack` must
equal this loop bit for bit.

Training here runs one episode after another (`_ascent_episode`), with two
single-image gradient calls and one single-image generator step per attack
step.  The library runs the steps of one front together, so its theta equals
this loop's bit for bit only when each pool model computes a batch one row
at a time; with batched model gradients the two agree to 1e-12 relative at
learning rate 1.  `train_generator_wavefront` is the first front-by-front
version of the library loop, which drew each episode as it entered and
rebuilt each model's rows with `np.flatnonzero` and `np.concatenate` on
every front; the library's theta must equal its theta bit for bit, with any
pool.

Some things differ from the library code they were copied from:
`AttackResult` has no final loss any more, so none is computed; the methods
`ScalingFactorGenerator._inputs`, `_forward` and `_backward_cache` of the
single-image generator are functions taking the generator, and `_softplus`
and `_sigmoid` are their scalar helpers, which the library no longer has.
`momentum_accumulate` and `apply_step` are gone from the library too, whose
loop holds the one definition of each step formula.
"""
from __future__ import annotations

import math

import numpy as np

from advgrad.attacks import (
    AdaptiveStep, AttackResult, DegenerateGradientError, Dim, Emi, FixedScaleStep, Sim,
    SignStep, Tim, Vt, _box, _clamp, _tim_taps,
)
from advgrad.generator import (
    ScalingFactorGenerator, _instance_norm, _instance_norm_backward,
)
from advgrad.numerics import _conv3x3, _conv3x3_backward, make_rng


def momentum_accumulate(g_prev: np.ndarray, grad: np.ndarray, mu: float) -> np.ndarray:
    """mu * g_prev + grad / ||grad||_1."""
    if g_prev.shape != grad.shape:
        raise ValueError("momentum and gradient shapes differ")
    l1 = np.abs(grad).sum()
    if l1 == 0.0:
        raise DegenerateGradientError("zero gradient in momentum accumulation")
    return mu * g_prev + grad / l1


def apply_step(x_adv, direction, rule, gamma_override: float | None = None):
    """One unprojected update, a fresh array; sign(0) = 0 in the sign rule."""
    if x_adv.shape != direction.shape:
        raise ValueError("iterate and direction shapes differ")
    if isinstance(rule, SignStep):
        return x_adv + rule.alpha * np.sign(direction)
    if isinstance(rule, FixedScaleStep):
        return x_adv + rule.gamma * direction
    if isinstance(rule, AdaptiveStep):
        if gamma_override is None:
            raise ValueError("adaptive rule needs the per-step gamma")
        return x_adv + gamma_override * direction
    raise TypeError(f"unknown step rule {rule!r}")


def ensemble_gradient(models, x: np.ndarray, y: int) -> np.ndarray:
    """Gradient of the mean of the per-model cross-entropy losses.

    x is one image or an (N, H, W, C) batch of points; each model sees the
    whole batch in one input_gradient call.
    """
    if not models:
        raise ValueError("need at least one source model")
    return sum(m.input_gradient(x, y) for m in models) / len(models)


def dim_transform(x: np.ndarray, p: float, rng: np.random.Generator,
                  min_fraction: float = 0.9) -> np.ndarray:
    """With probability p, nearest-neighbor shrink then random zero-pad back."""
    if x.ndim != 3:
        raise ValueError("dim_transform expects an (H, W, C) image")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if rng.random() >= p:
        return x
    h, w, _ = x.shape
    rh = int(rng.integers(math.ceil(min_fraction * h), h + 1))
    rw = int(rng.integers(math.ceil(min_fraction * w), w + 1))
    rows = (np.arange(rh) * h // rh).astype(int)
    cols = (np.arange(rw) * w // rw).astype(int)
    small = x[np.ix_(rows, cols)]
    top = int(rng.integers(0, h - rh + 1))
    left = int(rng.integers(0, w - rw + 1))
    out = np.zeros_like(x)
    out[top:top + rh, left:left + rw, :] = small
    return out


def tim_smooth(grad: np.ndarray, k: int, sigma: float | None = None) -> np.ndarray:
    """Per-channel Gaussian convolution with edge replication, one add per tap."""
    if grad.ndim != 3:
        raise ValueError("tim_smooth expects an (H, W, C) gradient")
    if sigma is None:
        sigma = k / 3.0
    table, weights = _tim_taps(*grad.shape, k, sigma)
    terms = grad.reshape(-1)[table] * weights
    out = np.zeros(grad.size)
    for term in terms:
        out += term
    return out.reshape(grad.shape)


def sim_gradient(models, x: np.ndarray, y: int, m: int) -> np.ndarray:
    """(1/m) sum_i grad of J(f(x / 2^i)); the 1/2^i chain-rule factor stays.

    x is one image or an (N, H, W, C) batch of points.  The m scaled copies of
    every point go to the models as one batch.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    scales = 0.5 ** np.arange(m)
    copies = scales.reshape((m,) + (1,) * x.ndim) * x
    grads = ensemble_gradient(models, copies.reshape((-1,) + x.shape[-3:]), y)
    grads = grads.reshape(copies.shape)
    total = np.zeros_like(x)
    for scale, g in zip(scales, grads):
        total += scale * g
    return total / m


def project(x_adv, x_orig, epsilon):
    """Clamp per-pixel to [orig - eps, orig + eps] intersected with [0, 255]."""
    if x_adv.shape != x_orig.shape:
        raise ValueError("shapes differ in projection")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    out = np.clip(x_adv, x_orig - epsilon, x_orig + epsilon)
    return np.clip(out, 0.0, 255.0)


def _find(transforms, kind):
    for t in transforms:
        if isinstance(t, kind):
            return t
    return None


def _mean_rows(rows):
    """Mean of the rows, summed in row order: the operand order of a per-point loop."""
    total = np.zeros_like(rows[0])
    for row in rows:
        total += row
    return total / len(rows)


def _pipeline_gradient(models, x_eval, label, cfg, state, rng):
    """Compose the configured transforms into one gradient evaluation.

    The EMI points (or x_eval alone) and the VT neighbours are drawn first and
    go to SIM or the ensemble as one batch of points.
    """
    sim = _find(cfg.transforms, Sim)
    vt = _find(cfg.transforms, Vt)
    emi = _find(cfg.transforms, Emi)
    tim = _find(cfg.transforms, Tim)

    points = [x_eval]
    if emi is not None:
        points = [x_eval + rng.uniform(-1.0, 1.0) * emi.eta * state["emi_dir"]
                  for _ in range(emi.n)]
    n_centre = len(points)
    if vt is not None:
        radius = vt.beta * cfg.epsilon
        points += [x_eval + rng.uniform(-radius, radius, size=x_eval.shape)
                   for _ in range(vt.n)]

    if sim is not None:
        rows = sim_gradient(models, np.stack(points), label, sim.m)
    elif len(points) > 1:
        rows = ensemble_gradient(models, np.stack(points), label)
    else:
        rows = [ensemble_gradient(models, points[0], label)]
    grad = _mean_rows(rows[:n_centre]) if emi is not None else rows[0]

    if vt is not None:
        tuned = grad + state["vt_var"]
        state["vt_var"] = _mean_rows(rows[n_centre:]) - grad
        grad = tuned

    if emi is not None:
        l1 = np.abs(grad).sum()
        state["emi_dir"] = grad / l1 if l1 > 0 else np.zeros_like(grad)

    if tim is not None:
        grad = tim_smooth(grad, tim.k, tim.sigma)
    return grad


def _attack_loop(source_models, target_models, x, y, cfg, rng):
    # run_attack and generator.run_attack_adaptive both enter here, so a
    # profiler wrapping the public functions counts each attack once
    if not source_models:
        raise ValueError("need at least one source model")
    if cfg.targeted and cfg.target_label == y:
        raise ValueError("target label must differ from the true label")
    if rng is None and cfg.transforms:
        rng = make_rng(0)  # only the transforms draw random numbers
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("input image has non-finite pixels")
    x_adv = x.copy()
    attack_label = cfg.target_label if cfg.targeted else y
    flip = -1.0 if cfg.targeted else 1.0
    dim = _find(cfg.transforms, Dim)
    state = {"vt_var": np.zeros_like(x), "emi_dir": np.zeros_like(x)}
    g_mom = np.zeros_like(x)
    trace: list[float] = []
    early = False
    steps_used = 0
    for t in range(cfg.steps):
        x_eval = x_adv
        if dim is not None:
            x_eval = dim_transform(x_adv, dim.p, rng, dim.min_fraction)
        grad = flip * _pipeline_gradient(source_models, x_eval, attack_label, cfg, state, rng)
        l1 = np.abs(grad).sum()
        if l1 == 0.0:
            early = True
            break
        if not math.isfinite(l1):
            raise DegenerateGradientError(f"non-finite gradient at step {t}")
        if cfg.momentum is not None:
            g_mom = momentum_accumulate(g_mom, grad, cfg.momentum)
            direction = g_mom
        else:
            direction = grad
        rule = cfg.step_rule
        if isinstance(rule, AdaptiveStep):
            gamma = float(rule.generator.gamma_forward(t, x_adv, direction))
            x_adv = apply_step(x_adv, direction, rule, gamma_override=gamma)
            trace.append(gamma)
        else:
            x_adv = apply_step(x_adv, direction, rule)
            trace.append(rule.alpha if isinstance(rule, SignStep) else rule.gamma)
        x_adv = project(x_adv, x, cfg.epsilon)
        steps_used = t + 1

    success = []
    for tm in target_models:
        pred = tm.predict(x_adv)
        success.append(pred == cfg.target_label if cfg.targeted else pred != y)
    return AttackResult(
        adversarial=x_adv,
        step_trace=trace,
        success=success,
        early_stopped=early,
        steps_used=steps_used,
    )


# -- generator training


def _softplus(raw: float) -> float:
    return float(np.logaddexp(0.0, raw))


def _sigmoid(raw: float) -> float:
    return float(1.0 / (1.0 + np.exp(-raw))) if raw >= 0 else float(np.exp(raw) / (1.0 + np.exp(raw)))


def _inputs(self, x_adv, grad):
    """ScalingFactorGenerator._inputs, with the generator as `self`."""
    x_adv = np.asarray(x_adv, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if x_adv.shape != self.image_shape.dims or grad.shape != x_adv.shape:
        raise ValueError("iterate and gradient must both match the generator image shape")
    xs = x_adv / 255.0 - 0.5
    peak = np.abs(grad).max()
    gs = grad / peak if peak > 0 else np.zeros_like(grad)
    return xs, gs


def _forward(self, t, x_adv, grad):
    """ScalingFactorGenerator._forward, with the generator as `self`."""
    p = self.theta[t]
    xs, gs = _inputs(self, x_adv, grad)
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


def _backward_cache(self, t, cache, upstream):
    """ScalingFactorGenerator._backward_cache, with the generator as `self`."""
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
    _, layers, a_shape, flat, h, _ = cache
    grads = {"W2": draw * h, "b2": np.array([draw])}
    dh = draw * p["W2"]
    grads["W1"] = np.outer(dh, flat)
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
        x = dataset.images[i]
        y = int(dataset.labels[i])
        cx_i, cy_i = rng.choice(n_models, size=2, replace=False)
        c_x, c_y = model_pool[int(cx_i)], model_pool[int(cy_i)]
        _ascent_episode(gen, c_x, c_y, x, y, cfg)
    return gen


def _ascent_episode(gen, c_x, c_y, x, y, cfg):
    """The body of train_generator's outer loop: one episode."""
    x_adv = x.copy()
    for t in range(cfg.attack_steps):
        grad = c_x.input_gradient(x_adv, y)
        gamma, cache = _forward(gen, t, x_adv, grad)
        x_next = project(x_adv + gamma * grad, x, cfg.epsilon)
        score_grad = c_y.input_gradient(x_next, y)
        upstream = float(np.sum(score_grad * grad))
        for k, gval in _backward_cache(gen, t, cache, upstream).items():
            gen.theta[t][k] = gen.theta[t][k] + cfg.learning_rate * gval
        x_adv = x_next


def train_generator_wavefront(dataset, model_pool, cfg, arch="mlp", head_scale=10.0,
                              hidden=(512, 128)):
    """The library's train_generator as it first ran its episodes on a
    wavefront: steps with k + t = tau form one front, with one input_gradient
    call per pool model, and the episode's draws, its box and the rows each
    model answers are made front by front (`np.flatnonzero`,
    `np.concatenate`, `np.append`).  Row t holds the episode at attack step t,
    and the rows move up one per front.  The library's loop must give this
    loop's theta bit for bit, with every pool model.  The pool and dataset
    checks are left out."""
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
