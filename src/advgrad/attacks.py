"""Iterative gradient attacks under an L-infinity budget.

Implements the gradient-transform pipeline (momentum, DIM, TIM, SIM, VT,
EMI), the two step rules (sign step vs. scaled raw-gradient step), the
budget projection, and the full attack loop over single or ensembled
source models.

One attack step makes one input_gradient call per source model.  A step
with EMI or VT writes its (EMI n, or 1, plus VT n) points into one batch; a
step without them passes the single image.  SIM scales either m times.

Each transform makes one random draw per step (all EMI offsets at once, all
VT neighbours at once) and one row reduction (`_sum_rows`: the EMI and VT
means, the SIM scale sum, the TIM tap sum), which adds whole rows in order
from 0.0.  Draws and operand order are those of a per-point loop, so a
batched step equals it to 1e-12 relative (BLAS rounds a batched matrix
product differently in the last bits), not bit for bit.  Only the
transforms draw, so an attack without them needs no rng.

Success is defined once, by `_succeeded`: run_attack scores its targets with
it, and the harness scores a whole cell of examples with it.

There is one attack loop, `_attack_loop`, over one (H, W, C) image or an
(N, H, W, C) batch with (N,) labels and one rng per row.  run_attack is its
one-image case, and hands the models the single image.  That path is kept
for its cost, not its bits: run as a one-row batch, an attack gives the same
bits but costs 54-62% more per MLP attack and 19-23% more per tiny-conv
attack (10-step momentum BIM on two 8x8x1 models, 2-core Xeon, numpy 2.4 on
OpenBLAS), and with the models given the single image the MLP attack still
costs 18-22% more.  In a batch, row i draws
from its own stream in the one-image order (DIM, then EMI, then VT, each
step), stops on its own at a zero gradient (it keeps its iterate and draws no
more), and gets its own adaptive gamma from one gamma_forward call per step;
SIM, the ensemble and TIM run over the whole batch with the row-order sums.
So a row agrees with its one-image attack to 1e-12 relative, and its rng
ends in the same state.  The harness attacks its sweep cells, which only
read ASR, through the batch, and its matrix cells through run_attack, one
example per call: that keeps the per-example report files byte-identical,
and a profiler that times run_attack still sees one example per call.

The attack loop decides once per attack what does not change between steps:
the labels are checked against every model, the budget box is built, the
step rule becomes a scale and a sign flag, and the transforms' VT/EMI state
and the momentum buffer exist only when the config uses them.  The
transform lookup (`_Pipeline`) is built once per config and kept on it.  A
config without transforms calls `ensemble_gradient` on the iterate directly.
The loop calls the public gradient functions through this module's globals
and the models' public `input_gradient`, so a profiler that rebinds them
sees every step.

The loop is the one definition of each step formula, worked in buffers it
owns: the momentum buffer takes ``g *= mu; grad /= l1; g += grad``, that is
``mu * g + grad / ||grad||_1`` with the L1 norm one ufunc reduction (`_l1`);
the iterate takes ``x += scale * sign(direction)`` under the sign rule
(sign(0) = 0) or ``x += scale * direction`` under a fixed or adaptive scale,
and is clamped into the box in place.  The step and the |grad| of the L1
norm are written into two buffers made once per attack (a batch's live rows
use a prefix of each), so past its gradient call a step allocates nothing.
`ensemble_gradient` adds every other model's gradient into the first one's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .models import _check_label
from .numerics import (
    _check_count, _check_json, _check_real, _from_doc, gaussian_kernel_2d, make_rng,
)

__all__ = [
    "DegenerateGradientError",
    "SignStep",
    "FixedScaleStep",
    "AdaptiveStep",
    "Dim",
    "Tim",
    "Sim",
    "Vt",
    "Emi",
    "AttackConfig",
    "AttackResult",
    "dim_transform",
    "tim_smooth",
    "sim_gradient",
    "ensemble_gradient",
    "project",
    "run_attack",
    "config_to_dict",
    "config_from_dict",
]


# the ceiling of an attack's steps, and so of a scaling-factor generator's,
# which has one parameter set per step; the paper runs 10
MAX_STEPS = 1000

# the ceiling of Sim.m, Vt.n and Emi.n, which set the rows of each step's
# gradient batch, ((Emi.n or 1) + Vt.n) * Sim.m per image
MAX_TRANSFORM_COUNT = 1000


class DegenerateGradientError(RuntimeError):
    """Raised when the attack gradient vanishes or is not finite."""


# -- step rules -------------------------------------------------------------


@dataclass(frozen=True)
class SignStep:
    """x + alpha * sign(direction); alpha on the 0-255 scale."""

    alpha: float

    def __post_init__(self):
        _check_real("alpha", self.alpha, "(0, inf)")


@dataclass(frozen=True)
class FixedScaleStep:
    """x + gamma * direction, keeping the exact gradient direction."""

    gamma: float

    def __post_init__(self):
        _check_real("gamma", self.gamma, "(0, inf)")


@dataclass(frozen=True)
class AdaptiveStep:
    """Per-step gamma supplied by a trained scaling-factor generator."""

    generator: object = field(metadata={"json": False})  # given to config_from_dict


# -- gradient transforms ----------------------------------------------------


@dataclass(frozen=True)
class Dim:
    """Random resize + zero-pad applied to the input with probability p."""

    p: float = 0.7
    min_fraction: float = 0.9

    def __post_init__(self):
        _check_real("p", self.p, "[0, 1]")
        _check_real("min_fraction", self.min_fraction, "(0, 1]")


@dataclass(frozen=True)
class Tim:
    """Gaussian smoothing of the gradient; sigma defaults to k / 3."""

    k: int = 3
    sigma: float | None = None

    def __post_init__(self):
        _check_count("k", self.k, 1)
        if self.k % 2 == 0:
            raise ValueError(f"k must be odd, got {self.k}")
        if self.sigma is not None:
            _check_real("sigma", self.sigma, "(0, inf]")


@dataclass(frozen=True)
class Sim:
    """Average gradients over m dyadically scaled copies of the input."""

    m: int = 2

    def __post_init__(self):
        _check_count("m", self.m, 1, MAX_TRANSFORM_COUNT)


@dataclass(frozen=True)
class Vt:
    """Variance tuning with N neighborhood samples in a beta*epsilon ball."""

    n: int = 20
    beta: float = 1.5

    def __post_init__(self):
        _check_count("n", self.n, 1, MAX_TRANSFORM_COUNT)
        _check_real("beta", self.beta, "[0, inf)")


@dataclass(frozen=True)
class Emi:
    """Average gradients over N points along the previous direction."""

    n: int = 11
    eta: float = 7.0

    def __post_init__(self):
        _check_count("n", self.n, 1, MAX_TRANSFORM_COUNT)
        _check_real("eta", self.eta, "[0, inf)")


@dataclass(frozen=True)
class AttackConfig:
    """Everything run_attack needs besides the models and the input.

    momentum=None runs the plain (BIM-style) pipeline on the raw gradient;
    a float value enables the L1-normalized momentum accumulator with that
    decay.  An adaptive rule's generator has one parameter set per step,
    so steps must equal its step count.  Each transform kind appears at
    most once.  A target_label makes the attack targeted (`targeted`).  The
    config is frozen, so its checks hold for its lifetime; dataclasses.replace
    builds a changed copy and checks it again.
    """

    epsilon: float
    steps: int
    step_rule: SignStep | FixedScaleStep | AdaptiveStep
    momentum: float | None = None
    transforms: tuple = ()
    target_label: int | None = None

    def __post_init__(self):
        _check_real("epsilon", self.epsilon, "[0, inf]")  # inf: no L-infinity bound
        _check_count("steps", self.steps, 0, MAX_STEPS)
        if self.momentum is not None:
            _check_real("momentum", self.momentum, "[0, inf)")
        _kind(self.step_rule, "step rule")
        object.__setattr__(self, "transforms", tuple(self.transforms))
        kinds = [_kind(t, "transform") for t in self.transforms]
        repeated = next((k for k in kinds if kinds.count(k) > 1), None)
        if repeated is not None:
            raise ValueError(f"transform {repeated!r} is given more than once")
        if self.epsilon == math.inf and "vt" in kinds:
            raise ValueError("VT draws its neighbours within beta * epsilon, "
                             "so it needs a finite epsilon")
        if isinstance(self.step_rule, AdaptiveStep):
            if self.step_rule.generator is None:
                raise ValueError("adaptive step rule needs a generator instance")
            trained = self.step_rule.generator.steps
            if self.steps != trained:
                raise ValueError(
                    f"generator was trained for {trained} steps, requested {self.steps}")

    @property
    def targeted(self) -> bool:
        """Whether the attack aims at target_label; without one it is untargeted."""
        return self.target_label is not None

    @functools.cached_property
    def _pipeline(self) -> "_Pipeline | None":
        """The transforms as the attack loop looks them up, built on first use
        and kept for the config's lifetime; None without transforms."""
        return _Pipeline.of(self) if self.transforms else None


@dataclass
class AttackResult:
    adversarial: np.ndarray
    step_trace: list[float]
    success: list[bool]
    early_stopped: bool = False
    steps_used: int = 0


# -- pipeline pieces --------------------------------------------------------


def _l1(grad, out=None):
    """||grad||_1 as one ufunc reduction over the whole array, the bits of
    np.abs(grad).sum(); |grad| is written to `out` if given."""
    return np.add.reduce(np.abs(grad, out=out), axis=None)


@functools.lru_cache(maxsize=128)
def _dim_index(h: int, w: int, rh: int, rw: int):
    """Read-only np.ix_ index of the nearest-neighbour (rh, rw) shrink of an (h, w) image."""
    index = np.ix_(np.arange(rh) * h // rh, np.arange(rw) * w // rw)
    for part in index:
        part.flags.writeable = False
    return index


def dim_transform(x: np.ndarray, p: float, rng: np.random.Generator,
                  min_fraction: float = 0.9) -> np.ndarray:
    """With probability p, nearest-neighbor shrink then random zero-pad back."""
    if x.ndim != 3:
        raise ValueError("dim_transform expects an (H, W, C) image")
    _check_real("p", p, "[0, 1]")
    _check_real("min_fraction", min_fraction, "(0, 1]")
    if rng.random() >= p:
        return x
    h, w, _ = x.shape
    rh = int(rng.integers(math.ceil(min_fraction * h), h + 1))
    rw = int(rng.integers(math.ceil(min_fraction * w), w + 1))
    small = x[_dim_index(h, w, rh, rw)]
    top = int(rng.integers(0, h - rh + 1))
    left = int(rng.integers(0, w - rw + 1))
    out = np.zeros_like(x)
    out[top:top + rh, left:left + rw, :] = small
    return out


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ..., added in row order starting from 0.0, bit for
    bit the ``total += row`` loop over a zero-filled total.

    np.add.reduce over axis 0 adds whole rows, one elementwise add per row.
    Over rows of one value it would run numpy's pairwise sum instead, so such
    rows are read as two columns, the second a stride-0 repeat of the first.
    """
    flat = rows.reshape(len(rows), -1)
    size = flat.shape[1]
    if size == 1:
        flat = np.broadcast_to(flat, (len(rows), 2))
    return np.add.reduce(flat, axis=0, initial=0.0)[:size].reshape(rows.shape[1:])


@functools.lru_cache(maxsize=16)
def _tim_taps(h: int, w: int, c: int, k: int, sigma: float):
    """Read-only ``(table, weights)`` of TIM smoothing over an (h, w, c) image.

    One row per tap of the flipped (k, k) Gaussian kernel, in C order, leaving
    out every weight with |w| <= DBL_EPSILON: ``weights`` is the (taps, 1)
    column of the kept weights and ``table`` the (taps, h * w * c) flat index
    of the pixel each tap reads for each output value, the row and column
    clamped to the image (edge replication), the channel kept.
    """
    flipped = gaussian_kernel_2d(k, sigma)[::-1, ::-1]
    di, dj = np.nonzero(np.abs(flipped) > np.finfo(np.float64).eps)
    rows = np.clip(np.arange(h)[:, None] + di[:, None, None] - k // 2, 0, h - 1)
    cols = np.clip(np.arange(w) + dj[:, None, None] - k // 2, 0, w - 1)
    table = ((rows * w + cols)[..., None] * c + np.arange(c)).reshape(len(di), -1)
    weights = flipped[di, dj][:, None]
    table.flags.writeable = False
    weights.flags.writeable = False
    return table, weights


def tim_smooth(grad: np.ndarray, k: int, sigma: float | None = None) -> np.ndarray:
    """Per-channel Gaussian convolution with edge replication.

    grad is one (H, W, C) gradient or an (N, H, W, C) batch, smoothed row by
    row.  For a float64 gradient, bit for bit
    ``scipy.ndimage.convolve(grad, kernel[:, :, None], mode="nearest")`` with
    ``kernel = gaussian_kernel_2d(k, sigma)``: each output value starts at 0.0
    and adds ``w * x`` one tap at a time, in the order of `_tim_taps`.
    """
    if grad.ndim not in (3, 4):
        raise ValueError("tim_smooth expects an (H, W, C) gradient or an (N, H, W, C) batch")
    if sigma is None:
        sigma = k / 3.0
    table, weights = _tim_taps(*grad.shape[-3:], k, sigma)
    # indexing, not take: take copies a read-only index array on every call
    if grad.ndim == 3:
        terms = grad.reshape(-1)[table]
        terms *= weights
    else:
        # a batch gathers (H * W * C, N) columns: each tap row holds every image
        terms = grad.reshape(len(grad), -1).T[table]
        terms *= weights[:, :, None]
    # one row per tap, added in tap order; a pairwise or BLAS reduction
    # would round differently
    total = _sum_rows(terms)
    return (total if grad.ndim == 3 else total.T).reshape(grad.shape)


def ensemble_gradient(models, x: np.ndarray, y) -> np.ndarray:
    """Gradient of the mean of the per-model cross-entropy losses.

    x is one image with an int label, or an (N, H, W, C) batch of points with
    one int label or an (N,) label array; each model sees the whole batch in
    one input_gradient call.  The other models' gradients are
    added into the first model's, in model order, so input_gradient must
    return a fresh array; one model's gradient is returned as it is.  A sum
    from 0.0 would differ only in turning a -0.0 into +0.0.
    """
    if not models:
        raise ValueError("need at least one source model")
    grad = models[0].input_gradient(x, y)
    if len(models) > 1:
        for model in models[1:]:
            grad += model.input_gradient(x, y)
        grad /= len(models)
    return grad


def sim_gradient(models, x: np.ndarray, y, m: int) -> np.ndarray:
    """(1/m) sum_i grad of J(f(x / 2^i)); the 1/2^i chain-rule factor stays.

    x is one image or an (N, H, W, C) batch of points, with labels as
    ensemble_gradient takes them.  The m scaled copies of every point go to
    the models as one batch.
    """
    _check_count("m", m, 1, MAX_TRANSFORM_COUNT)
    x = np.asarray(x, dtype=np.float64)
    scales = _sim_scales(m, x.ndim)
    copies = scales * x
    if isinstance(y, np.ndarray):
        y = np.tile(y, m)  # copy i of point j is row i * N + j
    grads = ensemble_gradient(models, copies.reshape((-1,) + x.shape[-3:]), y)
    return _sum_rows(scales * grads.reshape(copies.shape)) / m


@functools.lru_cache(maxsize=32)
def _sim_scales(m: int, ndim: int) -> np.ndarray:
    """Read-only column of the SIM scales 1, 1/2, ..., 1/2^(m-1) over ndim axes."""
    scales = (0.5 ** np.arange(m)).reshape((m,) + (1,) * ndim)
    scales.flags.writeable = False
    return scales


def _box(x_orig, epsilon):
    """Per-pixel bounds (lo, hi) of [orig - eps, orig + eps] intersected with
    [0, 255] for a float64 x_orig, each clamped in place by np.maximum and
    np.minimum (np.clip gives the same values at a few microseconds more per
    call, but keeps a -0.0 that np.maximum turns into +0.0)."""
    lo, hi = x_orig - epsilon, x_orig + epsilon
    return _clamp(lo, 0.0, 255.0, out=lo), _clamp(hi, 0.0, 255.0, out=hi)


def _clamp(x, lo, hi, out=None):
    """min(max(x, lo), hi) per pixel; out=x clamps in place."""
    return np.minimum(np.maximum(x, lo, out=out), hi, out=out)


def project(x_adv, x_orig, epsilon):
    """Clamp per-pixel to [orig - eps, orig + eps] intersected with [0, 255].

    The box of one original image does not change during an attack, so the
    attack loop builds it once (`_box`) and clamps each iterate into it in
    place (`_clamp`); this function runs the same two kernels.  Clamping to
    the box equals clipping to the eps-ball and then to [0, 255], value for
    value (a zero's sign may differ).
    """
    if x_adv.shape != x_orig.shape:
        raise ValueError("shapes differ in projection")
    _check_real("epsilon", epsilon, "[0, inf]")
    # _box clamps its bounds in place, so they must be float64 even for an
    # integer original
    return _clamp(x_adv, *_box(np.asarray(x_orig, dtype=np.float64), epsilon))


# -- attack loop ------------------------------------------------------------


@dataclass(frozen=True)
class _Pipeline:
    """The transforms of one attack, each looked up once; None where absent."""

    dim: Dim | None
    sim: Sim | None
    vt: Vt | None
    emi: Emi | None
    tim: Tim | None
    vt_radius: float  # half-width of the VT neighbour draws, beta * epsilon

    @classmethod
    def of(cls, cfg: AttackConfig) -> "_Pipeline":
        by_type = {type(t): t for t in cfg.transforms}  # AttackConfig keeps kinds unique
        vt = by_type.get(Vt)
        return cls(by_type.get(Dim), by_type.get(Sim), vt, by_type.get(Emi), by_type.get(Tim),
                   vt.beta * cfg.epsilon if vt is not None else 0.0)


def _row_l1(grad, out=None):
    """||row||_1 of each row of an (N, H, W, C) batch, as an (N, 1, 1, 1)
    column; each row has the bits of `_l1` on that row alone.  |grad| is
    written to `out` if given."""
    return np.add.reduce(np.abs(grad, out=out), axis=(1, 2, 3), keepdims=True)


def _uniform(rng, low, high, size):
    """rng.uniform(low, high, size) from one rng; from a list of N rngs, one
    per batch row, the N draws side by side, as a (size[0], N) + size[1:] array."""
    if isinstance(rng, list):
        return np.stack([r.uniform(low, high, size=size) for r in rng], axis=1)
    return rng.uniform(low, high, size=size)


def _pipeline_gradient(models, x_eval, label, pipe: _Pipeline, state, rng):
    """Compose the configured transforms into one gradient evaluation.

    x_eval is one image with its label and rng, or an (N, H, W, C) batch with
    its labels and a list of N rngs, one per row; the arrays in `state` have
    x_eval's shape.  The EMI points (or x_eval alone) and the VT neighbours
    are drawn first, each kind in one call per rng, into one batch of points
    for SIM or the ensemble; a batch's points go point-major, so row
    p * N + i is point p of row i.  EMI point i is x_eval + (u_i * eta) *
    emi_dir and VT neighbour j is x_eval + v_j, the operands of a per-point
    loop.  A single point (x_eval without EMI and VT, or one EMI point) goes
    to SIM or the ensemble in x_eval's shape, so one image as one image.
    """
    sim, vt, emi, tim = pipe.sim, pipe.vt, pipe.emi, pipe.tim

    n_centre = emi.n if emi is not None else 1
    n_points = n_centre + (vt.n if vt is not None else 0)
    if emi is None and vt is None:
        points = x_eval  # one point: the gradient functions take x_eval as it is
    else:
        points = np.empty((n_points,) + x_eval.shape)
        centre = points[:n_centre]
        if emi is None:
            centre[0] = x_eval
        else:
            offsets = _uniform(rng, -1.0, 1.0, (emi.n,)) * emi.eta
            np.multiply(offsets.reshape(offsets.shape + (1,) * 3), state["emi_dir"], out=centre)
            centre += x_eval
        if vt is not None:
            radius = pipe.vt_radius
            np.add(x_eval, _uniform(rng, -radius, radius, (vt.n,) + x_eval.shape[-3:]),
                   out=points[n_centre:])
        if n_points == 1:
            points = points[0]  # one EMI point goes as x_eval does too

    flat, labels = points, label
    if points.ndim == 5:  # several points of each batch row
        flat = points.reshape((-1,) + x_eval.shape[-3:])
        labels = np.tile(label, n_points) if isinstance(label, np.ndarray) else label
    if sim is not None:
        rows = sim_gradient(models, flat, labels, sim.m)
    else:
        rows = ensemble_gradient(models, flat, labels)
    if points is x_eval:
        grad = rows
    else:
        rows = rows.reshape((n_points,) + x_eval.shape)
        grad = _sum_rows(rows[:n_centre]) / n_centre if emi is not None else rows[0]

    if vt is not None:
        tuned = grad + state["vt_var"]
        state["vt_var"] = _sum_rows(rows[n_centre:]) / vt.n - grad
        grad = tuned

    # one image keeps the scalar test: np.divide with `where` gives the same
    # bits, but made a 10-step stacked-transform run_attack 4% slower (600 vs
    # 577 us, 8x8x1 MLP, 2-core Xeon) and perfbench experiment wall_s 4% higher
    if emi is not None and grad.ndim == 3:
        l1 = _l1(grad)
        state["emi_dir"] = grad / l1 if l1 > 0 else np.zeros_like(grad)
    elif emi is not None:
        l1 = _row_l1(grad)
        state["emi_dir"] = np.divide(grad, l1, out=np.zeros_like(grad), where=l1 > 0)

    if tim is not None:
        grad = tim_smooth(grad, tim.k, tim.sigma)
    return grad


def _succeeded(pred, y, cfg: AttackConfig):
    """The success rule: a prediction differs from the label y, or equals
    cfg.target_label when targeted.  pred and y are one class and label (a
    bool results), or arrays of them (a bool array results)."""
    return pred == cfg.target_label if cfg.targeted else pred != y


def run_attack(source_models, target_models, x, y, cfg: AttackConfig,
               rng: np.random.Generator | None = None) -> AttackResult:
    """Full iterative attack on one image; returns the final example and
    per-target flags.

    With steps=1, SignStep(alpha=epsilon) and no momentum this is exactly
    the one-step fast gradient sign attack.  A target's flag is the success
    rule, `_succeeded`, on its prediction; with steps=0 this scores the clean
    input.  y, and target_label when targeted, must be a class of every
    source and target model.
    """
    if np.ndim(x) != 3:
        raise ValueError("run_attack takes one (H, W, C) image")
    return _attack_loop(source_models, target_models, x, y, cfg, rng)


def _attack_loop(source_models, target_models, x, y, cfg, rng):
    """The attack of one image x with its int label y and rng (None: stream
    0 of seed 0, drawn only with transforms), or of an (N, H, W, C) batch
    with its (N,) labels and a list of N rngs, one per row (None without
    transforms).  Returns one AttackResult for an image, a list of N for a
    batch.

    A batch row stops where the row alone would: at a zero gradient, after
    which it neither moves nor draws.  A non-finite gradient in any row
    raises DegenerateGradientError.
    """
    # run_attack and generator.run_attack_adaptive both enter here, so a
    # profiler wrapping the public functions counts each attack once
    if not source_models:
        raise ValueError("need at least one source model")
    x = np.asarray(x, dtype=np.float64)
    batch = x.ndim == 4
    if batch and np.shape(y) != (len(x),):
        raise ValueError(f"a batch of {len(x)} images needs {len(x)} labels")
    # every model must know the labels, including with steps=0, which only scores
    labels = tuple(np.unique(y)) if batch else (y,)
    if cfg.targeted:
        labels += (cfg.target_label,)
    for model in (*source_models, *target_models):
        for label in labels:
            _check_label(label, model.num_classes)
    if cfg.targeted and np.any(np.equal(y, cfg.target_label)):
        raise ValueError("target label must differ from the true label")
    if cfg.transforms and batch and (rng is None or len(rng) != len(x)):
        raise ValueError("a batch with transforms needs one rng per row")
    if rng is None and cfg.transforms:
        rng = make_rng(0)  # only the transforms draw random numbers
    if not np.isfinite(x).all():
        raise ValueError("input image has non-finite pixels")
    # decided once per attack: the budget box, the transforms' state, the
    # momentum buffer, the step rule's scale and kind; once per config: the
    # transform lookup
    lo, hi = _box(x, cfg.epsilon)
    pipe = cfg._pipeline
    state = {}
    if pipe is not None and pipe.vt is not None:
        state["vt_var"] = np.zeros_like(x)
    if pipe is not None and pipe.emi is not None:
        state["emi_dir"] = np.zeros_like(x)
    mu = cfg.momentum
    g_mom = np.zeros_like(x) if mu is not None else None
    rule = cfg.step_rule
    adaptive = isinstance(rule, AdaptiveStep)
    sign = isinstance(rule, SignStep)
    scale = None if adaptive else (rule.alpha if sign else rule.gamma)
    targeted = cfg.targeted
    attack_label = cfg.target_label if targeted else y
    x_adv = x.copy()
    # each step's step and |grad| go here, the live rows of a batch in a prefix
    step_buf, abs_buf = np.empty_like(x), np.empty_like(x)
    n = len(x) if batch else 1
    steps_used, early = [cfg.steps] * n, [False] * n
    gammas = [[] for _ in range(n)] if adaptive else None  # the trace of each row
    if batch:
        live = np.arange(n)  # the rows still attacking
        out = np.empty_like(x)  # a row is written here when it stops
    for t in range(cfg.steps):
        if pipe is None:
            grad = ensemble_gradient(source_models, x_adv, attack_label)
        else:
            x_eval = x_adv
            dim = pipe.dim
            if dim is not None and batch:
                x_eval = np.stack([dim_transform(row, dim.p, row_rng, dim.min_fraction)
                                   for row, row_rng in zip(x_adv, rng)])
            elif dim is not None:
                x_eval = dim_transform(x_adv, dim.p, rng, dim.min_fraction)
            grad = _pipeline_gradient(source_models, x_eval, attack_label, pipe, state, rng)
        if targeted:
            grad = -grad  # descend the target's loss
        if batch:
            l1 = _row_l1(grad, abs_buf[:len(grad)])
            stop = l1.reshape(-1) == 0.0
            if stop.any():
                out[live[stop]] = x_adv[stop]
                for row in live[stop].tolist():
                    steps_used[row], early[row] = t, True
                keep = ~stop
                live = live[keep]
                x_adv, lo, hi, grad, l1 = x_adv[keep], lo[keep], hi[keep], grad[keep], l1[keep]
                if not len(live):
                    break
                g_mom = g_mom[keep] if g_mom is not None else None
                state = {k: v[keep] for k, v in state.items()}
                rng = [r for r, kept in zip(rng, keep) if kept] if rng is not None else None
                attack_label = attack_label if targeted else attack_label[keep]
            top = l1.max()
            step = step_buf[:len(live)]
        else:
            l1 = top = _l1(grad, abs_buf)
            step = step_buf
            if l1 == 0.0:
                steps_used[0], early[0] = t, True
                break
        if not math.isfinite(top):
            raise DegenerateGradientError(f"non-finite gradient at step {t}")
        if mu is not None:
            # mu * g_mom + grad / l1 in place: the step owns grad; a product
            # by 1.0 keeps every bit, so mu = 1.0 skips it
            if mu != 1.0:
                g_mom *= mu
            grad /= l1
            g_mom += grad
            direction = g_mom
        else:
            direction = grad
        if adaptive:
            # one generator call for every live row
            gamma = rule.generator.gamma_forward(t, x_adv, direction)
            if batch:
                scale = gamma.reshape(-1, 1, 1, 1)
                for row, g in zip(live.tolist(), gamma.tolist()):
                    gammas[row].append(g)
            else:
                scale = gamma
                gammas[0].append(gamma)
        if sign:
            np.sign(direction, out=step)
            step *= scale
        else:
            np.multiply(scale, direction, out=step)
        x_adv += step
        _clamp(x_adv, lo, hi, out=x_adv)

    traces = gammas if adaptive else [[scale] * s for s in steps_used]
    if not batch:
        success = [_succeeded(tm.predict(x_adv), y, cfg) for tm in target_models]
        return AttackResult(adversarial=x_adv, step_trace=traces[0], success=success,
                            early_stopped=early[0], steps_used=steps_used[0])
    out[live] = x_adv
    flags = [_succeeded(tm.predict(out), y, cfg).tolist() for tm in target_models]
    return [AttackResult(adversarial=out[i], step_trace=traces[i],
                         success=[f[i] for f in flags], early_stopped=early[i],
                         steps_used=steps_used[i])
            for i in range(n)]


# -- JSON config serialization ---------------------------------------------

# what -> {kind: class}; a JSON object is {"type": kind, **the class's fields},
# leaving out the fields declared with metadata={"json": False}
_KINDS = {
    "step rule": {"sign": SignStep, "fixed": FixedScaleStep, "adaptive": AdaptiveStep},
    "transform": {"dim": Dim, "tim": Tim, "sim": Sim, "vt": Vt, "emi": Emi},
}


def _kind(obj, what):
    """The JSON kind of obj's class in _KINDS[what]; TypeError if it has none."""
    for kind, cls in _KINDS[what].items():
        if type(obj) is cls:
            return kind
    raise TypeError(f"unknown {what} {obj!r}")


def _encode(obj, what):
    return {"type": _kind(obj, what), **{f.name: getattr(obj, f.name) for f in fields(obj)
                                         if f.metadata.get("json", True)}}


def _decode(doc, what, **runtime):
    kind = doc.get("type") if isinstance(doc, dict) else None
    cls = _KINDS[what].get(kind) if isinstance(kind, str) else None
    if cls is None:  # a missing "type" reads as None
        raise ValueError(f"unknown {what} type {kind!r}")
    return _from_doc(cls, {k: v for k, v in doc.items() if k != "type"}, what, **runtime)


def config_to_dict(cfg: AttackConfig) -> dict:
    """JSON-ready form of cfg; an adaptive rule's generator is not stored."""
    return {**{f.name: getattr(cfg, f.name) for f in fields(cfg)},
            "step_rule": _encode(cfg.step_rule, "step rule"),
            "transforms": [_encode(t, "transform") for t in cfg.transforms]}


def config_from_dict(doc: dict, generator=None) -> AttackConfig:
    """Inverse of config_to_dict; an adaptive rule takes `generator`.

    An unknown key, or a missing required one, raises ValueError naming it.
    """
    return _from_doc(AttackConfig, doc, "attack config", {
        "step_rule": lambda rule: _decode(rule, "step rule", generator=generator),
        "transforms": lambda ts: tuple(_decode(t, "transform")
                                       for t in _check_json("transforms", ts, list)),
    })
