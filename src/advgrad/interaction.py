"""Shapley values, pairwise interaction indices, and the closed-form
trajectory analysis of the momentum + scaled-step update.

The exact routines serve as oracles: they read every Shapley sum from one
v.batch table of all 2^n subsets, independent of the closed forms they verify
and of the sampler's second differences.

expected_interaction_sampled estimates the mean pairwise interaction by Monte
Carlo.  Its draws are defined by uniform keys from rng, read in this order:
one rng.random((num_pairs, n)) array, whose row gives a pair the two players
of lowest key; one rng.integers(0, n - 1) array, the size of each of the
num_pairs * num_subsets subsets; and one rng.random((num_pairs * num_subsets,
n)) array, whose row gives a subset the `size` players of lowest key outside
its pair.  So pairs are uniform over distinct unordered pairs, sizes uniform
in [0, n - 2] and subsets uniform at their size, for every n.

A subset is read with one sort and a threshold: the players whose key is
below the row's size-th lowest key (0-based).  That is the `size` lowest
whenever the row has no two equal keys; the keys are 53-bit uniforms, so a
row of n has a tie with probability about n^2 * 2^-53.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from dataclasses import dataclass

import numpy as np

from .models import _check_label
from .numerics import _check_count, make_rng

__all__ = [
    "AnalyticGame",
    "CoefficientSchedule",
    "InteractionEstimate",
    "coefficients",
    "coefficients_exact",
    "simulate_raw",
    "predicted_delta",
    "reward",
    "game_reward",
    "make_model_setfn",
    "make_game_setfn",
    "shapley_value_exact",
    "shapley_interaction_exact",
    "expected_interaction_sampled",
    "exact_mean_interaction",
    "predicted_interaction",
]

EXACT_PLAYER_LIMIT = 20
# rows per GEMM when a model set function scores its masks.  A matrix
# product's row bits depend on its row count, so this also fixes the bits of
# every reward; and it keeps the im2col buffers, and so peak memory, small on
# large images
SETFN_CHUNK = 32
# bytes of standardized input per stacked forward pass of a model set function,
# or one chunk if that is more: 4 chunks at 8x8x1, 1 at 16x16x3.  It keeps a
# pass's temporaries below glibc's 128 KiB mmap threshold, so they reuse heap
# memory; 576 rows in one pass took about 112 minor page faults per estimate
SETFN_BLOCK_BYTES = 1 << 16
# rows per v.batch call when the exact routines tabulate all 2^n subsets
_TABLE_BLOCK = 1 << 14


@dataclass
class AnalyticGame:
    """Quadratic loss surrogate: L(x0 + d) = L0 + g.d + d H d / 2."""

    g: np.ndarray
    H: np.ndarray
    x0: np.ndarray | None = None

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.float64)
        self.H = np.asarray(self.H, dtype=np.float64)
        n = self.g.size
        if self.H.shape != (n, n):
            raise ValueError("H must be square and match g")
        if not np.allclose(self.H, self.H.T, atol=1e-12):
            raise ValueError("H must be symmetric within 1e-12")
        if self.x0 is None:
            self.x0 = np.zeros(n)
        else:
            self.x0 = np.asarray(self.x0, dtype=np.float64)
            # grad_loss would broadcast an x0 of another shape without an error
            if self.x0.shape != self.g.shape:
                raise ValueError(f"x0 has shape {self.x0.shape}, g has {self.g.shape}")

    def grad_loss(self, x: np.ndarray) -> np.ndarray:
        return self.g + (np.asarray(x) - self.x0) @ self.H


@dataclass(frozen=True)
class CoefficientSchedule:
    """Closed-form weights of the first- and second-order gradient terms."""

    m: int
    mu: float
    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class InteractionEstimate:
    value: float
    stderr: float
    num_pairs: int
    num_subsets: int


def coefficients_exact(m: int, mu) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Direct summation of the four closed forms in exact rational arithmetic.

    Terms carrying the (i - 1) factor vanish at i = 1, so the mu^(i-2)
    power is never evaluated at a negative exponent; 0^0 counts as 1.
    Exact as long as mu is a float or Fraction (floats are dyadic).
    """
    if m < 1:
        raise ValueError("step index m must be >= 1")
    mu = Fraction(mu)
    a = sum((mu ** (i - 1) for i in range(1, m + 1)), Fraction(0))
    b = sum(((m - i + 1) * (i - 1) * mu ** (i - 2) for i in range(2, m + 1)), Fraction(0))
    c = sum(((m - i + 1) * mu ** (i - 1) for i in range(1, m + 1)), Fraction(0))
    d = sum(
        (Fraction((m - i + 2) * (m - i + 1) * (i - 1), 2) * mu ** (i - 2)
         for i in range(2, m + 1)),
        Fraction(0),
    )
    return a, b, c, d


def coefficients(m: int, mu: float) -> CoefficientSchedule:
    """Closed-form coefficient schedule, rounded once to 64-bit floats."""
    a, b, c, d = coefficients_exact(m, mu)
    return CoefficientSchedule(m=m, mu=mu, a=float(a), b=float(b), c=float(c), d=float(d))


def simulate_raw(game: AnalyticGame, mu: float, gamma: float, m: int):
    """Raw momentum + scaled-step dynamics without normalization or clipping.

    g_t = mu * g_{t-1} + grad L(x0 + delta_{t-1}),  delta_t += gamma * g_t.
    Exact for the quadratic game; returns (g_m, delta_m).
    """
    if m < 1:
        raise ValueError("step count m must be >= 1")
    g_acc = np.zeros_like(game.g)
    delta = np.zeros_like(game.g)
    for _ in range(m):
        g_acc = mu * g_acc + game.grad_loss(game.x0 + delta)
        delta = delta + gamma * g_acc
    return g_acc, delta


def predicted_delta(schedule: CoefficientSchedule, gamma: float,
                    game: AnalyticGame) -> np.ndarray:
    """c_m * gamma * g + d_m * gamma^2 * gH (row convention)."""
    return schedule.c * gamma * game.g + schedule.d * gamma**2 * (game.g @ game.H)


# -- reward functions -------------------------------------------------------


def reward(model, x: np.ndarray, delta_subset: np.ndarray, y: int) -> float:
    """Best wrong-class logit minus true-class logit at x + masked delta."""
    if model.num_classes < 2:
        raise ValueError("reward needs at least two classes")
    _check_label(y, model.num_classes)
    logits = model.logits(x + delta_subset)
    rivals = np.delete(logits, y)
    return float(rivals.max() - logits[y])


def game_reward(game: AnalyticGame, delta_subset: np.ndarray) -> float:
    """Quadratic surrogate reward w(d) = g.d + d H d / 2."""
    d = np.asarray(delta_subset, dtype=np.float64)
    return float(game.g @ d + 0.5 * d @ game.H @ d)


def _check_masks(masks, n: int) -> np.ndarray:
    masks = np.asarray(masks)
    if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != n:
        raise ValueError(f"masks must be a (k, {n}) bool array, got {masks.dtype} {masks.shape}")
    return masks


def _check_players(players, n: int):
    for p in players:
        if isinstance(p, bool) or not isinstance(p, numbers.Integral) or not 0 <= p < n:
            raise ValueError(f"player index {p!r} is not an integer in [0, {n})")


def _subset_setfn(batch, n: int):
    """Return (v, n): v(subset) scores one subset through batch, and v.batch is batch."""

    def v(subset):
        subset = list(subset)
        # a negative index would wrap around to a player at the end
        _check_players(subset, n)
        mask = np.zeros((1, n), dtype=bool)
        mask[0, subset] = True
        return float(batch(mask)[0])

    v.batch = batch
    return v, n


def make_model_setfn(model, x: np.ndarray, delta: np.ndarray, y: int):
    """Set function over the flattened perturbation units of a classifier.

    Returns (v, n).  v(subset) is the reward of x plus the units of delta in
    subset; v.batch(masks) maps a (k, n) bool mask array to the (k,) rewards
    of its rows.  A row's standardized input selects, unit by unit, that of
    x + delta or that of x, which is exact: x + 1 * delta is x + delta and
    x + 0 * delta is x.  The rows run through the model in chunks of
    SETFN_CHUNK, one GEMM per chunk: the whole chunks in stacks of at most
    SETFN_BLOCK_BYTES of input (at least one chunk) per forward pass, and a
    last, shorter chunk in a pass of its own.  So every reward has the bits
    of a forward pass over its own chunk.  The inputs are checked here, once,
    because the batched path skips the model's per-call input check.
    """
    dims = model.image_shape.dims
    x = np.asarray(x, dtype=np.float64)
    flat = np.asarray(delta, dtype=np.float64).reshape(-1)
    if x.shape != dims or np.shape(delta) != dims:
        raise ValueError(f"x {x.shape} and delta {np.shape(delta)} must both have "
                         f"the model's image shape {dims}")
    if not (np.isfinite(x).all() and np.isfinite(flat).all()):
        raise ValueError("x and delta must be finite")
    if model.num_classes < 2:
        raise ValueError("reward needs at least two classes")
    _check_label(y, model.num_classes)
    clean = model._standardize(x).reshape(-1)
    full = model._standardize(x + flat.reshape(dims)).reshape(-1)
    rivals = np.delete(np.arange(model.num_classes), y)
    block_rows = SETFN_CHUNK * max(1, SETFN_BLOCK_BYTES // (SETFN_CHUNK * full.nbytes))

    def forward(rows, lead):
        logits, _ = model._forward(np.where(rows, full, clean).reshape(lead + dims))
        return logits.reshape(len(rows), -1)

    def batch(masks):
        masks = _check_masks(masks, flat.size)
        logits = np.empty((len(masks), model.num_classes))
        whole = len(masks) - len(masks) % SETFN_CHUNK
        for start in range(0, whole, block_rows):
            stop = min(start + block_rows, whole)
            logits[start:stop] = forward(masks[start:stop], (-1, SETFN_CHUNK))
        if whole < len(masks):
            # padded to a whole chunk, these rows would take other bits
            logits[whole:] = forward(masks[whole:], (-1,))
        return logits[:, rivals].max(axis=1) - logits[:, y]

    return _subset_setfn(batch, flat.size)


def make_game_setfn(game: AnalyticGame, delta: np.ndarray):
    """Set function of the quadratic surrogate over the units of delta; as
    make_model_setfn, it returns (v, n) and v.batch scores a mask array."""
    flat = np.asarray(delta, dtype=np.float64).reshape(-1)
    if flat.size != game.g.size:
        raise ValueError(f"delta has {flat.size} units, the game has {game.g.size}")

    def batch(masks):
        d = _check_masks(masks, flat.size) * flat
        return d @ game.g + 0.5 * ((d @ game.H) * d).sum(axis=1)

    return _subset_setfn(batch, flat.size)


# -- exact Shapley machinery ------------------------------------------------


def _check_batch(v):
    if not callable(getattr(v, "batch", None)):
        raise TypeError("v needs a batch(masks) evaluator; build it with "
                        "make_model_setfn or make_game_setfn")


def _subset_values(v, n: int, *players) -> np.ndarray:
    """Check n, v and the players the caller will read, then tabulate v: entry
    m is v of the players whose bit is set in m, for all 2^n masks m, scored
    by one v.batch call per _TABLE_BLOCK rows."""
    if n > EXACT_PLAYER_LIMIT:
        raise ValueError(f"exact enumeration is limited to {EXACT_PLAYER_LIMIT} players; "
                         "use expected_interaction_sampled for larger games")
    _check_players(players, n)
    _check_batch(v)
    table = np.empty(1 << n)
    for start in range(0, 1 << n, _TABLE_BLOCK):
        rows = np.arange(start, min(start + _TABLE_BLOCK, 1 << n))
        table[rows] = v.batch((rows[:, None] >> np.arange(n) & 1).astype(bool))
    return table


def _shapley_sum(table: np.ndarray, n: int, joined, outside) -> float:
    """Sum of w(|S|) * (T[S u joined] - T[S]) over the subsets S of the players
    not in outside; w weighs a game of those players plus joined as one."""
    subsets, sizes = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for p in sorted(set(range(n)) - set(outside)):
        subsets = np.concatenate([subsets, subsets | 1 << p])
        sizes = np.concatenate([sizes, sizes + 1])
    m = n - len(outside) + 1
    weights = 1 / np.array([m * math.comb(m - 1, s) for s in range(m)], dtype=float)
    gain = table[subsets | sum(1 << p for p in joined)] - table[subsets]
    return float(weights[sizes] @ gain)


def shapley_value_exact(v, i: int, n: int) -> float:
    """Shapley attribution of player i, summed over all subsets of the others."""
    return _shapley_sum(_subset_values(v, n, i), n, (i,), (i,))


def shapley_interaction_exact(v, a: int, b: int, n: int) -> float:
    """Pairwise interaction: joint contribution of {a, b} as a singleton
    minus the standalone contributions with the partner removed."""
    if a == b:
        raise ValueError("interaction needs two distinct players")
    table = _subset_values(v, n, a, b)
    return _shapley_sum(table, n, (a, b), (a, b)) - (
        _shapley_sum(table, n, (a,), (a, b)) + _shapley_sum(table, n, (b,), (a, b)))


def expected_interaction_sampled(v, n: int, num_pairs: int, num_subsets: int,
                                 rng: np.random.Generator | None = None) -> InteractionEstimate:
    """Monte Carlo mean pairwise interaction via discrete second differences.

    Pairs are uniform over unordered distinct (a, b); per pair, subset sizes
    are uniform in {0, ..., n-2} and subsets uniform at that size, by the
    key draws the module docstring sets out.  v must be a set function from
    make_model_setfn or make_game_setfn: all four evaluations of every sample
    are scored by one v.batch call.  stderr is
    the standard deviation (ddof=1) of the num_pairs per-pair means over
    sqrt(num_pairs), and 0.0 for one pair.  n and the counts must be integers,
    not bool: n at least 2 and the counts at least 1.
    """
    for name, count in (("n", n), ("num_pairs", num_pairs), ("num_subsets", num_subsets)):
        _check_count(name, count)
    if n < 2:
        raise ValueError("need at least two players")
    if num_pairs < 1 or num_subsets < 1:
        raise ValueError("need at least one pair and one subset")
    _check_batch(v)
    rng = rng if rng is not None else make_rng(0)
    k = num_pairs * num_subsets
    pairs = np.argsort(rng.random((num_pairs, n)), axis=1)[:, :2]
    a, b = np.repeat(pairs, num_subsets, axis=0).T
    sizes = rng.integers(0, n - 1, size=k)
    keys = rng.random((k, n))
    # the pair's keys sort last, past the n - 2 players a subset can hold; a
    # subset is the players whose key is below its row's size-th lowest key
    rows = np.arange(k)
    keys[rows, a] = keys[rows, b] = np.inf
    subsets = keys < np.sort(keys, axis=1)[rows, sizes][:, None]
    # rows 4j .. 4j+3 of the mask array are S u {a, b}, S u {a}, S u {b} and S
    # of sample j: every row holds S, rows 4j and 4j+1 hold a, rows 4j and 4j+2 b
    masks = np.repeat(subsets, 4, axis=0)
    row = np.arange(0, 4 * k, 4)
    masks[np.concatenate([row, row + 1, row, row + 2]), np.concatenate([a, a, b, b])] = True
    vals = v.batch(masks).reshape(k, 4)
    arr = vals[:, 0] - vals[:, 1] - vals[:, 2] + vals[:, 3]
    # the pairs are drawn once, so the estimate's error is the spread of the
    # per-pair means, not of all samples as if each had its own pair
    pair_means = arr.reshape(num_pairs, num_subsets).mean(axis=1)
    stderr = float(pair_means.std(ddof=1) / np.sqrt(num_pairs)) if num_pairs > 1 else 0.0
    return InteractionEstimate(
        value=float(arr.mean()), stderr=stderr,
        num_pairs=num_pairs, num_subsets=num_subsets,
    )


def exact_mean_interaction(game: AnalyticGame, delta: np.ndarray) -> float:
    """Mean over distinct pairs of delta_a * H_ab * delta_b (quadratic game
    identity for the exact pairwise Shapley interaction)."""
    d = np.asarray(delta, dtype=np.float64)
    n = d.size
    M = np.outer(d, d) * game.H
    return float((M.sum() - np.trace(M)) / (n * (n - 1)))


def predicted_interaction(schedule: CoefficientSchedule, gamma: float,
                          game: AnalyticGame):
    """Cubic-in-gamma interaction prediction; returns (value, A, B).

    A and B are means over distinct ordered pairs, which coincides with the
    unordered-pair mean after symmetrization.
    """
    g, H = game.g, game.H
    n = g.size
    if n < 2:
        raise ValueError("need at least two perturbation units")
    gH = g @ H
    MA = np.outer(g, g) * H
    A = schedule.c**2 * (MA.sum() - np.trace(MA)) / (n * (n - 1))
    MB = np.outer(g, gH) * H
    B = schedule.c * schedule.d * (MB.sum() - np.trace(MB)) / (n * (n - 1))
    value = A * gamma**2 + 2.0 * B * gamma**3
    return float(value), float(A), float(B)
