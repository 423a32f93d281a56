"""Shapley values, pairwise interaction indices, and the closed-form
trajectory analysis of the momentum + scaled-step update.

The exact routines serve as oracles, independent of the closed forms they
verify and of the sampler's draws.  Each scores one v.batch table of all 2^n
subsets and reads each quantity from it as one sum, the Grabisch-Roubens index
of one player (the Shapley value) or of a pair (the interaction): the
discrete derivative of the table over the subsets of the other players,
weighted by their size.  shapley_interaction_matrix_exact reads every pair
from one table: at n = 16 (a 4x4x1 tiny-conv game, 2-core VM, numpy 2.4 on
OpenBLAS) all 120 pairs take about 0.2 s, where one shapley_interaction_exact
call, which builds its own table, takes about 0.23 s.

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

A model set function builds each row's input with _exact_select, a
branch-free select on the IEEE bit patterns of the standardized x + delta and
x.  It has the bits of np.where(rows, full, clean), but np.where branches per
unit, and on random masks those branches mispredict.  On a 2-core Xeon (numpy
2.4), a 600 x 64 np.where took 152 us at density 0.5 against 35 us on
all-true masks; at the workload setting (8x8x1 MLP) it took 98 us of a 356 us
estimate, more than the 81 us of forward passes it fed.  The bitwise select
takes 41-43 us on any mask.
"""

from __future__ import annotations

import itertools
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
    "shapley_interaction_matrix_exact",
    "expected_interaction_sampled",
    "exact_mean_interaction",
    "predicted_interaction",
]

EXACT_PLAYER_LIMIT = 20
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
    _check_count("m", m, 1)
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
    _check_count("m", m, 1)
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
    # x + delta_subset would broadcast a delta of another shape without an error
    _check_image_shapes(model, x, delta_subset, "delta_subset")
    if model.num_classes < 2:
        raise ValueError("reward needs at least two classes")
    _check_label(y, model.num_classes)
    logits = model.logits(x + delta_subset)
    rivals = np.delete(logits, y)
    return float(rivals.max() - logits[y])


def _check_image_shapes(model, x, delta, name: str) -> tuple:
    """Return the model's image shape, or raise if x or delta (called name in
    the message) has another."""
    dims = model.image_shape.dims
    if np.shape(x) != dims or np.shape(delta) != dims:
        raise ValueError(f"x {np.shape(x)} and {name} {np.shape(delta)} must both have "
                         f"the model's image shape {dims}")
    return dims


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


def _exact_select(if_true: np.ndarray, if_false: np.ndarray):
    """Return select(rows): np.where(rows, if_true, if_false) for a (k, n) bool
    array and two (n,) float64 vectors, bit for bit, without a branch.

    Each row is if_false's IEEE bit pattern XOR rows * (if_true's XOR
    if_false's), so each entry is one operand's exact bits, and no entry
    branches on its mask bit (the module docstring gives the cost against
    np.where).  The result is a float64 view of one int64 temporary.
    """
    false_bits = if_false.view(np.int64)
    flip_bits = if_true.view(np.int64) ^ false_bits

    def select(rows):
        picked = np.multiply(rows, flip_bits)
        picked ^= false_bits
        return picked.view(np.float64)

    return select


def make_model_setfn(model, x: np.ndarray, delta: np.ndarray, y: int):
    """Set function over the flattened perturbation units of a classifier.

    Returns (v, n).  v(subset) is the reward of x plus the units of delta in
    subset; v.batch(masks) maps a (k, n) bool mask array to the (k,) rewards
    of its rows.  A row's standardized input takes each unit from that of
    x + delta or that of x, which is exact: x + 1 * delta is x + delta and
    x + 0 * delta is x.  _exact_select picks the units: a branch-free select
    on their IEEE bit patterns, equal to np.where bit for bit, whose cost does
    not depend on the mask.  np.where's per-unit branch mispredicts on the
    sampler's random masks: at the workload setting it takes 98 us of an
    estimate, and this select 41 us.  The model's _chunk_logits scores the
    rows and fixes their bits; each of its blocks selects its own rows, so
    the select's int64 temporary stays within the model's block budget.  The
    inputs are checked here, once, because the batched path skips the
    model's per-call input check.
    """
    dims = _check_image_shapes(model, x, delta, "delta")
    x = np.asarray(x, dtype=np.float64)
    flat = np.asarray(delta, dtype=np.float64).reshape(-1)
    if not (np.isfinite(x).all() and np.isfinite(flat).all()):
        raise ValueError("x and delta must be finite")
    if model.num_classes < 2:
        raise ValueError("reward needs at least two classes")
    _check_label(y, model.num_classes)
    clean = model._standardize(x).reshape(-1)
    select = _exact_select(model._standardize(x + flat.reshape(dims)).reshape(-1), clean)
    rivals = np.delete(np.arange(model.num_classes), y)

    def batch(masks):
        masks = _check_masks(masks, flat.size)
        logits = model._chunk_logits(len(masks), lambda a, b: select(masks[a:b]))
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


def _derivative_sum(table: np.ndarray, n: int, players) -> float:
    """Grabisch-Roubens index of the players P: the sum over the subsets S of
    the other players of Delta_P T(S) / (m * C(m - 1, |S|)), m = n - |P| + 1.

    Delta_P is the discrete derivative, T[S u i] - T[S] for one player and
    T[S u ab] - T[S u a] - T[S u b] + T[S] for a pair.  Viewed as a (2,) * n
    array, the table holds bit p of a mask on axis n - 1 - p, so each player's
    difference is one np.diff along its axis, taken in ascending player order
    so that (a, b) and (b, a) give the same bits.  The flattened differences
    run over the other players' masks in ascending bit order, so entry k's
    subset has the size of k's popcount, built by doubling."""
    diffs = table.reshape((2,) * n)
    for p in sorted(players):
        diffs = np.diff(diffs, axis=n - 1 - p)
    m = n - len(players) + 1
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(m - 1):
        sizes = np.concatenate([sizes, sizes + 1])
    weights = 1 / np.array([m * math.comb(m - 1, s) for s in range(m)], dtype=float)
    return float(weights[sizes] @ diffs.reshape(-1))


def shapley_value_exact(v, i: int, n: int) -> float:
    """Shapley attribution of player i, summed over all subsets of the others."""
    return _derivative_sum(_subset_values(v, n, i), n, (i,))


def shapley_interaction_exact(v, a: int, b: int, n: int) -> float:
    """Pairwise Shapley interaction of players a and b: the weighted sum of
    their second differences over the subsets of the other players."""
    if a == b:
        raise ValueError("interaction needs two distinct players")
    return _derivative_sum(_subset_values(v, n, a, b), n, (a, b))


def shapley_interaction_matrix_exact(v, n: int) -> np.ndarray:
    """Pairwise interaction of every pair of players from one table: the
    symmetric (n, n) array whose (a, b) entry has the bits of
    shapley_interaction_exact(v, a, b, n), with zeros on the diagonal."""
    table = _subset_values(v, n)
    matrix = np.zeros((n, n))
    for a, b in itertools.combinations(range(n), 2):
        matrix[a, b] = matrix[b, a] = _derivative_sum(table, n, (a, b))
    return matrix


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
    _check_count("n", n, 2)
    _check_count("num_pairs", num_pairs, 1)
    _check_count("num_subsets", num_subsets, 1)
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
