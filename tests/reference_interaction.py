"""References for the interaction routines: the sampler and the exact
oracles as they were before they were rewritten, kept verbatim, and a scalar
replay of the sampler's draws.

``expected_interaction_sampled`` is the Monte Carlo sampler as it drew its
pairs and subsets before its draw loop was rewritten.  It draws each subset
from an array of the players outside the pair, rebuilt for every pair with
``np.delete``, and sets the pair's and the subsets' mask entries with one
fancy-index scatter.  ``advgrad.interaction.expected_interaction_sampled``
must read the same random numbers in the same order and return the same
estimate, bit for bit; the tests and ``bench/test_interaction_sampler.py`` run
the two side by side.

``shapley_value_exact`` and ``shapley_interaction_exact`` are the exact
oracles as they enumerated subsets in Python, one ``v(subset)`` call at a
time, before both were read from one table of all 2^n subsets.  The library's
versions must agree with them to rounding.

``model_setfn_batch`` is the ``v.batch`` of ``make_model_setfn`` as it scored
its masks before each row's input became a select and whole chunks a stacked
forward pass: one forward pass per ``SETFN_CHUNK`` rows, each building its
inputs from ``x``, the masked units of ``delta`` and the model's
standardization.  The library's ``v.batch`` must return its rewards bit for
bit.

``replay_draws`` replays the sampler's draws one raw 32-bit value at a time:
numpy's bounded draw (``bounded``) and ``Generator.choice`` without
replacement (``choice``: Floyd's selection, then the shuffle of the picks), as
numpy computes them from the values ``rng.integers(0, 2**32)`` returns.  The
tests hold it to ``rng.choice`` and ``rng.integers`` on real streams, and the
library's block replay to it on crafted streams that force rejections: the
block replay must give way exactly where this replay rejects a value.
"""

import itertools
import math

import numpy as np

from advgrad.interaction import EXACT_PLAYER_LIMIT, SETFN_CHUNK, InteractionEstimate, _check_masks
from advgrad.numerics import make_rng


def model_setfn_batch(model, x: np.ndarray, delta: np.ndarray, y: int):
    """The v.batch of make_model_setfn(model, x, delta, y), one forward pass per
    SETFN_CHUNK rows; x, delta and y are taken as valid."""
    dims = model.image_shape.dims
    x = np.asarray(x, dtype=np.float64)
    flat = np.asarray(delta, dtype=np.float64).reshape(-1)

    def batch(masks):
        masks = _check_masks(masks, flat.size)
        logits = np.empty((len(masks), model.num_classes))
        for start in range(0, len(masks), SETFN_CHUNK):
            chunk = masks[start:start + SETFN_CHUNK]
            inputs = x + (chunk * flat).reshape((-1,) + dims)
            logits[start:start + len(chunk)] = model._forward(model._standardize(inputs))[0]
        return np.delete(logits, y, axis=1).max(axis=1) - logits[:, y]

    return batch


def expected_interaction_sampled(v, n: int, num_pairs: int, num_subsets: int,
                                 rng: np.random.Generator | None = None) -> InteractionEstimate:
    """Monte Carlo mean pairwise interaction via discrete second differences.

    Pairs are uniform over unordered distinct (a, b); per pair, subset sizes
    are uniform in {0, ..., n-2} and subsets uniform at that size.  v must be
    a set function from make_model_setfn or make_game_setfn: all four
    evaluations of every sample are scored by one v.batch call.  stderr is
    the standard deviation (ddof=1) of the num_pairs per-pair means over
    sqrt(num_pairs), and 0.0 for one pair.
    """
    if n < 2:
        raise ValueError("need at least two players")
    if num_pairs < 1 or num_subsets < 1:
        raise ValueError("need at least one pair and one subset")
    if not callable(getattr(v, "batch", None)):
        raise TypeError("v needs a batch(masks) evaluator; build it with "
                        "make_model_setfn or make_game_setfn")
    rng = rng if rng is not None else make_rng(0)
    pairs, subsets = [], []
    for _ in range(num_pairs):
        a, b = (int(p) for p in rng.choice(n, size=2, replace=False))
        others = np.delete(np.arange(n), (a, b))
        for _ in range(num_subsets):
            size = int(rng.integers(0, n - 1))
            subsets.append(rng.choice(others, size=size, replace=False))
            pairs.append((a, b))
    # rows 4j .. 4j+3 of the mask array are S u {a, b}, S u {a}, S u {b} and S
    # of sample j: every row holds S, rows 4j and 4j+1 hold a, rows 4j and 4j+2 b
    k = len(pairs)
    first = 4 * np.arange(k)
    sample = np.repeat(np.arange(k), [len(s) for s in subsets])
    pa, pb = np.array(pairs).T
    rows = np.concatenate([(4 * sample[:, None] + np.arange(4)).ravel(),
                           first, first + 1, first, first + 2])
    cols = np.concatenate([np.repeat(np.concatenate(subsets), 4), pa, pa, pb, pb])
    masks = np.zeros((4 * k, n), dtype=bool)
    masks[rows, cols] = True
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


def shapley_value_exact(v, i: int, n: int) -> float:
    """Full 2^(n-1) enumeration of the Shapley attribution of player i."""
    if n > EXACT_PLAYER_LIMIT:
        raise ValueError(
            f"exact enumeration is limited to {EXACT_PLAYER_LIMIT} players; "
            "use expected_interaction_sampled for larger games"
        )
    if not 0 <= i < n:
        raise ValueError("player index out of range")
    others = [p for p in range(n) if p != i]
    total = 0.0
    fact = math.factorial
    for size in range(n):
        weight = fact(size) * fact(n - size - 1) / fact(n)
        for subset in itertools.combinations(others, size):
            total += weight * (v(subset + (i,)) - v(subset))
    return total


def shapley_interaction_exact(v, a: int, b: int, n: int) -> float:
    """Pairwise interaction: joint contribution of {a, b} as a singleton
    minus the standalone contributions with the partner removed."""
    if a == b:
        raise ValueError("interaction needs two distinct players")
    if n > EXACT_PLAYER_LIMIT:
        raise ValueError(f"exact enumeration is limited to {EXACT_PLAYER_LIMIT} players")
    others = tuple(p for p in range(n) if p not in (a, b))

    def v_joint(subset):
        # player index len(others) stands for the fused pair {a, b}
        expanded = []
        for p in subset:
            if p == len(others):
                expanded.extend((a, b))
            else:
                expanded.append(others[p])
        return v(tuple(expanded))

    phi_pair = shapley_value_exact(v_joint, len(others), len(others) + 1)

    def restricted(drop):
        keep = tuple(p for p in range(n) if p != drop)

        def vr(subset):
            return v(tuple(keep[p] for p in subset))

        return vr, keep.index

    v_no_b, idx_no_b = restricted(b)
    phi_a = shapley_value_exact(v_no_b, idx_no_b(a), n - 1)
    v_no_a, idx_no_a = restricted(a)
    phi_b = shapley_value_exact(v_no_a, idx_no_a(b), n - 1)
    return phi_pair - (phi_a + phi_b)


class RawValues:
    """An iterator over raw 32-bit values that counts the values read and,
    of those, the ones a bounded draw rejected."""

    def __init__(self, values):
        self._values = iter(values)
        self.read = self.rejected = 0

    def __iter__(self):
        return self

    def __next__(self):
        value = int(next(self._values))
        self.read += 1
        return value


def bounded(raw: RawValues, r: int) -> int:
    """numpy's draw in [0, r) by Lemire's method; r = 1 reads no value."""
    if r == 1:
        return 0
    product = next(raw) * r
    if product % 2**32 < r:
        threshold = 2**32 % r
        while product % 2**32 < threshold:
            raw.rejected += 1
            product = next(raw) * r
    return product >> 32


def choice(raw: RawValues, population: int, size: int) -> list:
    """rng.choice(population, size, replace=False) for a population of at
    most 10,000: Floyd's selection, then the size - 1 draws of its shuffle."""
    picks, taken = [], set()
    for j in range(population - size, population):
        pick = bounded(raw, j + 1)
        if pick in taken:
            pick = j
        taken.add(pick)
        picks.append(pick)
    for i in range(size - 1, 0, -1):
        k = bounded(raw, i + 1)
        picks[i], picks[k] = picks[k], picks[i]
    return picks


def replay_draws(raw: RawValues, n: int, num_pairs: int, num_subsets: int):
    """The sampler's (pairs, sizes, subsets): per pair rng.choice(n, 2), per
    subset rng.integers(0, n - 1) and rng.choice(n - 2, size)."""
    pairs, sizes, subsets = [], [], []
    for _ in range(num_pairs):
        pairs.append(choice(raw, n, 2))
        for _ in range(num_subsets):
            sizes.append(bounded(raw, n - 1))
            subsets.append(choice(raw, n - 2, sizes[-1]))
    return pairs, sizes, subsets
