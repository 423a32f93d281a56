"""Two interaction routines as they were before they were rewritten, kept
verbatim as references.

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
"""

import itertools
import math

import numpy as np

from advgrad.interaction import EXACT_PLAYER_LIMIT, InteractionEstimate
from advgrad.numerics import make_rng


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
