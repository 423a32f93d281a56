"""The Monte Carlo interaction sampler as it drew its pairs and subsets before
its draw loop was rewritten, kept verbatim as the reference.

It draws each subset from an array of the players outside the pair, rebuilt
for every pair with ``np.delete``, and sets the pair's and the subsets' mask
entries with one fancy-index scatter.  ``advgrad.interaction.expected_interaction_sampled`` must read the
same random numbers in the same order and return the same estimate, bit for
bit; the tests and ``bench/test_interaction_sampler.py`` run the two side by
side.
"""

import numpy as np

from advgrad.interaction import InteractionEstimate
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
