"""References for the interaction routines: the exact oracles and the model
set function's scoring as they were before they were rewritten, kept verbatim.

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
"""

import itertools
import math

import numpy as np

from advgrad.interaction import EXACT_PLAYER_LIMIT, _check_masks
from advgrad.models import CHUNK_ROWS as SETFN_CHUNK


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
