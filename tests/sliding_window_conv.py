"""The sliding-window 3x3 conv pair that `numerics._conv3x3` and
`numerics._conv3x3_backward` replaced, kept verbatim as the bit-for-bit
reference of the index-table kernel (tests) and as its timing baseline
(``bench/``).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _conv3x3(x: np.ndarray, W: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 convolution with zero padding 1 over a batch ``x`` of shape (N, H, W, Cin).

    ``W`` is (3, 3, Cin, Cout) and ``b`` is (Cout,).  im2col on a sliding-window
    view, then one matmul.  Returns ``(out, cache)``: ``out`` has shape
    (N, (H - 1) // stride + 1, (W - 1) // stride + 1, Cout) and ``cache`` feeds
    `_conv3x3_backward`.
    """
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1] = x
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, ::stride, ::stride]
    # window axes (C, 3, 3) -> (3, 3, C), the row order of W.reshape(9 * C, Cout)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * c)
    out = cols @ W.reshape(9 * c, -1) + b
    return out.reshape(win.shape[:3] + (-1,)), (cols, x.shape, stride)


def _conv3x3_backward(dout: np.ndarray, cache, W: np.ndarray):
    """Gradients ``(dx, dW, db)`` of `_conv3x3`; dW and db are summed over the batch."""
    cols, (n, h, w, c), s = cache
    ho, wo = dout.shape[1:3]
    d2 = dout.reshape(-1, dout.shape[3])
    dcols = (d2 @ W.reshape(9 * c, -1).T).reshape(n, ho, wo, 3, 3, c)
    dxp = np.zeros((n, h + 2, w + 2, c))
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + s * ho:s, dj:dj + s * wo:s] += dcols[:, :, :, di, dj]
    return dxp[:, 1:-1, 1:-1], (cols.T @ d2).reshape(W.shape), d2.sum(axis=0)
