"""Shared numeric utilities: seeded RNG streams, finite-difference oracles,
the Gaussian smoothing kernel, the conv primitive and the JSON codec helpers.

All array data is 64-bit float, and images are row-major ``(H, W, C)``
arrays on the 0-255 pixel scale unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ImageShape",
    "make_rng",
    "finite_diff_gradient",
    "finite_diff_hessian",
    "gaussian_kernel_2d",
]


@dataclass(frozen=True)
class ImageShape:
    """Height / width / channel layout of an image tensor."""

    height: int
    width: int
    channels: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ValueError(f"all image dimensions must be >= 1, got {self}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)

    @property
    def size(self) -> int:
        return self.height * self.width * self.channels


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; identical (seed, stream) pairs reproduce the
    same draw sequence regardless of what other streams are doing.

    Derive one stream per parallel task instead of sharing a generator.
    """
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


def _check_finite(value, where: str):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite function value at {where}")
    return value


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    This is the independent oracle for every analytic gradient in the
    package; it must not share code with the paths it checks.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        fp = _check_finite(f(xp.reshape(x.shape)), f"x + h*e_{i}")
        fm = _check_finite(f(xm.reshape(x.shape)), f"x - h*e_{i}")
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_diff_hessian(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central second-difference Hessian estimate."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            vals = [_check_finite(f(p), "hessian probe") for p in (xpp, xpm, xmp, xmm)]
            hess[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * h * h)
    return 0.5 * (hess + hess.T)


def gaussian_kernel_2d(k: int, sigma: float) -> np.ndarray:
    """k-by-k Gaussian kernel, centered, normalized to sum exactly 1."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {k}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    half = k // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    ii, jj = np.meshgrid(coords, coords, indexing="ij")
    kernel = np.exp(-(ii**2 + jj**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


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


def _encode_arrays(arrays: dict) -> dict:
    """JSON form ``{name: {"shape", "data"}}`` of a dict of arrays, shared by the checkpoints."""
    return {k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in arrays.items()}


def _decode_arrays(doc: dict) -> dict:
    """Inverse of `_encode_arrays`: float64 arrays of the recorded shapes."""
    return {k: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
            for k, spec in doc.items()}


def _check_keys(doc, known, required, what: str):
    """ValueError naming the key if `doc` has a key outside `known` or lacks a `required` one."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} is missing required key {key!r}")


def _from_doc(cls, doc, what: str, convert=None, **runtime):
    """Build dataclass `cls` from a JSON object keyed by its fields, strictly (see
    _check_keys).  `convert` maps a key to the parser of its value; a field
    declared with ``metadata={"json": False}`` comes from `runtime`, not `doc`.
    """
    stored = [f for f in fields(cls) if f.init and f.metadata.get("json", True)]
    _check_keys(doc, {f.name for f in stored},
                [f.name for f in stored
                 if f.default is MISSING and f.default_factory is MISSING], what)
    args = {k: convert[k](v) if convert and k in convert else v for k, v in doc.items()}
    args.update((f.name, runtime[f.name]) for f in fields(cls) if f.init and f not in stored)
    return cls(**args)
