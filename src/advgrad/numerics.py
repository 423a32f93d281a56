"""Shared numeric utilities: seeded RNG streams, finite-difference oracles,
the Gaussian smoothing kernel, the conv primitive and the JSON codec helpers.

All array data is 64-bit float, and images are row-major ``(H, W, C)``
arrays on the 0-255 pixel scale unless stated otherwise.

The conv primitive (`_conv3x3`, `_conv3x3_backward`) is im2col on cached,
read-only flat-index tables, built once per ``(H, W, C, stride)``: the forward
pass gathers the 3x3 windows in one indexing call, and the backward pass
scatters the window gradients back with one `np.bincount`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

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
    seed and stream are the two 64-bit words of the Philox key, so each must
    be an integer in [0, 2**64) (`_check_seed`); distinct pairs get distinct keys.
    """
    _check_seed("seed", seed)
    _check_seed("stream", stream)
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _check_seed(name: str, value):
    """ValueError unless value is an integer (not a bool) in [0, 2**64), one
    word of make_rng's key; a list of such ints would reach numpy as float64
    from 2**63 on and merge neighbouring seeds."""
    _check_count(name, value, 0)
    if value >= 2**64:
        raise ValueError(f"{name} must be < 2**64, got {value!r}")


def _check_finite(value, where: str):
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite function value at {where}")
    return value


def _check_count(name: str, value, least=None):
    """ValueError unless value is an int or numpy integer, not a bool, and
    (if least is given) at least least."""
    # bool is an int subclass, and a float count fails only later, if at all:
    # deep in numpy, or at the first attack step after every model has trained
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


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


@lru_cache(maxsize=32)
def _conv3x3_gather(h: int, w: int, c: int, stride: int) -> np.ndarray:
    """Read-only table of flat indices into an image flattened to H * W * C
    values plus one trailing zero: the row-major (Ho * Wo, 9 * C) im2col
    matrix of the image, stored flat.

    Row ``i * Wo + j`` lists the 3x3 window of output pixel (i, j) in the row
    order of ``W.reshape(9 * C, Cout)``, that is (di, dj, c); a tap that falls
    on the zero padding points at the trailing zero, index H * W * C.
    """
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    r = stride * np.arange(ho)[:, None, None, None, None] + np.arange(3)[:, None, None] - 1
    q = stride * np.arange(wo)[None, :, None, None, None] + np.arange(3)[:, None] - 1
    flat = (r * w + q) * c + np.arange(c)
    inside = (r >= 0) & (r < h) & (q >= 0) & (q < w)
    table = np.where(inside, flat, h * w * c).reshape(-1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _conv3x3_scatter(h: int, w: int, c: int, stride: int, n: int) -> np.ndarray:
    """Read-only `np.bincount` bins of the window gradients of an n-image batch:
    the (n * Ho * Wo, 9 * C) im2col matrix of bins with its rows in reverse
    order, stored flat.

    Image m owns the H * W * C + 1 bins from ``m * (H * W * C + 1)``; the last
    of them collects the padding taps.
    """
    offsets = np.arange(n)[:, None] * (h * w * c + 1)
    rows = (offsets + _conv3x3_gather(h, w, c, stride)).reshape(-1, 9 * c)
    bins = rows[::-1].reshape(-1)
    bins.flags.writeable = False
    return bins


def _conv3x3(x: np.ndarray, W: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 convolution with zero padding 1 over a batch ``x`` of shape (N, H, W, Cin).

    ``W`` is (3, 3, Cin, Cout) and ``b`` is (Cout,).  im2col by one gather
    through the cached `_conv3x3_gather` table of the input shape (padding taps
    read a trailing zero column), then one matmul.  Returns ``(out, cache)``:
    ``out`` has shape (N, (H - 1) // stride + 1, (W - 1) // stride + 1, Cout)
    and ``cache`` feeds `_conv3x3_backward`.
    """
    n, h, w, c = x.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    padded = np.zeros((n, h * w * c + 1))
    padded[:, :-1] = x.reshape(n, -1)
    # every index is in range; mode="clip" only skips numpy's slower checked gather.
    # take beats plain indexing (padded[:, table]) at the sizes attacks run and
    # loses only from a few dozen rows (2-core Xeon, numpy 2.4.6, min of 7 x
    # 5000 calls, take against indexing in us): at 8x8x1 0.8 vs 1.7 (N=1), 2.0
    # vs 5.2 (N=5), 10.0 vs 7.9 (N=32); at 4x4x6 1.0 vs 2.2, 2.8 vs 7.2 and
    # 14.7 vs 11.6.  So take stays, with no branch on the batch size
    cols = padded.take(_conv3x3_gather(h, w, c, stride), axis=1, mode="clip").reshape(-1, 9 * c)
    out = cols @ W.reshape(9 * c, -1) + b
    return out.reshape(n, ho, wo, -1), (cols, x.shape, stride)


def _conv3x3_backward(dout: np.ndarray, cache, W: np.ndarray, params: bool = True,
                      inputs: bool = True):
    """Gradients ``(dx, dW, db)`` of `_conv3x3`; dW and db are summed over the batch,
    and both are None when ``params`` is False; dx is None when ``inputs`` is False.

    dx is one `np.bincount` scatter of the window gradients, which adds them up
    in input order starting from 0.0.  Each window feeds a pixel at most once,
    and taken last window first, the windows covering a pixel come in (di, dj)
    order of the tap that reaches it: the same sums, bit for bit, as adding the
    nine shifted tap planes into a zero-padded buffer one after another.
    """
    cols, (n, h, w, c), s = cache
    d2 = dout.reshape(-1, dout.shape[3])
    dx = None
    if inputs:
        # the window gradients, last window first: reversing the upstream rows copies
        # 9 * C / Cout times less than reversing the product, and the contiguous
        # copy keeps the product in BLAS, which rounds each row as before
        dcols = np.ascontiguousarray(d2[::-1]) @ W.reshape(9 * c, -1).T
        size = h * w * c + 1
        dx = np.bincount(_conv3x3_scatter(h, w, c, s, n), weights=dcols.reshape(-1),
                         minlength=n * size).reshape(n, size)[:, :-1].reshape(n, h, w, c)
    if not params:
        return dx, None, None
    return dx, (cols.T @ d2).reshape(W.shape), d2.sum(axis=0)


def _encode_arrays(arrays: dict) -> dict:
    """JSON form ``{name: {"shape", "data"}}`` of a dict of arrays, shared by the checkpoints."""
    return {k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in arrays.items()}


def _decode_arrays(doc: dict, like: dict, what: str) -> dict:
    """Inverse of `_encode_arrays`: float64 arrays of the recorded shapes.

    ValueError unless the names and shapes are those of the arrays in `like`,
    the parameters of the object the checkpoint is loaded into; a missing or
    misshapen array would otherwise stay at its initial value or fail later.
    """
    arrays = {k: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
              for k, spec in doc.items()}
    if arrays.keys() != like.keys():
        raise ValueError(f"{what} holds arrays {sorted(arrays)}, expected {sorted(like)}")
    for k, v in like.items():
        if arrays[k].shape != np.shape(v):
            raise ValueError(f"{what} array {k!r} has shape {arrays[k].shape}, "
                             f"expected {np.shape(v)}")
    return arrays


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
