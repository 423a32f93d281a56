"""Shared numeric utilities: seeded RNG streams, finite-difference oracles,
the Gaussian smoothing kernel, the conv primitive and the JSON codec: the
strict key check of configs and checkpoints, and the one checkpoint reader
and writer.

Every number setting is checked by one of two rules: a count by
`_check_count` (an int or numpy integer, not a bool, at least a given least
and, where the count sets a loop length or a number of parameter sets, at
most a given ceiling), a real value by `_check_real` (an int, float or numpy
real, not a bool, in an interval written as its message prints it, such as
"(0, inf)"; NaN lies in none).
Any other JSON value is checked for its type by `_check_json`.

All array data is 64-bit float, and images are row-major ``(H, W, C)``
arrays on the 0-255 pixel scale unless stated otherwise.

The conv primitive (`_conv3x3`, `_conv3x3_backward`) is im2col on cached,
read-only flat-index tables, built once per ``(H, W, C, stride)``: the forward
pass gathers the 3x3 windows in one indexing call, and the backward pass
scatters the window gradients back with one `np.bincount`.  Given a workspace
(a dict, see `_work_buffer`), it writes its large arrays into buffers kept
there, so a training loop's minibatches reuse them instead of allocating.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache

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
        for name in ("height", "width", "channels"):
            _check_count(f"image {name}", getattr(self, name), 1)

    @cached_property
    def dims(self) -> tuple[int, int, int]:
        # cached: every model call checks and reshapes against it
        return (self.height, self.width, self.channels)

    @property
    def size(self) -> int:
        return self.height * self.width * self.channels


@lru_cache(maxsize=None)
def _philox_key_class():
    """The seed-sequence class of make_rng, made on first use: subclassing
    numpy's ISeedSequence imports numpy.random, which takes about 12 ms that
    importing advgrad need not pay."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose state is a given Philox key.

        Philox takes its key from its seed sequence as ``generate_state(2,
        np.uint64)``, so ``Philox(PhiloxKey(key))`` has the state of
        ``Philox(key=key)``, without the OS-entropy SeedSequence that
        ``Philox(key=...)`` builds and drops (make_rng took 11.5 us with it
        and takes 4.6 us without, timeit on a 2-core Xeon).
        """

        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return PhiloxKey


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; identical (seed, stream) pairs reproduce the
    same draw sequence regardless of what other streams are doing.

    Derive one stream per parallel task instead of sharing a generator.
    seed and stream are the two 64-bit words of the Philox key, so each must
    be an integer in [0, 2**64) (`_check_seed`); distinct pairs get distinct keys.
    """
    _check_seed("seed", seed)
    _check_seed("stream", stream)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_class()(key)))


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


def _check_count(name: str, value, least=None, most=None):
    """ValueError unless value is an int or numpy integer, not a bool, and
    (if given) at least least and at most most.  A count that sets a loop
    length or a number of parameter sets has a ceiling `most`, so that a
    config or checkpoint asking for 2**70 steps fails here instead of running
    without end."""
    # bool is an int subclass, and a float count fails only later, if at all:
    # deep in numpy, or at the first attack step after every model has trained
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value!r}")


def _check_real(name: str, value, interval: str):
    """ValueError unless value is an int, a float or a numpy real, not a bool,
    in `interval`, written as the message prints it: "(0, inf)", "[0, 1]"."""
    low, high, closed_low, closed_high = _interval(interval)
    if (not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
            and (low <= value if closed_low else low < value)
            and (value <= high if closed_high else value < high)):
        return
    raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")


@lru_cache(maxsize=None)
def _interval(interval: str):
    """(low, high, closed_low, closed_high) of an interval written "(0, inf]"."""
    low, high = interval[1:-1].split(", ")
    return float(low), float(high), interval[0] == "[", interval[-1] == "]"


def _check_json(what: str, value, kind):
    """value, if it is of JSON type `kind` (dict, list or str); ValueError otherwise."""
    if not isinstance(value, kind):
        names = {dict: "object", list: "list", str: "string"}
        raise ValueError(f"{what} must be a JSON {names[kind]}, got {value!r}")
    return value


def _check_pair(name: str, values):
    """ValueError unless values is a list or tuple of two integers >= 1."""
    if not isinstance(values, (tuple, list)) or len(values) != 2:
        raise ValueError(f"{name} must be two integers, got {values!r}")
    for i, value in enumerate(values):
        _check_count(f"{name}[{i}]", value, 1)


def _image_shape(dims, what: str) -> ImageShape:
    """The ImageShape of a JSON [height, width, channels] list; ValueError
    naming `what`, the checkpoint or spec it was read from, otherwise."""
    if not isinstance(dims, (list, tuple)) or len(dims) != 3:
        raise ValueError(f"{what}: image_shape must be [height, width, channels], got {dims!r}")
    try:
        return ImageShape(*dims)
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    This is the independent oracle for every analytic gradient in the
    package; it must not share code with the paths it checks.
    """
    _check_real("h", h, "(0, inf]")
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
    _check_real("h", h, "(0, inf]")
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
    _check_count("k", k, 1)
    if k % 2 == 0:
        raise ValueError(f"kernel size k must be odd, got {k}")
    _check_real("sigma", sigma, "(0, inf]")
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


def _work_buffer(work, name: str, shape: tuple):
    """The float64 array kept under ``(name, shape)`` in workspace `work`,
    zero-filled when first made; None when work is None.

    A workspace is a dict one caller keeps for a run of calls (a training
    run's minibatches) and gives each of them; a call of another shape gets
    buffers of its own.  The next call overwrites them, so nothing returned
    may outlive the call's use of it.  Numpy's ``out=None`` allocates, so an operation that takes
    its out from here allocates as before when there is no workspace.
    """
    if work is None:
        return None
    key = (name, shape)
    buf = work.get(key)
    if buf is None:
        buf = work[key] = np.zeros(shape)
    return buf


def _conv3x3(x: np.ndarray, W: np.ndarray, b: np.ndarray, stride: int = 1, work=None):
    """3x3 convolution with zero padding 1 over a batch ``x`` of shape (N, H, W, Cin).

    ``W`` is (3, 3, Cin, Cout) and ``b`` is (Cout,).  im2col by one gather
    through the cached `_conv3x3_gather` table of the input shape (padding taps
    read a trailing zero column), then one matmul.  Returns ``(out, cache)``:
    ``out`` has shape (N, (H - 1) // stride + 1, (W - 1) // stride + 1, Cout)
    and ``cache`` feeds `_conv3x3_backward`.  With a workspace `work` (one per
    layer, see `_work_buffer`) the padded input, the columns, ``out`` and the
    backward pass's window gradients are its buffers.
    """
    n, h, w, c = x.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    # every index is in range; mode="clip" only skips numpy's slower checked gather.
    # take beats plain indexing (padded[:, table]) at the sizes attacks run and
    # loses only from a few dozen rows (2-core Xeon, numpy 2.4.6, min of 7 x
    # 5000 calls, take against indexing in us): at 8x8x1 0.8 vs 1.7 (N=1), 2.0
    # vs 5.2 (N=5), 10.0 vs 7.9 (N=32); at 4x4x6 1.0 vs 2.2, 2.8 vs 7.2 and
    # 14.7 vs 11.6.  So take stays, with no branch on the batch size
    table = _conv3x3_gather(h, w, c, stride)
    if work is None:
        # fresh arrays, without the buffer lookups and out= arguments: 5.9
        # against 6.9 us for one 8x8x1 image (min of 150 interleaved rounds)
        padded = np.zeros((n, h * w * c + 1))
        padded[:, :-1] = x.reshape(n, -1)
        cols = padded.take(table, axis=1, mode="clip").reshape(-1, 9 * c)
        out = cols @ W.reshape(9 * c, -1)
    else:
        padded = _work_buffer(work, "padded", (n, h * w * c + 1))  # the last column stays 0
        padded[:, :-1] = x.reshape(n, -1)
        cols = padded.take(table, axis=1, mode="clip",
                           out=_work_buffer(work, "cols", (n, table.size))).reshape(-1, 9 * c)
        out = np.matmul(cols, W.reshape(9 * c, -1),
                        out=_work_buffer(work, "out", (len(cols), W.shape[-1])))
    out += b
    return out.reshape(n, ho, wo, -1), (cols, x.shape, stride, work)


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
    cols, (n, h, w, c), s, work = cache
    d2 = dout.reshape(-1, dout.shape[3])
    dx = None
    if inputs:
        # the window gradients, last window first: reversing the upstream rows copies
        # 9 * C / Cout times less than reversing the product, and the contiguous
        # copy keeps the product in BLAS, which rounds each row as before
        dcols = np.matmul(np.ascontiguousarray(d2[::-1]), W.reshape(9 * c, -1).T,
                          out=_work_buffer(work, "dcols", cols.shape))
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
    Each entry is an object with a ``shape`` list of counts and a ``data`` list
    of finite numbers.
    """
    if _check_json(f"{what} arrays", doc, dict).keys() != like.keys():
        raise ValueError(f"{what} holds arrays {sorted(doc)}, expected {sorted(like)}")
    arrays = {}
    for k, spec in doc.items():
        entry = f"{what} array {k!r}"
        _check_keys(spec, ("shape", "data"), ("shape", "data"), entry)
        for size in _check_json(f"{entry} shape", spec["shape"], list):
            _check_count(f"{entry} shape entry", size, 0)
        shape = tuple(spec["shape"])
        if shape != np.shape(like[k]):
            raise ValueError(f"{entry} has shape {shape}, expected {np.shape(like[k])}")
        data = _check_json(f"{entry} data", spec["data"], list)
        # np.asarray would parse a numeric string and take a bool as 0 or 1
        if not set(map(type, data)) <= {int, float} or len(data) != math.prod(shape):
            raise ValueError(f"{entry} data are not numbers that fill its shape")
        # json reads NaN, Infinity and 1e400 as floats, and np.asarray raises
        # OverflowError on an int past the float range, such as 10**400
        try:
            values = np.asarray(data, dtype=np.float64)
            finite = np.isfinite(values).all()
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{entry} data are not all finite floats")
        arrays[k] = values.reshape(shape)
    return arrays


def _check_keys(doc, known, required, what: str):
    """ValueError naming the key if `doc` has a key outside `known` or lacks a `required` one."""
    for key in _check_json(what, doc, dict):
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} is missing required key {key!r}")


def _write_checkpoint(path: str, fmt: str, doc: dict):
    """Write the JSON checkpoint ``{"format": fmt, **doc}`` to path."""
    with open(path, "w") as fh:
        json.dump({"format": fmt, **doc}, fh)


def _read_checkpoint(path: str, fmt: str, known, required, what: str) -> dict:
    """The JSON checkpoint at path.

    ValueError unless it is an object tagged `fmt` whose other keys pass
    `_check_keys` with `known` and `required`, the rule configs follow.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("format") != fmt:
        raise ValueError(f"unsupported {what} format {doc.get('format')!r}, expected {fmt!r}")
    _check_keys(doc, {"format", *known}, required, what)
    return doc


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
