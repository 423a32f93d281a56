"""The model path as it was before its numpy calls were cut: the ``@`` forms of
the dense models, the wrapped reductions of the softmax, the fancy-indexed
one-hot and the reshaped-sum pool, kept verbatim as the bit-for-bit reference
of `advgrad.models` (tests) and as its timing baseline (``bench/``).

Each class subclasses the library model of its kind and overrides only the
methods copied here, so that every input_gradient and parameter_gradients
call runs the copied `_loss_backward`; checks, parameters and every other
method are the library's.  `reference_copy` gives a library model's reference
twin, sharing its parameter arrays.
"""

import numpy as np

from advgrad.models import SoftmaxLinear, TanhMLP, TinyConv
from advgrad.numerics import _conv3x3


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of one logit vector or a batch of them."""
    if logits.ndim == 1:
        # the same bits as the keepdims form, without its reshaped reductions
        e = np.exp(logits - logits.max())
        return e / e.sum()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _avgpool2(x):
    n, h, w, c = x.shape
    # the sum and division np.mean(axis=(2, 4)) runs, without its Python overhead
    return x.reshape(n, h // 2, 2, w // 2, 2, c).sum(axis=(2, 4)) / 4.0


class _ReferenceLoss:
    """The standardization and the loss backward shared by every kind."""

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return x / 255.0 - 0.5

    def _loss_backward(self, x: np.ndarray, y, params: bool, inputs: bool = True):
        """Cross-entropy backward for one image and an int label, or for a batch
        (N, H, W, C) and an (N,) label array.  Returns (dx on the 0-255 scale or
        None when inputs is False, param_grads summed over the batch or None)."""
        logits, cache = self._forward(self._standardize(x))
        dlogits = _softmax(logits)
        if dlogits.ndim == 2:
            dlogits[np.arange(len(dlogits)), y] -= 1.0
        else:
            dlogits[y] -= 1.0
        dz, grads = self._backward(dlogits, cache, params, inputs)
        return (dz / 255.0 if inputs else None), grads


class ReferenceSoftmaxLinear(_ReferenceLoss, SoftmaxLinear):
    def _forward(self, z):
        # (H, W, C) -> (d,), (N, H, W, C) -> (N, d) and (M, N, H, W, C) ->
        # (M, N, d); z @ W.T serves all three, with one GEMM per batch of a stack
        zf = z.reshape(z.shape[:-3] + (-1,))
        return zf @ self.params["W"].T + self.params["b"], zf

    def _backward(self, dlogits, zf, params, inputs=True):
        grads = {"W": dlogits.T @ zf, "b": dlogits.sum(axis=0)} if params else None
        if not inputs:
            return None, grads
        dz = dlogits @ self.params["W"]
        return dz.reshape(dz.shape[:-1] + self.image_shape.dims), grads


class ReferenceTanhMLP(_ReferenceLoss, TanhMLP):
    def _forward(self, z):
        zf = z.reshape(z.shape[:-3] + (-1,))
        h = np.tanh(zf @ self.params["W1"].T + self.params["b1"])
        logits = h @ self.params["W2"].T + self.params["b2"]
        return logits, (zf, h)

    def _backward(self, dlogits, cache, params, inputs=True):
        zf, h = cache
        da1 = (dlogits @ self.params["W2"]) * (1.0 - h * h)
        grads = None
        if params:
            grads = {
                "W2": dlogits.T @ h,
                "b2": dlogits.sum(axis=0),
                "W1": da1.T @ zf,
                "b1": da1.sum(axis=0),
            }
        if not inputs:
            return None, grads
        dz = da1 @ self.params["W1"]
        return dz.reshape(dz.shape[:-1] + self.image_shape.dims), grads


class ReferenceTinyConv(_ReferenceLoss, TinyConv):
    def _forward(self, z):
        if z.ndim == 5:
            # one batch at a time: merged, the batches would grow the im2col
            # buffers with the stack, and a product's row bits can change with
            # its row count
            return np.stack([self._forward(batch)[0] for batch in z]), None
        lead = z.shape[:-3]
        c1, conv1 = _conv3x3(z.reshape((-1,) + z.shape[-3:]), self.params["W1"], self.params["b1"])
        t1 = np.tanh(c1)
        c2, conv2 = _conv3x3(_avgpool2(t1), self.params["W2"], self.params["b2"])
        t2 = np.tanh(c2)
        flat = _avgpool2(t2).reshape(len(t2), -1)
        logits = flat @ self.params["W3"].T + self.params["b3"]
        return logits.reshape(lead + (-1,)), (lead, conv1, t1, conv2, t2, flat)


REFERENCE_CLASSES = {cls.kind: cls for cls in (
    ReferenceSoftmaxLinear, ReferenceTanhMLP, ReferenceTinyConv)}


def reference_copy(model):
    """The reference model of model's kind with model's attributes and its
    parameter arrays (shared, not copied)."""
    twin = object.__new__(REFERENCE_CLASSES[model.kind])
    twin.__dict__.update(model.__dict__)
    return twin
