"""Minimal dense-tensor reverse-mode differentiation.

Tensors wrap float64 numpy arrays and record a pullback closure per
operation (the tape is the implicit graph of ``_prev`` references).
Elementwise ops need equal shapes; the reductions ``tsum`` and
``max_axis`` take an axis and work at any rank; the one broadcast is
``linear``'s bias. Every op validates that its result is finite and raises
NonFiniteError otherwise. Gradient accumulation order is the deterministic
reverse topological order of construction.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None


def _result(data: np.ndarray, parents, backward_fn) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._prev = tuple(parents) if out.requires_grad else ()
    out._backward = backward_fn if out.requires_grad else None
    return out


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor):
    """Backpropagate from a scalar; returns {leaf tensor: gradient array}."""
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any requires_grad tensor")
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    return {t: t.grad for t in order if t._backward is None}


# ---------------------------------------------------------------------------
# core ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")
    out = _result(a.data + b.data, (a, b), None)

    def _bw():
        _accum(a, out.grad)
        _accum(b, out.grad)

    out._backward = _bw if out.requires_grad else None
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")
    with np.errstate(over="ignore"):
        data = a.data * b.data
    out = _result(data, (a, b), None)

    def _bw():
        _accum(a, b.data * out.grad)
        _accum(b, a.data * out.grad)

    out._backward = _bw if out.requires_grad else None
    return out


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = _result(a.data * c, (a,), None)

    def _bw():
        _accum(a, c * out.grad)

    out._backward = _bw if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    # overflow/inf-minus-inf surface as NonFiniteError from the result check
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data @ b.data
    out = _result(data, (a, b), None)

    def _bw():
        _accum(a, out.grad @ b.data.T)
        _accum(b, a.data.T @ out.grad)

    out._backward = _bw if out.requires_grad else None
    return out


def transpose(a: Tensor) -> Tensor:
    out = _result(a.data.T.copy(), (a,), None)

    def _bw():
        _accum(a, out.grad.T)

    out._backward = _bw if out.requires_grad else None
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _result(a.data.reshape(shape).copy(), (a,), None)

    def _bw():
        _accum(a, out.grad.reshape(a.data.shape))

    out._backward = _bw if out.requires_grad else None
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, None)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw():
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = (slice(None),) * axis + (slice(start, stop),)
            _accum(t, out.grad[sl])

    out._backward = _bw if out.requires_grad else None
    return out


def relu(a: Tensor) -> Tensor:
    out = _result(np.maximum(a.data, 0.0), (a,), None)

    def _bw():
        _accum(a, (a.data > 0.0) * out.grad)

    out._backward = _bw if out.requires_grad else None
    return out


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(a.data)
        except FloatingPointError as exc:
            raise NonFiniteError("log of non-positive value") from exc
    out = _result(data, (a,), None)

    def _bw():
        _accum(a, out.grad / a.data)

    out._backward = _bw if out.requires_grad else None
    return out


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow -> inf -> NonFiniteError
        data = np.exp(a.data)
    out = _result(data, (a,), None)

    def _bw():
        _accum(a, out.data * out.grad)

    out._backward = _bw if out.requires_grad else None
    return out


def mean(a: Tensor) -> Tensor:
    out = _result(np.asarray(a.data.mean()), (a,), None)
    size = a.data.size

    def _bw():
        _accum(a, np.full(a.data.shape, float(out.grad) / size))

    out._backward = _bw if out.requires_grad else None
    return out


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over every entry when ``axis`` is None."""
    kept = a.data.sum(axis=axis, keepdims=True)
    out = _result(kept.squeeze(axis), (a,), None)

    def _bw():
        _accum(a, np.broadcast_to(out.grad.reshape(kept.shape), a.data.shape).copy())

    out._backward = _bw if out.requires_grad else None
    return out


def max_axis(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; the gradient routes to the first argmax."""
    amax = a.data.argmax(axis=axis, keepdims=True)
    out = _result(a.data.max(axis=axis), (a,), None)

    def _bw():
        g = np.zeros_like(a.data)
        np.put_along_axis(g, amax, np.expand_dims(out.grad, axis), axis=axis)
        _accum(a, g)

    out._backward = _bw if out.requires_grad else None
    return out


def softmax_rows(x: Tensor, tau: float = 1.0) -> Tensor:
    """Row-wise softmax of x/tau with max-subtraction for stability."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = (x.data - x.data.max(axis=1, keepdims=True)) / tau
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = _result(y, (x,), None)

    def _bw():
        g = out.grad
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot) / tau)

    out._backward = _bw if out.requires_grad else None
    return out


def log_softmax_rows(x: Tensor, tau: float = 1.0) -> Tensor:
    """Row-wise log softmax of x/tau; safe for extreme logit gaps."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = (x.data - x.data.max(axis=1, keepdims=True)) / tau
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    y = z - lse
    out = _result(y, (x,), None)

    def _bw():
        g = out.grad
        p = np.exp(y)
        _accum(x, (g - p * g.sum(axis=1, keepdims=True)) / tau)

    out._backward = _bw if out.requires_grad else None
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D product, with the (d_out,) bias b broadcast over rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        data = x.data @ w.data
        if data.ndim != 2 or b.data.shape != (data.shape[1],):
            raise ValueError(f"bias shape {b.data.shape} does not fit {data.shape}")
        data += b.data
    out = _result(data, (x, w, b), None)

    def _bw():
        _accum(x, out.grad @ w.data.T)
        _accum(w, x.data.T @ out.grad)
        _accum(b, out.grad.sum(axis=0))

    out._backward = _bw if out.requires_grad else None
    return out


def finite_diff_check(f, x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between backward gradients and central differences.

    ``f`` maps a Tensor to a scalar Tensor. The relative error denominator
    is max(|analytic|, |numeric|, 1e-8) per entry.
    """
    if not x.requires_grad:
        raise ValueError("x must require gradients")
    out = f(x)
    grads = backward(out)
    if x not in grads:
        raise ValueError("f(x) does not depend on x")
    analytic = np.array(grads[x])

    base = np.array(x.data)
    numeric = np.empty_like(base)
    flat = base.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(base)).item()
        flat[i] = orig - eps
        lo = f(Tensor(base)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
