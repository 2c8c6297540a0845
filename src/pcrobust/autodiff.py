"""Minimal dense-tensor reverse-mode differentiation.

Tensors wrap float64 numpy arrays. Every op makes one call,
``_result(data, parents, pullback)``, which gives a result that needs a
gradient a private graph node: its pullback and its parents' nodes,
where a leaf that requires a gradient is its own node.
``pullback(g)`` is a pure function of the output gradient that returns
one gradient per parent, in parent order, and mutates nothing
(``linear`` returns None for a constant input). It holds no op result's
Tensor, only the arrays it reads (shapes, for ``tsum`` and ``mean``), so
a result's array is freed once its caller drops the Tensor unless a
pullback reads it, and a dropped graph is freed by reference counting
alone. No tensor or node stores a gradient: ``backward`` accumulates them
in one local dict keyed by node, in the deterministic reverse topological
order of construction, and returns the leaves'. It consumes the graph:
an interior node's gradient leaves the dict and the node drops its
pullback (so the arrays it read) once the pullback has run, and a second
call over the same graph raises ValueError. Accumulation is out of place
(``prev + g``, never ``prev += g``) because a pullback may hand the same
array, or views of it, to several parents, as ``add`` does.

Elementwise ops need equal shapes; the reductions ``tsum`` and
``max_axis`` take an axis and work at any rank. Leading axes are batch
axes: a 2-D weight multiplies every row as one product, ``transpose``
swaps the last two axes and the softmaxes work on the last one. The one
broadcast is a bias over rows. Three ops are fused: ``mlp_max``, a
two-layer ReLU MLP over the last axis of a constant (..., g, c) array
followed by the max over g, whose pullback recomputes the hidden layer
one slot at a time instead of keeping it; ``entropy_rows``, the per-row
entropy of a tempered softmax with the arithmetic of a five-op chain
(``log_softmax_rows``, exp, ``mul``, ``tsum``, ``mul_scalar``), whose
node keeps only log q; and ``concat_matmul``, parts joined on the last
axis times a 2-D weight, whose node keeps the parts, not their joined
copy, and whose pullback returns one gradient per part. The module has
only the ops the package calls; the tests keep the unfused references.
Every op validates that its result is finite and raises NonFiniteError
otherwise.
"""

from __future__ import annotations

import ctypes

import numpy as np

_BLOCK_ROWS = 512  # hidden-layer rows per block of mlp_max's forward


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class _Node:
    """An op result's pullback and parents' nodes (None if constant)."""

    __slots__ = ("pullback", "parents")

    def __init__(self, pullback, parents):
        self.pullback, self.parents = pullback, parents


class Tensor:
    __slots__ = ("data", "requires_grad", "_node")
    pullback, parents = None, ()  # a leaf that requires a gradient is its own node

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self._node = None

    def item(self) -> float:
        return float(self.data)


def _result(data: np.ndarray, parents, pullback) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    nodes = tuple([(p._node or p) if p.requires_grad else None for p in parents])
    out.requires_grad = any(nodes)
    out._node = _Node(pullback, nodes) if out.requires_grad else None
    return out


def backward(loss: Tensor):
    """Backpropagate from a scalar; returns {leaf tensor: gradient array}.

    Consumes the graph, so no op result's array or gradient is kept
    afterwards; a second call raises ValueError.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any requires_grad tensor")
    root = loss._node or loss
    if root is not loss and root.pullback is None:
        raise ValueError("this graph was consumed by an earlier backward; build it again")
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in visited:
                stack.append((p, False))
    grads = {root: np.ones(())}
    for node in reversed(order):
        if node.pullback is None:
            continue
        for p, g in zip(node.parents, node.pullback(grads.pop(node))):
            if p is not None:
                grads[p] = grads[p] + g if p in grads else g
        node.pullback = None
    return grads


# ---------------------------------------------------------------------------
# core ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")
    x, y = a.data, b.data
    with np.errstate(over="ignore"):
        data = x * y
    return _result(data, (a, b), lambda g: (y * g, x * g))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (c * g,))


def _rows(x: np.ndarray) -> np.ndarray:
    """x with its leading axes flattened into rows."""
    return x.reshape(-1, x.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b: one product over all rows of a for a 2-D b, else batched."""
    x, y, shape = _rows(a.data) if b.data.ndim == 2 else a.data, b.data, a.data.shape
    # overflow/inf-minus-inf surface as NonFiniteError from the result check
    with np.errstate(over="ignore", invalid="ignore"):
        data = (x @ y).reshape(shape[:-1] + y.shape[-1:])

    def pullback(g):
        g = g.reshape(x.shape[:-1] + g.shape[-1:])
        ga = (g @ np.swapaxes(y, -1, -2)).reshape(shape)
        return ga, np.swapaxes(x, -1, -2) @ g

    return _result(data, (a, b), pullback)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    data = np.swapaxes(a.data, -1, -2).copy()
    return _result(data, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def concat_matmul(parts, w: Tensor) -> Tensor:
    """``matmul`` of the parts joined on the last axis by a 2-D w, with its
    arithmetic, but no (..., sum of widths) array outlives the call: the
    node keeps the parts and w, and the pullback hands part l
    ``g @ w[rows of l].T`` and w the stacked ``part_l^T @ g`` blocks, a
    column split of matmul's input gradient and a row split of its weight
    gradient."""
    parts = list(parts)
    if w.data.ndim != 2:
        raise ValueError(f"concat_matmul needs a 2-D weight, got shape {w.data.shape}")
    xs, weight = [p.data for p in parts], w.data
    joined = np.concatenate(xs, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        data = (_rows(joined) @ weight).reshape(joined.shape[:-1] + weight.shape[-1:])
    offsets = np.cumsum([0] + [x.shape[-1] for x in xs])

    def pullback(g):
        g = _rows(g)
        grads = [(g @ weight[lo:hi].T).reshape(x.shape)
                 for x, lo, hi in zip(xs, offsets[:-1], offsets[1:])]
        return grads + [np.concatenate([_rows(x).T @ g for x in xs])]

    return _result(data, parts + [w], pullback)


def relu(a: Tensor) -> Tensor:
    x = a.data
    return _result(np.maximum(x, 0.0), (a,), lambda g: ((x > 0.0) * g,))


def mean(a: Tensor) -> Tensor:
    shape, size = a.data.shape, a.data.size
    data = np.asarray(a.data.mean())
    return _result(data, (a,), lambda g: (np.full(shape, float(g) / size),))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over every entry when ``axis`` is None."""
    kept = a.data.sum(axis=axis, keepdims=True)
    shape, kept_shape = a.data.shape, kept.shape
    return _result(kept.squeeze(axis), (a,),
                   lambda g: (np.broadcast_to(g.reshape(kept_shape), shape).copy(),))


def max_axis(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; the gradient routes to the first argmax, which
    the forward finds and keeps when ``a`` requires a gradient."""
    data = a.data.max(axis=axis)
    if not a.requires_grad:
        return _result(data, (a,), None)
    amax, shape = a.data.argmax(axis=axis, keepdims=True), a.data.shape

    def pullback(g):
        grad = np.zeros(shape)
        np.put_along_axis(grad, amax, np.expand_dims(g, axis), axis=axis)
        return (grad,)

    return _result(data, (a,), pullback)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, with max-subtraction for stability."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def pullback(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), pullback)


def _log_softmax(x: np.ndarray, tau: float) -> np.ndarray:
    """``log_softmax_rows``' arithmetic on an array, shared with ``entropy_rows``."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = (x - x.max(axis=-1, keepdims=True)) / tau
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, p: np.ndarray, tau: float) -> np.ndarray:
    return (g - p * g.sum(axis=-1, keepdims=True)) / tau


def log_softmax_rows(x: Tensor, tau: float = 1.0) -> Tensor:
    """Log softmax of x/tau over the last axis; safe for extreme logit gaps."""
    y = _log_softmax(x.data, tau)
    return _result(y, (x,), lambda g: (_log_softmax_grad(g, np.exp(y), tau),))


def entropy_rows(x: Tensor, tau: float = 1.0) -> Tensor:
    """Entropy (nats) of softmax(x/tau) over the last axis, one per row: the
    arithmetic of ``log_softmax_rows``, an elementwise exp, ``mul``,
    ``tsum`` and ``mul_scalar(-1)`` step for step, but the node keeps only
    log q."""
    log_q = _log_softmax(x.data, tau)
    q = np.exp(log_q)

    def pullback(g):
        q, g1 = np.exp(log_q), (-1.0 * g)[..., None]
        return (_log_softmax_grad(q * g1 + q * (log_q * g1), q, tau),)

    return _result((q * log_q).sum(axis=-1) * -1.0, (x,), pullback)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, the (d_out,) bias b broadcast over rows."""
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ValueError(f"bias shape {b.data.shape} does not fit weight {w.data.shape}")
    rows, weight, shape, x_grad = _rows(x.data), w.data, x.data.shape, x.requires_grad
    with np.errstate(over="ignore", invalid="ignore"):
        data = rows @ weight
        data += b.data

    def pullback(g):
        g = _rows(g)
        gx = (g @ weight.T).reshape(shape) if x_grad else None
        return gx, rows.T @ g, g.sum(axis=0)

    return _result(data.reshape(shape[:-1] + b.data.shape), (x, w, b), pullback)


def mlp_max(x: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """max over axis -2 of relu(x @ w1 + b1) @ w2 + b2, for a constant
    (..., g, c) array x: the (..., d_out) shared point MLP and group max of
    a set-abstraction step, with ``linear``/``relu``/``max_axis``'s
    arithmetic and finiteness checks, the hidden layer's before its ReLU,
    run over blocks of whole groups that keep its arrays cache-sized.

    Each output's gradient routes to the first of the g slots that attains
    the max, as in ``max_axis``; x gets none. When a weight requires a
    gradient the node keeps x, the weights and each output's winning slot
    as ``np.min_scalar_type(g - 1)`` (uint8 up to g = 256), and the
    pullback recomputes the hidden layer one slot at a time, so no
    (..., g, d) array outlives the call.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteError("mlp_max input has non-finite values")
    for w, b in ((w1, b1), (w2, b2)):
        if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
            raise ValueError(f"bias shape {b.data.shape} does not fit weight {w.data.shape}")
    weights = (w1, b1, w2, b2)
    grad_needed = any(w.requires_grad for w in weights)
    g = x.shape[-2]
    groups = x.reshape((-1,) + x.shape[-2:])
    data = np.empty((len(groups),) + b2.data.shape)
    slot = np.empty(data.shape, np.min_scalar_type(g - 1)) if grad_needed else None
    step = max(1, _BLOCK_ROWS // g)
    for lo in range(0, len(groups), step):
        block = groups[lo:lo + step]
        with np.errstate(over="ignore", invalid="ignore"):
            h = _rows(block) @ w1.data
            h += b1.data
            if not np.isfinite(h).all():  # the ReLU would clip a -inf
                raise NonFiniteError("operation produced non-finite values")
            np.maximum(h, 0.0, out=h)
            y = h @ w2.data
            y += b2.data
        if not np.isfinite(y).all():
            raise NonFiniteError("operation produced non-finite values")
        y = y.reshape(block.shape[:-1] + b2.data.shape)
        out = y.max(axis=1, out=data[lo:lo + step])
        if grad_needed:
            slot[lo:lo + step] = (y == out[:, None]).argmax(axis=1)
    data = data.reshape(x.shape[:-2] + b2.data.shape)
    if not grad_needed:
        return _result(data, weights, None)

    def pullback(grad):
        grad, won = _rows(grad), _rows(slot)
        grads = [np.zeros_like(w.data) for w in weights]
        gw1, gb1, gw2, gb2 = grads
        for s in range(g):
            xs = _rows(x[..., s, :])
            pre = xs @ w1.data
            pre += b1.data
            gs = grad * (won == s)
            gw2 += np.maximum(pre, 0.0).T @ gs
            gb2 += gs.sum(axis=0)
            gh = gs @ w2.data.T
            gh *= pre > 0.0
            gw1 += xs.T @ gh
            gb1 += gh.sum(axis=0)
        return grads

    return _result(data, weights, pullback)


def _keep_freed_arrays():
    """Keep freed arrays in this process's heap for reuse, not returned to
    the kernel and faulted in again: glibc's mmap and trim thresholds go to
    32 and 64 MiB, where its dynamic ones end. No-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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
