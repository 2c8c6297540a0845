"""Reference implementations used as test oracles.

The brute-force oracles are written with plain Python loops and math —
deliberately not sharing any code path with the package — so agreement is
meaningful. The per-cloud references after them run the package's ops one
cloud at a time, the way training and evaluation ran before they batched.
The autodiff ops at the end, which the package no longer calls, build the
unfused chains that the fused ops are compared with.
"""

import math


def brute_knn(points, k):
    """k nearest neighbors per point, self excluded, ties by lower index.

    Returns (indices, distances) as nested lists.
    """
    n = len(points)
    indices, distances = [], []
    for i in range(n):
        pairs = []
        for j in range(n):
            if j == i:
                continue
            pairs.append((math.dist(points[i], points[j]), j))
        pairs.sort(key=lambda p: (p[0], p[1]))
        indices.append([j for _, j in pairs[:k]])
        distances.append([d for d, _ in pairs[:k]])
    return indices, distances


def brute_density_weights(points, k):
    """Mean-kNN distances, their mean as threshold, strict-inequality
    neighbor counts, and normalized weights."""
    n = len(points)
    _, dist = brute_knn(points, k)
    d = [sum(row) / k for row in dist]
    t = sum(d) / n
    raw = [sum(1 for v in row if v < t) for row in dist]
    total = sum(raw)
    if total == 0:
        weights = [1.0 / n] * n
    else:
        weights = [r / total for r in raw]
    return d, t, raw, weights


def brute_entropy(values, tau):
    """Shannon entropy (nats) of softmax(values / tau), max-stabilized."""
    m = max(values)
    exps = [math.exp((v - m) / tau) for v in values]
    z = sum(exps)
    probs = [e / z for e in exps]
    return -sum(p * math.log(p) for p in probs if p > 0)


def brute_smoothed_ce(logits, label, eps):
    n = len(logits)
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    z = sum(exps)
    log_probs = [(v - m) - math.log(z) for v in logits]
    loss = 0.0
    for j in range(n):
        target = 1.0 - eps if j == label else eps / (n - 1)
        loss -= target * log_probs[j]
    return loss


# ---------------------------------------------------------------------------
# Per-cloud references for the batched training and evaluation paths. Unlike
# the brute-force oracles above, these run the package's own ops; what they
# do not share is the batching: one graph, or one prediction, per cloud.


def per_cloud_loss(clouds, params, config, rng):
    """The minibatch loss as a sum of one graph per cloud over the batch size,
    anchors drawn from ``rng`` cloud by cloud."""
    from pcrobust import autodiff as ad
    from pcrobust.losses import attention_sem_loss, smoothed_cross_entropy, total_loss
    from pcrobust.model import forward

    loss_cfg = config.loss
    total = None
    for cloud in clouds:
        trace = forward(cloud, params, config.sampler, rng)
        loss = smoothed_cross_entropy(trace.logits, cloud.label, loss_cfg.smoothing_eps)
        if loss_cfg.sem_weight != 0.0:
            sem = attention_sem_loss(trace.attention_maps, loss_cfg.sem_layers, loss_cfg.tau)
            loss = total_loss(loss, sem, loss_cfg.sem_weight)
        total = loss if total is None else ad.add(total, loss)
    return ad.mul_scalar(total, 1.0 / len(clouds))


def per_cloud_evaluate(params, dataset, sampler, kinds, severities, eval_seeds,
                       corruption_seed=0):
    """evaluate()'s prediction log, one forward pass per record: each seed
    tries m anchors, then on InfeasibleSampleError m = available from a
    fresh generator on the same stream. fps and the baseline draw nothing,
    so they get the first eval seed only."""
    import dataclasses

    import numpy as np

    from pcrobust.corruption import CorruptionSpec, apply_corruption
    from pcrobust.data import derive_seed
    from pcrobust.evaluate import PredictionRecord
    from pcrobust.model import BaselineParams, forward
    from pcrobust.sampling import InfeasibleSampleError

    if isinstance(params, BaselineParams) or sampler.variant == "fps":
        eval_seeds = tuple(eval_seeds)[:1]
    records = []
    for i, cloud in enumerate(dataset):
        variants = [("clean", 0, cloud)]
        master = derive_seed(corruption_seed, "cloud", i)
        for kind in kinds:
            for severity in severities:
                spec = CorruptionSpec(kind, severity, derive_seed(master, kind, severity))
                variants.append((kind, severity, apply_corruption(cloud, spec)))
        for kind, severity, variant in variants:
            for seed in eval_seeds:
                stream = derive_seed(seed, "pred", i, kind, severity)
                capped = False
                try:
                    trace = forward(variant, params, sampler, np.random.default_rng(stream))
                except InfeasibleSampleError as err:
                    capped = True
                    fewer = dataclasses.replace(sampler, m=err.available)
                    trace = forward(variant, params, fewer, np.random.default_rng(stream))
                records.append(PredictionRecord(i, kind, severity, seed, cloud.label,
                                                trace.prediction, capped))
    return records


def keeping_backward(loss):
    """``autodiff.backward`` as it was before interior gradients were
    released: the same visiting order and accumulation, but the dict keeps
    every node's gradient, interior or leaf, to the end, and no node drops
    its pullback. Returns {leaf: gradient}."""
    import numpy as np

    root = loss._node or loss
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
        stack.extend((p, False) for p in node.parents
                     if p is not None and id(p) not in visited)
    grads = {root: np.ones(())}
    for node in reversed(order):
        if node.pullback is not None:
            for p, g in zip(node.parents, node.pullback(grads[node])):
                if p is not None:
                    grads[p] = grads[p] + g if p in grads else g
    return {t: g for t, g in grads.items() if t.pullback is None}


def embed_chain(feats, w1, b1, w2, b2):
    """The neighbour embedding as the four generic ops it was before
    ``autodiff.mlp_max``: linear, relu, linear, then max over axis -2."""
    from pcrobust import autodiff as ad

    h = ad.relu(ad.linear(ad.Tensor(feats), w1, b1))
    return ad.max_axis(ad.linear(h, w2, b2), axis=-2)


def concat(tensors):
    """Autodiff op: join on the last axis; the pullback hands each input
    its slice of the output gradient. ``autodiff.concat_matmul`` is
    compared with ``matmul(concat(parts), w)``."""
    import numpy as np

    from pcrobust.autodiff import _result

    tensors = list(tensors)
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])

    def pullback(g):
        return [g[..., lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    data = np.concatenate([t.data for t in tensors], axis=-1)
    return _result(data, tensors, pullback)


def exp(a):
    """Autodiff op: elementwise exp, whose node keeps its output.
    ``autodiff.entropy_rows`` is compared with the chain that uses it."""
    import numpy as np

    from pcrobust.autodiff import _result

    with np.errstate(over="ignore"):  # overflow -> inf -> NonFiniteError
        data = np.exp(a.data)
    return _result(data, (a,), lambda g: (data * g,))
