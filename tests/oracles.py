"""Independent brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops and math — deliberately
not sharing any code path with the package — so agreement is meaningful.
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


def brute_ball_counts(points, radius=0.1, cap=64):
    """Per-point count of other points strictly within ``radius`` of it on the
    unit-sphere-normalised copy of the cloud, capped at ``cap``.

    The copy is centred at the centroid and divided by the farthest point's
    norm, unless every point coincides; counts are taken on that copy.
    """
    n = len(points)
    centroid = [sum(p[c] for p in points) / n for c in range(3)]
    centered = [[p[c] - centroid[c] for c in range(3)] for p in points]
    scale = max(math.hypot(*p) for p in centered)
    unit = [[v / scale for v in p] for p in centered] if scale > 0 else centered
    return [
        min(sum(1 for j in range(n) if j != i and math.dist(unit[i], unit[j]) < radius),
            cap)
        for i in range(n)
    ]


def brute_entropy(values, tau):
    """Shannon entropy (nats) of softmax(values / tau), max-stabilized."""
    m = max(values)
    exps = [math.exp((v - m) / tau) for v in values]
    z = sum(exps)
    probs = [e / z for e in exps]
    return -sum(p * math.log(p) for p in probs if p > 0)


def brute_channel_entropy_mean(matrix, tau):
    """Mean over columns of the entropy of each column's softmax."""
    rows = len(matrix)
    cols = len(matrix[0])
    total = 0.0
    for c in range(cols):
        total += brute_entropy([matrix[r][c] for r in range(rows)], tau)
    return total / cols


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
