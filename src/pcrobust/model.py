"""Toy attention point-cloud classifier and a point-MLP baseline.

Pipeline: per-cloud anchor sampling + self-inclusive grouping in numpy,
then a network with leading batch axes: a shared per-point embedding MLP
with max aggregation per group, four cascaded self-attention layers
(residual, same width in and out), feature concatenation through a linear
projection, global max pool, and an MLP head. The forward trace keeps the
pre-softmax attention scores so the entropy objective can reach them.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cloudio import BinaryReader, FormatError
from .geometry import PointCloud
from .sampling import SAMPLER_VARIANTS, SampleSpec, anchor_candidates, sample_anchors

CHECKPOINT_MAGIC = b"RPM1"


class _Params:
    """Weights held as dataclass fields: tensors and lists of weight sets."""

    def tensors(self):
        """Every weight tensor in field order, the order checkpoints use."""
        out = []
        for value in vars(self).values():
            if isinstance(value, Tensor):
                out.append(value)
            elif isinstance(value, list):
                out.extend(t for layer in value for t in layer.tensors())
        return out

    def copy(self):
        return self._map(lambda t: Tensor(np.array(t.data), requires_grad=True))

    def no_grad(self):
        """The same arrays without gradients: ops on them build no graph."""
        return self._map(lambda t: Tensor(t.data))

    def _map(self, fn):
        fields = dict(vars(self))
        for name, value in fields.items():
            if isinstance(value, Tensor):
                fields[name] = fn(value)
            elif isinstance(value, list):
                fields[name] = [layer._map(fn) for layer in value]
        return type(self)(**fields)


@dataclass
class AttentionLayerParams(_Params):
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor


class _Classifier(_Params):
    @property
    def n_classes(self) -> int:
        return self.head_b2.data.size


@dataclass
class ModelParams(_Classifier):
    """All learnable weights of the attention classifier; each width is a tensor's shape."""

    m_anchors: int
    group_k: int
    embed_w1: Tensor
    embed_b1: Tensor
    embed_w2: Tensor
    embed_b2: Tensor
    layers: list
    w_o: Tensor
    head_w1: Tensor
    head_b1: Tensor
    head_w2: Tensor
    head_b2: Tensor

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def d_attn(self) -> int:
        return self.layers[0].w_q.data.shape[1]


@dataclass
class BaselineParams(_Classifier):
    """Per-point MLP baseline: shared point MLP, max pool, head."""

    point_w1: Tensor
    point_b1: Tensor
    point_w2: Tensor
    point_b2: Tensor
    head_w1: Tensor
    head_b1: Tensor
    head_w2: Tensor
    head_b2: Tensor


@dataclass
class ForwardTrace:
    """One forward pass: logits and pre-softmax attention maps per layer. A
    batched pass puts the batch axes in front of each: (B, C) and (B, M, M)."""

    logits: Tensor
    attention_maps: list
    anchors: np.ndarray | None = None

    @property
    def prediction(self) -> int:
        """The class of one cloud's (C,) logits; ties go to the lowest index."""
        if self.logits.data.ndim != 1:
            raise ValueError(f"prediction needs one cloud's (C,) logits, got shape "
                             f"{self.logits.data.shape}")
        return int(np.argmax(self.logits.data))


def _param(rng, shape, scale):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def init_model(
    rng: np.random.Generator,
    n_classes: int,
    m_anchors: int = 64,
    d_model: int = 64,
    d_attn: int = 16,
    group_k: int = 8,
    n_layers: int = 4,
) -> ModelParams:
    """Random weights; the head's hidden width is ``max(2, d_model // 2)``."""
    d = d_model
    hh = max(2, d // 2)
    layers = [
        AttentionLayerParams(
            w_q=_param(rng, (d, d_attn), 1.0 / math.sqrt(d)),
            w_k=_param(rng, (d, d_attn), 1.0 / math.sqrt(d)),
            w_v=_param(rng, (d, d), 1.0 / math.sqrt(d)),
        )
        for _ in range(n_layers)
    ]
    return ModelParams(
        m_anchors=m_anchors,
        group_k=group_k,
        embed_w1=_param(rng, (6, d), math.sqrt(2.0 / 6)),
        embed_b1=_zeros(d),
        embed_w2=_param(rng, (d, d), math.sqrt(2.0 / d)),
        embed_b2=_zeros(d),
        layers=layers,
        w_o=_param(rng, (n_layers * d, d), 1.0 / math.sqrt(n_layers * d)),
        head_w1=_param(rng, (d, hh), math.sqrt(2.0 / d)),
        head_b1=_zeros(hh),
        head_w2=_param(rng, (hh, n_classes), math.sqrt(2.0 / hh)),
        head_b2=_zeros(n_classes),
    )


def init_baseline(rng: np.random.Generator, n_classes: int, d_model: int = 64) -> BaselineParams:
    """Random weights; ``d_model`` is the point MLP's hidden and feature width,
    ``max(2, d_model // 2)`` the head's hidden width."""
    hh = max(2, d_model // 2)
    return BaselineParams(
        point_w1=_param(rng, (3, d_model), math.sqrt(2.0 / 3)),
        point_b1=_zeros(d_model),
        point_w2=_param(rng, (d_model, d_model), math.sqrt(2.0 / d_model)),
        point_b2=_zeros(d_model),
        head_w1=_param(rng, (d_model, hh), math.sqrt(2.0 / d_model)),
        head_b1=_zeros(hh),
        head_w2=_param(rng, (hh, n_classes), math.sqrt(2.0 / hh)),
        head_b2=_zeros(n_classes),
    )


class TooFewPointsError(ValueError):
    """A cloud with fewer points than ``network_input`` reads
    (``input_width``). ``where`` names the cloud and ``index`` is its
    position in the dataset."""

    def __init__(self, where: str, index: int, n: int, group_k: int, sampler: SampleSpec):
        super().__init__(where, index, n, group_k, sampler)
        self.where, self.index, self.n, self.group_k, self.sampler = (
            where, index, n, group_k, sampler)

    def __str__(self) -> str:
        reads = f"sampler {self.sampler.variant}"
        if self.sampler.neighbor_width > 1:
            reads += f" with k = {self.sampler.k}"
        return (f"{self.where}: {self.n} points, fewer than the "
                f"{input_width(self.group_k, self.sampler)} that group_k = {self.group_k} "
                f"and {reads} read")


def input_width(group_k: int, sampler: SampleSpec) -> int:
    """The fewest points ``network_input`` groups, and the neighbour-table
    width it builds: a group's ``group_k`` points, and the k + 1 columns a
    DAS sampler's density score reads."""
    return max(group_k, sampler.neighbor_width)


def checked_candidates(cloud: PointCloud, group_k: int, sampler: SampleSpec, where: str,
                       index: int) -> int:
    """A cloud's check before its first input step: TooFewPointsError,
    naming it ``where``, below ``input_width`` points; else its neighbour
    table is built at that width and its ``anchor_candidates`` returned."""
    width = input_width(group_k, sampler)
    if cloud.n < width:
        raise TooFewPointsError(where, index, cloud.n, group_k, sampler)
    cloud.neighbors(width)
    return anchor_candidates(cloud, sampler)


def group_indices(cloud: PointCloud, anchors: np.ndarray, group_k: int) -> np.ndarray:
    """Self-inclusive nearest original points of each anchor, ties by index."""
    if not 1 <= group_k <= cloud.n:
        raise ValueError(f"group_k must satisfy 1 <= group_k <= N, got {group_k}")
    return cloud.neighbors(group_k).indices[anchors]


def network_input(
    cloud: PointCloud,
    params,
    sampler: SampleSpec | None = None,
    rng: np.random.Generator | None = None,
    anchors=None,
):
    """The network's input for one cloud and its anchors: the cloud's (N, 3)
    points and None for the baseline, else (M, group_k, 6) group features.

    Each anchor's group is its ``group_k`` nearest original points (anchor
    included), as (offset from anchor, anchor coordinates) 6-vectors. Pass
    ``anchors`` to bypass the sampler. The cloud's neighbour table is built
    once, wide enough for both the groups and the sampler.
    """
    if isinstance(params, BaselineParams):
        return cloud.points, None
    if anchors is None:
        if sampler is None:
            raise ValueError("either a sampler spec or explicit anchors required")
        cloud.neighbors(min(input_width(params.group_k, sampler), cloud.n))
        anchors = sample_anchors(cloud, sampler, rng)
    anchors = np.asarray(anchors, dtype=np.int64)
    pts = cloud.points
    groups = group_indices(cloud, anchors, params.group_k)
    rel = pts[groups] - pts[anchors][:, None, :]
    ctr = np.broadcast_to(pts[anchors][:, None, :], rel.shape)
    return np.concatenate([rel, ctr], axis=2), anchors


def stack_inputs(clouds, params, sampler, rngs) -> np.ndarray:
    """``network_input`` of a list of clouds as one batch, anchors drawn per
    cloud in order."""
    return np.stack([network_input(c, params, sampler, rng)[0]
                     for c, rng in zip(clouds, rngs)])


def neighbor_embed(feats: np.ndarray, params: ModelParams) -> Tensor:
    """Shared MLP over (..., M, g, 6) group features, then max over each
    group: (..., M, D), invariant to the order within a group. One
    ``mlp_max`` op, whose graph keeps no (..., M, g, D) array."""
    return ad.mlp_max(feats, params.embed_w1, params.embed_b1,
                      params.embed_w2, params.embed_b2)


def self_attention_layer(f_in: Tensor, layer: AttentionLayerParams, d_attn: int):
    """One residual self-attention layer.

    Returns (output, scores) where scores = Q K^T / sqrt(d_attn) is kept
    pre-softmax for the entropy objective.
    """
    q = ad.matmul(f_in, layer.w_q)
    k = ad.matmul(f_in, layer.w_k)
    v = ad.matmul(f_in, layer.w_v)
    scores = ad.mul_scalar(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(d_attn))
    attended = ad.matmul(ad.softmax_rows(scores), v)
    return ad.add(attended, f_in), scores


def _pool_head(features: Tensor, params) -> Tensor:
    """Global max pool of an (..., n, d) feature map, then the MLP head: (..., C)."""
    h = ad.relu(ad.linear(ad.max_axis(features, axis=-2), params.head_w1, params.head_b1))
    return ad.linear(h, params.head_w2, params.head_b2)


def network(inputs: np.ndarray, params) -> ForwardTrace:
    """The classifier on (..., M, g, 6) group features, or (..., N, 3) points
    for the baseline; ``params.no_grad()`` weights build no graph."""
    if isinstance(params, BaselineParams):
        h = ad.relu(ad.linear(Tensor(inputs), params.point_w1, params.point_b1))
        point_feats = ad.linear(h, params.point_w2, params.point_b2)
        return ForwardTrace(_pool_head(point_feats, params), [])
    return classify_embedded(neighbor_embed(inputs, params), params)


def classify_embedded(f: Tensor, params: ModelParams) -> ForwardTrace:
    """The classifier after ``neighbor_embed``, on (..., M, D) anchor features.
    The stage outputs are joined and projected by one ``concat_matmul`` op,
    whose graph keeps the stages, not a (..., M, n_layers * D) copy."""
    stage_outputs, score_maps = [], []
    for layer in params.layers:
        f, scores = self_attention_layer(f, layer, params.d_attn)
        stage_outputs.append(f)
        score_maps.append(scores)
    f_o = ad.concat_matmul(stage_outputs, params.w_o)
    return ForwardTrace(_pool_head(f_o, params), score_maps)


def network_on_draws(cloud: PointCloud, params, sampler: SampleSpec | None,
                     rngs) -> ForwardTrace:
    """``network(stack_inputs([cloud] * S, params, sampler, rngs))``, bitwise,
    for no-grad weights, with the S draws' (S, M) anchors: each distinct
    anchor is grouped and embedded once, then gathered into (S, M, D)."""
    if isinstance(params, BaselineParams):
        return network(stack_inputs([cloud] * len(rngs), params, sampler, rngs), params)
    if sampler is None:
        raise ValueError("the attention model needs a sampler spec to draw anchors")
    cloud.neighbors(min(input_width(params.group_k, sampler), cloud.n))
    anchors = np.stack([sample_anchors(cloud, sampler, rng) for rng in rngs])
    distinct, rows = np.unique(anchors, return_inverse=True)
    embedded = neighbor_embed(network_input(cloud, params, anchors=distinct)[0], params)
    if embedded.requires_grad:
        raise ValueError("network_on_draws gathers constants: pass params.no_grad()")
    trace = classify_embedded(Tensor(embedded.data[rows.reshape(anchors.shape)]), params)
    return replace(trace, anchors=anchors)


def forward(
    cloud: PointCloud,
    params,
    sampler: SampleSpec | None = None,
    rng: np.random.Generator | None = None,
    anchors=None,
) -> ForwardTrace:
    """One cloud through ``network_input`` and ``network``, either arch."""
    inputs, anchors = network_input(cloud, params, sampler, rng, anchors)
    return replace(network(inputs, params), anchors=anchors)


# ---------------------------------------------------------------------------
# checkpoint format: magic RPM1, u32 arch code, u32 header fields, then each
# tensor as u32 ndim + u32 dims + row-major little-endian f64 data.

_ARCH_ATTENTION = 0
_ARCH_BASELINE = 1
# u32 sampler codes; codes 1 and 2 name samplers that were removed
_SAMPLER_CODES = ("das-l0", "das-l1", "das-ballquery-l0", "fps", "random")


def save_checkpoint(path, params, sampler: SampleSpec) -> None:
    """Serialize parameters and the training-time sampler to one file."""
    if isinstance(params, ModelParams):
        arch = _ARCH_ATTENTION
        header = [params.n_classes, params.m_anchors, params.embed_b1.data.size, params.d_attn,
                  params.group_k, params.n_layers, params.head_b1.data.size]
    elif isinstance(params, BaselineParams):
        arch = _ARCH_BASELINE
        header = [params.n_classes, params.point_b2.data.size, params.point_b1.data.size,
                  params.head_b1.data.size]
    else:
        raise TypeError(f"cannot checkpoint {type(params).__name__}")
    blob = [CHECKPOINT_MAGIC, struct.pack("<I", arch)]
    blob.append(struct.pack(f"<{len(header)}I", *header))
    blob.append(
        struct.pack(
            "<III",
            _SAMPLER_CODES.index(sampler.variant),
            sampler.m,
            sampler.k,
        )
    )
    tensors = params.tensors()
    blob.append(struct.pack("<I", len(tensors)))
    for t in tensors:
        dims = t.data.shape
        blob.append(struct.pack(f"<I{len(dims)}I", len(dims), *dims))
        blob.append(t.data.astype("<f8").tobytes())
    # a sibling temp file replaced over the target: an interrupted save
    # leaves the previous checkpoint whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(blob))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class CheckpointFormatError(FormatError):
    """A checkpoint file that cannot be read; names the path and the reason."""


def _checkpoint_shapes(arch, header) -> list:
    """The tensor shapes a checkpoint header gives, in ``tensors()`` order,
    without allocating them."""
    if arch == _ARCH_ATTENTION:
        n_classes, _, d, d_attn, _, n_layers, hh = header
        embed = [(6, d), (d,), (d, d), (d,)]
        layers = [(d, d_attn), (d, d_attn), (d, d)] * n_layers
        rest = [(n_layers * d, d), (d, hh), (hh,), (hh, n_classes), (n_classes,)]
        return embed + layers + rest
    n_classes, d_feat, hidden, hh = header
    point = [(3, hidden), (hidden,), (hidden, d_feat), (d_feat,)]
    return point + [(d_feat, hh), (hh,), (hh, n_classes), (n_classes,)]


def load_checkpoint(path):
    """Returns (params, sampler spec recorded at save time).

    The stored tensors are read first, so memory stays bounded by the
    file's size; their count and shapes must then be the ones the header's
    fields give. The parameters are built from those tensors, as writable
    float64 copies that require gradients: the header adds only
    ``m_anchors`` and ``group_k``, and no template is drawn.
    Raises CheckpointFormatError for a bad magic, an unknown arch or
    sampler code, a removed sampler, a sampler m or k of 0, a zero header
    field, a truncated file, trailing bytes, a tensor count or shape other
    than the header gives, or non-finite values.
    """
    reader = BinaryReader(path, CHECKPOINT_MAGIC, CheckpointFormatError)
    (arch,) = reader.unpack("<I", "arch code")
    if arch == _ARCH_ATTENTION:
        n_header = 7
    elif arch == _ARCH_BASELINE:
        n_header = 4
    else:
        raise CheckpointFormatError(path, f"unknown checkpoint arch code {arch}")
    header = reader.unpack(f"<{n_header}I", "header")
    if 0 in header:
        raise CheckpointFormatError(path, f"header fields {header} include 0")
    variant_code, samp_m, samp_k = reader.unpack("<III", "sampler")
    if variant_code >= len(_SAMPLER_CODES):
        raise CheckpointFormatError(path, f"unknown sampler code {variant_code}")
    variant = _SAMPLER_CODES[variant_code]
    if variant not in SAMPLER_VARIANTS:
        raise CheckpointFormatError(path, f"sampler {variant} was removed")
    try:
        sampler = SampleSpec(m=samp_m, k=samp_k, variant=variant)
    except ValueError as exc:
        raise CheckpointFormatError(path, f"sampler: {exc}") from exc
    (n_tensors,) = reader.unpack("<I", "tensor count")
    stored = []
    for i in range(n_tensors):
        (ndim,) = reader.unpack("<I", f"tensor {i} rank")
        dims = reader.unpack(f"<{ndim}I", f"tensor {i} dims")
        stored.append((dims, reader.array("<f8", math.prod(dims), f"tensor {i} data")))
    reader.finish("last tensor")
    # the count first: the header's layer count sizes the shape list
    n_expected = 9 + 3 * header[5] if arch == _ARCH_ATTENTION else 8
    if n_tensors != n_expected:
        raise CheckpointFormatError(
            path, f"{n_tensors} tensors, the header gives {n_expected}"
        )
    # dims are checked before any reshape: a 0 dim beside huge ones holds
    # no data but has no valid numpy shape
    shapes = _checkpoint_shapes(arch, header)
    for i, ((dims, data), shape) in enumerate(zip(stored, shapes)):
        if dims != shape:
            raise CheckpointFormatError(
                path, f"tensor {i} has shape {dims}, the header gives {shape}"
            )
        if not np.isfinite(data).all():
            raise CheckpointFormatError(path, f"tensor {i} has non-finite values")
    tensors = [Tensor(data.reshape(dims).astype(np.float64), requires_grad=True)
               for dims, data in stored]
    if arch == _ARCH_BASELINE:
        return BaselineParams(*tensors), sampler
    _, m_anchors, _, _, group_k, n_layers, _ = header
    layers = [AttentionLayerParams(*tensors[i:i + 3]) for i in range(4, 4 + 3 * n_layers, 3)]
    return ModelParams(m_anchors, group_k, *tensors[:4], layers,
                       *tensors[4 + 3 * n_layers:]), sampler
