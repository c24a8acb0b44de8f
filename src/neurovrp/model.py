"""Dual-stream policy model: clustered-attention node encoder, residual
edge embeddings with a static transition heatmap, and the sequential
decoder that fuses both logit paths.

All forward functions operate on a batch of instances that share
(variant, n, optional-node count); batching across instances and rollouts
keeps the op count small enough for CPU training.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from . import tensor as T
from .clustering import (AttentionParams, SlotLayout, build_cluster_index,
                         build_slot_layout, clustered_attention,
                         multi_head_attention)
from .instances import Instance, Variant, build_distance_matrix
from .tensor import Tensor

LOGIT_CLIP = 10.0   # C in C*tanh(.) logit clipping, POMO convention


@dataclass
class ModelConfig:
    variant: Variant = Variant.VRP
    d: int = 16
    heads: int = 2
    layers: int = 2
    ff: int = 64
    edge_dim: int = 8
    k_neighbors: int | None = None   # None: all other nodes
    cluster_size: int | None = None  # None: full attention in one group
    rounds: int = 1
    smoothing: bool = False

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if self.d % self.heads:
            raise ValueError("d must be divisible by heads")
        if self.edge_dim > self.d:
            raise ValueError("edge_dim must not exceed d")
        if self.cluster_size is not None and self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    @classmethod
    def full_scale(cls, variant: Variant = Variant.VRP) -> "ModelConfig":
        return cls(variant=variant, d=128, heads=8, layers=6, ff=512,
                   edge_dim=32, k_neighbors=50)

    def to_dict(self) -> dict:
        """Every field as a JSON value; the variant as its name."""
        return {**asdict(self), "variant": self.variant.value}

    @classmethod
    def from_dict(cls, doc) -> "ModelConfig":
        """Inverse of to_dict. An unknown, missing or mistyped key raises
        ValueError naming the field."""
        if not isinstance(doc, dict):
            raise ValueError(f"model config must be an object of fields, "
                             f"got {type(doc).__name__}")
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model config field(s) {unknown}")
        for f in fields(cls):
            if f.name not in doc:
                raise ValueError(f"model config field {f.name!r} is missing")
            if not _fits(doc[f.name], hints[f.name]):
                raise ValueError(f"model config field {f.name!r} must be "
                                 f"{f.type}, got {doc[f.name]!r}")
        return cls(**doc)


def _fits(value, hint) -> bool:
    """Whether a JSON value has the annotated type (an Enum by value;
    bool is not an int here)."""
    for t in typing.get_args(hint) or (hint,):
        if t is type(None):
            ok = value is None
        elif issubclass(t, Enum):
            ok = value in {m.value for m in t}
        elif t is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, t)
        if ok:
            return True
    return False


def customer_feature_dim(variant: Variant) -> int:
    return 6 if variant == Variant.VRPTW else 3


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """All trainable tensors, uniform in +-1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    d, ff, de = config.d, config.ff, config.edge_dim
    hidden = 8 * de
    p: dict[str, Tensor] = {}

    def w(name, rows, cols=None):
        scale = 1.0 / math.sqrt(rows)
        shape = (rows, cols) if cols is not None else (rows,)
        p[name] = Tensor(rng.uniform(-scale, scale, size=shape),
                        requires_grad=True)

    def b(name, size):
        p[name] = Tensor(np.zeros(size), requires_grad=True)

    w("enc.in.depot.w", 2, d); b("enc.in.depot.b", d)
    cfd = customer_feature_dim(config.variant)
    w("enc.in.cust.w", cfd, d); b("enc.in.cust.b", d)

    for i in range(config.layers):
        for name in ("wq", "wk", "wv", "wo"):
            w(f"enc.l{i}.attn.{name}", d, d)
        w(f"enc.l{i}.ff.w1", d, ff); b(f"enc.l{i}.ff.b1", ff)
        w(f"enc.l{i}.ff.w2", ff, d); b(f"enc.l{i}.ff.b2", d)
        for j in (1, 2):
            p[f"enc.l{i}.norm{j}.scale"] = Tensor(np.ones(d), requires_grad=True)
            p[f"enc.l{i}.norm{j}.shift"] = Tensor(np.zeros(d), requires_grad=True)

    if config.variant in (Variant.EVRPCS, Variant.VRPRS):
        w("opt.in.w", 2, d); b("opt.in.b", d)
        for name in ("wq", "wk", "wv", "wo"):
            w(f"opt.attn.{name}", d, d)
        w("opt.fuse.wq", d, d)
        w("opt.fuse.wk", d, d)
        w("opt.fuse.wv", d, d)
        p["opt.fuse.gate"] = Tensor(np.zeros(()), requires_grad=True)

    w("edge.in.w", 3, de); b("edge.in.b", de)
    w("edge.red_src.w", d, de); b("edge.red_src.b", de)
    w("edge.red_dst.w", d, de); b("edge.red_dst.b", de)
    for name in ("w1", "w2", "w3"):
        w(f"edge.{name}", de, de)
    p["edge.norm.scale"] = Tensor(np.ones(de), requires_grad=True)
    p["edge.norm.shift"] = Tensor(np.zeros(de), requires_grad=True)
    w("edge.mlp.w1", de, hidden); b("edge.mlp.b1", hidden)
    w("edge.mlp.w2", hidden, hidden); b("edge.mlp.b2", hidden)
    w("edge.mlp.w3", hidden, 1); b("edge.mlp.b3", 1)

    w("dec.ctx.w", d + 2, d)
    for name in ("wk_g", "wv_g", "wo_g", "wk_l"):
        w(f"dec.{name}", d, d)

    return p


def param_count(params: dict[str, Tensor]) -> dict[str, int]:
    """Per-module and total parameter counts, keyed by name prefix."""
    groups: dict[str, int] = {}
    for name, t in params.items():
        prefix = name.split(".")[0]
        groups[prefix] = groups.get(prefix, 0) + t.size
    groups["total"] = sum(t.size for t in params.values())
    return groups


# -- encoder ------------------------------------------------------------

def node_features(batch: list[Instance]) -> tuple[np.ndarray, np.ndarray]:
    """Depot features (B, 2) and customer features (B, n, cfd)."""
    variant = batch[0].variant
    depot = np.stack([inst.depot for inst in batch])
    feats = []
    for inst in batch:
        f = [inst.customers[:, 0], inst.customers[:, 1],
             inst.demands / inst.capacity]
        if variant == Variant.VRPTW:
            tw = inst.time_windows
            f += [tw.earliest / tw.horizon, tw.latest / tw.horizon,
                  tw.service / tw.horizon]
        feats.append(np.stack(f, axis=1))
    return depot, np.stack(feats)


def _attention_params(params: dict[str, Tensor], prefix: str,
                      heads: int) -> AttentionParams:
    return AttentionParams(wq=params[f"{prefix}.wq"], wk=params[f"{prefix}.wk"],
                           wv=params[f"{prefix}.wv"], wo=params[f"{prefix}.wo"],
                           heads=heads)


def _encoder_layer(h: Tensor, params: dict[str, Tensor], layer: int,
                   config: ModelConfig, layout: SlotLayout) -> Tensor:
    att = clustered_attention(
        h, layout, _attention_params(params, f"enc.l{layer}.attn", config.heads))
    h = h + att
    h = T.norm_affine(h, params[f"enc.l{layer}.norm1.scale"],
                      params[f"enc.l{layer}.norm1.shift"], axis=-2)
    ff = T.silu(h @ params[f"enc.l{layer}.ff.w1"] + params[f"enc.l{layer}.ff.b1"])
    ff = ff @ params[f"enc.l{layer}.ff.w2"] + params[f"enc.l{layer}.ff.b2"]
    h = h + ff
    return T.norm_affine(h, params[f"enc.l{layer}.norm2.scale"],
                         params[f"enc.l{layer}.norm2.shift"], axis=-2)


def encode(batch: list[Instance], params: dict[str, Tensor],
           config: ModelConfig) -> Tensor:
    """Embed depot + customers through the layered encoder: (B, n+1, d)."""
    if batch[0].variant != config.variant:
        raise ValueError("instance variant does not match model config")
    depot_xy, cust_feats = node_features(batch)
    depot_h = Tensor(depot_xy) @ params["enc.in.depot.w"] + params["enc.in.depot.b"]
    cust_h = Tensor(cust_feats) @ params["enc.in.cust.w"] + params["enc.in.cust.b"]
    h = T.concat([T.reshape(depot_h, (len(batch), 1, config.d)), cust_h], axis=1)

    # Dense attention is the one-cluster case: every customer, one round.
    if config.cluster_size is None:
        m, rounds, smoothing = batch[0].n_customers, 1, False
    else:
        m, rounds, smoothing = config.cluster_size, config.rounds, config.smoothing
    layout = build_slot_layout([
        build_cluster_index(inst.customers, inst.depot, m, rounds, smoothing)
        for inst in batch])

    for layer in range(config.layers):
        h = _encoder_layer(h, params, layer, config, layout)
    return h


# -- optional-node pathway ----------------------------------------------

def gumbel_tau(epoch: int) -> float:
    """Optional-node fusion temperature: 0.99 ** epoch, floored at 0.2."""
    return max(0.2, 0.99 ** epoch)


def encode_optional(batch: list[Instance], params: dict[str, Tensor],
                    config: ModelConfig) -> Tensor:
    """Self-attention embeddings of the optional nodes: (B, f, d)."""
    if config.variant not in (Variant.EVRPCS, Variant.VRPRS):
        raise ValueError("variant has no optional nodes")
    coords = np.stack([inst.optional_nodes for inst in batch])
    h = Tensor(coords) @ params["opt.in.w"] + params["opt.in.b"]
    bsz, f, _ = h.shape
    return multi_head_attention(h, np.ones((bsz, f), dtype=bool),
                                _attention_params(params, "opt.attn", config.heads))


def fuse_optional(h: Tensor, h_opt: Tensor, params: dict[str, Tensor],
                  tau: float, noise: np.ndarray | None = None) -> Tensor:
    """Blend optional-facility context into customer embeddings.

    Each customer forms Gumbel-Softmax weights over the optional nodes at
    temperature tau (noise supplied externally for determinism; None means
    zero noise) and adds the weighted facility value through a scalar gate
    initialized at zero.
    """
    bsz, n1, d = h.shape
    f = h_opt.shape[1]
    cust = T.take(h, np.arange(1, n1), axis=1)
    logits = (cust @ params["opt.fuse.wq"]) @ \
        T.swapaxes(h_opt @ params["opt.fuse.wk"], -1, -2) * (1 / math.sqrt(d))
    if noise is not None:
        logits = logits + Tensor(noise)
    weights = T.masked_softmax(logits * (1.0 / tau),
                               np.ones((bsz, n1 - 1, f), dtype=bool))
    blended = weights @ (h_opt @ params["opt.fuse.wv"])
    cust = cust + params["opt.fuse.gate"] * blended
    depot = T.take(h, np.array([0]), axis=1)
    return T.concat([depot, cust], axis=1)


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(shape)
    return -np.log(-np.log(u + 1e-20) + 1e-20)


# -- edge module and heatmap --------------------------------------------

@dataclass
class EdgeSet:
    """K-nearest-neighbor directed edges among depot + customers."""
    neighbors: np.ndarray   # (B, N, K) target node index
    features: np.ndarray    # (B, N, K, 3): forward, reverse, difference
    n_total: int            # node count incl. optional nodes

    @property
    def k(self) -> int:
        return self.neighbors.shape[2]


def build_edge_set(batch: list[Instance], config: ModelConfig) -> EdgeSet:
    """Edges over depot+customers only; optional nodes do not participate."""
    n_dc = 1 + batch[0].n_customers
    k = config.k_neighbors or (n_dc - 1)
    k = min(k, n_dc - 1)
    nbrs, feats = [], []
    for inst in batch:
        d = build_distance_matrix(inst).values[:n_dc, :n_dc]
        order = np.argsort(d + np.eye(n_dc) * 1e9, axis=1, kind="stable")
        nb = order[:, :k]
        fwd = np.take_along_axis(d, nb, axis=1)
        rev = d.T[np.arange(n_dc)[:, None], nb]
        nbrs.append(nb)
        feats.append(np.stack([fwd, rev, fwd - rev], axis=-1))
    return EdgeSet(neighbors=np.stack(nbrs), features=np.stack(feats),
                   n_total=batch[0].n_nodes)


def edge_embed(h: Tensor, edges: EdgeSet, params: dict[str, Tensor]) -> Tensor:
    """Residual-fused edge embeddings: (B, N, K, d_e).

    h covers depot + customers only ((B, N, d)).
    """
    bsz, n_dc, d = h.shape
    k = edges.k
    x_e = Tensor(edges.features) @ params["edge.in.w"] + params["edge.in.b"]
    src = h @ params["edge.red_src.w"] + params["edge.red_src.b"]
    dst = h @ params["edge.red_dst.w"] + params["edge.red_dst.b"]
    flat_idx = (np.arange(bsz)[:, None, None] * n_dc + edges.neighbors).ravel()
    de = x_e.shape[-1]
    dst_g = T.reshape(T.take(T.reshape(dst, (bsz * n_dc, de)), flat_idx, axis=0),
                      (bsz, n_dc, k, de))
    src_b = T.reshape(src, (bsz, n_dc, 1, de))
    pre = src_b @ params["edge.w1"] + dst_g @ params["edge.w2"] \
        + x_e @ params["edge.w3"]
    pre = T.reshape(pre, (bsz, n_dc * k, de))
    pre = T.norm_affine(pre, params["edge.norm.scale"],
                        params["edge.norm.shift"], axis=-2)
    return x_e + T.silu(T.reshape(pre, (bsz, n_dc, k, de)))


def heatmap(h_e: Tensor, edges: EdgeSet, params: dict[str, Tensor]) -> Tensor:
    """Static transition preferences, (B, N_total, N_total): tanh(MLP(edge))
    on kNN edges, zero elsewhere, so on optional-node rows and columns too."""
    bsz, n_dc, k, de = h_e.shape
    nt = edges.n_total
    x = T.silu(h_e @ params["edge.mlp.w1"] + params["edge.mlp.b1"])
    x = T.silu(x @ params["edge.mlp.w2"] + params["edge.mlp.b2"])
    vals = T.tanh(x @ params["edge.mlp.w3"] + params["edge.mlp.b3"])
    vals = T.reshape(vals, (bsz, n_dc, k))
    b_idx = np.arange(bsz)[:, None, None]
    i_idx = np.arange(n_dc)[None, :, None]
    flat = (b_idx * nt * nt + i_idx * nt + edges.neighbors).ravel()
    return T.scatter(vals, flat, (bsz, nt, nt))


# -- decoder ------------------------------------------------------------

@dataclass
class DecodeCache:
    """Per-instance projections over all N_total nodes, computed once."""
    h_nodes: Tensor      # (B, N_total, d) embeddings incl. optional nodes
    k_glimpse: Tensor
    v_glimpse: Tensor
    k_logit: Tensor
    heat: Tensor | None  # (B, N_total, N_total), 0 on optional rows/cols


def build_decode_cache(h_dc: Tensor, h_opt: Tensor | None,
                       heat: Tensor | None,
                       params: dict[str, Tensor]) -> DecodeCache:
    h_nodes = h_dc if h_opt is None else T.concat([h_dc, h_opt], axis=1)
    return DecodeCache(
        h_nodes=h_nodes,
        k_glimpse=h_nodes @ params["dec.wk_g"],
        v_glimpse=h_nodes @ params["dec.wv_g"],
        k_logit=h_nodes @ params["dec.wk_l"],
        heat=heat,
    )


def concat_caches(caches: list[DecodeCache]) -> DecodeCache:
    """One cache for the instances of several same-shaped caches, in order."""
    def cat(name):
        parts = [getattr(c, name) for c in caches]
        return None if parts[0] is None else T.concat(parts, axis=0)

    return DecodeCache(h_nodes=cat("h_nodes"), k_glimpse=cat("k_glimpse"),
                       v_glimpse=cat("v_glimpse"), k_logit=cat("k_logit"),
                       heat=cat("heat"))


@dataclass
class ExpandedCache:
    """DecodeCache laid out for a rollout of B instances x P trajectories.

    Row t = b*P + p is trajectory p of instance b (the POMO layout). Keys
    stay per instance and each step broadcasts an instance's P queries
    against them, so nothing is copied per trajectory. One flat index
    b*N + current gathers a trajectory's h_flat and heat_flat rows.
    """
    traj_instance: np.ndarray  # (T,) np.repeat(arange(B), P)
    h_flat: Tensor       # (B*N, d) for current-node gathers
    k_g: Tensor          # (B, heads, N, dh)
    v_g: Tensor          # (B, heads, N, dh)
    k_l: Tensor          # (B, d, N)
    heat_flat: Tensor | None   # (B*N, N) heat rows, gathered like h_flat
    n_total: int


def expand_cache(cache: DecodeCache, traj_instance: np.ndarray,
                 config: ModelConfig) -> ExpandedCache:
    """Split instance-level projections into heads for a rollout.

    traj_instance must be np.repeat(np.arange(B), P): the P trajectories
    of each instance in consecutive rows, as `init_batch_state` builds it.
    """
    bsz, n_total, d = cache.h_nodes.shape
    pomo = len(traj_instance) // bsz
    if pomo < 1 or not np.array_equal(traj_instance,
                                      np.repeat(np.arange(bsz), pomo)):
        raise ValueError("traj_instance must hold P >= 1 consecutive rows "
                         "per instance: np.repeat(np.arange(B), P)")
    heads = config.heads

    def split_heads(x):
        return T.swapaxes(T.reshape(x, (bsz, n_total, heads, d // heads)), 1, 2)

    return ExpandedCache(
        traj_instance=traj_instance,
        h_flat=T.reshape(cache.h_nodes, (bsz * n_total, d)),
        k_g=split_heads(cache.k_glimpse),
        v_g=split_heads(cache.v_glimpse),
        k_l=T.swapaxes(cache.k_logit, 1, 2),
        heat_flat=None if cache.heat is None
        else T.reshape(cache.heat, (bsz * n_total, n_total)),
        n_total=n_total,
    )


def decode_step(cache: ExpandedCache, params: dict[str, Tensor],
                config: ModelConfig, current: np.ndarray,
                cap_frac: np.ndarray, xi: np.ndarray, allowed: np.ndarray,
                opt_term: np.ndarray | None = None) -> Tensor:
    """One decoding step for T = B*P trajectories: probabilities (T, N_total).

    cap_frac is the remaining-capacity fraction c_t and xi the normalized
    variant-specific resource/time feature (zero where unused). opt_term
    holds the resource-driven heatmap stand-in for optional-node columns.
    """
    n_total = cache.n_total
    d = config.d
    t_cnt = len(current)
    heads = config.heads
    dh = d // heads
    bsz = cache.k_g.shape[0]
    pomo = t_cnt // bsz

    flat_idx = cache.traj_instance * n_total + current
    h_t = T.take(cache.h_flat, flat_idx, axis=0)
    ctx = T.concat([h_t, Tensor(cap_frac[:, None]), Tensor(xi[:, None])], axis=1)
    q = ctx @ params["dec.ctx.w"]

    qh = T.swapaxes(T.reshape(q, (bsz, pomo, heads, dh)), 1, 2)
    scores = (qh @ T.swapaxes(cache.k_g, -1, -2)) * (1 / math.sqrt(dh))
    attn = T.masked_softmax(scores, allowed.reshape(bsz, 1, pomo, n_total))
    glimpse = T.reshape(T.swapaxes(attn @ cache.v_g, 1, 2), (t_cnt, d))
    q2 = glimpse @ params["dec.wo_g"]

    logits = T.reshape(T.reshape(q2, (bsz, pomo, d)) @ cache.k_l,
                       (t_cnt, n_total))
    logits = T.tanh(logits * (1 / math.sqrt(d))) * LOGIT_CLIP

    if cache.heat_flat is not None:
        logits = logits + T.take(cache.heat_flat, flat_idx, axis=0)
    if opt_term is not None:
        logits = logits + Tensor(opt_term)

    return T.masked_softmax(logits, allowed)
