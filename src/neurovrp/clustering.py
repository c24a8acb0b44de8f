"""Polar-proximity clustering and the within-cluster attention it drives.

Customers are scored by a mix of normalized angle and radius around the
depot, sorted, and chunked into fixed-size clusters over several rounds.
Attention is then computed independently inside each cluster (plus the
depot, which joins every cluster), giving O(n) attention pairs instead of
O(n^2). Dense attention is the one-cluster case of the same code: a single
round whose one cluster holds every customer.

The clusters of a whole batch are stacked into one slot layout, built once
per batch and shared by every encoder layer. Each layer gathers the slot
rows, runs one batched multi-head attention over all groups, and combines
the rounds by a segment mean: weighted slot outputs are scatter-added back
to their node rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, masked_softmax, matmul, reshape, scatter,
                     swapaxes, take)


@dataclass
class PolarCoords:
    """Polar coordinates of customers relative to the depot."""
    r: np.ndarray
    theta: np.ndarray        # in [0, 2*pi)
    r_bar: np.ndarray        # normalized to [0, 1]
    theta_bar: np.ndarray    # theta / 2*pi


@dataclass
class ClusterIndex:
    """Per-round, per-cluster customer index lists with padding provenance.

    `rounds[r]` is an int array of shape (n_clusters, M) holding global node
    indices (customers are 1..n); padded slots hold the depot index 0 and
    are flagged in `padding[r]`.
    """
    rounds: list[np.ndarray]
    padding: list[np.ndarray]
    alpha_values: list[float]
    smoothed: list[bool]
    n_customers: int
    cluster_size: int

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def to_json(self) -> str:
        return json.dumps({
            "n_customers": self.n_customers,
            "cluster_size": self.cluster_size,
            "alpha_values": self.alpha_values,
            "smoothed": self.smoothed,
            "rounds": [r.tolist() for r in self.rounds],
            "padding": [p.tolist() for p in self.padding],
        })


def to_polar(coords: np.ndarray, depot: np.ndarray) -> PolarCoords:
    """Transform customer locations to polar coordinates around the depot.

    A customer coincident with the depot gets r=0, theta=0. If all radii
    are equal, r_bar is all zeros.
    """
    coords = np.asarray(coords, dtype=np.float64)
    depot = np.asarray(depot, dtype=np.float64)
    delta = coords - depot
    r = np.hypot(delta[:, 0], delta[:, 1])
    theta = np.arctan2(delta[:, 1], delta[:, 0])
    theta = np.where(r == 0.0, 0.0, np.mod(theta, 2.0 * np.pi))
    r_min, r_max = r.min(), r.max()
    if r_max > r_min:
        r_bar = (r - r_min) / (r_max - r_min)
    else:
        r_bar = np.zeros_like(r)
    return PolarCoords(r=r, theta=theta, r_bar=r_bar, theta_bar=theta / (2.0 * np.pi))


def partition_score(polar: PolarCoords, alpha: float) -> np.ndarray:
    """Score mixing angular and radial proximity: alpha*theta_bar + (1-alpha)*r_bar."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * polar.theta_bar + (1.0 - alpha) * polar.r_bar


def alpha_schedule(rounds: int) -> list[float]:
    """Evenly spaced mixing coefficients t/(R-1); a single round uses [0.0]."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds == 1:
        return [0.0]
    return [t / (rounds - 1) for t in range(rounds)]


def smooth_shift(sorted_indices: np.ndarray, cluster_size: int) -> np.ndarray:
    """Rotate the score-sorted index list left by floor(M/2) positions."""
    shift = cluster_size // 2
    return np.roll(np.asarray(sorted_indices), -shift)


def build_cluster_index(coords: np.ndarray, depot: np.ndarray,
                        cluster_size: int, rounds: int,
                        smoothing: bool) -> ClusterIndex:
    """Build the multi-round cluster partition for one instance.

    Customers are sorted by partition score (stable, ties by index) and
    chunked into consecutive groups of `cluster_size`; the last group is
    padded with the depot index. With smoothing on, each round also emits
    a boundary-shifted variant, doubling the round count.
    """
    if cluster_size < 1:
        raise ValueError("cluster_size must be >= 1")
    polar = to_polar(coords, depot)
    n = len(polar.r)
    n_clusters = math.ceil(n / cluster_size)
    padded_len = n_clusters * cluster_size

    round_lists: list[np.ndarray] = []
    pad_lists: list[np.ndarray] = []
    alphas: list[float] = []
    smoothed_flags: list[bool] = []

    for alpha in alpha_schedule(rounds):
        scores = partition_score(polar, alpha)
        order = np.argsort(scores, kind="stable")  # ties stay by index
        variants = [(order, False)]
        if smoothing:
            variants.append((smooth_shift(order, cluster_size), True))
        for variant, is_smoothed in variants:
            node_ids = variant + 1  # customers are global nodes 1..n
            padded = np.zeros(padded_len, dtype=np.int64)
            padded[:n] = node_ids
            pad_mask = np.zeros(padded_len, dtype=bool)
            pad_mask[n:] = True
            round_lists.append(padded.reshape(n_clusters, cluster_size))
            pad_lists.append(pad_mask.reshape(n_clusters, cluster_size))
            alphas.append(alpha)
            smoothed_flags.append(is_smoothed)

    return ClusterIndex(rounds=round_lists, padding=pad_lists,
                        alpha_values=alphas, smoothed=smoothed_flags,
                        n_customers=n, cluster_size=cluster_size)


def attention_pair_count(index: ClusterIndex) -> int:
    """Attention pair count by formula: (#rounds) * ceil(n/M) * M^2."""
    n_clusters = math.ceil(index.n_customers / index.cluster_size)
    return index.n_rounds * n_clusters * index.cluster_size ** 2


def measured_pair_count(index: ClusterIndex) -> int:
    """Same count obtained by iterating the built index."""
    return sum(
        sum(cluster.shape[0] ** 2 for cluster in rnd)
        for rnd in index.rounds
    )


@dataclass
class AttentionParams:
    """Multi-head projection weights for one attention block."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int


@dataclass
class SlotLayout:
    """Every attention group of a batch, built once and shared by all layers.

    A group is one cluster of one round of one instance plus the depot.
    `rounds[r]` holds the rows of round r's groups in the flat (B*N, d) node
    matrix; `weight` is 1/appearances of each unmasked slot's node (0 on
    padding), so a weighted scatter-add gives each node's mean.
    """
    rounds: np.ndarray      # (R, B*C, M+1) int
    key_mask: np.ndarray    # (R, B*C, M+1) bool
    weight: np.ndarray      # (R, B*C, M+1) float
    cluster_size: int


def build_slot_layout(indices: list[ClusterIndex]) -> SlotLayout:
    """Stack the cluster indices of a batch whose instances share n."""
    members = np.stack([np.stack(idx.rounds) for idx in indices], axis=1)
    pads = np.stack([np.stack(idx.padding) for idx in indices], axis=1)
    n_rounds, bsz, n_clusters, m = members.shape       # (R, B, C, M)
    n_nodes = indices[0].n_customers + 1
    offsets = np.arange(bsz).reshape(1, bsz, 1, 1) * n_nodes
    depot = np.broadcast_to(offsets, (n_rounds, bsz, n_clusters, 1))
    rows = np.concatenate([members + offsets, depot], axis=-1)
    allowed = np.concatenate([~pads, np.ones_like(depot, dtype=bool)], axis=-1)
    shape = (n_rounds, bsz * n_clusters, m + 1)
    rows, allowed = rows.reshape(shape), allowed.reshape(shape)
    appearances = np.bincount(rows[allowed], minlength=bsz * n_nodes)
    weight = np.where(allowed, 1.0 / appearances[rows], 0.0)
    return SlotLayout(rounds=rows, key_mask=allowed, weight=weight,
                      cluster_size=m)


def multi_head_attention(x: Tensor, key_mask: np.ndarray,
                         params: AttentionParams) -> Tensor:
    """Scaled dot-product multi-head self-attention inside each group.

    `x` is (G, S, d): G independent groups of S slots. Queries attend only
    to the keys that `key_mask` (G, S) allows. Returns (G, S, d).
    """
    n_groups, n_slots, d = x.shape
    if params.wq.shape[0] != d:
        raise ValueError("embedding dim does not match attention params")
    heads = params.heads
    dh = d // heads

    def split_heads(t: Tensor) -> Tensor:
        return swapaxes(reshape(t, (n_groups, n_slots, heads, dh)), 1, 2)

    q = split_heads(matmul(x, params.wq))
    k = split_heads(matmul(x, params.wk))
    v = split_heads(matmul(x, params.wv))

    scores = matmul(q, swapaxes(k, -1, -2)) * (1.0 / math.sqrt(dh))
    attn = masked_softmax(scores, key_mask[:, None, None, :], axis=-1)
    out = matmul(attn, v)                          # (G, heads, S, dh)
    out = reshape(swapaxes(out, 1, 2), (n_groups, n_slots, d))
    return matmul(out, params.wo)


def clustered_attention(h: Tensor, index: SlotLayout,
                        params: AttentionParams) -> Tensor:
    """Multi-head attention within every cluster of a batch: (B, N, d).

    `h` has one row per node of each instance (depot first, then
    customers). The depot joins every cluster as an extra slot so all
    nodes can attend to it; padding slots are masked out. A node's output
    is the mean of its slot outputs over all rounds (the depot's over all
    its appearances), summed back to the node rows by one scatter.
    """
    bsz, n_nodes, d = h.shape
    m1 = index.cluster_size + 1
    rows = index.rounds.reshape(-1, m1)
    slots = take(reshape(h, (bsz * n_nodes, d)), rows, axis=0)
    out = multi_head_attention(slots, index.key_mask.reshape(-1, m1), params)
    out = out * index.weight.reshape(-1, m1, 1)
    flat = (rows[..., None] * d + np.arange(d)).ravel()
    return scatter(out, flat, (bsz, n_nodes, d))
