"""Rollout policies: greedy, sampling, multi-start, and 8-fold augmentation.

The runner advances many trajectories at once over a batch of same-sized
instances. Its state transitions mirror the scalar environment exactly
(there is a test pinning that), which is what makes training-speed
batching safe. A rollout's log-probability is one log of its stacked
(steps, T) chosen probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as M
from . import tensor as T
from .env import DEPOT, Solution, validate_solution
from .instances import Instance, Variant, build_distance_matrix
from .model import DecodeCache, ModelConfig
from .tensor import Tensor


@dataclass
class BatchState:
    """Vectorized rollout state for T trajectories over B instances."""
    traj_instance: np.ndarray    # (T,) instance row per trajectory
    current: np.ndarray          # (T,)
    visited: np.ndarray          # (T, n_nodes) bool
    load_used: np.ndarray        # (T,) int
    resource: np.ndarray         # (T,)
    time: np.ndarray             # (T,)
    done: np.ndarray             # (T,) bool
    cost: np.ndarray             # (T,)
    actions: list[list[int]]
    route_served: np.ndarray     # (T,) customers on the current route
    route_opt_used: np.ndarray   # (T, n_optional) bool, current route


@dataclass
class RolloutResult:
    actions: list[list[int]]
    costs: np.ndarray            # (T,)
    traj_instance: np.ndarray
    log_probs: Tensor | None     # (T,) total log-probability, if collected


def _stack_dists(batch: list[Instance]) -> np.ndarray:
    return np.stack([build_distance_matrix(inst).values for inst in batch])


@dataclass
class RolloutContext:
    """Static per-batch arrays shared by every step of a rollout."""
    batch: list[Instance]
    dists: np.ndarray                # (B, N, N)
    to_depot: np.ndarray             # (B, N) return leg from each node
    demands: np.ndarray              # (B, n)
    facility: np.ndarray | None      # (B, N) nearest depot-or-station
    windows: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    # windows = (earliest (B, n), latest (B, n), service-by-node (B, N))


def make_context(batch: list[Instance]) -> RolloutContext:
    inst = batch[0]
    n = inst.n_customers
    total = inst.n_nodes
    dists = _stack_dists(batch)
    facility = None
    if inst.variant == Variant.EVRPCS:
        fac_cols = [DEPOT] + list(range(n + 1, total))
        facility = dists[:, :, fac_cols].min(axis=2)
    windows = None
    if inst.variant == Variant.VRPTW:
        e = np.stack([i.time_windows.earliest for i in batch])
        l = np.stack([i.time_windows.latest for i in batch])
        s_full = np.zeros((len(batch), total))
        s_full[:, 1:n + 1] = np.stack([i.time_windows.service for i in batch])
        windows = (e, l, s_full)
    return RolloutContext(batch=batch, dists=dists,
                          to_depot=dists[:, :, DEPOT].copy(),
                          demands=np.stack([i.demands for i in batch]),
                          facility=facility, windows=windows)


def init_batch_state(batch: list[Instance], pomo_size: int) -> BatchState:
    bsz = len(batch)
    n_nodes = batch[0].n_nodes
    t_cnt = bsz * pomo_size
    return BatchState(
        traj_instance=np.repeat(np.arange(bsz), pomo_size),
        current=np.zeros(t_cnt, dtype=np.int64),
        visited=np.zeros((t_cnt, n_nodes), dtype=bool),
        load_used=np.zeros(t_cnt, dtype=np.int64),
        resource=np.full(t_cnt, float(batch[0].resource_max)),
        time=np.zeros(t_cnt),
        done=np.zeros(t_cnt, dtype=bool),
        cost=np.zeros(t_cnt),
        actions=[[DEPOT] for _ in range(t_cnt)],
        route_served=np.zeros(t_cnt, dtype=np.int64),
        route_opt_used=np.zeros((t_cnt, batch[0].n_optional), dtype=bool),
    )


def batch_feasible(state: BatchState, ctx: RolloutContext,
                   restrict_optional: bool = False) -> np.ndarray:
    """Vectorized one-step-lookahead mask, (T, n_nodes) bool.

    Finished trajectories are allowed only their resting depot slot so
    downstream softmaxes stay well-defined. With restrict_optional on,
    an anti-cycling policy layer additionally blocks optional nodes that
    were already used this route or would precede the route's first
    customer; generated instances never need either move, and without
    the restriction an untrained deterministic policy can loop between
    recovery points forever.
    """
    inst = ctx.batch[0]
    dists = ctx.dists
    variant = inst.variant
    n = inst.n_customers
    total = inst.n_nodes
    t_cnt = len(state.current)
    b = state.traj_instance
    d_cur = dists[b, state.current]            # (T, total)

    sel = np.zeros((t_cnt, total), dtype=bool)
    demands = ctx.demands[b]                   # (T, n)

    ok = ~state.visited[:, 1:n + 1]
    ok &= state.load_used[:, None] + demands <= inst.capacity
    if variant == Variant.EVRPCS:
        near = ctx.facility[b]                 # (T, total)
        ok &= state.resource[:, None] >= d_cur[:, 1:n + 1] + near[:, 1:n + 1]
    elif variant == Variant.VRPRS:
        d_home = ctx.to_depot[b, 1:n + 1]
        ok &= state.resource[:, None] >= d_cur[:, 1:n + 1] + d_home
    elif variant == Variant.VRPTW:
        e, l, s_full = ctx.windows
        horizon = inst.time_windows.horizon
        s_cur = s_full[b, state.current]
        arrive = np.maximum(state.time[:, None] + s_cur[:, None]
                            + d_cur[:, 1:n + 1], e[b])
        d_home = ctx.to_depot[b, 1:n + 1]
        ok &= arrive <= l[b]
        ok &= arrive + s_full[b, 1:n + 1] + d_home <= horizon
    sel[:, 1:n + 1] = ok

    away = state.current != DEPOT
    depot_ok = away.copy()
    if variant in (Variant.EVRPCS, Variant.VRPRS):
        depot_ok &= state.resource >= d_cur[:, DEPOT]
    elif variant == Variant.VRPTW:
        _, _, s_full = ctx.windows
        depot_ok &= state.time + s_full[b, state.current] + d_cur[:, DEPOT] \
            <= inst.time_windows.horizon
    sel[:, DEPOT] = depot_ok

    if variant == Variant.EVRPCS:
        opt = np.arange(n + 1, total)
        sel[:, opt] = state.resource[:, None] >= d_cur[:, opt]
        sel[np.arange(t_cnt)[:, None], opt[None, :]] &= \
            state.current[:, None] != opt[None, :]
    elif variant == Variant.VRPRS:
        opt = np.arange(n + 1, total)
        d_home = ctx.to_depot[b, n + 1:]
        sel[:, opt] = state.resource[:, None] >= d_cur[:, opt] + d_home
        sel[np.arange(t_cnt)[:, None], opt[None, :]] &= \
            state.current[:, None] != opt[None, :]

    if restrict_optional and total > n + 1:
        restricted = sel.copy()
        restricted[:, n + 1:] &= ~state.route_opt_used
        restricted[:, n + 1:] &= (state.route_served > 0)[:, None]
        # never restrict a row into infeasibility (a reused recovery point
        # may be the only way home); the step cap still backstops cycles
        keep = restricted.any(axis=1)
        sel = np.where(keep[:, None], restricted, sel)

    sel[state.done] = False
    sel[state.done, DEPOT] = True   # resting slot, chosen with probability 1
    return sel


def batch_step(state: BatchState, actions: np.ndarray,
               ctx: RolloutContext) -> None:
    """Apply one action per trajectory in place; done rows are frozen."""
    inst = ctx.batch[0]
    dists = ctx.dists
    variant = inst.variant
    n = inst.n_customers
    active = ~state.done
    b = state.traj_instance
    leg = dists[b, state.current, actions]
    leg = np.where(active, leg, 0.0)
    state.cost += leg

    if variant in (Variant.EVRPCS, Variant.VRPRS):
        state.resource = np.where(active, state.resource - leg, state.resource)
        if (state.resource < -1e-9).any():
            raise AssertionError("resource went negative in batched step")

    at_depot = actions == DEPOT
    is_cust = (actions >= 1) & (actions <= n)
    is_opt = actions > n

    upd = active & at_depot
    state.load_used[upd] = 0
    state.route_served[upd] = 0
    state.route_opt_used[upd] = False
    if variant in (Variant.EVRPCS, Variant.VRPRS):
        state.resource[upd] = float(inst.resource_max)
    if variant == Variant.VRPTW:
        state.time[upd] = 0.0

    upd = active & is_cust
    state.route_served[upd] += 1
    state.visited[np.flatnonzero(upd), actions[upd]] = True
    state.load_used[upd] += ctx.demands[b[upd], actions[upd] - 1]
    if variant == Variant.VRPTW:
        e, _, s_full = ctx.windows
        arrive = state.time + s_full[b, state.current] + leg
        start = np.maximum(arrive, e[b, np.clip(actions - 1, 0, n - 1)])
        state.time = np.where(upd, start, state.time)

    upd = active & is_opt
    state.route_opt_used[np.flatnonzero(upd), actions[upd] - n - 1] = True
    if variant == Variant.EVRPCS:
        state.resource[upd] = float(inst.resource_max)
    elif variant == Variant.VRPRS:
        state.load_used[upd] = 0

    state.current = np.where(active, actions, state.current)
    for t in np.flatnonzero(active):
        state.actions[t].append(int(actions[t]))

    state.done = (state.current == DEPOT) & state.visited[:, 1:n + 1].all(axis=1)


def _dynamic_features(state: BatchState, batch: list[Instance]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Remaining-capacity fraction c_t and the variant resource feature xi."""
    inst = batch[0]
    cap = (inst.capacity - state.load_used) / inst.capacity
    if inst.variant in (Variant.EVRPCS, Variant.VRPRS):
        xi = state.resource / inst.resource_max
    elif inst.variant == Variant.VRPTW:
        xi = state.time / inst.time_windows.horizon
    else:
        xi = np.zeros(len(state.current))
    return cap, xi


def _optional_logit_term(state: BatchState, batch: list[Instance]) -> np.ndarray | None:
    """Resource-driven stand-in for heatmap columns at optional nodes.

    A full budget pushes the optional-node logits down by 2; an exhausted
    one leaves them untouched.
    """
    inst = batch[0]
    if inst.n_optional == 0:
        return None
    t_cnt = len(state.current)
    term = np.zeros((t_cnt, inst.n_nodes))
    frac = state.resource / inst.resource_max
    term[:, inst.n_customers + 1:] = -2.0 * frac[:, None]
    return term


def build_cache(batch: list[Instance], params: dict[str, Tensor],
                config: ModelConfig, tau: float = 1.0,
                gumbel_rng: np.random.Generator | None = None) -> DecodeCache:
    """Run the full encoder stack once for a batch of instances."""
    h = M.encode(batch, params, config)
    h_opt = None
    if config.variant in (Variant.EVRPCS, Variant.VRPRS):
        h_opt = M.encode_optional(batch, params, config)
        noise = None
        if gumbel_rng is not None:
            shape = (len(batch), batch[0].n_customers, batch[0].n_optional)
            noise = M.gumbel_noise(shape, gumbel_rng)
        h = M.fuse_optional(h, h_opt, params, tau, noise)
    edges = M.build_edge_set(batch, config)
    heat = M.heatmap(M.edge_embed(h, edges, params), edges, params)
    return M.build_decode_cache(h, h_opt, heat, params)


def batch_rollout(batch: list[Instance], params: dict[str, Tensor],
                  config: ModelConfig, pomo_size: int = 1,
                  mode: str = "greedy",
                  rng: np.random.Generator | None = None,
                  tau: float = 1.0,
                  gumbel_rng: np.random.Generator | None = None,
                  collect_log_probs: bool = False,
                  force_first: bool = False,
                  cache: DecodeCache | None = None) -> RolloutResult:
    """Decode pomo_size trajectories per instance to completion.

    mode is "greedy" (argmax) or "sample" (requires rng). With
    force_first, trajectory p of every instance starts at the p-th
    customer its step-0 mask allows, cycling when pomo_size exceeds their
    count (multi-start decoding).
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sampling mode needs an rng")
    inst = batch[0]
    ctx = make_context(batch)

    if cache is None:
        cache = build_cache(batch, params, config, tau, gumbel_rng)
    state = init_batch_state(batch, pomo_size)
    t_cnt = len(state.current)
    n_cust, n_total = inst.n_customers, inst.n_nodes
    expanded = M.expand_cache(cache, state.traj_instance, config)
    picked: list[Tensor] = []   # (1, T) chosen probabilities per step

    for step_i in range(200 * n_total):
        if state.done.all():
            break
        sel = batch_feasible(state, ctx, restrict_optional=True)
        cap, xi = _dynamic_features(state, batch)
        probs = M.decode_step(expanded, params, config,
                              state.current, cap, xi, sel,
                              _optional_logit_term(state, batch))
        pv = probs.values
        if step_i == 0 and force_first:
            # the k-th allowed customer, k = p mod their count
            cust = sel[:, 1:n_cust + 1]
            count = cust.sum(axis=1)
            if not count.all():
                raise AssertionError("no feasible first customer")
            k = np.arange(t_cnt) % pomo_size % count
            acts = 1 + (cust.cumsum(axis=1) > k[:, None]).argmax(axis=1)
        elif mode == "greedy":
            acts = pv.argmax(axis=1)
        else:
            cum = pv.cumsum(axis=1)
            u = rng.random((t_cnt, 1)) * cum[:, -1:]
            acts = (u > cum).sum(axis=1)
        if not sel[np.arange(t_cnt), acts].all():
            raise AssertionError("policy picked a masked action")
        if collect_log_probs:
            # finished rows allow only the depot: probability exactly 1,
            # so their log and its gradient are exactly 0
            picked.append(T.take(T.reshape(probs, (t_cnt * n_total,)),
                                 (np.arange(t_cnt) * n_total + acts)[None]))
        batch_step(state, acts, ctx)
    else:
        raise RuntimeError("batched rollout exceeded step cap")

    log_probs = None
    if collect_log_probs:
        log_probs = T.tsum(T.log(T.concat(picked, axis=0)), axis=0)
    return RolloutResult(actions=state.actions, costs=state.cost.copy(),
                         traj_instance=state.traj_instance,
                         log_probs=log_probs)


# -- instance-level policies --------------------------------------------

_AUG_TRANSFORMS = (
    lambda x, y: (x, y),
    lambda x, y: (1.0 - x, y),
    lambda x, y: (x, 1.0 - y),
    lambda x, y: (1.0 - x, 1.0 - y),
    lambda x, y: (y, x),
    lambda x, y: (1.0 - y, x),
    lambda x, y: (y, 1.0 - x),
    lambda x, y: (1.0 - y, 1.0 - x),
)


def augment8(instance: Instance) -> list[Instance]:
    """The 8 symmetries of the unit square applied to all coordinates.

    Distances are invariant, so every augmentation shares the optimum.
    Explicit-matrix instances cannot be augmented this way.
    """
    if instance.variant == Variant.AVRP:
        raise ValueError("explicit-matrix instances do not support "
                         "coordinate augmentation")
    out = []
    for f in _AUG_TRANSFORMS:
        def tr(a):
            a = np.asarray(a, dtype=np.float64)
            if a.size == 0:
                return a.copy()
            x, y = f(a[..., 0], a[..., 1])
            return np.stack([x, y], axis=-1)
        out.append(replace(instance, depot=tr(instance.depot),
                           customers=tr(instance.customers),
                           optional_nodes=tr(instance.optional_nodes)))
    return out


def inference_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Detached float32 copies of `params`, the weights `solve` decodes with.

    Halves the memory traffic of every matmul and masked softmax of a
    solve; costs are still summed in float64 from the distance matrix.
    """
    return {k: Tensor(v.values.astype(np.float32)) for k, v in params.items()}


def solve(instance: Instance, params: dict[str, Tensor], config: ModelConfig,
          policy: str = "greedy", samples: int = 16, pomo_size: int | None = None,
          seed: int = 0) -> Solution:
    """Decode one instance and return the best validated solution.

    policy: "greedy", "sampling", "pomo", or "pomo-aug" (multi-start over
    the 8 augmentations; unavailable for explicit-matrix variants).
    Decoding runs on `inference_params(params)`, in float32.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if pomo_size is not None and pomo_size < 1:
        raise ValueError(f"pomo_size must be >= 1, got {pomo_size}")
    params = inference_params(params)
    n = instance.n_customers
    pomo = pomo_size or n
    rng = np.random.default_rng(seed)

    if policy == "greedy":
        res = batch_rollout([instance], params, config, 1, "greedy")
    elif policy == "sampling":
        res = batch_rollout([instance], params, config, samples, "sample",
                            rng=rng)
    elif policy == "pomo":
        res = batch_rollout([instance], params, config, pomo, "greedy",
                            force_first=True)
    elif policy == "pomo-aug":
        # Each augmentation is encoded alone: at full scale, n=100, one
        # 8-instance encode took 3.00 s against 2.59 s for eight single
        # ones and peaked at 152 against 94 MB, even with the edge MLP
        # chunked. All 8 then decode as one batch.
        augs = augment8(instance)
        cache = M.concat_caches([build_cache([aug], params, config)
                                 for aug in augs])
        res = batch_rollout(augs, params, config, pomo, "greedy",
                            force_first=True, cache=cache)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    t = int(np.argmin(res.costs))
    best = Solution(actions=res.actions[t], cost=float(res.costs[t]))
    report = validate_solution(instance, best)
    if not report.ok:
        raise AssertionError(f"decoded solution failed validation: "
                             f"{report.violations}")
    return best
