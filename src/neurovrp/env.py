"""Sequential single-vehicle construction environment.

One vehicle builds the whole solution; depot returns delimit routes.
Feasibility masks look one step ahead so that any rollout restricted to
allowed actions terminates in a valid solution for every variant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .instances import DistanceMatrix, Instance, Variant

DEPOT = 0


@dataclass
class RolloutState:
    current: int
    visited: np.ndarray          # bool over nodes; customers tracked here
    load_used: int
    resource: float
    time: float
    step_count: int = 0
    actions: list[int] = field(default_factory=list)

    def copy(self) -> "RolloutState":
        return RolloutState(self.current, self.visited.copy(), self.load_used,
                            self.resource, self.time, self.step_count,
                            list(self.actions))


@dataclass
class FeasibilityMask:
    selectable: np.ndarray       # bool per node; True = may be chosen

    @property
    def masked(self) -> np.ndarray:
        return ~self.selectable


@dataclass
class Solution:
    actions: list[int]
    cost: float

    def routes(self) -> list[list[int]]:
        """Depot-to-depot segments (customer/optional indices only)."""
        routes, cur = [], []
        for a in self.actions[1:]:
            if a == DEPOT:
                if cur:
                    routes.append(cur)
                cur = []
            else:
                cur.append(a)
        return routes

    def to_json(self, instance: Instance) -> str:
        return json.dumps({
            "actions": [int(a) for a in self.actions],
            "cost": self.cost,
            "variant": instance.variant.value,
            "instance_seed": int(instance.seed),
        })


@dataclass
class ValidationReport:
    violations: list[tuple[str, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def init_state(instance: Instance) -> RolloutState:
    return RolloutState(current=DEPOT,
                        visited=np.zeros(instance.n_nodes, dtype=bool),
                        load_used=0,
                        resource=float(instance.resource_max),
                        time=0.0,
                        actions=[DEPOT])


def _facility_distances(instance: Instance, dist: DistanceMatrix) -> np.ndarray:
    """Per-node distance to the nearest depot-or-station (EVRPCS lookahead)."""
    n = instance.n_nodes
    facilities = [DEPOT] + list(range(1 + instance.n_customers, n))
    return dist.values[:, facilities].min(axis=1)


def feasible_mask(state: RolloutState, instance: Instance,
                  dist: DistanceMatrix) -> FeasibilityMask:
    """One-step-lookahead feasibility per variant.

    Customers must be unvisited, fit the remaining capacity, and (for the
    resource/time variants) leave the vehicle able to reach a recovery
    point afterwards. The depot is selectable away from it; optional nodes
    when reachable (for VRPRS also escapable, since range does not reset
    there).
    """
    n = instance.n_customers
    total = instance.n_nodes
    if not 0 <= state.current < total:
        raise ValueError(f"current node {state.current} out of range")
    d = dist.values
    cur = state.current
    variant = instance.variant

    sel = np.zeros(total, dtype=bool)

    cust = np.arange(1, n + 1)
    ok = ~state.visited[cust]
    ok &= state.load_used + instance.demands <= instance.capacity

    if variant == Variant.EVRPCS:
        near = _facility_distances(instance, dist)
        ok &= state.resource >= d[cur, cust] + near[cust]
    elif variant == Variant.VRPRS:
        ok &= state.resource >= d[cur, cust] + d[cust, DEPOT]
    elif variant == Variant.VRPTW:
        tw = instance.time_windows
        s_cur = _service_time(instance, cur)
        arrive = np.maximum(state.time + s_cur + d[cur, cust], tw.earliest)
        ok &= arrive <= tw.latest
        ok &= arrive + tw.service + d[cust, DEPOT] <= tw.horizon
    sel[cust] = ok

    if cur != DEPOT:
        depot_ok = True
        if variant in (Variant.EVRPCS, Variant.VRPRS):
            depot_ok = state.resource >= d[cur, DEPOT]
        elif variant == Variant.VRPTW:
            depot_ok = (state.time + _service_time(instance, cur)
                        + d[cur, DEPOT] <= instance.time_windows.horizon)
        sel[DEPOT] = depot_ok

    for c in range(n + 1, total):
        if c == cur:
            continue
        if variant == Variant.EVRPCS:
            sel[c] = state.resource >= d[cur, c]
        elif variant == Variant.VRPRS:
            # range does not reset at a stop, so keep the depot reachable
            sel[c] = state.resource >= d[cur, c] + d[c, DEPOT]

    return FeasibilityMask(selectable=sel)


def _service_time(instance: Instance, node: int) -> float:
    if instance.variant != Variant.VRPTW or node == DEPOT:
        return 0.0
    return float(instance.time_windows.service[node - 1])


def step(state: RolloutState, node: int, instance: Instance,
         dist: DistanceMatrix, verify: bool = True) -> RolloutState:
    """Apply one legal action; stepping to a masked node is a hard error.

    Callers that just computed the mask themselves may pass verify=False
    to skip the recheck in hot loops.
    """
    if verify:
        mask = feasible_mask(state, instance, dist)
        if not mask.selectable[node]:
            raise ValueError(f"step to masked node {node}")

    n = instance.n_customers
    d = float(dist.values[state.current, node])
    new = state.copy()
    new.current = node
    new.step_count += 1
    new.actions.append(node)

    if instance.variant in (Variant.EVRPCS, Variant.VRPRS):
        new.resource -= d

    if node == DEPOT:
        new.load_used = 0
        if instance.variant in (Variant.EVRPCS, Variant.VRPRS):
            new.resource = float(instance.resource_max)
        if instance.variant == Variant.VRPTW:
            new.time = 0.0  # next route, fresh vehicle clock
    elif 1 <= node <= n:
        new.visited[node] = True
        new.load_used += int(instance.demands[node - 1])
        if instance.variant == Variant.VRPTW:
            tw = instance.time_windows
            arrive = state.time + _service_time(instance, state.current) + d
            new.time = max(arrive, float(tw.earliest[node - 1]))
    else:  # optional node
        if instance.variant == Variant.EVRPCS:
            new.resource = float(instance.resource_max)   # full recharge
        elif instance.variant == Variant.VRPRS:
            new.load_used = 0                             # restock only

    if new.resource < -1e-12:
        raise AssertionError("resource went negative after a legal step")
    return new


def is_terminal(state: RolloutState, instance: Instance) -> bool:
    n = instance.n_customers
    return state.current == DEPOT and bool(state.visited[1:n + 1].all())


def solution_cost(instance: Instance, actions: list[int],
                  dist: DistanceMatrix) -> float:
    """Sum of travel costs over consecutive actions, in travel direction."""
    if len(actions) < 2 or actions[0] != DEPOT or actions[-1] != DEPOT:
        raise ValueError("action sequence must start and end at the depot")
    a = np.asarray(actions)
    return float(dist.values[a[:-1], a[1:]].sum())


def random_rollout(instance: Instance, dist: DistanceMatrix,
                   rng: np.random.Generator) -> Solution:
    """Follow a uniform random mask-allowed policy to termination."""
    state = init_state(instance)
    cap = 200 * instance.n_nodes
    while not is_terminal(state, instance):
        if state.step_count > cap:
            raise RuntimeError("random rollout exceeded step cap")
        mask = feasible_mask(state, instance, dist)
        choices = np.flatnonzero(mask.selectable)
        if len(choices) == 0:
            raise AssertionError("empty feasibility mask in reachable state")
        state = step(state, int(rng.choice(choices)), instance, dist,
                     verify=False)
    return Solution(actions=state.actions,
                    cost=solution_cost(instance, state.actions, dist))


def validate_solution(instance: Instance, solution: Solution,
                      dist: DistanceMatrix | None = None) -> ValidationReport:
    """Check every constraint family independently of the masks."""
    from .instances import build_distance_matrix
    dist = dist or build_distance_matrix(instance)
    d = dist.values
    n = instance.n_customers
    total = instance.n_nodes
    acts = solution.actions
    v: list[tuple[str, int]] = []

    if not acts or acts[0] != DEPOT:
        v.append(("depot-start", 0))
    if not acts or acts[-1] != DEPOT:
        v.append(("depot-end", len(acts) - 1))

    counts = np.zeros(total, dtype=int)
    for k, a in enumerate(acts):
        if not 0 <= a < total:
            v.append(("node-range", k))
            return ValidationReport(v)
        counts[a] += 1
        if k > 0 and acts[k - 1] == a:
            v.append(("flow", k))
    for c in range(1, n + 1):
        if counts[c] != 1:
            v.append(("visit-exactly-once", c))

    load = 0
    resource = float(instance.resource_max)
    time = 0.0
    tw = instance.time_windows
    for k in range(1, len(acts)):
        prev, node = acts[k - 1], acts[k]
        leg = float(d[prev, node])
        if instance.variant in (Variant.EVRPCS, Variant.VRPRS):
            resource -= leg
            if resource < -1e-9:
                v.append(("resource", k))
        if node == DEPOT:
            load = 0
            time = 0.0
            if instance.variant in (Variant.EVRPCS, Variant.VRPRS):
                resource = float(instance.resource_max)
        elif 1 <= node <= n:
            load += int(instance.demands[node - 1])
            if load > instance.capacity:
                v.append(("capacity", k))
            if instance.variant == Variant.VRPTW:
                s_prev = _service_time(instance, prev)
                start = max(time + s_prev + leg, float(tw.earliest[node - 1]))
                if start > float(tw.latest[node - 1]) + 1e-9:
                    v.append(("time-window", k))
                time = start
        else:
            if instance.variant == Variant.EVRPCS:
                resource = float(instance.resource_max)
            elif instance.variant == Variant.VRPRS:
                load = 0
    # VRPTW depot returns are checked in a second pass with an un-reset clock
    if instance.variant == Variant.VRPTW:
        time = 0.0
        for k in range(1, len(acts)):
            prev, node = acts[k - 1], acts[k]
            leg = float(d[prev, node])
            arrive = time + _service_time(instance, prev) + leg
            if node == DEPOT:
                if arrive > tw.horizon + 1e-9:
                    v.append(("depot-horizon", k))
                time = 0.0
            else:
                time = max(arrive, float(tw.earliest[node - 1]))

    expected = solution_cost(instance, acts, dist) if len(acts) >= 2 and \
        acts[0] == DEPOT and acts[-1] == DEPOT else None
    if expected is not None and abs(expected - solution.cost) > 1e-9:
        v.append(("cost-mismatch", -1))

    return ValidationReport(v)
