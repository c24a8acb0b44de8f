"""Problem instance generation, parsing, and serialization.

Five variants share one base draw (depot, customers, demands) per
(seed, n); variant-specific attributes are layered on top from separate
RNG streams, so the same seed gives identical coordinates across variants.
All randomness uses counter-based Philox generators keyed by explicit
integers, making generation a pure function of its arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FORMAT_VERSION = 1

# stream tags for deriving per-purpose RNGs from the user seed
_TAG_BASE = 0
_TAG_VRPTW = 1
_TAG_EVRPCS = 2
_TAG_VRPRS = 3
_TAG_AVRP = 4


class Variant(str, Enum):
    VRP = "VRP"
    VRPTW = "VRPTW"
    EVRPCS = "EVRPCS"
    VRPRS = "VRPRS"
    AVRP = "AVRP"


@dataclass
class GenConfig:
    """Knobs for instance generation; None picks size-based defaults."""
    capacity: int | None = None
    n_stations: int = 4          # EVRPCS charging stations
    station_range: float = 2.0   # EVRPCS battery range
    n_stops: int = 5             # VRPRS replenishment stops
    stop_range: float = 4.0      # VRPRS driving range
    horizon: float = 4.6         # VRPTW planning horizon T
    window_width_lo: float = 0.15
    window_width_hi: float = 0.2
    service_lo: float = 0.15
    service_hi: float = 0.2


@dataclass
class TimeWindows:
    earliest: np.ndarray   # e_i per customer
    latest: np.ndarray     # l_i per customer
    service: np.ndarray    # s_i per customer
    horizon: float         # T; depot window is [0, T]


@dataclass
class Instance:
    """One routing problem instance.

    Node indexing convention: 0 is the depot, 1..n are customers,
    n+1..n+f are optional nodes (charging stations or replenishment
    stops).
    """
    variant: Variant
    depot: np.ndarray
    customers: np.ndarray
    demands: np.ndarray
    capacity: int
    optional_nodes: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2)))
    resource_max: float = 0.0
    time_windows: TimeWindows | None = None
    asym_matrix: np.ndarray | None = None
    seed: int = 0
    coord_scale: float = 1.0   # set by the CVRPLib reader; objective/coord_scale
                               # recovers costs in the original units
    name: str = ""

    @property
    def n_customers(self) -> int:
        return len(self.customers)

    @property
    def n_optional(self) -> int:
        return len(self.optional_nodes)

    @property
    def n_nodes(self) -> int:
        return 1 + self.n_customers + self.n_optional

    def coords(self) -> np.ndarray:
        """All node coordinates in index order (depot, customers, optional)."""
        return np.vstack([self.depot[None, :], self.customers,
                          self.optional_nodes])

    def validate(self) -> None:
        n = self.n_customers
        if n == 0:
            raise ValueError("customer set is empty: an instance needs at "
                             "least one customer")
        tw = self.time_windows
        shapes = {"depot": (self.depot, (2,)),
                  "customers": (self.customers, (n, 2)),
                  "demands": (self.demands, (n,)),
                  "optional_nodes": (self.optional_nodes, (self.n_optional, 2))}
        if tw is not None:
            shapes.update({f"time_windows.{k}": (getattr(tw, k), (n,))
                           for k in ("earliest", "latest", "service")})
        for name, (a, shape) in shapes.items():
            if np.shape(a) != shape:
                raise ValueError(f"{name} has shape {np.shape(a)}, "
                                 f"expected {shape}")
        coords = self.coords()
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite")
        if coords.min() < -1e-9 or coords.max() > 1.0 + 1e-9:
            raise ValueError("coordinates outside [0,1]^2")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if np.any(self.demands < 1):
            raise ValueError("demands must be positive integers")
        if np.any(self.demands > self.capacity):
            raise ValueError(f"demands must not exceed capacity "
                             f"{self.capacity}, max is {self.demands.max()}")
        if not np.isfinite(self.resource_max) or (
                self.variant in (Variant.EVRPCS, Variant.VRPRS)
                and self.resource_max <= 0):
            raise ValueError(f"resource_max must be finite, and positive for "
                             f"EVRPCS/VRPRS; got {self.resource_max}")
        if self.variant == Variant.AVRP:
            if self.asym_matrix is None:
                raise ValueError("AVRP instance requires asym_matrix")
            if self.asym_matrix.shape != (self.n_nodes, self.n_nodes):
                raise ValueError("asym_matrix shape mismatch")
            if not np.isfinite(self.asym_matrix).all():
                raise ValueError("asym_matrix must be finite")
            if np.any(np.diag(self.asym_matrix) != 0.0):
                raise ValueError("asym_matrix diagonal must be zero")
        elif self.asym_matrix is not None:
            raise ValueError("asym_matrix only allowed for AVRP")
        if self.variant == Variant.VRPTW:
            tw = self.time_windows
            if tw is None:
                raise ValueError("VRPTW instance requires time windows")
            if not (np.isfinite([tw.earliest, tw.latest, tw.service]).all()
                    and np.isfinite(tw.horizon)):
                raise ValueError("time windows and horizon must be finite")
            if np.any(tw.earliest > tw.latest):
                raise ValueError("time window with e > l")
            if np.any(tw.earliest < 0) or np.any(tw.latest > tw.horizon):
                raise ValueError("time window outside [0, T]")

    def to_json(self) -> str:
        doc = {
            "format_version": FORMAT_VERSION,
            "variant": self.variant.value,
            "depot": self.depot.tolist(),
            "customers": self.customers.tolist(),
            "demands": self.demands.tolist(),
            "capacity": int(self.capacity),
            "optional_nodes": self.optional_nodes.tolist(),
            "resource_max": self.resource_max,
            "seed": int(self.seed),
            "coord_scale": self.coord_scale,
            "name": self.name,
        }
        if self.time_windows is not None:
            tw = self.time_windows
            doc["time_windows"] = {
                "earliest": tw.earliest.tolist(),
                "latest": tw.latest.tolist(),
                "service": tw.service.tolist(),
                "horizon": tw.horizon,
            }
        if self.asym_matrix is not None:
            doc["asym_matrix"] = self.asym_matrix.tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("instance JSON must be an object")
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported instance format version")
        _require_keys(doc, _REQUIRED_KEYS, "instance")
        tw = None
        if "time_windows" in doc:
            t = doc["time_windows"]
            _require_keys(t, _TIME_WINDOW_KEYS, "time_windows")
            tw = TimeWindows(*(_field(f"time_windows.{k}", _floats, t[k])
                               for k in _TIME_WINDOW_KEYS[:3]),
                             _field("time_windows.horizon", float, t["horizon"]))
        demands = _field("demands", _floats, doc["demands"])
        if not np.all(np.isfinite(demands) & (np.floor(demands) == demands)):
            raise ValueError("demands must be integers")
        inst = cls(
            variant=_field("variant", Variant, doc["variant"]),
            depot=_field("depot", _floats, doc["depot"]),
            customers=_field("customers", _floats, doc["customers"]),
            demands=demands.astype(np.int64),
            capacity=_field("capacity", int, doc["capacity"]),
            optional_nodes=_field("optional_nodes", _floats,
                                  doc["optional_nodes"] or np.zeros((0, 2))),
            resource_max=_field("resource_max", float, doc["resource_max"]),
            time_windows=tw,
            asym_matrix=(_field("asym_matrix", _floats, doc["asym_matrix"])
                         if "asym_matrix" in doc else None),
            seed=_field("seed", int, doc["seed"]),
            coord_scale=_field("coord_scale", float, doc.get("coord_scale", 1.0)),
            name=doc.get("name", ""),
        )
        inst.validate()
        return inst


_REQUIRED_KEYS = ("variant", "depot", "customers", "demands", "capacity",
                  "optional_nodes", "resource_max", "seed")
_TIME_WINDOW_KEYS = ("earliest", "latest", "service", "horizon")


def _require_keys(doc, keys: tuple, what: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} is missing required keys: {missing}")


def _floats(value) -> np.ndarray:
    return np.array(value, dtype=float)


def _field(name: str, parse, value):
    """parse(value), with a malformed value reported under its field name."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass
class DistanceMatrix:
    n_total: int
    values: np.ndarray
    symmetric: bool


def _rng(seed: int, n: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([int(seed) & (2**64 - 1), n, tag])))


def default_capacity(n: int) -> int:
    if n <= 100:
        return 50
    if n <= 500:
        return 100
    return 200


def _euclid_matrix(coords: np.ndarray) -> np.ndarray:
    x, y = np.asarray(coords, dtype=float).T
    dx = np.subtract.outer(x, x)
    dy = np.subtract.outer(y, y)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def generate(variant: Variant | str, n: int, config: GenConfig | None = None,
             seed: int = 0) -> Instance:
    """Generate a random instance; deterministic in (variant, n, config, seed)."""
    variant = Variant(variant)
    config = config or GenConfig()
    if n < 1:
        raise ValueError("n must be >= 1")
    capacity = config.capacity if config.capacity is not None else default_capacity(n)
    if capacity <= 0:
        raise ValueError("capacity must be positive")

    base = _rng(seed, n, _TAG_BASE)
    depot = base.random(2)
    customers = base.random((n, 2))
    demands = base.integers(1, 11, size=n)

    inst = Instance(variant=variant, depot=depot, customers=customers,
                    demands=demands, capacity=capacity, seed=seed)

    if variant == Variant.VRPTW:
        inst.time_windows = _gen_time_windows(depot, customers, config,
                                              _rng(seed, n, _TAG_VRPTW))
    elif variant == Variant.EVRPCS:
        inst.resource_max = config.station_range
        inst.optional_nodes = _gen_stations(depot, customers, config,
                                            _rng(seed, n, _TAG_EVRPCS))
    elif variant == Variant.VRPRS:
        inst.resource_max = config.stop_range
        rng = _rng(seed, n, _TAG_VRPRS)
        inst.optional_nodes = rng.random((config.n_stops, 2))
    elif variant == Variant.AVRP:
        base_inst = Instance(variant=Variant.VRP, depot=depot,
                             customers=customers, demands=demands,
                             capacity=capacity, seed=seed)
        return generate_avrp(base_inst, beta=default_beta(n), gamma=0.2,
                             seed=seed)

    inst.validate()
    return inst


def _gen_time_windows(depot, customers, config: GenConfig,
                      rng: np.random.Generator) -> TimeWindows:
    """Sample windows so every customer is individually servable.

    The earliest time is drawn so that (a) a vehicle leaving the depot at
    time 0 can start service within the window, and (b) service plus the
    return trip fits before the depot closes at T.
    """
    T = config.horizon
    if not (0.0 < config.window_width_lo <= config.window_width_hi < T):
        raise ValueError("window width parameters outside (0, T)")
    if not (0.0 < config.service_lo <= config.service_hi < T):
        raise ValueError("service time parameters outside (0, T)")
    n = len(customers)
    d0 = np.hypot(*(customers - depot).T)
    service = rng.uniform(config.service_lo, config.service_hi, size=n)
    width = rng.uniform(config.window_width_lo, config.window_width_hi, size=n)
    lo = np.maximum(0.0, d0 - width)
    hi = T - width - service - d0
    if np.any(hi < lo):
        raise ValueError("horizon too small for feasible windows")
    earliest = lo + rng.random(n) * (hi - lo)
    return TimeWindows(earliest=earliest, latest=earliest + width,
                       service=service, horizon=T)


def _gen_stations(depot, customers, config: GenConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw charging stations; redraw until every customer passes the
    full-battery depot-departure mask (reach customer, then some facility)."""
    R = config.station_range
    d0 = np.hypot(*(customers - depot).T)
    d_back = d0  # return leg to depot, symmetric
    for _ in range(1000):
        stations = rng.random((config.n_stations, 2))
        d_st = np.linalg.norm(customers[:, None, :] - stations[None, :, :],
                              axis=-1)
        nearest = np.minimum(d_back, d_st.min(axis=1))
        if np.all(d0 + nearest <= R):
            return stations
    raise RuntimeError("could not place charging stations covering all customers")


def default_beta(n: int) -> int:
    if n >= 1000:
        return 400
    if n >= 500:
        return 200
    if n >= 100:
        return 50
    return max(1, n // 2)


def generate_avrp(base: Instance, beta: int, gamma: float = 0.2,
                  seed: int = 0) -> Instance:
    """Layer directional cost perturbations on a symmetric base instance.

    Exactly `beta` ordered origin->destination customer pairs get their
    forward distance scaled by a factor in (1, 1+gamma]; reverse entries
    stay Euclidean.
    """
    if base.variant != Variant.VRP:
        raise ValueError("AVRP base must be a plain VRP instance")
    n = base.n_customers
    if not 1 <= beta <= n:
        raise ValueError(f"beta must be in [1, {n}]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    rng = _rng(seed, n, _TAG_AVRP)
    matrix = _euclid_matrix(np.vstack([base.depot[None, :], base.customers]))

    origins = rng.choice(n, size=beta, replace=False) + 1
    dests = rng.choice(n, size=beta, replace=False) + 1
    for i in range(beta):
        while dests[i] == origins[i]:
            dests[i] = rng.integers(1, n + 1)
    # factor drawn from (1, 1+gamma] so every perturbed ratio is strictly > 1
    factors = 1.0 + gamma * (1.0 - rng.random(beta))
    matrix[origins, dests] *= factors

    return Instance(variant=Variant.AVRP, depot=base.depot,
                    customers=base.customers, demands=base.demands,
                    capacity=base.capacity, asym_matrix=matrix,
                    seed=base.seed)


def build_distance_matrix(instance: Instance) -> DistanceMatrix:
    """Euclidean distances over all nodes, or the explicit matrix verbatim."""
    if instance.asym_matrix is not None:
        return DistanceMatrix(n_total=instance.n_nodes,
                              values=instance.asym_matrix, symmetric=False)
    values = _euclid_matrix(instance.coords())
    return DistanceMatrix(n_total=instance.n_nodes, values=values,
                          symmetric=True)


# -- CVRPLib reader -----------------------------------------------------

class CvrplibParseError(ValueError):
    pass


def parse_cvrplib(text: str) -> Instance:
    """Read a CVRPLib-style record into an Instance.

    Coordinates are rescaled affinely into [0,1]^2 preserving aspect
    ratio; the scale factor is recorded on the instance so objectives can
    be mapped back to original units. Demands and capacity are preserved
    exactly.
    """
    lines = text.splitlines()
    header: dict[str, str] = {}
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line == "EOF":
            continue
        upper = line.split()[0].upper().rstrip(":")
        if upper.endswith("_SECTION"):
            current = upper
            sections[current] = []
            continue
        if ":" in line and current is None:
            key, _, val = line.partition(":")
            header[key.strip().upper()] = val.strip()
            continue
        if current is None:
            raise CvrplibParseError(f"line {lineno}: unexpected token outside a section")
        sections[current].append((lineno, line))

    for required in ("DIMENSION", "CAPACITY"):
        if required not in header:
            raise CvrplibParseError(f"missing mandatory header {required}")
    try:
        dim = int(header["DIMENSION"])
        capacity = int(header["CAPACITY"])
    except ValueError as exc:
        raise CvrplibParseError(f"non-numeric header value: {exc}") from exc

    ewt = header.get("EDGE_WEIGHT_TYPE", "EUC_2D").upper()
    if ewt not in ("EUC_2D", "EXPLICIT"):
        raise CvrplibParseError(f"unsupported EDGE_WEIGHT_TYPE {ewt}")

    if "NODE_COORD_SECTION" not in sections:
        raise CvrplibParseError("missing mandatory section NODE_COORD_SECTION")
    if "DEMAND_SECTION" not in sections:
        raise CvrplibParseError("missing mandatory section DEMAND_SECTION")

    coords = np.zeros((dim, 2))
    seen = np.zeros(dim, dtype=bool)
    for lineno, line in sections["NODE_COORD_SECTION"]:
        parts = line.split()
        try:
            idx = int(parts[0]) - 1
            coords[idx] = [float(parts[1]), float(parts[2])]
        except (ValueError, IndexError) as exc:
            raise CvrplibParseError(
                f"line {lineno}: bad NODE_COORD_SECTION entry: {exc}") from exc
        seen[idx] = True
    if not seen.all():
        raise CvrplibParseError(
            f"NODE_COORD_SECTION has {int(seen.sum())} entries, DIMENSION is {dim}")

    demands = np.zeros(dim, dtype=np.int64)
    for lineno, line in sections["DEMAND_SECTION"]:
        parts = line.split()
        try:
            demands[int(parts[0]) - 1] = int(parts[1])
        except (ValueError, IndexError) as exc:
            raise CvrplibParseError(
                f"line {lineno}: bad DEMAND_SECTION entry: {exc}") from exc

    depot_idx = 0
    if "DEPOT_SECTION" in sections:
        entries = [int(line.split()[0]) for _, line in sections["DEPOT_SECTION"]]
        entries = [e for e in entries if e != -1]
        if entries:
            depot_idx = entries[0] - 1

    lo = coords.min(axis=0)
    span = float(max(coords.max(axis=0) - lo))
    scale = 1.0 / span if span > 0 else 1.0
    coords = (coords - lo) * scale

    cust_mask = np.ones(dim, dtype=bool)
    cust_mask[depot_idx] = False

    asym = None
    variant = Variant.VRP
    if ewt == "EXPLICIT":
        if "EDGE_WEIGHT_SECTION" not in sections:
            raise CvrplibParseError("missing mandatory section EDGE_WEIGHT_SECTION")
        flat = []
        for lineno, line in sections["EDGE_WEIGHT_SECTION"]:
            try:
                flat.extend(float(x) for x in line.split())
            except ValueError as exc:
                raise CvrplibParseError(
                    f"line {lineno}: bad EDGE_WEIGHT_SECTION entry: {exc}") from exc
        if len(flat) != dim * dim:
            raise CvrplibParseError(
                f"EDGE_WEIGHT_SECTION has {len(flat)} entries, expected {dim * dim}")
        full = np.array(flat).reshape(dim, dim) * scale
        order = np.concatenate([[depot_idx], np.flatnonzero(cust_mask)])
        asym = full[np.ix_(order, order)]
        np.fill_diagonal(asym, 0.0)
        variant = Variant.AVRP

    inst = Instance(
        variant=variant,
        depot=coords[depot_idx],
        customers=coords[cust_mask],
        demands=demands[cust_mask],
        capacity=capacity,
        asym_matrix=asym,
        coord_scale=scale,
        name=header.get("NAME", ""),
    )
    inst.validate()
    return inst
