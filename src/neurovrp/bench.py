"""Benchmark harness: objective / gap / time tables over instance sets.

Every reported objective comes from a solution that passed the
constraint validator; a validation failure aborts the whole run naming
the offending instance. Reported times cover solve calls only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import build_cluster_index, attention_pair_count
from .decoding import solve
from .env import validate_solution
from .instances import Instance
from .model import ModelConfig
from .oracle import OracleLimits, brute_force, gap
from .tensor import Tensor


@dataclass
class BenchRow:
    instance_id: str
    variant: str
    n: int
    method: str
    objective: float
    gap_pct: float | None
    wall_time: float


@dataclass
class BenchReport:
    rows: list[BenchRow]
    mean_objective: float
    mean_gap_pct: float | None
    total_time: float
    version: str
    config_hash: str
    seed: int

    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "rows": [vars(r) for r in self.rows],
            "aggregate": {
                "mean_objective": self.mean_objective,
                "mean_gap_pct": self.mean_gap_pct,
                "total_time": self.total_time,
            },
        }, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["instance_id", "variant", "n", "method", "objective",
                    "gap_pct", "wall_time"])
        for r in self.rows:
            w.writerow([r.instance_id, r.variant, r.n, r.method,
                        f"{r.objective:.6f}",
                        "" if r.gap_pct is None else f"{r.gap_pct:.4f}",
                        f"{r.wall_time:.4f}"])
        w.writerow(["AGGREGATE", "", "", "",
                    f"{self.mean_objective:.6f}",
                    "" if self.mean_gap_pct is None
                    else f"{self.mean_gap_pct:.4f}",
                    f"{self.total_time:.4f}"])
        return buf.getvalue()


def _config_hash(config: ModelConfig, policy: str, seed: int) -> str:
    doc = json.dumps({**config.to_dict(), "policy": policy, "seed": seed},
                     sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def load_dataset(dataset_dir) -> list[tuple[str, Instance]]:
    """All native-format instances in a directory, ordered by file name."""
    paths = sorted(Path(dataset_dir).glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no instance files in {dataset_dir}")
    return [(p.stem, Instance.from_json(p.read_text(encoding="utf-8")))
            for p in paths]


def bench(dataset_dir, params: dict[str, Tensor], config: ModelConfig,
          policy: str = "greedy", reference: str | None = None,
          reference_file=None, seed: int = 0,
          oracle_limits: OracleLimits | None = None) -> BenchReport:
    """Solve, validate, and time every instance in a dataset.

    reference is None (no gap column), "oracle" (exact brute force, tiny
    instances only), or "file" (JSON mapping instance id -> cost).
    """
    dataset = load_dataset(dataset_dir)
    variants = {inst.variant for _, inst in dataset}
    if len(variants) > 1:
        raise ValueError("dataset mixes variants")

    ref_costs: dict[str, float] = {}
    if reference == "file":
        with open(reference_file, encoding="utf-8") as f:
            ref_costs = json.load(f)
        missing = [name for name, _ in dataset if name not in ref_costs]
        if missing:
            raise ValueError(f"reference file lacks entries for {missing}")
    elif reference == "oracle":
        for name, inst in dataset:
            ref_costs[name] = brute_force(inst, oracle_limits).optimal_cost
    elif reference is not None:
        raise ValueError(f"unknown reference {reference!r}")

    rows: list[BenchRow] = []
    total = 0.0
    for name, inst in dataset:
        t0 = time.perf_counter()
        sol = solve(inst, params, config, policy=policy, seed=seed)
        elapsed = time.perf_counter() - t0
        report = validate_solution(inst, sol)
        if not report.ok:
            raise AssertionError(
                f"instance {name}: solution failed validation "
                f"{report.violations}")
        g = gap(sol.cost, ref_costs[name]) if name in ref_costs else None
        rows.append(BenchRow(instance_id=name, variant=inst.variant.value,
                             n=inst.n_customers, method=policy,
                             objective=sol.cost, gap_pct=g,
                             wall_time=elapsed))
        total += elapsed

    gaps = [r.gap_pct for r in rows if r.gap_pct is not None]
    return BenchReport(
        rows=rows,
        mean_objective=float(np.mean([r.objective for r in rows])),
        mean_gap_pct=float(np.mean(gaps)) if gaps else None,
        total_time=total,
        version=__version__,
        config_hash=_config_hash(config, policy, seed),
        seed=seed,
    )


@dataclass
class CpaProfileRow:
    n: int
    dense_pairs: int
    cpa_pairs: int
    cpa_pairs_with_depot: int
    reduction_pct: float


def cpa_profile(n_list: list[int], cluster_size: int, rounds: int,
                smoothing: bool, seed: int = 0) -> list[CpaProfileRow]:
    """Pair counts and reduction vs dense n^2 attention.

    Counts are reported with and without the per-cluster depot row, since
    published reduction figures fold implementation overheads in.
    """
    rng = np.random.default_rng(seed)
    out = []
    for n in n_list:
        coords = rng.random((n, 2))
        depot = rng.random(2)
        index = build_cluster_index(coords, depot, cluster_size, rounds,
                                    smoothing)
        pairs = attention_pair_count(index)
        with_depot = sum(r.shape[0] * (index.cluster_size + 1) ** 2
                         for r in index.rounds)
        dense = n * n
        out.append(CpaProfileRow(
            n=n, dense_pairs=dense, cpa_pairs=pairs,
            cpa_pairs_with_depot=with_depot,
            reduction_pct=100.0 * (1.0 - pairs / dense)))
    return out
