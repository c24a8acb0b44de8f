"""Policy-gradient training with a multi-start shared baseline.

Each instance contributes pomo_size sampled trajectories whose mean cost
serves as the baseline, so no critic network is needed. Scale is kept
small on purpose: fresh instances are generated every batch and progress
is tracked against a fixed greedy validation set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .decoding import batch_rollout
from .instances import GenConfig, Instance, generate
from .model import ModelConfig, gumbel_tau, init_params
from .tensor import Tensor


@dataclass
class TrainConfig:
    n_customers: int = 10
    epochs: int = 5
    batches_per_epoch: int = 4
    batch_size: int = 8
    pomo_size: int = 8
    lr: float = 1e-4
    grad_clip: float = 1.0
    seed: int = 0
    val_size: int = 64
    gen: GenConfig = field(default_factory=GenConfig)


@dataclass
class EpochMetrics:
    epoch: int
    sampled_cost: float
    greedy_val_cost: float
    tau: float
    grad_norm: float     # mean pre-clip global gradient norm over batches


class Adam:
    """Standard Adam with global-norm gradient clipping."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, grad_clip: float | None = 1.0):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {k: np.zeros_like(v.values) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.values) for k, v in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.values))
                 for k, p in self.params.items()}
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = 1.0
        if self.grad_clip is not None and norm > self.grad_clip:
            scale = self.grad_clip / norm
        if self.lr == 0.0:
            return norm
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            g = grads[k] * scale
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            p.values -= self.lr * (self.m[k] / bc1) / \
                (np.sqrt(self.v[k] / bc2) + self.eps)
        return norm


def pomo_loss(log_probs: Tensor, costs: np.ndarray, pomo_size: int) -> Tensor:
    """Shared-baseline policy gradient surrogate.

    The advantage of each trajectory is its cost minus the mean cost of
    the pomo_size rollouts on the same instance; the loss is the mean of
    advantage-weighted log-probabilities.
    """
    if pomo_size < 2:
        raise ValueError("shared baseline needs pomo_size >= 2")
    bsz = len(costs) // pomo_size
    per_inst = costs.reshape(bsz, pomo_size)
    baseline = per_inst.mean(axis=1, keepdims=True)
    adv = (per_inst - baseline).reshape(-1)
    return T.mean(log_probs * Tensor(adv))


def make_validation_set(config: TrainConfig,
                        model_cfg: ModelConfig) -> list[Instance]:
    return [generate(model_cfg.variant, config.n_customers,
                     seed=10_000 + i, config=config.gen)
            for i in range(config.val_size)]


def greedy_validation_cost(val_set: list[Instance], params: dict[str, Tensor],
                           model_cfg: ModelConfig) -> float:
    detached = {k: v.detach() for k, v in params.items()}
    costs = []
    for i in range(0, len(val_set), 16):
        res = batch_rollout(val_set[i:i + 16], detached, model_cfg,
                            pomo_size=1, mode="greedy")
        costs.extend(res.costs.tolist())
    return float(np.mean(costs))


def train(config: TrainConfig, model_cfg: ModelConfig,
          params: dict[str, Tensor] | None = None,
          metrics_path=None,
          log=print) -> tuple[dict[str, Tensor], list[EpochMetrics]]:
    """Run the full training loop; returns params and per-epoch metrics.

    Instances are generated on the fly from the training seed stream. A
    non-finite loss aborts immediately rather than training on garbage.
    """
    params = params or init_params(model_cfg, seed=config.seed)
    opt = Adam(params, lr=config.lr, grad_clip=config.grad_clip)
    sample_rng = np.random.default_rng(config.seed + 1)
    gumbel_rng = np.random.default_rng(config.seed + 2)
    val_set = make_validation_set(config, model_cfg)
    has_optional = val_set[0].n_optional > 0

    history: list[EpochMetrics] = []
    inst_seed = 0
    for epoch in range(config.epochs):
        tau = gumbel_tau(epoch)
        epoch_costs, grad_norms = [], []
        for _ in range(config.batches_per_epoch):
            batch = [generate(model_cfg.variant, config.n_customers,
                              seed=1_000_000 + config.seed * 10_000 + inst_seed + i,
                              config=config.gen)
                     for i in range(config.batch_size)]
            inst_seed += config.batch_size
            res = batch_rollout(batch, params, model_cfg,
                                pomo_size=config.pomo_size, mode="sample",
                                rng=sample_rng, tau=tau,
                                gumbel_rng=gumbel_rng if has_optional else None,
                                collect_log_probs=True, force_first=True)
            loss = pomo_loss(res.log_probs, res.costs, config.pomo_size)
            if not np.isfinite(loss.values):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}; aborting")
            opt.zero_grad()
            loss.backward()
            grad_norms.append(opt.step())
            epoch_costs.extend(res.costs.tolist())
        val_cost = greedy_validation_cost(val_set, params, model_cfg)
        m = EpochMetrics(epoch=epoch, sampled_cost=float(np.mean(epoch_costs)),
                         greedy_val_cost=val_cost, tau=tau,
                         grad_norm=float(np.mean(grad_norms)))
        history.append(m)
        log(f"epoch {epoch}: sampled {m.sampled_cost:.4f} "
            f"greedy-val {m.greedy_val_cost:.4f} tau {tau:.3f} "
            f"grad-norm {m.grad_norm:.4f}")

    if metrics_path is not None:
        write_metrics(history, metrics_path)
    return params, history


def write_metrics(history: list[EpochMetrics], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "sampled_cost", "greedy_val_cost", "tau",
                    "grad_norm"])
        for m in history:
            w.writerow([m.epoch, f"{m.sampled_cost:.6f}",
                        f"{m.greedy_val_cost:.6f}", f"{m.tau:.6f}",
                        f"{m.grad_norm:.6f}"])
