"""Tests for the policy-gradient training loop and optimizer."""

import numpy as np
import pytest

from neurovrp import tensor as T
from neurovrp import training as TR
from neurovrp.instances import Variant
from neurovrp.model import ModelConfig
from neurovrp.tensor import Tensor


def _toy_model(variant=Variant.VRP):
    return ModelConfig(variant=variant, d=16, heads=2, layers=2, ff=64,
                       edge_dim=8)


def _tiny_train_cfg(**kw):
    base = dict(n_customers=6, epochs=2, batches_per_epoch=2, batch_size=4,
                pomo_size=4, lr=1e-3, val_size=8, seed=0)
    base.update(kw)
    return TR.TrainConfig(**base)


class TestAdam:
    def test_matches_reference_update(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = TR.Adam({"w": w}, lr=0.1, grad_clip=None)
        g = np.array([0.5, -1.0])
        w.grad = g.copy()
        opt.step()
        m = 0.1 * g
        v = 0.001 * g * g
        mhat = m / (1 - 0.9)
        vhat = v / (1 - 0.999)
        expected = np.array([1.0, -2.0]) - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(w.values, expected)

    def test_gradient_clipping_by_global_norm(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        opt = TR.Adam({"w": w}, lr=1.0, grad_clip=1.0)
        w.grad = np.full(4, 10.0)
        norm = opt.step()
        assert np.isclose(norm, 20.0)
        # post-clip direction is preserved, magnitude bounded by Adam scale
        assert (w.values < 0).all()

    def test_lr_zero_is_noop(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        opt = TR.Adam({"w": w}, lr=0.0)
        w.grad = np.array([5.0])
        opt.step()
        assert w.values[0] == 3.0
        assert opt.t == 0

    def test_missing_grad_treated_as_zero(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = TR.Adam({"w": w}, lr=0.1)
        opt.step()
        assert w.values[0] == 1.0


class TestPomoLoss:
    def test_baseline_centers_advantages(self):
        lp = Tensor(np.array([-1.0, -2.0, -3.0, -4.0]), requires_grad=True)
        costs = np.array([10.0, 12.0, 20.0, 22.0])   # two instances, pomo 2
        loss = TR.pomo_loss(lp, costs, pomo_size=2)
        # advantages: [-1, 1, -1, 1]
        expected = np.mean([-1.0 * -1, -2.0 * 1, -3.0 * -1, -4.0 * 1])
        assert np.isclose(loss.values, expected)

    def test_equal_costs_give_zero_loss_and_grad(self):
        lp = Tensor(np.array([-1.0, -2.0]), requires_grad=True)
        loss = TR.pomo_loss(lp, np.array([5.0, 5.0]), 2)
        assert loss.values == 0.0
        loss.backward()
        assert np.allclose(lp.grad, 0.0)

    def test_pomo_size_one_rejected(self):
        lp = Tensor(np.array([-1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            TR.pomo_loss(lp, np.array([5.0]), 1)


class TestTrainLoop:
    def test_runs_and_reports_metrics(self, tmp_path):
        path = tmp_path / "metrics.csv"
        params, hist = TR.train(_tiny_train_cfg(), _toy_model(),
                                metrics_path=path, log=lambda *_: None)
        assert len(hist) == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,sampled_cost,greedy_val_cost,tau,grad_norm"
        assert len(lines) == 3

    def test_grad_norm_recorded_and_logged(self, tmp_path, monkeypatch):
        steps = []
        step = TR.Adam.step
        monkeypatch.setattr(TR.Adam, "step",
                            lambda self: steps.append(step(self)) or steps[-1])
        path = tmp_path / "metrics.csv"
        logged = []
        _, hist = TR.train(_tiny_train_cfg(), _toy_model(),
                           metrics_path=path, log=logged.append)
        norms = [m.grad_norm for m in hist]
        assert all(np.isfinite(norms)) and min(norms) > 0
        # the mean of the pre-clip norms of each epoch's two batches
        assert norms == [np.mean(steps[0:2]), np.mean(steps[2:4])]
        assert all(f"grad-norm {m.grad_norm:.4f}" in line
                   for m, line in zip(hist, logged))
        rows = [line.split(",") for line in
                path.read_text().strip().splitlines()[1:]]
        assert [float(r[-1]) for r in rows] == pytest.approx(norms, abs=1e-6)

    def test_deterministic_given_seed(self):
        a, _ = TR.train(_tiny_train_cfg(), _toy_model(), log=lambda *_: None)
        b, _ = TR.train(_tiny_train_cfg(), _toy_model(), log=lambda *_: None)
        assert all(np.array_equal(a[k].values, b[k].values) for k in a)

    def test_lr_zero_keeps_params(self):
        mc = _toy_model()
        from neurovrp.model import init_params
        init = init_params(mc, seed=0)
        snapshot = {k: v.values.copy() for k, v in init.items()}
        params, _ = TR.train(_tiny_train_cfg(lr=0.0, epochs=1), mc,
                             params=init, log=lambda *_: None)
        assert all(np.array_equal(params[k].values, snapshot[k])
                   for k in params)

    def test_nonfinite_loss_aborts(self):
        mc = _toy_model()
        from neurovrp.model import init_params
        params = init_params(mc, seed=0)
        params["dec.ctx.w"].values[:] = np.nan
        with pytest.raises(Exception):
            TR.train(_tiny_train_cfg(epochs=1), mc, params=params,
                     log=lambda *_: None)

    def test_tau_annealing_recorded(self):
        _, hist = TR.train(_tiny_train_cfg(epochs=3), _toy_model(),
                           log=lambda *_: None)
        taus = [m.tau for m in hist]
        assert taus == [1.0, 0.99, pytest.approx(0.99 ** 2)]

    def test_optional_variant_trains(self):
        from neurovrp.instances import GenConfig
        cfg = _tiny_train_cfg(gen=GenConfig(n_stations=2))
        params, hist = TR.train(cfg, _toy_model(Variant.EVRPCS),
                                log=lambda *_: None)
        assert np.isfinite(hist[-1].greedy_val_cost)

    def test_validation_set_fixed_across_calls(self):
        cfg = _tiny_train_cfg()
        mc = _toy_model()
        a = TR.make_validation_set(cfg, mc)
        b = TR.make_validation_set(cfg, mc)
        assert all(np.array_equal(x.customers, y.customers)
                   for x, y in zip(a, b))
