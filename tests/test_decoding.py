"""Tests for batched rollouts and decoding policies."""

from dataclasses import replace

import numpy as np
import pytest

from neurovrp import decoding as D
from neurovrp import env as E
from neurovrp import model as M
from neurovrp.instances import (GenConfig, Variant, build_distance_matrix,
                                generate)

TOY = dict(d=16, heads=2, layers=2, ff=64, edge_dim=8)


def _toy(variant=Variant.VRP, **kw):
    return M.ModelConfig(variant=variant, **{**TOY, **kw})


class TestBatchedEnvironment:
    """The vectorized stepper must agree with the scalar environment."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_masks_and_transitions_match_scalar_env(self, variant):
        rng = np.random.default_rng(17)
        cfg = GenConfig(n_stations=3, n_stops=3)
        batch = [generate(variant, 10, seed=s, config=cfg) for s in range(2)]
        ctx = D.make_context(batch)
        pomo = 3
        t_cnt = 2 * pomo
        bs = D.init_batch_state(batch, pomo)
        scal = [E.init_state(batch[t // pomo]) for t in range(t_cnt)]
        dms = [build_distance_matrix(i) for i in batch]
        for _ in range(400):
            if bs.done.all():
                break
            sel = D.batch_feasible(bs, ctx)
            acts = np.zeros(t_cnt, dtype=np.int64)
            for t in range(t_cnt):
                if bs.done[t]:
                    assert sel[t].sum() == 1 and sel[t, 0]
                    continue
                mask = E.feasible_mask(scal[t], batch[t // pomo],
                                       dms[t // pomo]).selectable
                assert (mask == sel[t]).all()
                acts[t] = rng.choice(np.flatnonzero(mask))
                scal[t] = E.step(scal[t], int(acts[t]), batch[t // pomo],
                                 dms[t // pomo])
            D.batch_step(bs, acts, ctx)
            for t in range(t_cnt):
                if bs.done[t]:
                    continue
                assert scal[t].current == bs.current[t]
                assert scal[t].load_used == bs.load_used[t]
                assert abs(scal[t].resource - bs.resource[t]) < 1e-12
                assert abs(scal[t].time - bs.time[t]) < 1e-12
        assert bs.done.all()
        for t in range(t_cnt):
            cost = E.solution_cost(batch[t // pomo], bs.actions[t],
                                   dms[t // pomo])
            assert abs(cost - bs.cost[t]) < 1e-9

    def test_restriction_is_subset_of_feasible(self):
        batch = [generate(Variant.EVRPCS, 8, seed=0,
                          config=GenConfig(n_stations=3))]
        ctx = D.make_context(batch)
        bs = D.init_batch_state(batch, 2)
        base = D.batch_feasible(bs, ctx)
        tight = D.batch_feasible(bs, ctx, restrict_optional=True)
        assert (~tight | base).all()
        # no customers served yet, so stations are withheld
        assert not tight[:, 9:].any()


class TestRollout:
    def test_greedy_deterministic(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=0)
        batch = [generate(Variant.VRP, 10, seed=s) for s in range(3)]
        a = D.batch_rollout(batch, params, cfg, pomo_size=2, mode="greedy",
                            force_first=True)
        b = D.batch_rollout(batch, params, cfg, pomo_size=2, mode="greedy",
                            force_first=True)
        assert a.actions == b.actions
        assert np.array_equal(a.costs, b.costs)

    def test_sampling_reproducible_with_seeded_rng(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=0)
        batch = [generate(Variant.VRP, 10, seed=0)]
        a = D.batch_rollout(batch, params, cfg, pomo_size=4, mode="sample",
                            rng=np.random.default_rng(3))
        b = D.batch_rollout(batch, params, cfg, pomo_size=4, mode="sample",
                            rng=np.random.default_rng(3))
        assert a.actions == b.actions

    def test_sampling_requires_rng(self):
        cfg = _toy()
        params = M.init_params(cfg)
        with pytest.raises(ValueError):
            D.batch_rollout([generate(Variant.VRP, 5, seed=0)], params, cfg,
                            mode="sample")

    def test_unknown_mode_rejected(self):
        cfg = _toy()
        params = M.init_params(cfg)
        with pytest.raises(ValueError):
            D.batch_rollout([generate(Variant.VRP, 5, seed=0)], params, cfg,
                            mode="beam")

    def test_forced_first_actions_distinct(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=1)
        batch = [generate(Variant.VRP, 6, seed=s) for s in range(2)]
        res = D.batch_rollout(batch, params, cfg, pomo_size=6, mode="greedy",
                              force_first=True)
        for b in range(2):
            firsts = [res.actions[b * 6 + k][1] for k in range(6)]
            assert sorted(firsts) == [1, 2, 3, 4, 5, 6]

    def test_forced_first_actions_cycle_when_pomo_exceeds_customers(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=1)
        batch = [generate(Variant.VRP, 3, seed=s) for s in range(2)]
        res = D.batch_rollout(batch, params, cfg, pomo_size=7, mode="greedy",
                              force_first=True)
        for b in range(2):
            firsts = [res.actions[b * 7 + k][1] for k in range(7)]
            assert firsts == [1, 2, 3, 1, 2, 3, 1]

    def test_log_probs_are_negative_totals(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=0)
        batch = [generate(Variant.VRP, 8, seed=0)]
        res = D.batch_rollout(batch, params, cfg, pomo_size=4, mode="sample",
                              rng=np.random.default_rng(0),
                              collect_log_probs=True)
        assert res.log_probs.shape == (4,)
        assert (res.log_probs.values < 0).all()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_all_rollouts_validate(self, variant):
        cfg = _toy(variant)
        params = M.init_params(cfg, seed=2)
        gen_cfg = GenConfig(n_stations=2, n_stops=2)
        batch = [generate(variant, 9, seed=s, config=gen_cfg)
                 for s in range(2)]
        res = D.batch_rollout(batch, params, cfg, pomo_size=3, mode="sample",
                              rng=np.random.default_rng(1), force_first=True)
        for t, acts in enumerate(res.actions):
            sol = E.Solution(actions=acts, cost=float(res.costs[t]))
            assert E.validate_solution(batch[t // 3], sol).ok


class TestAugmentation:
    def test_eight_distinct_transforms(self):
        inst = generate(Variant.VRP, 10, seed=0)
        augs = D.augment8(inst)
        assert len(augs) == 8
        assert np.array_equal(augs[0].customers, inst.customers)
        seen = {tuple(a.customers.ravel().round(12)) for a in augs}
        assert len(seen) == 8

    def test_distances_invariant(self):
        inst = generate(Variant.EVRPCS, 8, seed=1)
        d0 = build_distance_matrix(inst).values
        for aug in D.augment8(inst):
            d = build_distance_matrix(aug).values
            assert np.allclose(d, d0, atol=1e-12)

    def test_coordinates_stay_in_unit_square(self):
        inst = generate(Variant.VRPTW, 12, seed=2)
        for aug in D.augment8(inst):
            c = aug.coords()
            assert c.min() >= -1e-12 and c.max() <= 1.0 + 1e-12

    def test_avrp_rejected(self):
        with pytest.raises(ValueError):
            D.augment8(generate(Variant.AVRP, 6, seed=0))


class TestSolvePolicies:
    @pytest.mark.parametrize("policy", ["greedy", "sampling", "pomo",
                                        "pomo-aug"])
    def test_policies_return_valid_solutions(self, policy):
        cfg = _toy()
        params = M.init_params(cfg, seed=3)
        inst = generate(Variant.VRP, 8, seed=5)
        sol = D.solve(inst, params, cfg, policy=policy, samples=4, seed=1)
        assert E.validate_solution(inst, sol).ok

    def test_pomo_never_worse_than_greedy(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=3)
        for seed in range(5):
            inst = generate(Variant.VRP, 10, seed=seed)
            g = D.solve(inst, params, cfg, policy="greedy")
            p = D.solve(inst, params, cfg, policy="pomo")
            assert p.cost <= g.cost + 1e-9

    def test_pomo_aug_matches_best_single_augmentation(self):
        cfg = _toy(Variant.VRPTW)
        params = M.init_params(cfg, seed=3)
        inst = generate(Variant.VRPTW, 12, seed=4)
        sol = D.solve(inst, params, cfg, policy="pomo-aug")
        best = min(D.batch_rollout([aug], params, cfg, 12, "greedy",
                                   force_first=True).costs.min()
                   for aug in D.augment8(inst))
        assert abs(sol.cost - best) <= 1e-9

    def test_unknown_policy(self):
        cfg = _toy()
        params = M.init_params(cfg)
        with pytest.raises(ValueError):
            D.solve(generate(Variant.VRP, 5, seed=0), params, cfg,
                    policy="magic")


def _float64_params(params):
    return {k: v.detach() for k, v in params.items()}


class TestFloat32Inference:
    """`solve` decodes in float32; training stays float64."""

    @pytest.mark.parametrize("cfg, variant, n", [
        (replace(M.ModelConfig.full_scale(), cluster_size=20, rounds=2),
         Variant.VRP, 45),
        (_toy(Variant.EVRPCS), Variant.EVRPCS, 8)], ids=["full-cpa", "toy-evrpcs"])
    def test_no_float64_leaks_into_a_solve(self, monkeypatch, cfg, variant, n):
        seen = []

        def checked(fn, fields):
            def wrapper(*args, **kw):
                out = fn(*args, **kw)
                for name in fields:
                    t = getattr(out, name) if name else out
                    if t is not None:
                        seen.append((fn.__name__, name, t.values.dtype))
                return out
            return wrapper

        monkeypatch.setattr(M, "build_decode_cache", checked(
            M.build_decode_cache,
            ("h_nodes", "k_glimpse", "v_glimpse", "k_logit", "heat")))
        monkeypatch.setattr(M, "expand_cache", checked(
            M.expand_cache, ("h_flat", "k_g", "v_g", "k_l", "heat_flat")))
        monkeypatch.setattr(M, "decode_step", checked(M.decode_step, ("",)))
        params = M.init_params(cfg, seed=1)
        inst = generate(variant, n, seed=2)
        assert E.validate_solution(inst, D.solve(inst, params, cfg)).ok
        # the training-only Gumbel noise path too
        D.build_cache([inst], D.inference_params(params), cfg,
                      gumbel_rng=np.random.default_rng(0))
        assert {fn for fn, _, _ in seen} == {
            "build_decode_cache", "expand_cache", "decode_step"}
        assert {dt for _, _, dt in seen} == {np.dtype(np.float32)}, seen

    def test_inference_params_are_detached_float32_copies(self):
        params = M.init_params(_toy(), seed=0)
        copies = D.inference_params(params)
        assert copies.keys() == params.keys()
        for k, t in copies.items():
            assert t.values.dtype == np.float32 and not t.requires_grad
            assert np.allclose(t.values, params[k].values, rtol=1e-6)
            assert params[k].values.dtype == np.float64

    def test_training_stays_float64(self):
        from neurovrp.training import TrainConfig, train
        cfg = _toy(Variant.EVRPCS)
        tc = TrainConfig(n_customers=6, epochs=1, batches_per_epoch=1,
                         batch_size=2, pomo_size=2, val_size=2,
                         gen=GenConfig(n_stations=2))
        params, _ = train(tc, cfg, log=lambda *_: None)
        for k, t in params.items():
            assert t.values.dtype == np.float64, k
            assert t.grad is not None and t.grad.dtype == np.float64, k

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_solve_matches_float64(self, monkeypatch, variant):
        """ROADMAP O9: greedy actions identical on >= 95 % of instances and
        mean cost within 0.1 % of the same solve at float64."""
        cfg = _toy(variant)
        params = M.init_params(cfg, seed=3)
        insts = [generate(variant, 10, seed=s) for s in range(20)]
        policies = ["greedy", "sampling", "pomo"]
        if variant != Variant.AVRP:
            policies.append("pomo-aug")
        for policy in policies:
            sols = {}
            for dtype, copies in (("f32", D.inference_params),
                                  ("f64", _float64_params)):
                monkeypatch.setattr(D, "inference_params", copies)
                sols[dtype] = [D.solve(inst, params, cfg, policy=policy,
                                       samples=4, seed=s)
                               for s, inst in enumerate(insts)]
            same = sum(a.actions == b.actions
                       for a, b in zip(sols["f32"], sols["f64"]))
            assert same >= 0.95 * len(insts), (policy, same)
            c32, c64 = (np.mean([s.cost for s in sols[k]])
                        for k in ("f32", "f64"))
            assert abs(c32 - c64) <= 1e-3 * c64, (policy, c32, c64)
