"""Tests for batched rollouts and decoding policies."""

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
