"""Top-level acceptance checks for the solver.

Each test pins down one externally observable guarantee: sparse/dense
encoder equivalence, the attention pair-count law, feasibility by
construction, end-to-end gradient correctness, oracle search pruning
soundness, training improvement, parameter accounting, asymmetric
instance generation, heatmap/fusion identities, and bit-level
reproducibility of the command-line tools.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from neurovrp import clustering as C
from neurovrp import decoding as D
from neurovrp import env as E
from neurovrp import model as M
from neurovrp import tensor as T
from neurovrp import training as TR
from neurovrp.cli import main as cli_main
from neurovrp.instances import (GenConfig, Instance, Variant,
                                build_distance_matrix, generate)
from neurovrp.oracle import OracleLimits, brute_force, gap
from neurovrp.tensor import Tensor, finite_diff_check


def _toy(variant=Variant.VRP, **kw):
    base = dict(d=16, heads=2, layers=2, ff=64, edge_dim=8)
    base.update(kw)
    return M.ModelConfig(variant=variant, **base)


class TestDenseEquivalence:
    def test_oversized_clusters_reproduce_dense_attention(self):
        """One cluster holding every node, one round, no smoothing must
        be numerically indistinguishable from full attention."""
        n = 20
        dense_cfg = _toy()
        sparse_cfg = _toy(cluster_size=n + 1, rounds=1, smoothing=False)
        params = M.init_params(dense_cfg, seed=0)
        batch = [generate(Variant.VRP, n, seed=s) for s in range(50)]
        ref = M.encode(batch, params, dense_cfg).values
        got = M.encode(batch, params, sparse_cfg).values
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel <= 1e-6


class TestPairCountLaw:
    @pytest.mark.parametrize("n", [50, 100, 500, 1000])
    @pytest.mark.parametrize("m", [10, 20, 50, 100])
    @pytest.mark.parametrize("rounds", [1, 2, 4])
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_measured_pairs_match_formula(self, n, m, rounds, smoothing):
        rng = np.random.default_rng(n * 7 + m)
        coords = rng.random((n, 2))
        index = C.build_cluster_index(coords, np.array([0.5, 0.5]), m,
                                      rounds=rounds, smoothing=smoothing)
        effective_rounds = rounds * (2 if smoothing else 1)
        expected = effective_rounds * math.ceil(n / m) * m ** 2
        assert C.measured_pair_count(index) == expected
        assert C.attention_pair_count(index) == expected


class TestFeasibilityByConstruction:
    @pytest.mark.parametrize("variant", [Variant.VRPTW, Variant.EVRPCS,
                                         Variant.VRPRS])
    def test_ten_thousand_random_rollouts_have_zero_violations(self, variant):
        rng = np.random.default_rng(11)
        violations = 0
        rollouts = 0
        for i in range(100):
            inst = generate(variant, 30, seed=i)
            d = build_distance_matrix(inst)
            for _ in range(100):
                sol = E.random_rollout(inst, d, rng)
                report = E.validate_solution(inst, sol, d)
                violations += len(report.violations)
                rollouts += 1
        assert rollouts == 10_000
        assert violations == 0


class TestGradientCorrectness:
    def test_policy_loss_gradients_match_finite_differences(self):
        """Teacher-forced replay of a recorded rollout makes the full
        model loss deterministic, so central differences apply."""
        cfg = _toy()
        params = M.init_params(cfg, seed=0)
        batch = [generate(Variant.VRP, 10, seed=s) for s in range(2)]
        pomo = 4
        recorded = D.batch_rollout(
            batch, {k: v.detach() for k, v in params.items()}, cfg,
            pomo_size=pomo, mode="sample", rng=np.random.default_rng(5),
            force_first=True)

        def replay_loss():
            ctx = D.make_context(batch)
            cache = D.build_cache(batch, params, cfg)
            state = D.init_batch_state(batch, pomo)
            t_cnt = len(state.current)
            expanded = M.expand_cache(cache, state.traj_instance, cfg)
            log_terms = []
            max_len = max(len(a) for a in recorded.actions)
            for s in range(1, max_len):
                if state.done.all():
                    break
                sel = D.batch_feasible(state, ctx, restrict_optional=True)
                cap, xi = D._dynamic_features(state, batch)
                probs = M.decode_step(expanded, params, cfg, state.current,
                                      cap, xi, sel,
                                      D._optional_logit_term(state, batch))
                acts = np.array(
                    [recorded.actions[t][s] if s < len(recorded.actions[t])
                     else 0 for t in range(t_cnt)], dtype=np.int64)
                picked = T.take(T.reshape(probs, (-1,)),
                                (np.arange(t_cnt) * probs.shape[1] + acts)[:, None])
                live = Tensor(~state.done[:, None] * 1.0)
                log_terms.append(T.reshape(T.log(picked) * live, (t_cnt,)))
                D.batch_step(state, acts, ctx)
            stacked = T.concat([T.reshape(t, (1, t_cnt)) for t in log_terms],
                               axis=0)
            log_probs = T.reshape(T.tsum(stacked, axis=0), (t_cnt,))
            return TR.pomo_loss(log_probs, recorded.costs, pomo)

        err = finite_diff_check(replay_loss, params.values(), count=120,
                                rng=np.random.default_rng(1))
        assert err <= 1e-4


class TestOracleAgreement:
    SIZES = [(Variant.VRP, 5), (Variant.AVRP, 5), (Variant.VRPTW, 5),
             (Variant.EVRPCS, 3), (Variant.VRPRS, 3)]

    @pytest.mark.parametrize("variant,n", SIZES)
    def test_pruned_search_matches_exhaustive_on_200_instances(self,
                                                               variant, n):
        cfg = GenConfig(n_stations=2, n_stops=2)
        limits = OracleLimits(max_customers=7, optional_per_route=1)
        for seed in range(200):
            inst = generate(variant, n, seed=seed, config=cfg)
            pruned = brute_force(inst, limits, prune=True)
            full = brute_force(inst, limits, prune=False)
            assert np.isclose(pruned.optimal_cost, full.optimal_cost,
                              atol=1e-9), (variant, seed)
            assert E.validate_solution(inst, pruned.optimal_solution).ok
            assert E.validate_solution(inst, full.optimal_solution).ok


class TestTrainingImprovement:
    def test_fifty_epochs_beat_untrained_policy_and_small_oracle(self):
        cfg = _toy()
        tc = TR.TrainConfig(n_customers=20, epochs=50, batches_per_epoch=40,
                            batch_size=25, pomo_size=8, lr=1e-3, seed=0,
                            val_size=64)
        val_set = TR.make_validation_set(tc, cfg)
        untrained = M.init_params(cfg, seed=0)
        baseline = TR.greedy_validation_cost(val_set, untrained, cfg)
        params, _ = TR.train(tc, cfg, log=lambda *_: None)
        final = TR.greedy_validation_cost(val_set, params, cfg)
        assert final <= 0.9 * baseline

        gaps = []
        for seed in range(20):
            inst = generate(Variant.VRP, 7, seed=500 + seed)
            opt = brute_force(inst, OracleLimits(max_customers=7))
            sol = D.solve(inst, params, cfg, policy="greedy")
            gaps.append(gap(sol.cost, opt.optimal_cost))
        assert np.mean(gaps) <= 25.0


class TestArchitectureAccounting:
    def test_full_scale_parameter_budget(self):
        cfg = M.ModelConfig.full_scale(Variant.VRP)
        counts = M.param_count(M.init_params(cfg, seed=0))
        total = counts["total"]
        assert 1_200_000 <= total <= 1_500_000
        edge_share = counts["edge"] / total
        assert 0.05 <= edge_share <= 0.10


class TestAsymmetricGenerator:
    def test_exactly_beta_perturbed_pairs_with_bounded_ratio(self):
        inst = generate(Variant.AVRP, 100, seed=3)
        base = generate(Variant.VRP, 100, seed=3)
        euclid = build_distance_matrix(
            Instance(variant=Variant.VRP, depot=base.depot,
                     customers=base.customers, demands=base.demands,
                     capacity=base.capacity)).values
        ratio = np.divide(inst.asym_matrix, euclid,
                          out=np.ones_like(euclid), where=euclid > 0)
        perturbed = ratio > 1.0
        assert perturbed.sum() == 50
        assert (ratio[perturbed] > 1.0).all()
        assert (ratio[perturbed] <= 1.2 + 1e-12).all()
        rows, cols = np.nonzero(perturbed)
        assert np.allclose(inst.asym_matrix[cols, rows], euclid[cols, rows])


class TestHeatmapAndFusionIdentities:
    def test_heatmap_values_bounded(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=4)
        batch = [generate(Variant.VRP, 20, seed=s) for s in range(4)]
        cache = D.build_cache(batch, params, cfg)
        assert (np.abs(cache.heat.values) <= 1.0).all()

    def test_zeroed_heatmap_equals_sequential_only_decoding(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=4)
        batch = [generate(Variant.VRP, 12, seed=s) for s in range(3)]
        cache = D.build_cache(batch, params, cfg)
        zeroed = dataclasses.replace(
            cache, heat=Tensor(np.zeros_like(cache.heat.values)))
        seq_only = dataclasses.replace(cache, heat=None)
        a = D.batch_rollout(batch, params, cfg, pomo_size=4, mode="greedy",
                            force_first=True, cache=zeroed)
        b = D.batch_rollout(batch, params, cfg, pomo_size=4, mode="greedy",
                            force_first=True, cache=seq_only)
        assert a.actions == b.actions
        assert np.array_equal(a.costs, b.costs)

    def test_optional_column_term_tracks_remaining_resource(self):
        batch = [generate(Variant.EVRPCS, 6, seed=0,
                          config=GenConfig(n_stations=2))]
        r_max = batch[0].resource_max
        state = D.init_batch_state(batch, 3)
        state.resource[:] = [0.0, r_max / 2, r_max]
        term = D._optional_logit_term(state, batch)
        n = batch[0].n_customers
        assert np.allclose(term[:, n + 1:],
                           np.array([0.0, -1.0, -2.0])[:, None])
        assert (term[:, :n + 1] == 0).all()


class TestReproducibility:
    def _pipeline(self, root):
        data = root / "data"
        cli_main(["gen", "--variant", "VRP", "--n", "6", "--seed", "2",
                  "--count", "2", "--out", str(data)])
        ckpt = root / "model.ckpt"
        metrics = root / "metrics.csv"
        cli_main(["train", "--variant", "VRP", "--n", "6", "--epochs", "1",
                  "--batches", "2", "--batch-size", "4", "--pomo", "4",
                  "--out", str(ckpt), "--metrics", str(metrics)])
        sol = root / "solution.json"
        inst = sorted(data.glob("*.json"))[0]
        cli_main(["solve", "--instance", str(inst), "--checkpoint",
                  str(ckpt), "--pomo", "4", "--out", str(sol)])
        cli_main(["bench", "--dataset", str(data), "--checkpoint", str(ckpt),
                  "--policy", "greedy", "--omit-times",
                  "--out", str(root / "report")])
        return {p.name: p.read_bytes() for p in
                [*sorted(data.glob("*.json")), ckpt, metrics, sol,
                 root / "report.csv", root / "report.json"]}

    def test_full_pipeline_reruns_are_byte_identical(self, tmp_path):
        first = self._pipeline(tmp_path / "run1")
        second = self._pipeline(tmp_path / "run2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
