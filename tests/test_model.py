"""Tests for the encoder/decoder model components."""

import dataclasses

import numpy as np
import pytest

from neurovrp import model as M
from neurovrp import tensor as T
from neurovrp.instances import GenConfig, Variant, generate
from neurovrp.tensor import Tensor

TOY = dict(d=16, heads=2, layers=2, ff=64, edge_dim=8)


def _toy(variant=Variant.VRP, **kw):
    return M.ModelConfig(variant=variant, **{**TOY, **kw})


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            M.ModelConfig(d=10, heads=3)

    def test_edge_dim_bound(self):
        with pytest.raises(ValueError):
            M.ModelConfig(d=16, heads=2, edge_dim=32)

    @pytest.mark.parametrize("field,value", [("cluster_size", 0),
                                             ("rounds", 0)])
    def test_cluster_fields_bounded(self, field, value):
        with pytest.raises(ValueError, match=field):
            M.ModelConfig(**{field: value})

    @pytest.mark.parametrize("cfg", [
        M.ModelConfig(), M.ModelConfig.full_scale(Variant.VRPTW),
        M.ModelConfig(cluster_size=20, rounds=2, smoothing=True)],
        ids=["default", "full", "clustered"])
    def test_dict_roundtrip(self, cfg):
        doc = cfg.to_dict()
        assert doc["variant"] == cfg.variant.value
        assert M.ModelConfig.from_dict(doc) == cfg

    def test_from_dict_names_missing_field(self):
        doc = M.ModelConfig().to_dict()
        del doc["heads"]
        with pytest.raises(ValueError, match="'heads' is missing"):
            M.ModelConfig.from_dict(doc)

    def test_full_scale_values(self):
        cfg = M.ModelConfig.full_scale()
        assert (cfg.d, cfg.layers, cfg.ff, cfg.heads, cfg.edge_dim,
                cfg.k_neighbors) == (128, 6, 512, 8, 32, 50)


class TestParams:
    def test_param_count_bands(self):
        counts = M.param_count(M.init_params(M.ModelConfig.full_scale()))
        assert 1_200_000 <= counts["total"] <= 1_500_000
        share = counts["edge"] / counts["total"]
        assert 0.05 <= share <= 0.10

    def test_optional_pathway_params_only_when_needed(self):
        plain = M.init_params(_toy(Variant.VRP))
        opt = M.init_params(_toy(Variant.EVRPCS))
        assert not any(k.startswith("opt.") for k in plain)
        assert any(k.startswith("opt.") for k in opt)
        assert float(opt["opt.fuse.gate"].values) == 0.0

    def test_init_deterministic(self):
        a = M.init_params(_toy(), seed=5)
        b = M.init_params(_toy(), seed=5)
        assert all(np.array_equal(a[k].values, b[k].values) for k in a)


class TestEncoder:
    def test_output_shape(self):
        cfg = _toy()
        batch = [generate(Variant.VRP, 9, seed=s) for s in range(3)]
        h = M.encode(batch, M.init_params(cfg), cfg)
        assert h.shape == (3, 10, 16)

    def test_variant_mismatch_rejected(self):
        cfg = _toy(Variant.VRP)
        batch = [generate(Variant.VRPTW, 5, seed=0)]
        with pytest.raises(ValueError):
            M.encode(batch, M.init_params(cfg), cfg)

    def test_clustered_path_matches_dense(self):
        params = M.init_params(_toy(), seed=1)
        batch = [generate(Variant.VRP, 11, seed=s) for s in range(2)]
        dense = M.encode(batch, params, _toy())
        clustered = M.encode(batch, params, _toy(cluster_size=12))
        assert np.abs(dense.values - clustered.values).max() < 1e-9

    def test_instance_rows_independent_of_batch(self):
        # 10 customers in clusters of 4: padding in every round
        cfg = _toy(cluster_size=4, rounds=2, smoothing=True)
        params = M.init_params(cfg, seed=1)
        batch = [generate(Variant.VRP, 10, seed=s) for s in range(3)]
        together = M.encode(batch, params, cfg).values
        for b, inst in enumerate(batch):
            alone = M.encode([inst], params, cfg).values[0]
            assert np.abs(together[b] - alone).max() < 1e-12

    def test_sparse_clusters_differ_but_run(self):
        params = M.init_params(_toy(), seed=1)
        batch = [generate(Variant.VRP, 12, seed=0)]
        dense = M.encode(batch, params, _toy())
        sparse = M.encode(batch, params, _toy(cluster_size=4))
        assert sparse.shape == dense.shape
        assert np.abs(dense.values - sparse.values).max() > 1e-6

    def test_vrptw_uses_window_features(self):
        cfg = _toy(Variant.VRPTW)
        params = M.init_params(cfg)
        a = generate(Variant.VRPTW, 6, seed=0)
        b = generate(Variant.VRPTW, 6, seed=0)
        b.time_windows.earliest = b.time_windows.earliest * 0.5
        ha = M.encode([a], params, cfg)
        hb = M.encode([b], params, cfg)
        assert np.abs(ha.values - hb.values).max() > 1e-9


class TestOptionalPathway:
    def test_zero_gate_is_identity(self):
        cfg = _toy(Variant.EVRPCS)
        params = M.init_params(cfg, seed=2)
        batch = [generate(Variant.EVRPCS, 7, seed=0,
                          config=GenConfig(n_stations=2))]
        h = M.encode(batch, params, cfg)
        h_opt = M.encode_optional(batch, params, cfg)
        fused = M.fuse_optional(h, h_opt, params, tau=1.0)
        assert np.array_equal(fused.values, h.values)

    def test_open_gate_blends(self):
        cfg = _toy(Variant.EVRPCS)
        params = M.init_params(cfg, seed=2)
        params["opt.fuse.gate"].values[()] = 0.5
        batch = [generate(Variant.EVRPCS, 7, seed=0,
                          config=GenConfig(n_stations=2))]
        h = M.encode(batch, params, cfg)
        h_opt = M.encode_optional(batch, params, cfg)
        fused = M.fuse_optional(h, h_opt, params, tau=1.0)
        # depot row untouched, customer rows shifted
        assert np.array_equal(fused.values[:, 0], h.values[:, 0])
        assert np.abs(fused.values[:, 1:] - h.values[:, 1:]).max() > 1e-9

    def test_tau_sharpens_weights(self):
        rng = np.random.default_rng(0)
        noise = M.gumbel_noise((1, 4, 3), rng)
        assert noise.shape == (1, 4, 3)
        assert M.gumbel_tau(0) == 1.0
        assert np.isclose(M.gumbel_tau(10), 0.99 ** 10)
        assert M.gumbel_tau(1000) == 0.2

    def test_wrong_variant_rejected(self):
        cfg = _toy(Variant.VRP)
        with pytest.raises(ValueError):
            M.encode_optional([generate(Variant.VRP, 5, seed=0)],
                              M.init_params(cfg), cfg)


class TestEdgesAndHeatmap:
    def test_knn_edges_exclude_self_and_optional(self):
        cfg = _toy(Variant.EVRPCS, k_neighbors=4)
        batch = [generate(Variant.EVRPCS, 9, seed=0,
                          config=GenConfig(n_stations=2))]
        edges = M.build_edge_set(batch, cfg)
        assert edges.neighbors.shape == (1, 10, 4)   # depot+customers only
        rows = np.arange(10)[None, :, None]
        assert (edges.neighbors != rows).all()

    def test_knn_picks_nearest(self):
        cfg = _toy(k_neighbors=3)
        batch = [generate(Variant.VRP, 8, seed=1)]
        from neurovrp.instances import build_distance_matrix
        d = build_distance_matrix(batch[0]).values
        edges = M.build_edge_set(batch, cfg)
        for i in range(9):
            expected = np.argsort(d[i] + np.eye(9)[i] * 1e9,
                                  kind="stable")[:3]
            assert edges.neighbors[0, i].tolist() == expected.tolist()

    def test_edge_features_directional(self):
        cfg = _toy(Variant.AVRP)
        batch = [generate(Variant.AVRP, 8, seed=0)]
        edges = M.build_edge_set(batch, cfg)
        fwd, rev, diff = (edges.features[..., i] for i in range(3))
        assert np.allclose(diff, fwd - rev)
        assert np.abs(diff).max() > 0   # asymmetric costs show up

    def test_heatmap_range_and_sparsity(self):
        cfg = _toy(k_neighbors=3)
        params = M.init_params(cfg, seed=3)
        batch = [generate(Variant.VRP, 10, seed=0)]
        h = M.encode(batch, params, cfg)
        edges = M.build_edge_set(batch, cfg)
        heat = M.heatmap(M.edge_embed(h, edges, params), edges, params)
        assert heat.shape == (1, 11, 11)
        assert (heat.values >= -1.0).all() and (heat.values <= 1.0).all()
        # exactly k entries per row are (generically) nonzero
        assert ((heat.values != 0).sum(axis=2) == 3).all()

    def test_heat_spans_all_nodes_zero_on_optional(self):
        cfg = _toy(Variant.EVRPCS)
        params = M.init_params(cfg, seed=3)
        batch = [generate(Variant.EVRPCS, 7, seed=s,
                          config=GenConfig(n_stations=2)) for s in range(2)]
        from neurovrp.decoding import build_cache
        heat = build_cache(batch, params, cfg).heat.values
        n_dc, n_total = 8, batch[0].n_nodes
        assert heat.shape == (2, n_total, n_total)
        assert (heat[:, n_dc:, :] == 0.0).all()
        assert (heat[:, :, n_dc:] == 0.0).all()
        assert (heat[:, :n_dc, :n_dc] != 0.0).any()

    def test_heatmap_gradients_reach_edge_params(self):
        cfg = _toy()
        params = M.init_params(cfg, seed=4)
        batch = [generate(Variant.VRP, 6, seed=0)]
        h = M.encode(batch, params, cfg)
        edges = M.build_edge_set(batch, cfg)
        heat = M.heatmap(M.edge_embed(h, edges, params), edges, params)
        T.tsum(heat * heat).backward()
        for name in ("edge.mlp.w1", "edge.w1", "edge.red_src.w", "edge.in.w"):
            assert params[name].grad is not None
            assert np.abs(params[name].grad).max() > 0


class TestDecoder:
    def _setup(self, variant=Variant.VRP, n=8, bsz=2, pomo=3):
        cfg = _toy(variant)
        params = M.init_params(cfg, seed=5)
        gen_cfg = GenConfig(n_stations=2, n_stops=2)
        batch = [generate(variant, n, seed=s, config=gen_cfg)
                 for s in range(bsz)]
        from neurovrp.decoding import build_cache
        cache = build_cache(batch, params, cfg)
        traj = np.repeat(np.arange(bsz), pomo)
        expanded = M.expand_cache(cache, traj, cfg)
        return cfg, params, batch, expanded, traj

    def test_probabilities_normalized_and_masked(self):
        cfg, params, batch, expanded, traj = self._setup()
        t_cnt = len(traj)
        n_total = batch[0].n_nodes
        allowed = np.ones((t_cnt, n_total), dtype=bool)
        allowed[:, 0] = False
        allowed[0, 3] = False
        probs = M.decode_step(expanded, params, cfg,
                              np.zeros(t_cnt, dtype=int),
                              np.ones(t_cnt), np.zeros(t_cnt), allowed)
        assert np.allclose(probs.values.sum(axis=1), 1.0)
        assert (probs.values[~allowed] == 0).all()

    def test_context_features_change_distribution(self):
        cfg, params, batch, expanded, traj = self._setup()
        t_cnt = len(traj)
        allowed = np.ones((t_cnt, batch[0].n_nodes), dtype=bool)
        allowed[:, 0] = False
        cur = np.zeros(t_cnt, dtype=int)
        a = M.decode_step(expanded, params, cfg, cur,
                          np.full(t_cnt, 1.0), np.zeros(t_cnt), allowed)
        b = M.decode_step(expanded, params, cfg, cur,
                          np.full(t_cnt, 0.2), np.zeros(t_cnt), allowed)
        assert np.abs(a.values - b.values).max() > 1e-9

    def test_optional_columns_use_resource_term(self):
        cfg, params, batch, expanded, traj = self._setup(Variant.EVRPCS)
        t_cnt = len(traj)
        n_total = batch[0].n_nodes
        allowed = np.ones((t_cnt, n_total), dtype=bool)
        allowed[:, 0] = False
        cur = np.zeros(t_cnt, dtype=int)
        term = np.zeros((t_cnt, n_total))
        term[:, -2:] = -5.0
        base = M.decode_step(expanded, params, cfg, cur, np.ones(t_cnt),
                             np.ones(t_cnt), allowed)
        shifted = M.decode_step(expanded, params, cfg, cur, np.ones(t_cnt),
                                np.ones(t_cnt), allowed, opt_term=term)
        assert (shifted.values[:, -2:] < base.values[:, -2:]).all()

    def test_heat_row_zero_for_optional_current(self):
        cfg, params, batch, expanded, traj = self._setup(Variant.EVRPCS)
        t_cnt = len(traj)
        n_total = batch[0].n_nodes
        allowed = np.ones((t_cnt, n_total), dtype=bool)
        allowed[:, -1] = False
        opt_node = n_total - 1
        cur = np.full(t_cnt, opt_node)
        with_heat = M.decode_step(expanded, params, cfg, cur,
                                  np.ones(t_cnt), np.ones(t_cnt), allowed)
        no_heat = dataclasses.replace(expanded, heat_flat=None)
        without = M.decode_step(no_heat, params, cfg, cur,
                                np.ones(t_cnt), np.ones(t_cnt), allowed)
        assert np.allclose(with_heat.values, without.values)

    def test_instance_rows_independent_of_batch(self):
        # B=2, P=3 grouped rows equal each instance decoded on its own, on a
        # variant with a heatmap and optional nodes
        cfg, params, batch, expanded, traj = self._setup(Variant.EVRPCS)
        t_cnt, n_total = len(traj), batch[0].n_nodes
        rng = np.random.default_rng(7)
        allowed = rng.random((t_cnt, n_total)) < 0.6
        allowed[:, 1] = True
        cur = np.array([0, 3, n_total - 1, 5, 0, n_total - 2])
        cap, xi = rng.random(t_cnt), rng.random(t_cnt)
        term = rng.normal(size=(t_cnt, n_total))
        both = M.decode_step(expanded, params, cfg, cur, cap, xi, allowed,
                             opt_term=term).values
        from neurovrp.decoding import build_cache
        for b, inst in enumerate(batch):
            rows = slice(3 * b, 3 * b + 3)
            alone = M.expand_cache(build_cache([inst], params, cfg),
                                   np.zeros(3, dtype=np.int64), cfg)
            one = M.decode_step(alone, params, cfg, cur[rows], cap[rows],
                                xi[rows], allowed[rows], opt_term=term[rows])
            assert np.abs(one.values - both[rows]).max() <= 1e-12

    @pytest.mark.parametrize("traj", [np.array([0, 1, 0, 1, 0, 1]),
                                      np.array([0, 0, 0, 1, 1]),
                                      np.array([1, 1, 1, 0, 0, 0]),
                                      np.array([0])])
    def test_expand_rejects_ungrouped_trajectories(self, traj):
        cfg = _toy()
        params = M.init_params(cfg, seed=5)
        batch = [generate(Variant.VRP, 6, seed=s) for s in range(2)]
        from neurovrp.decoding import build_cache
        cache = build_cache(batch, params, cfg)
        with pytest.raises(ValueError, match="traj_instance"):
            M.expand_cache(cache, traj, cfg)

    def test_logit_clip_bounds_sequential_logits(self):
        # with zero heat, fused logits live in [-C, C]; probabilities over
        # k allowed nodes are then bounded away from one another
        cfg, params, batch, expanded, traj = self._setup()
        t_cnt = len(traj)
        allowed = np.ones((t_cnt, batch[0].n_nodes), dtype=bool)
        allowed[:, 0] = False
        probs = M.decode_step(expanded, params, cfg,
                              np.zeros(t_cnt, dtype=int), np.ones(t_cnt),
                              np.zeros(t_cnt), allowed)
        k = allowed[0].sum()
        floor = 1.0 / (1.0 + (k - 1) * np.exp(2 * M.LOGIT_CLIP + 2))
        assert (probs.values[allowed] > floor).all()
