"""Tests for polar clustering and within-cluster attention."""

import math

import numpy as np
import pytest

from neurovrp import clustering as C
from neurovrp import tensor as T
from neurovrp.tensor import Tensor


def _coords(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)), rng.random(2)


class TestPolar:
    def test_radius_and_angle_ranges(self):
        coords, depot = _coords(40)
        polar = C.to_polar(coords, depot)
        assert np.allclose(polar.r, np.linalg.norm(coords - depot, axis=1))
        assert (polar.theta >= 0).all() and (polar.theta < 2 * np.pi).all()
        assert polar.r_bar.min() == 0.0 and polar.r_bar.max() == 1.0
        assert (polar.theta_bar >= 0).all() and (polar.theta_bar < 1.0).all()

    def test_customer_on_depot(self):
        depot = np.array([0.5, 0.5])
        coords = np.array([[0.5, 0.5], [0.9, 0.5]])
        polar = C.to_polar(coords, depot)
        assert polar.r[0] == 0.0 and polar.theta[0] == 0.0

    def test_equal_radii_degenerate(self):
        depot = np.zeros(2)
        coords = np.array([[0.25, 0.0], [0.0, 0.25],
                           [-0.25, 0.0], [0.0, -0.25]])
        polar = C.to_polar(coords, depot)
        assert (polar.r_bar == 0.0).all()


class TestSchedule:
    def test_single_round(self):
        assert C.alpha_schedule(1) == [0.0]

    def test_even_spacing(self):
        assert C.alpha_schedule(5) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            C.alpha_schedule(0)

    def test_score_bounds_checked(self):
        coords, depot = _coords(5)
        polar = C.to_polar(coords, depot)
        with pytest.raises(ValueError):
            C.partition_score(polar, 1.5)


class TestClusterIndex:
    def test_partition_covers_each_customer_once(self):
        coords, depot = _coords(23)
        index = C.build_cluster_index(coords, depot, 5, 3, False)
        for members, pads in zip(index.rounds, index.padding):
            real = members[~pads]
            assert sorted(real.tolist()) == list(range(1, 24))
            assert (members[pads] == 0).all()

    def test_smoothing_doubles_rounds(self):
        coords, depot = _coords(30)
        plain = C.build_cluster_index(coords, depot, 10, 2, False)
        smooth = C.build_cluster_index(coords, depot, 10, 2, True)
        assert plain.n_rounds == 2
        assert smooth.n_rounds == 4
        assert smooth.smoothed == [False, True, False, True]

    def test_smooth_shift_rotation(self):
        order = np.arange(10)
        assert C.smooth_shift(order, 4).tolist() == \
            [2, 3, 4, 5, 6, 7, 8, 9, 0, 1]

    def test_score_ties_stable_by_index(self):
        depot = np.array([0.0, 0.0])
        coords = np.tile([[0.5, 0.5]], (6, 1))   # all identical scores
        index = C.build_cluster_index(coords, depot, 3, 1, False)
        assert index.rounds[0].ravel().tolist() == [1, 2, 3, 4, 5, 6]

    def test_json_dump_roundtrips(self):
        import json
        coords, depot = _coords(7)
        index = C.build_cluster_index(coords, depot, 3, 1, True)
        doc = json.loads(index.to_json())
        assert doc["n_customers"] == 7
        assert len(doc["rounds"]) == index.n_rounds


class TestPairCounts:
    @pytest.mark.parametrize("n", [50, 100, 500])
    @pytest.mark.parametrize("m", [10, 20, 50])
    @pytest.mark.parametrize("rounds", [1, 2])
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_formula_matches_measurement(self, n, m, rounds, smoothing):
        coords, depot = _coords(n, seed=n + m)
        index = C.build_cluster_index(coords, depot, m, rounds, smoothing)
        expected = index.n_rounds * math.ceil(n / m) * m * m
        assert C.attention_pair_count(index) == expected
        assert C.measured_pair_count(index) == expected


def _attention_params(d, heads, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda: Tensor(rng.standard_normal((d, d)) / np.sqrt(d),
                        requires_grad=True)
    return C.AttentionParams(wq=mk(), wk=mk(), wv=mk(), wo=mk(), heads=heads)


def _dense_reference(h, params):
    """Plain multi-head self-attention over all rows, in raw numpy."""
    n, d = h.shape
    heads = params.heads
    dh = d // heads
    q = (h @ params.wq.values).reshape(n, heads, dh).transpose(1, 0, 2)
    k = (h @ params.wk.values).reshape(n, heads, dh).transpose(1, 0, 2)
    v = (h @ params.wv.values).reshape(n, heads, dh).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = (attn @ v).transpose(1, 0, 2).reshape(n, d)
    return out @ params.wo.values


def _one_instance(h, index, params):
    """clustered_attention on a single instance: (N, d) in, (N, d) out."""
    layout = C.build_slot_layout([index])
    out = C.clustered_attention(T.reshape(h, (1,) + h.shape), layout, params)
    return T.reshape(out, h.shape)


class TestClusteredAttention:
    def test_single_cluster_equals_dense(self):
        coords, depot = _coords(12)
        index = C.build_cluster_index(coords, depot, 13, 1, False)
        params = _attention_params(8, 2)
        h = Tensor(np.random.default_rng(1).standard_normal((13, 8)))
        out = _one_instance(h, index, params)
        ref = _dense_reference(h.values, params)
        assert np.abs(out.values - ref).max() < 1e-10

    def test_output_shape_and_grad_flow(self):
        coords, depot = _coords(17)
        index = C.build_cluster_index(coords, depot, 5, 2, True)
        params = _attention_params(8, 2)
        h = Tensor(np.random.default_rng(2).standard_normal((18, 8)),
                   requires_grad=True)
        out = _one_instance(h, index, params)
        assert out.shape == (18, 8)
        T.tsum(out * out).backward()
        assert h.grad is not None and np.abs(h.grad).max() > 0

    def test_rounds_are_averaged(self):
        coords, depot = _coords(9)
        params = _attention_params(4, 1)
        h = Tensor(np.random.default_rng(3).standard_normal((10, 4)))
        # duplicating the single round must not change the average
        once = C.build_cluster_index(coords, depot, 9, 1, False)
        out1 = _one_instance(h, once, params)
        twice = C.ClusterIndex(rounds=once.rounds * 2,
                               padding=once.padding * 2,
                               alpha_values=once.alpha_values * 2,
                               smoothed=once.smoothed * 2,
                               n_customers=9, cluster_size=9)
        out2 = _one_instance(h, twice, params)
        assert np.abs(out1.values - out2.values).max() < 1e-12

    @pytest.mark.parametrize("bsz,n,m,rounds,smoothing", [
        (1, 8, 3, 1, False),
        (2, 7, 3, 2, True),     # padding: 7 customers in clusters of 3
    ], ids=["one-instance", "batch-padded-smoothed"])
    def test_gradcheck_through_clusters(self, bsz, n, m, rounds, smoothing):
        indices = [C.build_cluster_index(*_coords(n, seed=b), m, rounds,
                                         smoothing) for b in range(bsz)]
        layout = C.build_slot_layout(indices)
        params = _attention_params(4, 2)
        h = Tensor(np.random.default_rng(4).standard_normal((bsz, n + 1, 4)),
                   requires_grad=True)
        leaves = [h, params.wq, params.wk, params.wv, params.wo]
        err = T.finite_diff_check(
            lambda: T.tsum(T.tanh(C.clustered_attention(h, layout, params))),
            leaves, count=50)
        assert err < 1e-5
