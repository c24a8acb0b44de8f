"""Tests for the autodiff tensor engine."""

import numpy as np
import pytest

from neurovrp import tensor as T
from neurovrp.tensor import Tensor


def _leaf(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestElementwise:
    def test_add_broadcast_grad(self):
        a = _leaf((3, 4))
        b = _leaf((4,), seed=1)
        out = T.tsum(a + b)
        out.backward()
        assert np.allclose(a.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        a = _leaf((5,))
        b = _leaf((5,), seed=1)
        T.tsum(a * b).backward()
        assert np.allclose(a.grad, b.values)
        assert np.allclose(b.grad, a.values)

    def test_scalar_ops(self):
        a = _leaf((3,))
        out = T.tsum(2.0 * a - a * 0.5)
        out.backward()
        assert np.allclose(a.grad, 1.5)

    @pytest.mark.parametrize("op", [T.tanh, T.silu])
    def test_activations_finite_diff(self, op):
        a = _leaf((6,), scale=0.7)
        err = T.finite_diff_check(lambda: T.tsum(op(a)), [a], count=6)
        assert err < 1e-6

    def test_log_grad(self):
        a = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
        T.tsum(T.log(a)).backward()
        assert np.allclose(a.grad, 1.0 / a.values)

    def test_power_grad(self):
        a = Tensor(np.array([1.0, 4.0, 9.0]), requires_grad=True)
        T.tsum(T.power(a, -0.5)).backward()
        assert np.allclose(a.grad, -0.5 * a.values ** -1.5)


class TestShapeAndIndexing:
    def test_reshape_swapaxes_roundtrip(self):
        a = _leaf((2, 3, 4))
        out = T.swapaxes(T.reshape(a, (6, 4)), 0, 1)
        T.tsum(out * out).backward()
        assert a.grad.shape == (2, 3, 4)
        assert np.allclose(a.grad, 2 * a.values)

    def test_concat_grad_split(self):
        a, b = _leaf((2, 3)), _leaf((4, 3), seed=1)
        out = T.concat([a, b], axis=0)
        T.tsum(out * Tensor(np.arange(18.0).reshape(6, 3))).backward()
        assert np.allclose(a.grad, np.arange(6.0).reshape(2, 3))
        assert np.allclose(b.grad, np.arange(6.0, 18.0).reshape(4, 3))

    def test_take_scatter_add_on_duplicates(self):
        a = _leaf((4, 2))
        idx = np.array([1, 1, 3])
        out = T.take(a, idx, axis=0)
        assert out.shape == (3, 2)
        T.tsum(out).backward()
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.allclose(a.grad, expected)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_take_grad_matches_row_loop(self, axis):
        a = _leaf((5, 4, 3))
        idx = np.array([[3, 0, 3], [1, 3, 3]])
        out = T.take(a, idx, axis=axis)
        g = np.random.default_rng(2).normal(size=out.shape)
        T.tsum(out * Tensor(g)).backward()
        expected = np.zeros((5, 4, 3))
        exp_moved = np.moveaxis(expected, axis, 0)
        g_moved = np.moveaxis(g, (axis, axis + 1), (0, 1))
        for i in range(idx.shape[0]):
            for j in range(idx.shape[1]):
                exp_moved[idx[i, j]] += g_moved[i, j]
        assert np.allclose(a.grad, expected, rtol=0, atol=1e-14)

    def test_scatter_forward_and_grad(self):
        v = _leaf((4,))
        idx = np.array([0, 5, 5, 2])
        out = T.scatter(v, idx, (2, 3))
        dense = np.zeros(6)
        np.add.at(dense, idx, v.values)
        assert np.allclose(out.values.ravel(), dense)
        T.tsum(out * Tensor(np.arange(6.0).reshape(2, 3))).backward()
        assert np.allclose(v.grad, [0.0, 5.0, 5.0, 2.0])


class TestContractions:
    def test_matmul_2d(self):
        a, b = _leaf((3, 4)), _leaf((4, 2), seed=1)
        err = T.finite_diff_check(lambda: T.tsum(a @ b), [a, b], count=20)
        assert err < 1e-6

    def test_matmul_batched_broadcast(self):
        a, b = _leaf((5, 2, 3, 4)), _leaf((4, 6), seed=1)
        out = a @ b
        assert out.shape == (5, 2, 3, 6)
        err = T.finite_diff_check(lambda: T.tsum((a @ b) * (a @ b)), [a, b],
                                  count=30)
        assert err < 1e-5

    def test_mean_and_sum_axis(self):
        a = _leaf((4, 5))
        T.tsum(T.mean(a, axis=0)).backward()
        assert np.allclose(a.grad, 0.25)

    def test_norm_affine_statistics(self):
        a = _leaf((2, 7, 3), scale=4.0)
        scale = Tensor(np.ones(3), requires_grad=True)
        shift = Tensor(np.zeros(3), requires_grad=True)
        out = T.norm_affine(a, scale, shift, axis=-2)
        assert np.allclose(out.values.mean(axis=-2), 0.0, atol=1e-9)
        assert np.allclose(out.values.std(axis=-2), 1.0, atol=1e-3)
        err = T.finite_diff_check(
            lambda: T.tsum(T.tanh(T.norm_affine(a, scale, shift, axis=-2))),
            [a, scale, shift], count=40)
        assert err < 1e-5


class TestMaskedSoftmax:
    def test_disallowed_exactly_zero(self):
        a = _leaf((2, 5), scale=3.0)
        allowed = np.array([[True, False, True, True, False],
                            [False, True, True, False, True]])
        out = T.masked_softmax(a, allowed)
        assert (out.values[~allowed] == 0.0).all()
        assert np.allclose(out.values.sum(axis=-1), 1.0)

    def test_empty_row_rejected(self):
        a = _leaf((2, 3))
        allowed = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(ValueError):
            T.masked_softmax(a, allowed)

    def test_single_allowed_entry_has_exact_zero_log_and_gradient(self):
        # a finished rollout row: only one entry allowed
        a = _leaf((1, 5), scale=3.0)
        allowed = np.array([[False, False, True, False, False]])
        probs = T.masked_softmax(a, allowed)
        assert probs.values[0, 2] == 1.0
        log_p = T.log(T.take(T.reshape(probs, (-1,)), np.array([2])))
        assert log_p.values[0] == 0.0
        T.tsum(log_p * -3.7).backward()
        assert (a.grad == 0.0).all()

    def test_gradient(self):
        a = _leaf((3, 4), scale=2.0)
        allowed = np.ones((3, 4), dtype=bool)
        allowed[0, 1] = allowed[2, 3] = False
        w = Tensor(np.arange(12.0).reshape(3, 4))
        err = T.finite_diff_check(
            lambda: T.tsum(T.masked_softmax(a, allowed) * w), [a], count=12)
        assert err < 1e-6


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        a = _leaf((3,))
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_double_backward_raises(self):
        a = _leaf((3,))
        loss = T.tsum(a * a)
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_grad_accumulates_over_shared_node(self):
        a = _leaf((2,))
        b = a * 3.0
        T.tsum(b + b).backward()
        assert np.allclose(a.grad, 6.0)

    def test_detach_blocks_gradient(self):
        a = _leaf((2,))
        T.tsum(a.detach() * a).backward()
        assert np.allclose(a.grad, a.values)

    def test_finite_diff_detects_nondeterminism(self):
        a = _leaf((2,))
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            T.finite_diff_check(
                lambda: T.tsum(a * float(rng.random())), [a], count=2)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        params = {"w": _leaf((3, 2)), "b": _leaf((2,), seed=1)}
        path = tmp_path / "ckpt.json"
        T.save_params(params, path)
        loaded = T.load_params(path)
        assert set(loaded) == {"w", "b"}
        for k in params:
            assert np.array_equal(loaded[k].values, params[k].values)
            assert loaded[k].requires_grad

    def test_tampering_detected(self, tmp_path):
        import json
        params = {"w": _leaf((2, 2))}
        path = tmp_path / "ckpt.json"
        T.save_params(params, path)
        doc = json.loads(path.read_text())
        doc["params"][0]["values"][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            T.load_params(path)

    def test_version_checked(self, tmp_path):
        import json
        params = {"w": _leaf((2,))}
        path = tmp_path / "ckpt.json"
        T.save_params(params, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            T.load_params(path)
