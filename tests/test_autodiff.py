import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from pcrobust import autodiff as ad
from pcrobust.autodiff import NonFiniteError, Tensor, backward, finite_diff_check
from pcrobust.data import SyntheticDatasetSpec, gen_dataset
from pcrobust.losses import LossConfig
from pcrobust.sampling import SampleSpec
from pcrobust.train import TrainConfig, train


def _away_from_zero(arr, margin=0.05):
    return np.sign(arr) * (np.abs(arr) + margin)


class TestForwardExamples:
    def test_softmax_uniform_row(self):
        y = ad.softmax_rows(Tensor(np.zeros((2, 5))))
        assert np.allclose(y.data, 0.2)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((6, 9)) * 10)
        y = ad.softmax_rows(x)
        assert np.abs(y.data.sum(axis=1) - 1.0).max() <= 1e-12

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 7))
        a = ad.softmax_rows(Tensor(x))
        b = ad.softmax_rows(Tensor(x + 123.456))
        assert np.abs(a.data - b.data).max() <= 1e-12

    def test_matmul_identity(self):
        a = np.random.default_rng(2).standard_normal((2, 2))
        out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_max_axis_routes_to_first_argmax(self):
        x = Tensor(np.array([[1.0, 3.0], [3.0, 0.0]]), requires_grad=True)
        y = ad.tsum(ad.max_axis(x, axis=0))
        grads = backward(y)
        # column 0: rows tie at ... no tie here; column max picks row 1 and row 0
        assert np.array_equal(grads[x], [[0.0, 1.0], [1.0, 0.0]])

    def test_max_axis_tie_breaks_first(self):
        # a 3-D group pool: ties within a group route to the first row
        x = Tensor(np.array([[[2.0, 1.0], [2.0, 3.0]], [[0.0, 4.0], [0.0, 4.0]]]),
                   requires_grad=True)
        y = ad.max_axis(x, axis=1)
        assert np.array_equal(y.data, [[2.0, 3.0], [0.0, 4.0]])
        grads = backward(ad.tsum(y))
        assert np.array_equal(grads[x], [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]]])

    def test_max_axis_pools_groups(self):
        x = Tensor(np.array([[[1.0, 5.0], [2.0, 4.0]], [[9.0, 0.0], [8.0, 1.0]]]))
        y = ad.max_axis(x, axis=1)
        assert np.array_equal(y.data, [[2.0, 5.0], [9.0, 1.0]])

    def test_tsum_axes(self):
        data = np.arange(12.0).reshape(3, 4)
        for axis in (None, 0, 1):
            assert np.array_equal(ad.tsum(Tensor(data), axis).data, data.sum(axis=axis))


class TestBackwardBasics:
    def test_sum_gradient_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        grads = backward(ad.tsum(x))
        assert np.array_equal(grads[x], np.ones((3, 4)))

    def test_half_square_gradient_is_x(self):
        data = np.random.default_rng(1).standard_normal((4, 2))
        x = Tensor(data, requires_grad=True)
        loss = ad.mul_scalar(ad.tsum(ad.mul(x, x)), 0.5)
        grads = backward(loss)
        assert np.abs(grads[x] - data).max() <= 1e-15

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = ad.tsum(ad.add(x, x))
        grads = backward(loss)
        assert np.array_equal(grads[x], 2 * np.ones((2, 2)))

    def test_second_backward_raises(self):
        # backward consumes the graph; building it again gives the same gradients
        x = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)

        def loss():
            return ad.tsum(ad.relu(ad.mul_scalar(x, 2.0)))

        graph = loss()
        assert np.array_equal(backward(graph)[x], [2.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="consumed by an earlier backward"):
            backward(graph)
        assert np.array_equal(backward(loss())[x], [2.0, 0.0, 2.0])

    def test_fresh_graphs_of_one_weight_get_equal_gradients(self):
        # backward is a function of its graph: no gradient carries over
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        first = backward(ad.tsum(ad.mul(x, x)))[x]
        second = backward(ad.tsum(ad.mul(x, x)))[x]
        assert np.array_equal(first, [2.0, -4.0, 6.0])
        assert np.array_equal(second, first)

    def test_shared_pullback_output_is_not_mutated(self):
        # add hands one array to both parents; a's second contribution (from
        # mul) must not leak into b's gradient through that shared array
        rng = np.random.default_rng(8)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 2)))
        grads = backward(ad.tsum(ad.add(ad.add(a, b), ad.mul(a, c))))
        assert np.array_equal(grads[b], np.ones((3, 2)))
        assert np.array_equal(grads[a], 1.0 + c.data)

    def test_graph_is_freed_without_the_cycle_collector(self):
        # a pullback that captured its own output would keep every
        # intermediate array alive until the cycle collector ran
        gc.disable()
        try:
            x = Tensor(np.ones((3, 3)), requires_grad=True)
            y = oracles.exp(ad.relu(ad.mul_scalar(x, 2.0)))
            probe = weakref.ref(y.data)
            backward(ad.tsum(y))
            del y
            assert probe() is None
        finally:
            gc.enable()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            backward(ad.add(x, x))

    def test_gradient_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            loss = ad.mean(ad.relu(ad.matmul(x, w)))
            grads = backward(loss)
            return grads[x].tobytes(), grads[w].tobytes()

        assert run() == run()


class TestNonFinite:
    def test_constructor_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_exp_overflow(self):
        with pytest.raises(NonFiniteError):
            oracles.exp(Tensor([[1000.0]]))


class TestBatchAxes:
    """A leading batch axis gives each batch what the op gives it alone."""

    def test_batched_ops_match_per_matrix(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 5, 4))
        b = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((4, 2))
        bias = rng.standard_normal(2)
        ops = [
            (lambda x: ad.matmul(x, Tensor(b)), lambda i, x: ad.matmul(x, Tensor(b[i]))),
            (lambda x: ad.matmul(x, Tensor(w)), lambda i, x: ad.matmul(x, Tensor(w))),
            (lambda x: ad.linear(x, Tensor(w), Tensor(bias)),
             lambda i, x: ad.linear(x, Tensor(w), Tensor(bias))),
            (ad.transpose, lambda i, x: ad.transpose(x)),
            (ad.softmax_rows, lambda i, x: ad.softmax_rows(x)),
            (ad.log_softmax_rows, lambda i, x: ad.log_softmax_rows(x)),
        ]
        for batched, single in ops:
            x = Tensor(a, requires_grad=True)
            out = batched(x)
            grads = backward(ad.tsum(ad.mul(out, Tensor(np.cos(out.data)))))
            for i in range(3):
                xi = Tensor(a[i], requires_grad=True)
                oi = single(i, xi)
                assert np.allclose(out.data[i], oi.data, rtol=0, atol=1e-13)
                gi = backward(ad.tsum(ad.mul(oi, Tensor(np.cos(oi.data)))))
                assert np.allclose(grads[x][i], gi[xi], rtol=0, atol=1e-13)

    def test_vector_through_linear(self):
        rng = np.random.default_rng(10)
        x, w, b = rng.standard_normal(4), rng.standard_normal((4, 3)), rng.standard_normal(3)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.data.shape == (3,)
        assert np.allclose(out.data, x @ w + b, rtol=0, atol=1e-14)

    def test_matmul_rank_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 3))))


class TestShapeChecks:
    def test_add_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    def test_bias_mismatch(self):
        with pytest.raises(ValueError):
            ad.linear(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones(3)))


def _seeded(seed):
    return np.random.default_rng(seed)


def op_cases(seed):
    """(name, f, x) triples covering every differentiable core op and the
    unfused reference ops in ``oracles``.

    A name is the op's name, prefixed ``oracles.`` for a reference op, with
    the variant in brackets when an op has several cases. Constants are
    hoisted so each f is a fixed function of its probe input.
    """
    rng = _seeded(seed)
    c34 = Tensor(rng.standard_normal((3, 4)))
    c43 = Tensor(rng.standard_normal((4, 3)))
    c4 = Tensor(rng.standard_normal(4))
    c3 = Tensor(rng.standard_normal(3))
    c64 = Tensor(rng.standard_normal((6, 4)))
    c38 = Tensor(rng.standard_normal((3, 8)))
    c26 = Tensor(rng.standard_normal((2, 6)))
    x34 = rng.standard_normal((3, 4))
    # batched: leading axis 2
    c234 = Tensor(rng.standard_normal((2, 3, 4)))
    c243 = Tensor(rng.standard_normal((2, 4, 3)))
    c233 = Tensor(rng.standard_normal((2, 3, 3)))
    c238 = Tensor(rng.standard_normal((2, 3, 8)))
    x234 = rng.standard_normal((2, 3, 4))
    cases = [
        ("add", lambda t: ad.mean(ad.add(t, c34)), x34),
        ("linear[b]", lambda t: ad.mean(ad.linear(c26, c64, t)), rng.standard_normal(4)),
        ("mul", lambda t: ad.mean(ad.mul(t, c34)), x34),
        ("mul_scalar", lambda t: ad.mean(ad.mul_scalar(t, -1.7)), x34),
        ("matmul[left]", lambda t: ad.mean(ad.matmul(t, c43)), x34),
        ("matmul[right]", lambda t: ad.mean(ad.matmul(c34, t)), rng.standard_normal((4, 3))),
        ("transpose", lambda t: ad.mean(ad.mul(ad.transpose(t), c43)), x34),
        ("oracles.concat[1]",
         lambda t: ad.mean(ad.mul(oracles.concat([c34, t]), c38)), x34),
        ("relu", lambda t: ad.mean(ad.relu(t)), _away_from_zero(x34)),
        ("oracles.exp", lambda t: ad.mean(oracles.exp(t)), x34),
        ("mean", lambda t: ad.mean(t), x34),
        ("tsum", lambda t: ad.mul_scalar(ad.tsum(t), 0.25), x34),
        ("tsum[0]", lambda t: ad.mean(ad.mul(ad.tsum(t, 0), c4)), x34),
        ("tsum[1]", lambda t: ad.mean(ad.mul(ad.tsum(t, 1), c3)), x34),
        ("softmax_rows", lambda t: ad.mean(ad.mul(ad.softmax_rows(t), c34)), x34),
        ("log_softmax_rows", lambda t: ad.mean(ad.mul(ad.log_softmax_rows(t, 1.3), c34)), x34),
        ("linear[x]", lambda t: ad.mean(ad.linear(t, c43, c3)), x34),
        ("linear[w]", lambda t: ad.mean(ad.linear(c34, t, c3)), rng.standard_normal((4, 3))),
        ("max_axis[0]", lambda t: ad.mean(ad.max_axis(t, 0)), x34),
        ("max_axis[1]", lambda t: ad.mean(ad.max_axis(t, 1)), x34),
        ("max_axis[1, 3-D]", lambda t: ad.mean(ad.max_axis(t, 1)), rng.standard_normal((2, 3, 4))),
        ("matmul[rows, 3-D]", lambda t: ad.mean(ad.mul(ad.matmul(t, c43), c233)), x234),
        ("matmul[left, 3-D]", lambda t: ad.mean(ad.mul(ad.matmul(t, c243), c233)), x234),
        ("matmul[right, 3-D]", lambda t: ad.mean(ad.mul(ad.matmul(c234, t), c233)),
         rng.standard_normal((2, 4, 3))),
        ("transpose[3-D]", lambda t: ad.mean(ad.mul(ad.transpose(t), c243)), x234),
        ("oracles.concat[3-D]",
         lambda t: ad.mean(ad.mul(oracles.concat([c234, t]), c238)), x234),
        ("softmax_rows[3-D]", lambda t: ad.mean(ad.mul(ad.softmax_rows(t), c234)), x234),
        ("log_softmax_rows[3-D]",
         lambda t: ad.mean(ad.mul(ad.log_softmax_rows(t, 1.3), c234)), x234),
        ("linear[x, 3-D]", lambda t: ad.mean(ad.mul(ad.linear(t, c43, c3), c233)), x234),
        ("linear[w, 3-D]", lambda t: ad.mean(ad.mul(ad.linear(c234, t, c3), c233)),
         rng.standard_normal((4, 3))),
        ("linear[b, 3-D]", lambda t: ad.mean(ad.mul(ad.linear(c234, c43, t), c233)),
         rng.standard_normal(3)),
    ]
    # mlp_max over (2, 3, 4) groups, hidden width 5, 3 outputs; drawn after
    # the cases above so that their inputs stay the same
    xg = rng.standard_normal((2, 3, 4))
    w1, b1, w2, b2 = (rng.standard_normal(s) for s in ((4, 5), (5,), (5, 3), (3,)))
    cw1, cb1, cw2, cb2 = Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2)
    c23, c3_ = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal(3))
    cases += [
        ("mlp_max[w1]", lambda t: ad.mean(ad.mul(ad.mlp_max(xg, t, cb1, cw2, cb2), c23)), w1),
        ("mlp_max[b1]", lambda t: ad.mean(ad.mul(ad.mlp_max(xg, cw1, t, cw2, cb2), c23)), b1),
        ("mlp_max[w2]", lambda t: ad.mean(ad.mul(ad.mlp_max(xg, cw1, cb1, t, cb2), c23)), w2),
        ("mlp_max[b2]", lambda t: ad.mean(ad.mul(ad.mlp_max(xg, cw1, cb1, cw2, t), c23)), b2),
        ("mlp_max[w1, 2-D]",
         lambda t: ad.mean(ad.mul(ad.mlp_max(xg[0], t, cb1, cw2, cb2), c3_)), w1),
        ("entropy_rows", lambda t: ad.mean(ad.mul(ad.entropy_rows(t), c3)), x34),
        ("entropy_rows[1.3]", lambda t: ad.mean(ad.mul(ad.entropy_rows(t, 1.3), c3)), x34),
        ("entropy_rows[3-D]", lambda t: ad.mean(ad.mul(ad.entropy_rows(t, 1.3), c23)), x234),
    ]
    # concat_matmul of a (.., 4) and a (.., 2) part by a (6, 3) weight,
    # drawn last for the same reason
    c32, c232 = Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal((2, 3, 2)))
    c63, c33 = Tensor(rng.standard_normal((6, 3))), Tensor(rng.standard_normal((3, 3)))
    cases += [
        ("concat_matmul[first]",
         lambda t: ad.mean(ad.mul(ad.concat_matmul([t, c32], c63), c33)), x34),
        ("concat_matmul[w]",
         lambda t: ad.mean(ad.mul(ad.concat_matmul([c34, c32], t), c33)),
         rng.standard_normal((6, 3))),
        ("concat_matmul[first, 3-D]",
         lambda t: ad.mean(ad.mul(ad.concat_matmul([t, c232], c63), c233)), x234),
        ("concat_matmul[second, 3-D]",
         lambda t: ad.mean(ad.mul(ad.concat_matmul([c234, t], c63), c233)),
         rng.standard_normal((2, 3, 2))),
        ("concat_matmul[w, 3-D]",
         lambda t: ad.mean(ad.mul(ad.concat_matmul([c234, c232], t), c233)),
         rng.standard_normal((6, 3))),
    ]
    return cases


def _public_ops():
    """Graph ops of the autodiff module, found as the benchmark tracer finds them."""
    return {
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in ("backward", "finite_diff_check")
    }


def test_every_op_has_a_case():
    covered = {name.split("[")[0] for name, _, _ in op_cases(0)
               if not name.startswith("oracles.")}
    assert _public_ops() - covered == set()
    assert covered - _public_ops() == set()


def test_every_op_runs_in_training(monkeypatch):
    # an op the package no longer calls, such as a fused op's unfused
    # leftover, belongs in the test oracles
    ops, ran = _public_ops(), set()
    for name in ops:
        def recording(*args, _name=name, _op=getattr(ad, name), **kwargs):
            ran.add(_name)
            return _op(*args, **kwargs)

        monkeypatch.setattr(ad, name, recording)
    data = gen_dataset(SyntheticDatasetSpec(classes=("sphere", "plane"), per_class=3,
                                            points=48))
    train(data, TrainConfig(sampler=SampleSpec(m=8, k=3), loss=LossConfig(sem_weight=0.1),
                            d_model=8, d_attn=4, group_k=4, n_layers=2, epochs=1,
                            batch_size=4))
    assert sorted(ops - ran) == []


def test_constant_parents_get_no_grad():
    for name, f, x in op_cases(0):
        constants = [
            v for v in inspect.getclosurevars(f).nonlocals.values() if isinstance(v, Tensor)
        ]
        grads = backward(f(Tensor(x, requires_grad=True)))
        assert not any(c in grads for c in constants), name


@pytest.mark.parametrize("tau", [1.0, 1.3])
def test_entropy_rows_is_bitwise_the_five_op_chain(tau):
    rng = _seeded(9)
    x, probe = 3.0 * rng.standard_normal((4, 16, 16)), Tensor(rng.standard_normal((4, 16)))

    def chain(t):
        log_q = ad.log_softmax_rows(t, tau)
        return ad.mul_scalar(ad.tsum(ad.mul(oracles.exp(log_q), log_q), axis=-1), -1.0)

    got = []
    for entropy in (lambda t: ad.entropy_rows(t, tau), chain):
        t = Tensor(x, requires_grad=True)
        h = entropy(t)
        got.append((h.data.tobytes(), backward(ad.tsum(ad.mul(h, probe)))[t].tobytes()))
    assert got[0] == got[1]


def _stage_outputs(batch, rng):
    """Four (batch, 64, 64) parts, as the README dims' attention stages give,
    or (64, 64) ones for batch None, and the (256, 64) projection."""
    shape = (64, 64) if batch is None else (batch, 64, 64)
    parts = [rng.standard_normal(shape) for _ in range(4)]
    return parts, rng.standard_normal((256, 64)) / 16.0


class TestConcatMatmul:
    @pytest.mark.parametrize("batch", [None, 5, 16], ids=["unbatched", "5", "16"])
    def test_is_bitwise_matmul_of_concat(self, batch):
        rng = _seeded(batch or 0)
        parts, w = _stage_outputs(batch, rng)
        probe = Tensor(rng.standard_normal(parts[0].shape))
        got = []
        for project in (ad.concat_matmul, lambda ts, t: ad.matmul(oracles.concat(ts), t)):
            ts = [Tensor(p, requires_grad=True) for p in parts]
            tw = Tensor(w, requires_grad=True)
            out = project(ts, tw)
            grads = backward(ad.tsum(ad.mul(out, probe)))
            got.append([out.data.tobytes()] + [grads[t].tobytes() for t in ts + [tw]])
        assert got[0] == got[1]

    def test_graph_keeps_the_parts_not_their_joined_copy(self):
        parts, w = _stage_outputs(16, _seeded(3))
        ts = [Tensor(p, requires_grad=True) for p in parts]
        tw = Tensor(w, requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.concat_matmul(ts, tw)
            retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert retained < parts[0].nbytes
        kept = inspect.getclosurevars(out._node.pullback).nonlocals.values()
        for array in (a for v in kept for a in (v if isinstance(v, list) else [v])):
            assert any(array is p for p in parts + [w]) or array.nbytes < parts[0].nbytes

        grads = out._node.pullback(np.ones_like(out.data))
        for g, p in zip(grads, parts):
            owner = g if g.base is None else g.base
            assert g.shape == p.shape and owner.shape[-1] == p.shape[-1]
        assert grads[-1].shape == w.shape

    def test_needs_a_2d_weight(self):
        with pytest.raises(ValueError, match="2-D weight"):
            ad.concat_matmul([Tensor(np.ones((2, 3, 4)))], Tensor(np.ones((2, 4, 3))))


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_core_op(self, seed):
        for name, f, x in op_cases(seed):
            err = finite_diff_check(f, Tensor(x, requires_grad=True))
            assert err <= 1e-4, f"{name} (seed {seed}): {err}"

    def test_linear_function_near_exact(self):
        rng = _seeded(0)
        c = Tensor(rng.standard_normal((4, 4)))
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        err = finite_diff_check(lambda t: ad.tsum(ad.mul(t, c)), x)
        assert err <= 1e-9

    def test_relu_away_from_kink(self):
        rng = _seeded(3)
        x = Tensor(_away_from_zero(rng.standard_normal((5, 5)), 0.2), requires_grad=True)
        err = finite_diff_check(lambda t: ad.mean(ad.relu(t)), x)
        assert err <= 1e-6

    def test_softmax_row_entropy_composite(self):
        rng = _seeded(4)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)

        def entropy(t):
            log_q = ad.log_softmax_rows(t, 1.0)
            q = oracles.exp(log_q)
            return ad.mul_scalar(ad.mean(ad.tsum(ad.mul(q, log_q), 1)), -1.0)

        assert finite_diff_check(entropy, x) <= 1e-4

    def test_after_an_earlier_backward(self):
        rng = _seeded(6)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)

        def f(t):
            return ad.tsum(ad.mul(ad.softmax_rows(t), ad.softmax_rows(t)))

        backward(f(x))
        assert finite_diff_check(f, x) <= 1e-4

    def test_three_layer_mlp(self):
        rng = _seeded(5)
        w1 = Tensor(rng.standard_normal((4, 8)) * 0.5)
        b1 = Tensor(rng.standard_normal(8) * 0.1)
        w2 = Tensor(rng.standard_normal((8, 8)) * 0.5)
        b2 = Tensor(rng.standard_normal(8) * 0.1)
        w3 = Tensor(rng.standard_normal((8, 1)) * 0.5)
        b3 = Tensor(rng.standard_normal(1) * 0.1)

        def net(t):
            h = ad.relu(ad.linear(t, w1, b1))
            h = ad.relu(ad.linear(h, w2, b2))
            return ad.mean(ad.linear(h, w3, b3))

        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        assert finite_diff_check(net, x) <= 1e-4
