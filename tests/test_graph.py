"""Graph topology, message passing, and cross-modality symmetry."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from graphfusion import graph, ops, reference
from graphfusion.config import FusionConfig
from graphfusion.graph import (
    difference_edges,
    edge_pairs,
    node_grids,
    node_pools,
    pass_message,
    run_graph,
)
from graphfusion.network import init_params
from graphfusion.tensor import ShapeError, Tape, Tensor

from conftest import oracle_conv


def graph_config(**overrides) -> FusionConfig:
    base = dict(channels=4, nodes=3, loops=3, reduction=4)
    base.update(overrides)
    return dataclasses.replace(FusionConfig(), **base)


def run_on_stages(f_ir, f_vis, params, config):
    """``run_graph`` on full-resolution stages, each pooled as ``network.forward`` pools it."""
    pools_ir, pools_vis = ([node_pools(f, config.nodes) for f in fs] for fs in (f_ir, f_vis))
    return run_graph(pools_ir, pools_vis, f_ir[0].shape[2:], params, config)


def directed_edges(nodes):
    """Both directions of every pair, each pair's forward edge first."""
    return [edge for a, b, _ in edge_pairs(nodes) for edge in ((a, b), (b, a))]


class TestTopology:
    @pytest.mark.parametrize("nodes,expected", [(1, 2), (2, 8), (3, 18), (5, 50)])
    def test_directed_edge_count(self, nodes, expected):
        assert 2 * len(edge_pairs(nodes)) == expected

    def test_three_node_breakdown(self):
        pairs = edge_pairs(3)
        # This order is also the order in which a node sums its messages:
        # intra by scale, then inter.
        intra_pairs = [(a[1], b[1]) for a, b, group in pairs if group == "intra.ir"]
        assert intra_pairs == [(0, 1), (0, 2), (1, 2)]
        assert [(a[1], b[1]) for a, b, group in pairs if group == "intra.vis"] == intra_pairs
        assert [a[1] for a, b, group in pairs if group == "inter"] == [0, 1, 2]
        edges = directed_edges(3)
        assert len(edges) == 18
        assert len(set(edges)) == 18
        intra = [e for e in edges if e[0][0] == e[1][0]]
        inter = [e for e in edges if e[0][0] != e[1][0]]
        assert len(intra) == 12
        assert len(inter) == 6

    def test_pairs_run_intra_per_modality_then_inter(self):
        assert edge_pairs(2) == [
            (("ir", 0), ("ir", 1), "intra.ir"),
            (("vis", 0), ("vis", 1), "intra.vis"),
            (("ir", 0), ("vis", 0), "inter"),
            (("ir", 1), ("vis", 1), "inter"),
        ]
        assert directed_edges(2)[:2] == [(("ir", 0), ("ir", 1)), (("ir", 1), ("ir", 0))]

    def test_every_directed_edge_has_reverse(self):
        edges = set(directed_edges(4))
        assert all((dst, src) in edges for src, dst in edges)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            edge_pairs(0)

    def test_node_grids_double_until_capped(self):
        assert node_grids(3, 64, 64) == [1, 2, 4]
        assert node_grids(5, 64, 64) == [1, 2, 4, 8, 16]
        assert node_grids(3, 3, 8) == [1, 2, 3]
        assert node_grids(2, 1, 1) == [1, 1]


def unfused_pair(a, b, weight, b4, total_a, total_b):
    """A pair's two messages with the difference and both edges as maps of their own.

    ``b4`` is the edge bias as a (1, C, 1, 1) tensor.  ``gate_add`` with a
    zero bias and sign 1 gates by its ``s`` argument unchanged, so here it
    takes the edge maps.  Returns the new totals of ``b`` and ``a`` and the
    bias-free response ``s``.
    """
    oc = b4.shape[1]
    s = ops.conv2d(ops.sub(a, b), weight, Tensor.zeros((oc,)), padding=1)
    into_b, into_a = ops.add(s, b4), ops.sub(b4, s)
    no_bias = Tensor.zeros((oc,))
    return ops.gate_add(total_b, into_b, no_bias, 1, a), ops.gate_add(total_a, into_a, no_bias, 1, b), s


def fused_pair(a, b, weight, bias, total_a, total_b):
    """The same pair as ``run_graph`` runs it: one conv and two messages."""
    s = difference_edges(a, b, weight)
    return pass_message(total_b, s, bias, 1, a), pass_message(total_a, s, bias, -1, b), s


class TestEdgesAndMessages:
    def test_reversed_edge_negates_prebias_response(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        np.testing.assert_array_equal(difference_edges(b, a, w).data, -difference_edges(a, b, w).data)

    def test_bias_breaks_antisymmetry(self, rng):
        # The two messages gate by sigmoid(s + bias) and sigmoid(bias - s).
        a = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        bias = Tensor(np.array([0.5, -0.25], dtype=np.float32))
        zeros, ones = Tensor.zeros(a.shape), Tensor.full(a.shape, 1.0)
        into_b, into_a, s = fused_pair(ones, ones, w, bias, zeros, zeros)
        np.testing.assert_array_equal(s.data, 0.0)
        gates = np.broadcast_to(1.0 / (1.0 + np.exp(-bias.data.reshape(1, 2, 1, 1))), a.shape)
        np.testing.assert_allclose(into_b.data, gates, rtol=1e-6)
        np.testing.assert_allclose(into_a.data, gates, rtol=1e-6)
        into_b, into_a, s = fused_pair(a, b, w, bias, zeros, ones)
        b64 = bias.data.astype(np.float64).reshape(1, 2, 1, 1)
        np.testing.assert_allclose(into_b.data, 1.0 + a.data / (1.0 + np.exp(-(s.data + b64))), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(into_a.data, b.data / (1.0 + np.exp(-(b64 - s.data))), rtol=1e-5, atol=1e-6)

    def test_pair_runs_one_conv(self, rng, monkeypatch):
        calls = []
        conv2d = ops.conv2d

        def counting_conv2d(*args, **kwargs):
            # A leader's conv reads its nodes as a list of channel parts.
            x = args[0]
            calls.append(x.shape if isinstance(x, Tensor) else [t.shape for t in x])
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(ops, "conv2d", counting_conv2d)
        a = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        s = difference_edges(a, b, w)
        assert calls == [(1, 2, 4, 4)]
        np.testing.assert_allclose(s.data, oracle_conv(a.data - b.data, w.data, np.zeros(2), padding=1), atol=1e-5)

        # In a whole graph every loop runs each pair once, in edge_pairs()
        # order and with that pair's edge weight, at one conv per pair.
        seen = []
        edges = graph.difference_edges

        def recording_edges(a, b, weight):
            before = len(calls)
            out = edges(a, b, weight)
            assert len(calls) == before + 1
            seen.append(weight)
            return out

        monkeypatch.setattr(graph, "difference_edges", recording_edges)
        config = graph_config()
        params = init_params(config, seed=0)
        f_ir, f_vis = ([Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))] * 3 for _ in range(2))
        run_on_stages(f_ir, f_vis, params, config)
        want = [
            params[f"graph.loop{i}.{group}.weight"]
            for i in range(1, config.loops + 1)
            for _, _, group in edge_pairs(config.nodes)
        ]
        assert len(seen) == len(want) == 3 * 9
        assert all(got is w for got, w in zip(seen, want))

    def test_message_is_sigmoid_gated_source(self, rng):
        total, s, source = (Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32)) for _ in range(3))
        bias = Tensor(np.array([0.5, -0.25], dtype=np.float32))
        for sign in (1, -1):
            out = pass_message(total, s, bias, sign, source)
            edge = sign * s.data.astype(np.float64) + bias.data.reshape(1, 2, 1, 1)
            gate = 1.0 / (1.0 + np.exp(-edge))
            np.testing.assert_allclose(out.data, total.data + gate * source.data, rtol=1e-5, atol=1e-6)
            assert np.all(np.abs(out.data.astype(np.float64) - total.data) <= np.abs(source.data) + 1e-6)

    @pytest.mark.parametrize("channels", [16, 4])
    def test_fused_pair_equals_unfused_composition(self, rng, channels, monkeypatch):
        # Both sides of conv2d's channel threshold, batch 2.  The new totals,
        # s's gradient and every map's gradient are bit-identical; only the
        # edge bias's gradient, summed per chunk, may differ in rounding.
        # ``s`` is an intermediate, so backward drops its gradient once its
        # record has replayed: the gradient compared is the one handed to
        # that record, captured by wrapping ``Tape.record``.  The unfused
        # pair's bias is a (1, C, 1, 1) leaf, so its gradient is compared
        # as (C,).
        shape = (2, channels, 12, 10)
        arrays = [rng.standard_normal(shape).astype(np.float32) for _ in range(4)]
        w = (0.3 * rng.standard_normal((channels, channels, 3, 3))).astype(np.float32)
        bias = rng.uniform(-1.0, 1.0, size=channels).astype(np.float32)
        coeffs = [rng.uniform(-1.0, 1.0, size=shape).astype(np.float32) for _ in range(2)]
        handed = {}
        record = Tape.record

        def capturing_record(tape, output, inputs, backward):
            def capture(g):
                handed[output] = g.copy()
                backward(g)

            record(tape, output, inputs, capture)

        monkeypatch.setattr(Tape, "record", capturing_record)

        def run(pair, bias_shape):
            handed.clear()
            ts = [Tensor(x, requires_grad=True) for x in arrays + [w, bias.reshape(bias_shape)]]
            with Tape() as tape:
                into_b, into_a, s = pair(*ts[:2], *ts[4:], *ts[2:4])
                loss = ops.add(
                    ops.reduce_sum(ops.mul(into_b, Tensor(coeffs[0]))),
                    ops.reduce_sum(ops.mul(into_a, Tensor(coeffs[1]))),
                )
                tape.backward(loss)
            result = [into_b.data, into_a.data, handed[s]] + [t.grad for t in ts[:-1]] + [ts[-1].grad.reshape(-1)]
            tape.clear()
            return result

        got, want = run(fused_pair, (channels,)), run(unfused_pair, (1, channels, 1, 1))
        names = ("into b", "into a", "s.grad", "a", "b", "total a", "total b", "weight", "bias")
        for name, g, x in zip(names, got, want):
            if name == "bias":
                np.testing.assert_allclose(g, x, rtol=0, atol=1e-6 * np.abs(x).max(), err_msg=name)
            else:
                np.testing.assert_array_equal(g, x, err_msg=name)


def _tie_modalities(params, config: FusionConfig) -> None:
    """Copy every infrared-side graph parameter onto the visible side."""
    for name in params:
        if ".ir." in name or name.endswith(".ir.weight") or name.endswith(".ir.bias"):
            twin = name.replace(".ir.", ".vis.")
            if twin in params:
                params[twin].data[:] = params[name].data


class TestRunGraph:
    def _features(self, rng, config, h=6, w=6, n=1):
        return [
            Tensor(rng.standard_normal((n, config.channels, h, w)).astype(np.float32))
            for _ in range(3)
        ]

    def test_output_shapes(self, rng):
        config = graph_config()
        params = init_params(config, seed=0)
        f_ir = self._features(rng, config)
        f_vis = self._features(rng, config)
        g_ir, g_vis = run_on_stages(f_ir, f_vis, params, config)
        assert g_ir.shape == (1, 4, 6, 6)
        assert g_vis.shape == (1, 4, 6, 6)

    def test_modality_swap_is_bit_exact_under_tied_weights(self, rng):
        config = graph_config()
        params = init_params(config, seed=3)
        _tie_modalities(params, config)
        f_a = self._features(rng, config)
        f_b = self._features(rng, config)
        straight_ir, straight_vis = run_on_stages(f_a, f_b, params, config)
        swapped_ir, swapped_vis = run_on_stages(f_b, f_a, params, config)
        np.testing.assert_array_equal(straight_ir.data, swapped_vis.data)
        np.testing.assert_array_equal(straight_vis.data, swapped_ir.data)

    @pytest.mark.parametrize("loops", [3, 5])
    def test_matches_float64_reference(self, rng, loops):
        # At 5 loops, loops 3 to 5 read the deepest stage's pools, and the
        # mix sums five per-loop terms where the reference makes one conv
        # over the five leaders concatenated.
        config = graph_config(loops=loops)
        params = init_params(config, seed=1)
        f_ir = self._features(rng, config)
        f_vis = self._features(rng, config)
        got_ir, got_vis = run_on_stages(f_ir, f_vis, params, config)
        arrays = {name: t.data.astype(np.float64) for name, t in params.items()}
        want = reference._run_graph(
            [t.data.astype(np.float64) for t in f_ir],
            [t.data.astype(np.float64) for t in f_vis],
            arrays,
            config,
        )
        np.testing.assert_allclose(got_ir.data, want["ir"], rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(got_vis.data, want["vis"], rtol=1e-4, atol=1e-5)

    def test_loops_beyond_features_reuse_deepest(self, rng):
        config = graph_config(loops=3)
        params = init_params(config, seed=2)
        f_ir = self._features(rng, config)[:1]
        f_vis = self._features(rng, config)[:1]
        short_ir, _ = run_on_stages(f_ir, f_vis, params, config)
        long_ir, _ = run_on_stages(f_ir * 3, f_vis * 3, params, config)
        np.testing.assert_array_equal(short_ir.data, long_ir.data)

    def test_rejects_mismatched_feature_lists(self, rng, monkeypatch):
        config = graph_config()
        params = init_params(config, seed=0)
        f = self._features(rng, config)

        def no_loop(*args, **kwargs):
            raise AssertionError("a loop ran before the stage count was checked")

        monkeypatch.setattr(graph, "generate_nodes", no_loop)
        with pytest.raises(ShapeError, match="equally many stages"):
            run_on_stages(f, f[:2], params, config)
        pools = [node_pools(t, config.nodes) for t in f]
        with pytest.raises(ShapeError, match="3 node pools per stage"):
            run_graph(pools, [p[:2] for p in pools], (6, 6), params, config)

    def test_features_beyond_loops_are_unread(self, rng):
        config = graph_config(loops=2)
        params = init_params(config, seed=2)
        f_ir = self._features(rng, config)
        f_vis = self._features(rng, config)
        full_ir, full_vis = run_on_stages(f_ir, f_vis, params, config)
        cut_ir, cut_vis = run_on_stages(tuple(f_ir[:2]), tuple(f_vis[:2]), params, config)
        np.testing.assert_array_equal(full_ir.data, cut_ir.data)
        np.testing.assert_array_equal(full_vis.data, cut_vis.data)

    def test_share_loop_params_uses_single_bank(self, rng):
        shared = graph_config(share_loop_params=True)
        params = init_params(shared, seed=0)
        assert "graph.loop1.inter.weight" in params
        assert "graph.loop2.inter.weight" not in params
        f_ir = self._features(rng, shared)
        f_vis = self._features(rng, shared)
        g_ir, _ = run_on_stages(f_ir, f_vis, params, shared)
        assert g_ir.shape == (1, 4, 6, 6)


class TestSingleNodeLoopByHand:
    def test_matches_numpy_trace(self, rng):
        # One node, one loop, tiny tensors: every stage recomputed with the
        # loop oracles from conftest and plain numpy.
        config = graph_config(nodes=1, loops=1, channels=2, reduction=2)
        params = init_params(config, seed=4)
        h = w = 3
        f_ir = Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        f_vis = Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        result = dict(zip(("ir", "vis"), run_on_stages([f_ir], [f_vis], params, config)))

        def p(name):
            return params[name].data.astype(np.float64)

        def sigm(x):
            return 1.0 / (1.0 + np.exp(-x))

        nodes = {}
        for m, feat in (("ir", f_ir), ("vis", f_vis)):
            pooled = feat.data.astype(np.float64).mean(axis=(2, 3), keepdims=True)
            mixed = oracle_conv(pooled, p(f"graph.loop1.node0.{m}.weight"), p(f"graph.loop1.node0.{m}.bias"))
            nodes[m] = np.broadcast_to(mixed, (1, 2, h, w))

        d = nodes["ir"] - nodes["vis"]
        e_fwd = oracle_conv(d, p("graph.loop1.inter.weight"), p("graph.loop1.inter.bias"), padding=1)
        e_rev = oracle_conv(-d, p("graph.loop1.inter.weight"), p("graph.loop1.inter.bias"), padding=1)
        updated = {}
        for m, other, edge in (("ir", "vis", e_rev), ("vis", "ir", e_fwd)):
            s = nodes[m] + sigm(edge) * nodes[other]
            pre = oracle_conv(s, p(f"graph.loop1.update.{m}.weight"), p(f"graph.loop1.update.{m}.bias"), padding=1)
            updated[m] = np.maximum(pre, 0.0)
        for m in ("ir", "vis"):
            leader = oracle_conv(updated[m], p(f"graph.loop1.leader.{m}.weight"), p(f"graph.loop1.leader.{m}.bias"))
            mixed = oracle_conv(leader, p(f"graph.mix.{m}.weight"), p(f"graph.mix.{m}.bias"))
            np.testing.assert_allclose(result[m].data, mixed, rtol=1e-4, atol=1e-6)


def test_untaped_run_graph_keeps_few_maps_alive(rng):
    # The graph takes each stage's node pools, a few cells each, never a
    # stage.  Outside a tape the peak is a later loop's last messages: the
    # six nodes, their six running sums, the pair's ``s``, a destination's
    # new sum and the two running mixes, 16 maps, plus ``gate_add``'s chunk
    # buffer (0.17 of a map at this size); it reads 16.2.  Loop 1
    # holds two maps fewer, and injections, pair responses, sums and each
    # leader are freed after their last reader.  Taking the stages, holding
    # the leaders for one mix conv at the end and framing whole maps, it
    # read 18.2.  The bound is 4% above.  At the network's width of 16
    # channels every 3x3 conv frames one band at a time.
    config = graph_config(channels=16)
    params = init_params(config, seed=0)
    shape = (1, config.channels, 96, 128)
    pools_ir, pools_vis = (
        [node_pools(Tensor(rng.standard_normal(shape).astype(np.float32)), config.nodes) for _ in range(3)]
        for _ in range(2)
    )
    held_ir, held_vis = list(pools_ir), list(pools_vis)
    run_graph(pools_ir, pools_vis, shape[2:], params, config)
    tracemalloc.start()
    try:
        run_graph(pools_ir, pools_vis, shape[2:], params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16.9 * 4 * np.prod(shape)
    # The caller's lists are read, never modified.
    assert len(pools_ir) == len(held_ir) and all(a is b for a, b in zip(pools_ir, held_ir))
    assert len(pools_vis) == len(held_vis) and all(a is b for a, b in zip(pools_vis, held_vis))
