"""Graph topology, message passing, and cross-modality symmetry."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from graphfusion import ops, reference
from graphfusion.config import FusionConfig
from graphfusion.graph import (
    build_topology,
    difference_edges,
    node_grids,
    pass_message,
    run_graph,
)
from graphfusion.network import init_params
from graphfusion.tensor import ShapeError, Tensor

from conftest import oracle_conv


def graph_config(**overrides) -> FusionConfig:
    base = dict(channels=4, nodes=3, loops=3, reduction=4)
    base.update(overrides)
    return dataclasses.replace(FusionConfig(), **base)


class TestTopology:
    @pytest.mark.parametrize("nodes,expected", [(1, 2), (2, 8), (3, 18), (5, 50)])
    def test_directed_edge_count(self, nodes, expected):
        assert build_topology(nodes).directed_edge_count == expected

    def test_three_node_breakdown(self):
        topo = build_topology(3)
        # This order is also the order in which a node sums its messages:
        # intra by scale, then inter.
        assert topo.intra_pairs == ((0, 1), (0, 2), (1, 2))
        assert topo.inter_scales == (0, 1, 2)
        edges = topo.directed_edges()
        assert len(edges) == 18
        assert len(set(edges)) == 18
        intra = [e for e in edges if e[0][0] == e[1][0]]
        inter = [e for e in edges if e[0][0] != e[1][0]]
        assert len(intra) == 12
        assert len(inter) == 6

    def test_every_directed_edge_has_reverse(self):
        topo = build_topology(4)
        edges = set(topo.directed_edges())
        assert all((dst, src) in edges for src, dst in edges)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            build_topology(0)

    def test_node_grids_double_until_capped(self):
        assert node_grids(3, 64, 64) == [1, 2, 4]
        assert node_grids(5, 64, 64) == [1, 2, 4, 8, 16]
        assert node_grids(3, 3, 8) == [1, 2, 3]
        assert node_grids(2, 1, 1) == [1, 1]


class TestEdgesAndMessages:
    def test_reversed_edge_negates_prebias_response(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        zero_bias = Tensor.zeros((2,))
        fwd, rev = difference_edges(a, b, w, zero_bias)
        np.testing.assert_array_equal(rev.data, -fwd.data)

    def test_bias_breaks_antisymmetry(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        bias = Tensor(np.array([0.5, -0.25], dtype=np.float32))
        fwd, rev = difference_edges(a, b, w, bias)
        expected = np.broadcast_to(2.0 * bias.data.reshape(1, 2, 1, 1), fwd.shape)
        np.testing.assert_allclose(fwd.data + rev.data, expected, atol=1e-5)

    def test_pair_runs_one_conv(self, rng, monkeypatch):
        calls = []
        conv2d = ops.conv2d

        def counting_conv2d(*args, **kwargs):
            calls.append(args[0].shape)
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(ops, "conv2d", counting_conv2d)
        a = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        bias = Tensor(np.array([0.5, -0.25], dtype=np.float32))
        fwd, rev = difference_edges(a, b, w, bias)
        assert calls == [(1, 2, 4, 4)]
        np.testing.assert_allclose(fwd.data, oracle_conv(a.data - b.data, w.data, bias.data, padding=1), atol=1e-5)
        np.testing.assert_allclose(rev.data, oracle_conv(b.data - a.data, w.data, bias.data, padding=1), atol=1e-5)

    def test_message_is_sigmoid_gated_source(self, rng):
        edge = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32))
        source = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32))
        msg = pass_message(edge, source)
        gate = 1.0 / (1.0 + np.exp(-edge.data.astype(np.float64)))
        np.testing.assert_allclose(msg.data, gate * source.data, rtol=1e-5, atol=1e-6)
        assert np.all(np.abs(msg.data) <= np.abs(source.data) + 1e-7)


def _tie_modalities(params, config: FusionConfig) -> None:
    """Copy every infrared-side graph parameter onto the visible side."""
    for name in params.names():
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
        result = run_graph(f_ir, f_vis, params, config)
        assert result.g_ir.shape == (1, 4, 6, 6)
        assert result.g_vis.shape == (1, 4, 6, 6)

    def test_modality_swap_is_bit_exact_under_tied_weights(self, rng):
        config = graph_config()
        params = init_params(config, seed=3)
        _tie_modalities(params, config)
        f_a = self._features(rng, config)
        f_b = self._features(rng, config)
        straight = run_graph(f_a, f_b, params, config)
        swapped = run_graph(f_b, f_a, params, config)
        np.testing.assert_array_equal(straight.g_ir.data, swapped.g_vis.data)
        np.testing.assert_array_equal(straight.g_vis.data, swapped.g_ir.data)

    def test_matches_float64_reference(self, rng):
        config = graph_config()
        params = init_params(config, seed=1)
        f_ir = self._features(rng, config)
        f_vis = self._features(rng, config)
        got = run_graph(f_ir, f_vis, params, config)
        arrays = {name: t.data.astype(np.float64) for name, t in params.items()}
        want = reference._run_graph(
            [t.data.astype(np.float64) for t in f_ir],
            [t.data.astype(np.float64) for t in f_vis],
            arrays,
            config,
        )
        np.testing.assert_allclose(got.g_ir.data, want["ir"], rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(got.g_vis.data, want["vis"], rtol=1e-4, atol=1e-5)

    def test_loops_beyond_features_reuse_deepest(self, rng):
        config = graph_config(loops=3)
        params = init_params(config, seed=2)
        f_ir = self._features(rng, config)[:1]
        f_vis = self._features(rng, config)[:1]
        short = run_graph(f_ir, f_vis, params, config)
        long = run_graph(f_ir * 3, f_vis * 3, params, config)
        np.testing.assert_array_equal(short.g_ir.data, long.g_ir.data)

    def test_rejects_mismatched_feature_lists(self, rng):
        config = graph_config()
        params = init_params(config, seed=0)
        f = self._features(rng, config)
        with pytest.raises(ShapeError):
            run_graph(f, f[:2], params, config)

    def test_share_loop_params_uses_single_bank(self, rng):
        shared = graph_config(share_loop_params=True)
        params = init_params(shared, seed=0)
        assert "graph.loop1.inter.weight" in params
        assert "graph.loop2.inter.weight" not in params
        f_ir = self._features(rng, shared)
        f_vis = self._features(rng, shared)
        result = run_graph(f_ir, f_vis, params, shared)
        assert result.g_ir.shape == (1, 4, 6, 6)


class TestSingleNodeLoopByHand:
    def test_matches_numpy_trace(self, rng):
        # One node, one loop, tiny tensors: every stage recomputed with the
        # loop oracles from conftest and plain numpy.
        config = graph_config(nodes=1, loops=1, channels=2, reduction=2)
        params = init_params(config, seed=4)
        h = w = 3
        f_ir = Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        f_vis = Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        result = run_graph([f_ir], [f_vis], params, config)

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
            got = result.g_ir.data if m == "ir" else result.g_vis.data
            np.testing.assert_allclose(got, mixed, rtol=1e-4, atol=1e-6)


def test_untaped_run_graph_keeps_few_maps_alive(rng):
    # Outside a tape only the current loop's nodes, their running message
    # sums and the next loop's injections need to live; a graph that held
    # every edge and message of a loop would keep over a hundred maps.
    config = graph_config()
    params = init_params(config, seed=0)
    shape = (1, config.channels, 96, 128)
    f_ir, f_vis = ([Tensor(rng.standard_normal(shape).astype(np.float32)) for _ in range(3)] for _ in range(2))
    run_graph(f_ir, f_vis, params, config)
    tracemalloc.start()
    try:
        run_graph(f_ir, f_vis, params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 4 * np.prod(shape)
