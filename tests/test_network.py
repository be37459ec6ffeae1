"""Parameter layout, initialization, forward pass, and checkpoint format."""

import dataclasses
import io
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphfusion import ops
from graphfusion.config import FusionConfig
from graphfusion.gradcheck import check_parameter_groups, default_group
from graphfusion.losses import loss_components
from graphfusion.network import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    count_parameters,
    forward,
    fuse_arrays,
    he_normal,
    init_params,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from graphfusion.reference import _SAMPLE_AXES, reference_forward
from graphfusion.tensor import ShapeError, Tape, Tensor

from conftest import replace_config_blob, rewrite_config_blob

ROOT = Path(__file__).resolve().parent.parent


def cfg(**overrides) -> FusionConfig:
    return dataclasses.replace(FusionConfig(), **overrides)


SMALL = dict(channels=8, nodes=2, loops=2, reduction=4)
# The first entry of every config's table.
FIRST = "extract.ir.conv1.weight"


def split_records(blob: bytes) -> tuple[bytes, list[bytes]]:
    """A checkpoint's bytes up to its first record, and each record's bytes."""
    pos = 16 + struct.unpack_from("<I", blob, 8)[0]
    head, records = blob[:pos], []
    while pos < len(blob):
        start = pos
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank + 4 * int(np.prod(dims))
        records.append(blob[start:pos])
    return head, records


def record_header(name: str, rank: int, dims: tuple[int, ...] = ()) -> bytes:
    """A record's name, rank and dims: all of it but the data."""
    return struct.pack(f"<I{len(name)}sI{len(dims)}I", len(name), name.encode(), rank, *dims)


class TestParameterTable:
    def test_counts_frozen_for_reference_widths(self):
        assert len(parameter_shapes(cfg(channels=8))) == 130
        assert count_parameters(cfg(channels=8)) == 22477
        assert count_parameters(cfg(channels=16)) == 88473

    def test_disabling_stages_removes_their_parameters(self):
        names_full = set(parameter_shapes(cfg(channels=8)))
        names_no_sal = set(parameter_shapes(cfg(channels=8, use_salience=False)))
        names_no_graph = set(parameter_shapes(cfg(channels=8, use_graph=False)))
        assert names_no_sal == {n for n in names_full if not n.startswith("salience.")}
        assert names_no_graph == {n for n in names_full if not n.startswith("graph.")}

    def test_share_loop_params_stores_one_loop_bank(self):
        shared = parameter_shapes(cfg(channels=8, share_loop_params=True))
        loops = {n.split(".")[1] for n in shared if n.startswith("graph.loop")}
        assert loops == {"loop1"}
        # Sharing with multiple loops still needs deliver convs for handoff.
        assert "graph.loop1.deliver0.ir.weight" in shared

    def test_single_node_graph_has_no_intra_convs(self):
        shapes = parameter_shapes(cfg(channels=8, nodes=1))
        assert not any(".intra." in n for n in shapes)
        assert "graph.loop1.inter.weight" in shapes

    def test_loop_block_order(self):
        # Init draws in table order, so a regrouped block changes every weight.
        table = list(parameter_shapes(cfg(channels=8, nodes=2, loops=2)))
        convs = ["node0.ir", "node0.vis", "node1.ir", "node1.vis", "intra.ir", "intra.vis", "inter"]
        convs += ["update.ir", "update.vis", "leader.ir", "leader.vis"]
        convs += ["deliver0.ir", "deliver0.vis", "deliver1.ir", "deliver1.vis"]
        want = [f"graph.loop1.{conv}.{kind}" for conv in convs for kind in ("weight", "bias")]
        start = table.index(want[0])
        assert table[start : start + len(want)] == want
        assert table[start + len(want)] == "graph.loop2.node0.ir.weight"

    def test_head_consumes_both_branches(self):
        shapes = parameter_shapes(cfg(channels=8))
        assert shapes["head.conv1.weight"] == (8, 16, 3, 3)
        assert shapes["head.conv2.weight"] == (1, 8, 3, 3)

    def test_every_weight_is_a_conv_kernel(self):
        # One layer kind: the squeeze-excite bottleneck's weights are 1x1 kernels.
        shapes = parameter_shapes(cfg(channels=8, reduction=4))
        assert all(len(s) == 4 for n, s in shapes.items() if n.endswith(".weight"))
        assert shapes["salience.vis.fc1.weight"] == (2, 8, 1, 1)
        assert shapes["salience.vis.fc2.weight"] == (8, 2, 1, 1)


class _ReadRecorder(dict):
    """Parameter dict that records every name the network reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("use_graph", [True, False])
@pytest.mark.parametrize("use_salience", [True, False])
@pytest.mark.parametrize("use_leader", [True, False])
@pytest.mark.parametrize("share_loop_params", [True, False])
@pytest.mark.parametrize("loops", [1, 2, 3, 4])
@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_forward_reads_exactly_the_parameter_table(
    nodes, loops, share_loop_params, use_leader, use_salience, use_graph
):
    config = cfg(
        channels=4,
        nodes=nodes,
        loops=loops,
        share_loop_params=share_loop_params,
        use_leader=use_leader,
        use_salience=use_salience,
        use_graph=use_graph,
    )
    params = _ReadRecorder(init_params(config, seed=0))
    forward(Tensor.zeros((1, 1, 8, 8)), Tensor.zeros((1, 1, 8, 8)), params, config)
    assert params.read == set(parameter_shapes(config))


class TestInitialization:
    def test_same_seed_is_bit_identical(self):
        a = init_params(cfg(**SMALL), seed=7)
        b = init_params(cfg(**SMALL), seed=7)
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_different_seeds_differ(self):
        a = init_params(cfg(**SMALL), seed=0)
        b = init_params(cfg(**SMALL), seed=1)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_biases_start_at_zero(self):
        params = init_params(cfg(**SMALL), seed=0)
        for name, t in params.items():
            if name.endswith(".bias"):
                assert not t.data.any(), name

    def test_he_normal_std_tracks_fan_in(self):
        rng = np.random.default_rng(0)
        w = he_normal(rng, (256, 128, 3, 3))
        assert abs(w.std() / np.sqrt(2.0 / (128 * 9)) - 1.0) < 0.02
        pointwise = he_normal(rng, (512, 200, 1, 1))
        assert abs(pointwise.std() / np.sqrt(2.0 / 200) - 1.0) < 0.02

    @pytest.mark.parametrize("shape", [(3, 3, 3), (512, 200)])
    def test_he_normal_rejects_odd_ranks(self, shape):
        # Every weight is a conv kernel, the squeeze-excite layers' 1x1 too.
        with pytest.raises(ShapeError):
            he_normal(np.random.default_rng(0), shape)

    def test_params_require_grad(self):
        params = init_params(cfg(**SMALL), seed=0)
        assert all(t.requires_grad for _, t in params.items())


class TestForward:
    def test_output_shape_and_range(self, rng):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        ir = Tensor(rng.uniform(size=(2, 1, 8, 8)).astype(np.float32))
        vis = Tensor(rng.uniform(size=(2, 1, 8, 8)).astype(np.float32))
        out = forward(ir, vis, params, config)
        assert out.shape == (2, 1, 8, 8)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_rejects_mismatched_inputs(self):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        with pytest.raises(ShapeError):
            forward(Tensor.zeros((1, 1, 8, 8)), Tensor.zeros((1, 1, 8, 9)), params, config)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"use_salience": False},
            {"use_graph": False},
            {"use_leader": False},
            {"share_loop_params": True},
            {"nodes": 1, "loops": 1},
        ],
    )
    def test_matches_float64_reference(self, rng, overrides):
        config = cfg(**{**SMALL, **overrides})
        params = init_params(config, seed=2)
        ir = rng.uniform(size=(1, 1, 8, 8)).astype(np.float32)
        vis = rng.uniform(size=(1, 1, 8, 8)).astype(np.float32)
        got = forward(Tensor(ir), Tensor(vis), params, config)
        arrays = {name: t.data.astype(np.float64) for name, t in params.items()}
        want = reference_forward(ir, vis, arrays, config)
        np.testing.assert_allclose(got.data, want, rtol=1e-4, atol=1e-5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        channels=st.sampled_from([4, 16, 17]),
        nodes=st.integers(1, 4),
        loops=st.integers(1, 4),
        toggles=st.tuples(*[st.booleans()] * 4),
        batch=st.integers(1, 2),
        size=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_float64_reference_across_configs(self, channels, nodes, loops, toggles, batch, size, seed):
        # A differential test over the architecture space: 16 and 17 channels
        # run every conv of the graph on the view side, and 4 gather in the
        # forward; kernel gradients take views at every width.  Frames go
        # down to one pixel and need not be square.  The tape's gradient of
        # a weighted sum of the output is compared, once per parameter
        # group, with a complex-step probe of the float64 reference at the
        # gradcheck CLI's default tolerance: the group's first tensor, at its
        # element of largest gradient.
        salience, graph, leader, shared = toggles
        config = cfg(
            channels=channels,
            nodes=nodes,
            loops=loops,
            use_salience=salience,
            use_graph=graph,
            use_leader=leader,
            share_loop_params=shared,
            reduction=next(r for r in (4, 3, 2, 1) if channels % r == 0),
        )
        params = init_params(config, seed=seed)
        rng = np.random.default_rng(seed)
        ir, vis = (rng.uniform(size=(batch, 1, *size)).astype(np.float32) for _ in range(2))
        arrays = {name: t.data.astype(np.float64) for name, t in params.items()}
        got = forward(Tensor(ir), Tensor(vis), params, config)
        np.testing.assert_allclose(got.data, reference_forward(ir, vis, arrays, config), rtol=1e-4, atol=1e-5)

        coeffs = rng.standard_normal(got.shape).astype(np.float32)
        firsts: dict[str, str] = {}
        for name in params:
            firsts.setdefault(default_group(name), name)
        reports = check_parameter_groups(
            lambda: ops.reduce_sum(ops.mul(forward(Tensor(ir), Tensor(vis), params, config), Tensor(coeffs))),
            {name: params[name] for name in firsts.values()},
            lambda probed: (reference_forward(ir, vis, {**arrays, **probed}, config) * coeffs).sum(axis=_SAMPLE_AXES),
            samples_per_tensor=1,
        )
        assert sorted(reports) == sorted(firsts)
        assert max(report.error for report in reports.values()) < 1e-2

    def test_fuse_arrays_matches_forward(self, rng):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        ir = rng.uniform(size=(8, 8)).astype(np.float32)
        vis = rng.uniform(size=(8, 8)).astype(np.float32)
        fused = fuse_arrays(ir, vis, params, config)
        batched = forward(
            Tensor(ir.reshape(1, 1, 8, 8)), Tensor(vis.reshape(1, 1, 8, 8)), params, config
        )
        np.testing.assert_array_equal(fused, batched.data[0, 0])

    def test_fuse_arrays_rejects_batched_input(self):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        with pytest.raises(ShapeError):
            fuse_arrays(np.zeros((1, 8, 8), np.float32), np.zeros((1, 8, 8), np.float32), params, config)

    @pytest.mark.parametrize("which", ["ir", "vis"])
    def test_fuse_arrays_rejects_non_finite_input(self, rng, which):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        arrays = {m: rng.uniform(size=(16, 16)).astype(np.float32) for m in ("ir", "vis")}
        arrays[which][3, 5] = np.nan
        with pytest.raises(ValueError, match=f"fuse_arrays: {which} holds non-finite"):
            fuse_arrays(arrays["ir"], arrays["vis"], params, config)

    @pytest.mark.parametrize("which", ["ir", "vis"])
    def test_fuse_arrays_rejects_input_beyond_float32_range(self, rng, which):
        # 1e39 is finite as a float64 but overflows the float32 the network runs in.
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        arrays = {m: rng.uniform(size=(16, 16)) for m in ("ir", "vis")}
        arrays[which][3, 5] = 1e39
        with pytest.raises(ValueError, match=f"fuse_arrays: {which} holds non-finite"):
            fuse_arrays(arrays["ir"], arrays["vis"], params, config)


def test_untaped_forward_keeps_few_maps_alive(rng):
    # The graph reads a backbone stage only through its node pools, so each
    # branch's stages are freed once pooled, and a leader once its loop's
    # term of the mix is added.  Every loop frees its injections, pair
    # responses and running sums after their last reader.  A message is
    # added into its destination's sum without a map of its own, and a
    # conv frames only a band of rows at a time, so the peak is a later
    # loop's message: 6 nodes, 6 running sums, the pair's ``s``, the new
    # sum and the 2 running mixes.  It reads 16.2 maps (18.2 when the
    # graph held the stages and every leader).  The bound is 5% above.
    config = FusionConfig()
    params = init_params(config, seed=0)
    ir = rng.uniform(size=(96, 128)).astype(np.float32)
    vis = rng.uniform(size=(96, 128)).astype(np.float32)
    fuse_arrays(ir, vis, params, config)
    tracemalloc.start()
    try:
        fuse_arrays(ir, vis, params, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 4 * config.channels * 96 * 128


def test_taped_step_records_and_peak(rng):
    # Three records per edge pair (27 with 3 nodes and 3 loops): one conv of
    # the pair's difference and one record per message, with no difference,
    # edge, gate or message map or gradient held for the backward.  The mix
    # makes 8 records per modality: 3 kernel blocks, 3 convs and 2 adds.
    # The leaders' and the head's convs read their inputs as channel parts,
    # so no concatenation is recorded (7 records fewer).  A record keeps
    # only the arrays its backward reads, so after forward and loss the tape
    # holds 119.1 maps of 1x16x32x32: 137.0 when each leader's conv kept a
    # concatenated copy of the nodes that their ReLUs keep, and 235.7 when
    # records kept every op's inputs and output.  Backward drops each
    # intermediate's gradient once its record has replayed, so the peak
    # reads 142.0 maps, against 159.9 with the copies, and 472.4 when every
    # gradient also lived until ``clear``.  That peak counts the band buffers
    # of the conv running at the time, which each call allocates.  Both
    # bounds are 5% above.  The fused image's SSIM statistics are recorded
    # once for both terms.
    config = FusionConfig()
    params = init_params(config, seed=0)
    ir, vis = (Tensor(rng.uniform(size=(1, 1, 32, 32)).astype(np.float32)) for _ in range(2))

    def step() -> tuple[int, int]:
        with Tape() as tape:
            loss = loss_components(forward(ir, vis, params, config), ir, vis, config)["total"]
            records = len(tape)
            held = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0
            tape.backward(loss)
        tape.clear()
        return records, held

    step()
    tracemalloc.start()
    try:
        records, held = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_map = 4 * config.channels * 32 * 32
    assert records == 332
    assert held < 125 * one_map
    assert peak < 149 * one_map


def test_backward_leaves_gradients_only_on_leaves(rng, monkeypatch):
    # Backward drops each record output's gradient once the record has
    # replayed; the leaves (every parameter, and any probed input) keep theirs.
    config = cfg(**SMALL)
    params = init_params(config, seed=0)
    ir, vis = (Tensor(rng.uniform(size=(1, 1, 16, 16)).astype(np.float32)) for _ in range(2))
    outputs, inputs = [], []
    record = Tape.record

    def listing_record(tape, output, ins, backward):
        outputs.append(output)
        inputs.extend(ins)
        record(tape, output, ins, backward)

    monkeypatch.setattr(Tape, "record", listing_record)
    with Tape() as tape:
        loss = loss_components(forward(ir, vis, params, config), ir, vis, config)["total"]
        tape.backward(loss)
    made = set(outputs)
    leaves = {t for t in inputs if t.requires_grad and t not in made}
    assert len(outputs) == len(tape) > 0
    assert all(t.grad is None for t in outputs)
    assert set(params.values()) <= leaves
    assert all(t.grad is not None for t in leaves)
    tape.clear()


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        config = cfg(**SMALL)
        params = init_params(config, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert list(loaded) == list(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_retired_keys_at_surviving_values_load(self, tmp_path):
        # Checkpoints written before decay_mode and edge_loss_squared were
        # retired carry both keys in their config blob.
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        rewrite_config_blob(path, path, decay_mode="weight_decay", edge_loss_squared=False)
        _, loaded_config = load_checkpoint(path)
        assert loaded_config == config

    @pytest.mark.parametrize("key,value", [("decay_mode", "lr_linear"), ("edge_loss_squared", True)])
    def test_retired_key_at_another_value_rejected(self, tmp_path, key, value):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        rewrite_config_blob(path, path, **{key: value})
        with pytest.raises(CheckpointError, match=f"config key '{key}' is retired"):
            load_checkpoint(path)

    def test_file_starts_with_magic(self, tmp_path):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        assert path.read_bytes()[:4] == CHECKPOINT_MAGIC == b"IGN1"

    def test_save_is_deterministic(self, tmp_path):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config)
        save_checkpoint(p2, params, config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        before = path.read_bytes()

        class FailHalfWay(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(Path, "open", lambda self, mode="r": FailHalfWay(self, mode))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_params(config, seed=1), config)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_temp_file_reaches_disk_before_it_replaces_the_checkpoint(self, tmp_path, monkeypatch):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        save_checkpoint(path, init_params(config, seed=0), config)
        # os.replace keeps the temp file's inode under the final name.
        assert calls == [("fsync", path.stat().st_ino), ("replace", "model.ckpt.tmp", "model.ckpt")]

    def test_non_finite_weight_rejected_by_name(self, tmp_path):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        params["head.conv2.bias"].data[0] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config)
        with pytest.raises(CheckpointError, match="parameter head.conv2.bias holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"x"'])
    def test_config_blob_not_an_object_rejected(self, tmp_path, text):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        replace_config_blob(path, path, text)
        with pytest.raises(CheckpointError, match="bad config blob: config must be a JSON object"):
            load_checkpoint(path)

    def test_config_blob_nested_too_deeply_rejected(self, tmp_path):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        replace_config_blob(path, path, "[" * 100_000)
        with pytest.raises(CheckpointError, match="bad config blob: config JSON nests too deeply"):
            load_checkpoint(path)

    def test_dims_overflowing_int64_rejected(self, tmp_path):
        # The dims' byte count would be about 1.6e29, which wraps negative in
        # int64.  The record stops after its dims: they are refused against
        # the table before they size anything.
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        head, _ = split_records(path.read_bytes())
        dims = (2**32 - 1, 2**32 - 1, 2**31 + 1, 1)
        path.write_bytes(head + record_header(FIRST, 4, dims))
        match = rf"parameter {FIRST} has shape \({dims[0]}, .*config expects \(8, 1, 3, 3\)"
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("rank", [70, 3, 0])
    def test_rank_the_table_cannot_hold_rejected_by_name(self, tmp_path, rank):
        # The first entry is a 3x3 kernel, which is stored with rank 4 only.
        # Rank 70 is above numpy's limit of 64 dimensions; the record stops
        # after its rank, so no dim may be read before the rank is refused.
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        head, _ = split_records(path.read_bytes())
        path.write_bytes(head + record_header(FIRST, rank))
        with pytest.raises(CheckpointError, match=f"parameter {FIRST} has rank {rank},"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,found,expected",
        [
            ("swap", "extract.ir.conv1.bias", "extract.ir.conv1.weight"),
            ("repeat", "extract.ir.conv1.weight", "extract.ir.conv1.bias"),
            ("append", "extract.ir.conv1.weight", "no more parameters"),
        ],
    )
    def test_record_that_is_not_the_next_entry_rejected_naming_both(self, tmp_path, edit, found, expected):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        head, records = split_records(path.read_bytes())
        if edit == "swap":
            records[:2] = records[1::-1]
        elif edit == "repeat":
            records[1] = records[0]
        else:
            head = head[:-4] + struct.pack("<I", len(records) + 1)
            records.append(records[0])
        path.write_bytes(head + b"".join(records))
        with pytest.raises(CheckpointError, match=rf"unexpected parameter {found}, expected {expected}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_save_refuses_names_that_are_not_the_table(self, tmp_path, edit):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        before = path.read_bytes()
        params = init_params(config, seed=1)
        if edit == "extra":
            params["head.conv3.bias"] = Tensor.zeros((1,))
            match = r"missing \[\], unexpected \['head\.conv3\.bias'\]"
        else:
            del params["graph.mix.ir.bias"]
            match = r"missing \['graph\.mix\.ir\.bias'\], unexpected \[\]"
        with pytest.raises(ValueError, match=match):
            save_checkpoint(path, params, config)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_writes_records_in_table_order(self, tmp_path):
        config = cfg(**SMALL)
        params = init_params(config, seed=0)
        path, shuffled = tmp_path / "model.ckpt", tmp_path / "shuffled.ckpt"
        save_checkpoint(path, params, config)
        save_checkpoint(shuffled, dict(reversed(params.items())), config)
        assert shuffled.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "key,value,expected",
        [("loops", 10**7, "graph.loop3.deliver0.ir.weight"), ("nodes", 10**6, "graph.loop1.node3.ir.weight")],
    )
    def test_hostile_config_blob_fails_by_name_before_it_sizes_anything(self, tmp_path, key, value, expected):
        # A few bytes of config describe a table of millions of entries; the
        # file's own records end it.  The child caps its address space, so a
        # reader that builds the table fails there instead of taking the host.
        config = cfg(channels=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        rewrite_config_blob(path, path, **{key: value})
        child = f"""
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from graphfusion.network import CheckpointError, load_checkpoint
started = time.perf_counter()
try:
    load_checkpoint({str(path)!r})
except CheckpointError as exc:
    print(time.perf_counter() - started, exc)
"""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        elapsed, message = proc.stdout.strip().split(" ", 1)
        assert message.endswith(f", expected {expected}")
        assert float(elapsed) < 0.1

    def test_name_not_utf8_rejected(self, tmp_path):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        blob = bytearray(path.read_bytes())
        # The first name's first byte follows the tensor count and its length.
        blob[12 + struct.unpack_from("<I", blob, 8)[0] + 8] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad parameter name"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WAT1"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncation_rejected_with_offset(self, tmp_path):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        config = cfg(**SMALL)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(path)

    def test_fully_connected_squeeze_excite_weights_load_as_1x1_kernels(self, tmp_path, rng):
        # Checkpoints written while the bottleneck was two fully connected
        # layers store its weights as (out, in).
        config = cfg(channels=8, nodes=2, loops=3, reduction=4)
        params = init_params(config, seed=4)
        stored = dict(params)
        for name in params:
            if ".fc" in name and name.endswith(".weight"):
                stored[name] = Tensor(params[name].data[:, :, 0, 0])
        assert sum(t.ndim == 2 for t in stored.values()) == 4
        old, new = tmp_path / "fc.ckpt", tmp_path / "conv.ckpt"
        save_checkpoint(old, stored, config)
        save_checkpoint(new, params, config)
        loaded, _ = load_checkpoint(old)
        assert {n: t.shape for n, t in loaded.items()} == parameter_shapes(config)
        ir, vis = rng.uniform(size=(2, 12, 12)).astype(np.float32)
        fused = fuse_arrays(ir, vis, loaded, config)
        assert fused.tobytes() == fuse_arrays(ir, vis, load_checkpoint(new)[0], config).tobytes()

        # A 2-d weight where the table asks for a 3x3 kernel still fails by name.
        stored["salience.ir.conv.weight"] = Tensor(params["salience.ir.conv.weight"].data[:, :, 1, 1])
        save_checkpoint(old, stored, config)
        with pytest.raises(CheckpointError, match=r"parameter salience\.ir\.conv\.weight has rank 2, config expects"):
            load_checkpoint(old)

    def test_transposed_fully_connected_weight_fails_by_name(self, tmp_path):
        # Only a stored (out, in) weight reads as the (out, in, 1, 1) kernel;
        # its transpose is a mismatch, not a reinterpretation.
        config = cfg(channels=8, nodes=2, loops=3, reduction=4)
        params = init_params(config, seed=4)
        params["salience.vis.fc1.weight"] = Tensor(params["salience.vis.fc1.weight"].data[:, :, 0, 0].T.copy())
        path = tmp_path / "fc.ckpt"
        save_checkpoint(path, params, config)
        with pytest.raises(CheckpointError, match=r"parameter salience\.vis\.fc1\.weight has shape \(8, 2\)"):
            load_checkpoint(path)

    def test_missing_tensor_detected(self, tmp_path):
        # Drop the tensor count by one and strip the last record.
        config = cfg(channels=8, nodes=1, loops=1, use_salience=False, use_graph=False)
        params = init_params(config, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config)
        loaded, _ = load_checkpoint(path)
        assert list(loaded) == list(params)
        blob = bytearray(path.read_bytes())
        import json
        import struct

        config_len = struct.unpack_from("<I", blob, 8)[0]
        count_at = 12 + config_len
        count = struct.unpack_from("<I", blob, count_at)[0]
        struct.pack_into("<I", blob, count_at, count - 1)
        last = list(params)[-1]
        record = struct.pack("<I", len(last.encode())) + last.encode()
        cut = bytes(blob).rindex(record)
        path.write_bytes(bytes(blob[:cut]))
        with pytest.raises(CheckpointError, match="missing parameter"):
            load_checkpoint(path)
