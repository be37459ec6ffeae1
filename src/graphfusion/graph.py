"""Cross-modality graph interaction over pyramid-pooled node features.

Each loop builds one graph per call from the loop's feature maps.  Nodes
are pyramid summaries: a feature map is adaptively average-pooled onto
grids 1, 2, 4, ... (capped at the input size), passed through a per-scale
1x1 conv, and bilinearly upsampled back to full resolution.  Within a
modality every node pair is connected; across modalities node o of one
branch connects to node o of the other.  A directed edge j -> k carries a
3x3 conv of the node difference plus a bias.  Reversing an edge negates
its pre-bias response, so each pair runs the conv once, on a difference
formed only inside the conv's frame, and keeps only that response ``s``.
A message gates the source node elementwise by the sigmoid of its edge,
``s + bias`` into the pair's second node and ``bias - s`` into its first;
it is computed from the pre-update state and added into its destination's
running sum as soon as its pair has run, in one op that stores neither
the edge, the gate nor the message.  The nodes then update simultaneously
(Jacobi style) through a shared 3x3 conv and ReLU of that sum.  A per-loop leader
summarizes the updated nodes with a 1x1 conv over all their channels,
which reads each node where it is, so no concatenation is made;
between loops the leader's pooled activation gates a per-node 3x3 conv
of the current state, and the gated result is injected into the next
loop's freshly generated nodes.  The branch output concatenates all loop
leaders through a final 1x1 conv, which runs as one conv per leader added
into a running sum as its loop ends.

Lifetimes: outside a tape every full-resolution map is dropped once its
last reader has run.  A loop reads a backbone stage only through its
pools (:func:`node_pools`), so the graph takes the pools, never a stage.
A loop holds the previous loop's injections only until its nodes are
built, each pair's response ``s`` only until both its messages are in
the running sums, and each running sum only until its node's update; a
leader lives until its own loop's term of the mix is added.  Neither a
pair's difference nor its edges nor a message is ever a map of its own:
each message replaces its destination's running sum by a new one.  So
the edge phase of a later loop holds 16 maps at most: 6 nodes, 6 running
sums, ``s``, a new sum and the 2 running mixes.  Sequences a caller
passes in are only read, never modified.  Under a tape a record keeps
only the arrays its backward reads (see :mod:`.ops`): a conv its input,
a message its ``s`` and its source node, a ReLU its output.  A leader's
conv keeps the updated nodes, the very arrays their ReLUs keep, so no
loop holds a copy of them.  So the
superseded running sums, the pre-ReLU updates, the injections and the
upsampled fresh nodes are freed as they are outside a tape, while each
leader is kept by its mix conv.  A pair makes three records, its conv
and its two messages, and holds one map of its own, ``s``.  In the
backward pass ``s``'s gradient lives only until its conv's record has
replayed.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import ops
from .backbone import MODALITIES
from .config import FusionConfig
from .tensor import ShapeError, Tensor

# A node is addressed by (modality, scale index).
NodeId = tuple[str, int]


def edge_pairs(nodes: int) -> list[tuple[NodeId, NodeId, str]]:
    """Every connected pair ``(a, b, group)`` of a loop, in the order it runs them.

    Each pair is two directed edges.  Intra pairs come first, per modality
    and by scale, with group ``intra.<modality>``; then node o of one
    branch with node o of the other, group ``inter``.
    """
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    intra = [(j, k) for j in range(nodes) for k in range(j + 1, nodes)]
    out = [((m, j), (m, k), f"intra.{m}") for m in MODALITIES for j, k in intra]
    return out + [(("ir", o), ("vis", o), "inter") for o in range(nodes)]


def node_grids(nodes: int, height: int, width: int) -> list[int]:
    """Pyramid grid sides 1, 2, 4, ... capped at the feature size."""
    cap = min(height, width)
    return [min(2**i, cap) for i in range(nodes)]


def loop_prefix(config: FusionConfig, loop: int) -> str:
    """Parameter prefix for a loop; loop 1 is reused when sharing is on."""
    return f"graph.loop{1 if config.share_loop_params else loop}"


def node_pools(feature: Tensor, nodes: int) -> list[Tensor]:
    """A stage's ``nodes`` adaptive average pools onto :func:`node_grids`, each (N, C, g, g).

    They are all a loop reads of its stage, so a caller that keeps them can
    free the full-resolution stage.
    """
    grids = node_grids(nodes, feature.shape[2], feature.shape[3])
    return [ops.adaptive_avgpool2d(feature, g, g) for g in grids]


# The six stage functions below are looked up by module attribute at each
# call, so a profiler (perfbench/tracer.py) can time them by rebinding
# ``graph.<stage>``; keep them module-level names.


def generate_nodes(
    pools: Sequence[Tensor], size: tuple[int, int], params: Mapping[str, Tensor], prefix: str, modality: str
) -> list[Tensor]:
    """One full-resolution node per pool of :func:`node_pools`: a 1x1 conv of it, upsampled to ``size``."""
    nodes = []
    for o, pooled in enumerate(pools):
        mixed = ops.conv2d(
            pooled, params[f"{prefix}.node{o}.{modality}.weight"], params[f"{prefix}.node{o}.{modality}.bias"]
        )
        nodes.append(ops.upsample_bilinear(mixed, *size))
    return nodes


def difference_edges(a: Tensor, b: Tensor, weight: Tensor) -> Tensor:
    """The bias-free response ``s`` of a pair: the conv of ``a - b``.

    The edge into ``b`` is ``s + bias`` and the edge into ``a`` is
    ``bias - s``, since the reverse edge's conv of ``b - a`` is exactly
    ``-s``; so one conv serves both directions.  The difference is formed
    inside the conv's frame, never as a map of its own.
    """
    return ops.conv2d(a, weight, None, padding=1, minus=b)


def pass_message(total: Tensor, s: Tensor, bias: Tensor, sign: int, source: Tensor) -> Tensor:
    """``total`` plus the source node, gated elementwise by the edge ``sign * s + bias``."""
    return ops.gate_add(total, s, bias, sign, source)


def update_node(total: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """New node state from ``total``, the node plus its incoming messages."""
    return ops.relu(ops.conv2d(total, weight, bias, padding=1))


def form_leader(nodes: Sequence[Tensor], weight: Tensor, bias: Tensor) -> Tensor:
    """Summarize a modality's nodes with a 1x1 conv over their channels, read in node order.

    The conv reads the nodes where they are, so their concatenation is
    never a map of its own.
    """
    return ops.conv2d(nodes, weight, bias)


def deliver(
    leader: Tensor,
    nodes: Sequence[Tensor],
    params: Mapping[str, Tensor],
    prefix: str,
    modality: str,
) -> list[Tensor]:
    """Leader-gated injections carried into the next loop's nodes."""
    gate = ops.sigmoid(ops.global_avgpool(leader))
    out = []
    for o, node in enumerate(nodes):
        conv = ops.conv2d(
            node,
            params[f"{prefix}.deliver{o}.{modality}.weight"],
            params[f"{prefix}.deliver{o}.{modality}.bias"],
            padding=1,
        )
        out.append(ops.mul(conv, gate))
    return out


def _run_loop(
    loop: int,
    pools: Mapping[str, Sequence[Tensor]],
    size: tuple[int, int],
    injections: dict[str, list[Tensor]],
    params: Mapping[str, Tensor],
    config: FusionConfig,
) -> tuple[dict[str, Tensor], dict[str, list[Tensor]]]:
    """One loop: each modality's leader and the next loop's injections.

    Every edge pair runs once: each of its two directions passes one gated
    message, which replaces its destination's running sum (at first the
    node itself) by the sum plus the message, so no message is a map of its
    own.  Pairs arrive in :func:`edge_pairs` order, intra and then inter, so
    every node sums its messages intra by scale, then inter.

    The loop takes ``injections`` over and empties it while it builds the
    nodes, so a modality's injections are freed once its nodes exist.
    Through the edge phase only the nodes, their running sums and the
    current pair's response live, plus a destination's new sum while its
    message is added; each sum is freed by its one update, and a modality's
    updated nodes once its leader and injections are formed.
    """
    prefix = loop_prefix(config, loop)

    nodes: dict[NodeId, Tensor] = {}
    for m in MODALITIES:
        carried = injections.pop(m, None)
        fresh = generate_nodes(pools[m], size, params, prefix, m)
        for o, t in enumerate(fresh):
            nodes[(m, o)] = ops.add(t, carried[o]) if carried else t
        # With injections, ``t`` is a fresh map that no node holds.
        del carried, fresh, t

    totals = dict(nodes)
    for a, b, group in edge_pairs(config.nodes):
        name = f"{prefix}.{group}"
        s, bias = difference_edges(nodes[a], nodes[b], params[f"{name}.weight"]), params[f"{name}.bias"]
        totals[b] = pass_message(totals[b], s, bias, 1, nodes[a])
        totals[a] = pass_message(totals[a], s, bias, -1, nodes[b])
        del s
    # Every node is in some pair, so every total has replaced its node.
    del nodes

    leaders: dict[str, Tensor] = {}
    delivered: dict[str, list[Tensor]] = {}
    for m in MODALITIES:
        weight, bias = params[f"{prefix}.update.{m}.weight"], params[f"{prefix}.update.{m}.bias"]
        updated = [update_node(totals.pop((m, o)), weight, bias) for o in range(config.nodes)]
        leaders[m] = form_leader(
            updated, params[f"{prefix}.leader.{m}.weight"], params[f"{prefix}.leader.{m}.bias"]
        )
        if config.use_leader and loop < config.loops:
            delivered[m] = deliver(leaders[m], updated, params, prefix, m)
        del updated
    return leaders, delivered


def run_graph(
    pools_ir: Sequence[Sequence[Tensor]],
    pools_vis: Sequence[Sequence[Tensor]],
    size: tuple[int, int],
    params: Mapping[str, Tensor],
    config: FusionConfig,
) -> tuple[Tensor, Tensor]:
    """Chain ``config.loops`` graph loops over ``size`` frames and mix their leaders into ``(g_ir, g_vis)``.

    ``pools_<modality>`` holds each backbone stage's :func:`node_pools`.
    Loop i reads the i-th stage's pools of each branch; loops beyond the
    stage count reuse the deepest stage's.  With ``use_graph`` off this
    function is not called; the network passes deep features through
    unchanged.

    ``graph.mix.<modality>`` is a 1x1 conv over the loops' leaders
    concatenated in loop order.  It runs as a sum over loops of the conv
    of each leader with its block of the kernel, added as each loop ends,
    with the bias on loop 1's term; so only the two running sums, the next
    loop's injections and the small pools outlive a loop.  The sum rounds
    otherwise than one conv over the concatenation.
    """
    if len(pools_ir) != len(pools_vis) or not pools_ir:
        raise ShapeError("run_graph: need equally many stages per branch")
    if any(len(p) != config.nodes for p in (*pools_ir, *pools_vis)):
        raise ShapeError(f"run_graph: need {config.nodes} node pools per stage")
    blocks = {
        m: ops.split_channels(params[f"graph.mix.{m}.weight"], [config.channels] * config.loops) for m in MODALITIES
    }
    mixed: dict[str, Tensor] = {}
    injections: dict[str, list[Tensor]] = {}
    for loop in range(1, config.loops + 1):
        stage = min(loop, len(pools_ir)) - 1
        leaders, injections = _run_loop(
            loop, {"ir": pools_ir[stage], "vis": pools_vis[stage]}, size, injections, params, config
        )
        for m in MODALITIES:
            bias = params[f"graph.mix.{m}.bias"] if loop == 1 else None
            term = ops.conv2d(leaders.pop(m), blocks[m][loop - 1], bias)
            mixed[m] = ops.add(mixed[m], term) if loop > 1 else term
        # After loop 1 a term is a map of its own, which no later loop reads.
        del term
    return mixed["ir"], mixed["vis"]
