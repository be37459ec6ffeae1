"""Cross-modality graph interaction over pyramid-pooled node features.

Each loop builds one graph per call from the loop's feature maps.  Nodes
are pyramid summaries: a feature map is adaptively average-pooled onto
grids 1, 2, 4, ... (capped at the input size), passed through a per-scale
1x1 conv, and bilinearly upsampled back to full resolution.  Within a
modality every node pair is connected; across modalities node o of one
branch connects to node o of the other.  A directed edge j -> k carries a
3x3 conv of the node difference plus a bias.  Reversing an edge negates
its pre-bias response, so each pair runs the conv once and its two
directions add the bias to that response and to its negation.  Messages
are sigmoid-gated copies of the source node; all messages are computed
from the pre-update state and the nodes then update simultaneously
(Jacobi style) through a shared 3x3 conv and ReLU.  A per-loop leader
summarizes the updated nodes with a 1x1 conv over their concatenation;
between loops the leader's pooled activation gates a per-node 3x3 conv
of the current state, and the gated result is injected into the next
loop's freshly generated nodes.  The branch output concatenates all loop
leaders through a final 1x1 conv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import ops
from .backbone import MODALITIES
from .config import FusionConfig
from .tensor import ShapeError, Tensor

# A node is addressed by (modality, scale index).
NodeId = tuple[str, int]
EdgeKey = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class GraphTopology:
    """Undirected pair lists for one loop; edges are stored per direction."""

    nodes: int
    intra_pairs: tuple[tuple[int, int], ...]
    inter_scales: tuple[int, ...]

    @property
    def directed_edge_count(self) -> int:
        return 2 * (2 * len(self.intra_pairs) + len(self.inter_scales))

    def directed_edges(self) -> list[EdgeKey]:
        out: list[EdgeKey] = []
        for m in MODALITIES:
            for j, k in self.intra_pairs:
                out.append(((m, j), (m, k)))
                out.append(((m, k), (m, j)))
        for o in self.inter_scales:
            out.append((("ir", o), ("vis", o)))
            out.append((("vis", o), ("ir", o)))
        return out

    def sources_into(self, node: NodeId) -> list[NodeId]:
        """In-neighbors in aggregation order: intra by scale, then inter."""
        m, o = node
        other = "vis" if m == "ir" else "ir"
        intra = [(m, j) for j, k in self.intra_pairs if k == o]
        intra += [(m, k) for j, k in self.intra_pairs if j == o]
        intra.sort(key=lambda n: n[1])
        return intra + [(other, o)]


def build_topology(nodes: int) -> GraphTopology:
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    intra = tuple((j, k) for j in range(nodes) for k in range(j + 1, nodes))
    return GraphTopology(nodes=nodes, intra_pairs=intra, inter_scales=tuple(range(nodes)))


def node_grids(nodes: int, height: int, width: int) -> list[int]:
    """Pyramid grid sides 1, 2, 4, ... capped at the feature size."""
    cap = min(height, width)
    return [min(2**i, cap) for i in range(nodes)]


def loop_prefix(config: FusionConfig, loop: int) -> str:
    """Parameter prefix for a loop; loop 1 is reused when sharing is on."""
    return f"graph.loop{1 if config.share_loop_params else loop}"


def generate_nodes(
    feature: Tensor, grids: Sequence[int], params: Mapping[str, Tensor], prefix: str, modality: str
) -> list[Tensor]:
    """Pyramid-pool the feature into one full-resolution node per grid."""
    h, w = feature.shape[2], feature.shape[3]
    nodes = []
    for o, g in enumerate(grids):
        if g > h or g > w:
            raise ShapeError(f"node grid {g} exceeds feature size {h}x{w}")
        pooled = ops.adaptive_avgpool2d(feature, g, g)
        mixed = ops.conv2d(
            pooled, params[f"{prefix}.node{o}.{modality}.weight"], params[f"{prefix}.node{o}.{modality}.bias"]
        )
        nodes.append(ops.upsample_bilinear(mixed, h, w))
    return nodes


def difference_edges(
    a: Tensor, b: Tensor, weight: Tensor, bias: Tensor
) -> tuple[Tensor, Tensor]:
    """Both directed edges of a pair: ``s + bias`` and ``bias - s``.

    ``s`` is the bias-free conv of ``a - b``; the reverse edge's conv of
    ``b - a`` is exactly ``-s``, so one conv serves both directions.
    """
    oc = bias.shape[0]
    s = ops.conv2d(ops.sub(a, b), weight, Tensor.zeros((oc,)), 1, 1)
    b4 = ops.reshape(bias, (1, oc, 1, 1))
    return ops.add(s, b4), ops.sub(b4, s)


def pass_message(edge: Tensor, source: Tensor) -> Tensor:
    """Gate the source node elementwise by the edge activation."""
    return ops.mul(ops.sigmoid(edge), source)


def update_node(node: Tensor, incoming: Sequence[Tensor], weight: Tensor, bias: Tensor) -> Tensor:
    """New node state: ReLU(conv(node + sum of incoming messages))."""
    s = node
    for msg in incoming:
        s = ops.add(s, msg)
    return ops.relu(ops.conv2d(s, weight, bias, 1, 1))


def form_leader(nodes: Sequence[Tensor], weight: Tensor, bias: Tensor) -> Tensor:
    """Summarize a modality's nodes with a 1x1 conv over their concat."""
    return ops.conv2d(ops.concat_channels(list(nodes)), weight, bias)


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
            1,
            1,
        )
        out.append(ops.mul(conv, gate))
    return out


@dataclass
class LoopTrace:
    """Intermediate state of one loop, for inspection and tests."""

    loop: int
    nodes_in: dict[NodeId, Tensor]
    edges: dict[EdgeKey, Tensor]
    messages: dict[EdgeKey, Tensor]
    nodes_out: dict[NodeId, Tensor]
    leaders: dict[str, Tensor]


@dataclass
class GraphResult:
    g_ir: Tensor
    g_vis: Tensor
    traces: list[LoopTrace] | None = None


def _run_loop(
    loop: int,
    features: dict[str, Tensor],
    injections: dict[str, list[Tensor]] | None,
    params: Mapping[str, Tensor],
    config: FusionConfig,
    topo: GraphTopology,
) -> LoopTrace:
    prefix = loop_prefix(config, loop)
    h, w = features["ir"].shape[2], features["ir"].shape[3]
    grids = node_grids(config.nodes, h, w)

    nodes: dict[NodeId, Tensor] = {}
    for m in MODALITIES:
        fresh = generate_nodes(features[m], grids, params, prefix, m)
        if injections is not None:
            fresh = [ops.add(f, inj) for f, inj in zip(fresh, injections[m])]
        for o, t in enumerate(fresh):
            nodes[(m, o)] = t

    edges: dict[EdgeKey, Tensor] = {}
    for m in MODALITIES:
        for j, k in topo.intra_pairs:
            e_fwd, e_rev = difference_edges(
                nodes[(m, j)],
                nodes[(m, k)],
                params[f"{prefix}.intra.{m}.weight"],
                params[f"{prefix}.intra.{m}.bias"],
            )
            edges[((m, j), (m, k))] = e_fwd
            edges[((m, k), (m, j))] = e_rev
    for o in topo.inter_scales:
        e_fwd, e_rev = difference_edges(
            nodes[("ir", o)],
            nodes[("vis", o)],
            params[f"{prefix}.inter.weight"],
            params[f"{prefix}.inter.bias"],
        )
        edges[(("ir", o), ("vis", o))] = e_fwd
        edges[(("vis", o), ("ir", o))] = e_rev

    messages = {(src, dst): pass_message(edge, nodes[src]) for (src, dst), edge in edges.items()}

    updated: dict[NodeId, Tensor] = {}
    for m in MODALITIES:
        for o in range(topo.nodes):
            incoming = [messages[(src, (m, o))] for src in topo.sources_into((m, o))]
            updated[(m, o)] = update_node(
                nodes[(m, o)],
                incoming,
                params[f"{prefix}.update.{m}.weight"],
                params[f"{prefix}.update.{m}.bias"],
            )

    leaders = {
        m: form_leader(
            [updated[(m, o)] for o in range(topo.nodes)],
            params[f"{prefix}.leader.{m}.weight"],
            params[f"{prefix}.leader.{m}.bias"],
        )
        for m in MODALITIES
    }
    return LoopTrace(loop=loop, nodes_in=nodes, edges=edges, messages=messages, nodes_out=updated, leaders=leaders)


def run_graph(
    features_ir: Sequence[Tensor],
    features_vis: Sequence[Tensor],
    params: Mapping[str, Tensor],
    config: FusionConfig,
    collect_traces: bool = False,
) -> GraphResult:
    """Chain ``config.loops`` graph loops and mix their leaders.

    Loop i reads the i-th feature of each branch; loops beyond the feature
    count reuse the deepest feature.  With ``use_graph`` off this function
    is not called; the network passes deep features through unchanged.
    """
    if len(features_ir) != len(features_vis) or not features_ir:
        raise ShapeError("run_graph: need equally many features per branch")
    topo = build_topology(config.nodes)
    traces: list[LoopTrace] = []
    leaders: dict[str, list[Tensor]] = {m: [] for m in MODALITIES}
    injections: dict[str, list[Tensor]] | None = None
    for loop in range(1, config.loops + 1):
        idx = min(loop, len(features_ir)) - 1
        feats = {"ir": features_ir[idx], "vis": features_vis[idx]}
        trace = _run_loop(loop, feats, injections, params, config, topo)
        for m in MODALITIES:
            leaders[m].append(trace.leaders[m])
        if config.use_leader and loop < config.loops:
            prefix = loop_prefix(config, loop)
            injections = {
                m: deliver(trace.leaders[m], [trace.nodes_out[(m, o)] for o in range(topo.nodes)], params, prefix, m)
                for m in MODALITIES
            }
        else:
            injections = None
        if collect_traces:
            traces.append(trace)

    outputs = {}
    for m in MODALITIES:
        outputs[m] = ops.conv2d(
            ops.concat_channels(leaders[m]), params[f"graph.mix.{m}.weight"], params[f"graph.mix.{m}.bias"]
        )
    return GraphResult(g_ir=outputs["ir"], g_vis=outputs["vis"], traces=traces if collect_traces else None)
