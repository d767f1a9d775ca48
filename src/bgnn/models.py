"""GNN encoders: GCN, GraphSage (mean aggregator), and GAT.

A model is a flat dict of named parameter tensors plus its config.
``model_forward`` reads one input, the forward context built once by
``build_forward_context``, and returns logits and the per-layer
representations (post-activation, pre-dropout) used by the similarity
analysis. ``ModelConfig.n_layers`` is two by default; the CLI's
``--layers`` flag (INI key ``[model] layers``) sets it for all of a run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .graph_data import (
    Graph, GraphBatch, atomic_write, mean_aggregator, normalize_adjacency, sample_neighbors
)
from .sparse import SparseMatrix, concat_ranges
from .tensor import Tensor

ARCHITECTURES = ("gcn", "sage", "gat")

# GCN and GAT hold node features below this density as CSR and run their
# first projection X @ W as a sparse product. Measured on an Intel Xeon
# with OpenBLAS on one thread, forward X @ W plus backward Xᵀ G at k = 16
# (the hidden width), uniformly placed entries: for 2708x1433 and 2708x300
# inputs the position-major product wins up to 4 % density and loses from
# 5 % (2708x1433 at 1 %: 2.7-4.1 ms against 15.7-21.9 ms dense; at 3 %:
# 11.3-14.2 against 16.8-16.9 ms; at 5 %: 24.7 against 17.9 ms), so this
# cutoff, set when an earlier kernel lost from 2 %, errs dense. Inputs of 16
# columns or fewer never won, but their products take well under a
# millisecond either way. The graph task decides once per dataset, on the
# features of all its graphs, and cuts each batch's rows out of that one
# CSR copy (``cut_forward_context``).
#
# A GCN with CSR features projects first, Â (X W), rather than cache Â X,
# which fills in: on a Cora-shaped 2708x1433 bundle nnz(X) is 47,744 but
# nnz(Â X) is 205,320 (1.2 % against 5.3 % density), about 3.7 times the
# work per step. GraphSage ignores the cutoff: [X ‖ M̄ X] holds X's rows.
SPARSE_INPUT_DENSITY = 1.0 / 64


@dataclass
class ModelConfig:
    arch: str
    in_dim: int
    hidden_dim: int
    n_classes: int
    dropout: float = 0.5
    heads: int = 8
    batch_norm: bool = False
    n_layers: int = 2
    task: str = "node"

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if min(self.in_dim, self.hidden_dim, self.n_classes) <= 0:
            raise ConfigError("layer dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.n_layers < 2:
            raise ConfigError("at least two message-passing layers required")
        if self.task not in ("node", "graph"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.arch == "gat":
            if self.heads < 1:
                raise ConfigError("gat needs at least one head")
            if self.hidden_dim % self.heads:
                raise ConfigError(
                    f"hidden_dim {self.hidden_dim} not divisible by {self.heads} heads"
                )

    def layer_dims(self) -> list[int]:
        """Input dim of layer 1 through output dim of the last layer."""
        out = self.n_classes if self.task == "node" else self.hidden_dim
        return [self.in_dim] + [self.hidden_dim] * (self.n_layers - 1) + [out]


@dataclass
class GnnModel:
    config: ModelConfig
    seed: int
    params: dict[str, Tensor]
    bn_state: dict[str, np.ndarray] = field(default_factory=dict)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: ModelConfig, seed: int) -> GnnModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    dims = config.layer_dims()
    params: dict[str, Tensor] = {}
    bn_state: dict[str, np.ndarray] = {}
    for l in range(1, config.n_layers + 1):
        d_in, d_out = dims[l - 1], dims[l]
        if config.arch == "gcn":
            params[f"layer{l}.W"] = Tensor(_glorot(rng, d_in, d_out, (d_in, d_out)), True)
            params[f"layer{l}.b"] = Tensor(np.zeros(d_out), True)
        elif config.arch == "sage":
            params[f"layer{l}.W"] = Tensor(
                _glorot(rng, 2 * d_in, d_out, (2 * d_in, d_out)), True
            )
            params[f"layer{l}.b"] = Tensor(np.zeros(d_out), True)
        else:  # gat
            final = l == config.n_layers
            dh = d_out if final else d_out // config.heads
            for k in range(config.heads):
                params[f"layer{l}.head{k}.W"] = Tensor(_glorot(rng, d_in, dh, (d_in, dh)), True)
                params[f"layer{l}.head{k}.a_self"] = Tensor(
                    _glorot(rng, 2 * dh, 1, (dh, 1)), True
                )
                params[f"layer{l}.head{k}.a_neigh"] = Tensor(
                    _glorot(rng, 2 * dh, 1, (dh, 1)), True
                )
            params[f"layer{l}.b"] = Tensor(np.zeros(d_out), True)
        if config.batch_norm and l < config.n_layers:
            params[f"bn{l}.gamma"] = Tensor(np.ones(d_out), True)
            params[f"bn{l}.beta"] = Tensor(np.zeros(d_out), True)
            bn_state[f"bn{l}.mean"] = np.zeros(d_out)
            bn_state[f"bn{l}.var"] = np.ones(d_out)
    if config.task == "graph":
        params["head.W"] = Tensor(
            _glorot(rng, config.hidden_dim, config.n_classes, (config.hidden_dim, config.n_classes)),
            True,
        )
        params["head.b"] = Tensor(np.zeros(config.n_classes), True)
    return GnnModel(config=config, seed=seed, params=params, bn_state=bn_state)


# ---------------------------------------------------------------------------
# layers


def _project(h: Tensor | SparseMatrix, W: Tensor) -> Tensor:
    """h @ W; a CSR h (sparse input features) is a constant of the product."""
    return T.spmm(h, W) if isinstance(h, SparseMatrix) else T.matmul(h, W)


def gcn_layer(h: Tensor | SparseMatrix, adj_norm: SparseMatrix, W: Tensor, b: Tensor) -> Tensor:
    """Normalized-adjacency aggregation: adj_norm @ (h @ W) + b."""
    return T.add_bias(T.spmm(adj_norm, _project(h, W)), b)


def sage_layer(h: Tensor, neighbor_mean_op: SparseMatrix, W: Tensor, b: Tensor) -> Tensor:
    """concat(h_v, mean of h over v's neighbors) @ W + b.

    ``neighbor_mean_op`` is the row-stochastic operator over each node's
    full neighborhood; its zero rows give isolated nodes a zero mean vector.
    """
    return T.add_bias(T.matmul(T.concat_cols(h, T.spmm(neighbor_mean_op, h)), W), b)


def gat_layer(
    h: Tensor | SparseMatrix,
    src: np.ndarray,
    dst: np.ndarray,
    head_params: list[dict[str, Tensor]],
    b: Tensor,
    n_out: int | None = None,
    *,
    combine: str,
    seg: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention over fixed neighborhoods (self-loops included).

    For head k: e_ij = LeakyReLU(a_selfᵀ(W h_i) + a_neighᵀ(W h_j)) for each
    edge j→i, normalized per destination with a segment softmax, then
    out_i = Σ_j α_ij W h_j. Heads are concatenated or averaged.

    The output has one row per input row (``n_out`` rows when given), and
    edge e lands in row ``seg[e]`` (``dst[e]`` by default). A layer that
    computes only some destinations gets only the edges into them, ``seg``
    numbering each destination by its output row.
    """
    seg = dst if seg is None else seg
    outs = []
    for p in head_params:
        hw = _project(h, p["W"])
        n_seg = hw.shape[0] if n_out is None else n_out
        s_self = T.reshape(T.matmul(hw, p["a_self"]), (hw.shape[0],))
        s_neigh = T.reshape(T.matmul(hw, p["a_neigh"]), (hw.shape[0],))
        e = T.leaky_relu(T.add(T.gather_rows(s_self, dst), T.gather_rows(s_neigh, src)))
        alpha = T.segment_softmax(e, seg, n_seg)
        msgs = T.scale_rows(T.gather_rows(hw, src), alpha)
        outs.append(T.segment_sum(msgs, seg, n_seg))
    if combine == "concat":
        agg = T.concat_cols(*outs)
    else:
        agg = T.scale(T.add(*outs), 1.0 / len(outs))
    return T.add_bias(agg, b)


# ---------------------------------------------------------------------------
# forward


def _attention_edges(edges: np.ndarray, n_nodes: int) -> dict:
    """GAT's (src, dst) pairs: each listed edge, then a self-loop per node."""
    loops = np.arange(n_nodes)
    return {"src": np.concatenate([edges[:, 0], loops]),
            "dst": np.concatenate([edges[:, 1], loops])}


def build_forward_context(config: ModelConfig, data: Graph | GraphBatch) -> dict:
    """Precompute all that a forward reads, ``model_forward``'s one input,
    from a Graph (node task) or a GraphBatch (graph task), checked here once.

    Built once per graph and architecture and reused across epochs; the
    graph task builds it for all its graphs batched together and cuts each
    mini-batch's and split's context out of it (``cut_forward_context``).
    GCN keeps Â as ``"adj"``, GraphSage its full-neighborhood mean operator
    M̄ as ``"mean_op"``, GAT its edges; the graph task adds ``"graph_ids"``
    and ``"n_graphs"`` for its pooling, and GAT the graph of each edge
    other than the self-loops, ``"edge_graph_ids"``, for the cut.

    This is the one place that picks layer 1's input, from array or CSR
    features alike. Node features are constants, so GCN and GraphSage
    aggregate them once, as the array ``"agg_x"``: Â X, or [X ‖ M̄ X], bit
    for bit what ``sage_layer`` forms. Otherwise layer 1 reads ``"x"``:
    GAT's dense features, or GCN's and GAT's features below
    ``SPARSE_INPUT_DENSITY`` as CSR, projected first. CSR features are
    densified only where a dense input is picked; below the cutoff they
    are ``"x"`` themselves, less any stored zeros (a copy only if there
    are some), so both forms of the same features give the same context.
    Â X and the CSR product differ from dense Â (X W) by rounding only.
    The context never holds layer 1's output; a caller that already has
    it adds it to a copy as ``"h1"`` (see ``model_forward``).
    """
    want = GraphBatch if config.task == "graph" else Graph
    if not isinstance(data, want):
        raise ContractError(f"a {config.task}-task context requires a {want.__name__}")
    g, ctx = data, {}
    if config.task == "graph":
        g, ctx = data.graph, {"graph_ids": data.graph_ids, "n_graphs": data.n_graphs}
    if g.feature_dim != config.in_dim:
        raise ShapeError(f"feature dim {g.feature_dim} != configured in_dim {config.in_dim}")
    if config.arch == "sage":
        x = g.dense_features()
        op = mean_aggregator(*sample_neighbors(g), g.n_nodes)
        return dict(ctx, mean_op=op, agg_x=np.concatenate([x, op.matmul_dense(x)], axis=1))
    ctx.update({"adj": normalize_adjacency(g)} if config.arch == "gcn"
               else _attention_edges(g.edges, g.n_nodes))
    if config.task == "graph" and config.arch == "gat":
        ctx["edge_graph_ids"] = data.graph_ids[g.edges[:, 1]]
    x = g.features
    csr = x.drop_zeros() if isinstance(x, SparseMatrix) else None
    n_nonzero = np.count_nonzero(x) if csr is None else csr.nnz
    if n_nonzero < SPARSE_INPUT_DENSITY * g.n_nodes * g.feature_dim:
        ctx["x"] = SparseMatrix.from_dense(x) if csr is None else csr
    elif config.arch == "gcn":
        ctx["agg_x"] = ctx["adj"].matmul_dense(g.dense_features())
    else:
        ctx["x"] = g.dense_features()
    return ctx


def _graph_ranges(graph_ids: np.ndarray, graphs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the run of each of ``graphs`` starts in the nondecreasing
    ``graph_ids``, and how long it is."""
    starts = np.searchsorted(graph_ids, graphs)
    return starts, np.searchsorted(graph_ids, graphs, side="right") - starts


def cut_forward_context(ctx: dict, graphs: np.ndarray) -> dict:
    """The context of the distinct graphs ``graphs`` of the graph-task
    context ``ctx``, batched in that order, read from ``ctx`` alone, at a
    cost that grows with the batch, not with ``ctx``.

    It relies on two layout invariants of a context that
    ``build_forward_context`` made from a ``batch_graphs`` batch: its
    ``graph_ids`` are nondecreasing (``GraphBatch.__post_init__`` rejects
    any other), so each graph's nodes are one range; and GAT's ``src`` and
    ``dst`` list each graph's edges in graph order (``batch_graphs``
    concatenates them so), then a self-loop per node (``_attention_edges``
    appends them last), so each graph's edges are one range of
    ``edge_graph_ids`` too, and shift by as much as its nodes do.

    Equal, bit for bit, to ``build_forward_context`` on the batch of those
    graphs with the same choice of CSR features, and every operator keeps
    its transpose. That holds for the rows of ``agg_x`` too: Â and M̄ are
    block-diagonal over the graphs, so each row of Â X or M̄ X sums the
    same entries in the same order.
    """
    starts, n_nodes = _graph_ranges(ctx["graph_ids"], graphs)
    nodes = concat_ranges(starts, n_nodes)
    out = {k: ctx[k].submatrix(nodes, nodes) for k in ("adj", "mean_op") if k in ctx}
    out.update(graph_ids=np.repeat(np.arange(graphs.size), n_nodes), n_graphs=graphs.size)
    if "src" in ctx:
        edge_starts, n_edges = _graph_ranges(ctx["edge_graph_ids"], graphs)
        edges = concat_ranges(edge_starts, n_edges)
        shift = np.repeat(np.cumsum(n_nodes) - n_nodes - starts, n_edges)[:, None]
        pairs = np.stack([ctx["src"][edges], ctx["dst"][edges]], axis=1) + shift
        out.update(_attention_edges(pairs, nodes.size),
                   edge_graph_ids=np.repeat(np.arange(graphs.size), n_edges))
    for k in ("x", "agg_x"):
        if k in ctx:
            out[k] = ctx[k].submatrix(nodes) if isinstance(ctx[k], SparseMatrix) else ctx[k][nodes]
    return out


def cut_scored_rows(ctx: dict, rows, n_nodes: int) -> dict:
    """``ctx``, the node-task context of an ``n_nodes``-node graph, set to
    score only ``rows``: the forward then returns the logits of those rows,
    in that order, and its last layer computes nothing else. Every earlier
    layer, dropout and batch norm still run on all nodes.

    The rows must be strictly increasing, as a ``DatasetSplit`` holds
    them, so the last layer's backward adds in node order as the full
    layer's does: the logits, and the gradients through them, equal the
    same rows of a full forward bit for bit. GCN keeps its operator's rows
    Â[rows]; GAT keeps the edges into the rows, in their order. GraphSage
    runs its full last layer and takes the rows: its last layer is a dense
    product, and BLAS rounds a row of it differently depending on where
    the row falls among the product's rows (OpenBLAS tiles them), so a
    product over the scored rows alone is not bit for bit the full one.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if (rows.ndim != 1 or rows.size == 0 or rows[0] < 0 or rows[-1] >= n_nodes
            or np.any(np.diff(rows) <= 0)):
        raise ContractError(f"scored rows must be strictly increasing node ids in [0, {n_nodes})")
    out = dict(ctx, rows=rows)
    if "adj" in ctx:
        out["adj_rows"] = ctx["adj"].submatrix(rows)
    elif "src" in ctx:
        place = np.full(n_nodes, -1)
        place[rows] = np.arange(rows.size)
        keep = place[ctx["dst"]] >= 0
        out["rows_edges"] = (ctx["src"][keep], ctx["dst"][keep], place[ctx["dst"][keep]])
    return out


def _gat_head_params(model: GnnModel, l: int) -> list[dict[str, Tensor]]:
    return [
        {
            "W": model.params[f"layer{l}.head{k}.W"],
            "a_self": model.params[f"layer{l}.head{k}.a_self"],
            "a_neigh": model.params[f"layer{l}.head{k}.a_neigh"],
        }
        for k in range(model.config.heads)
    ]


def model_forward(
    model: GnnModel,
    ctx: dict,
    training: bool,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, list[Tensor]]:
    """Run the model on its forward context, its one input; returns
    (logits, per-layer representations).

    A node-task context yields per-node logits, a graph-task one per-graph
    logits via sum pooling and a linear head; a context of the other task
    than the model's raises ContractError. Hidden layers apply ELU for GAT
    and ReLU otherwise. Representations are post-activation, pre-dropout
    (the node task's last one is its logits). Dropout is the rng's one
    user, so eval mode never touches it. Layer 1 is ``agg_x`` @ W + b when
    the context holds ``"agg_x"`` and reads ``"x"`` otherwise. A context
    cut by ``cut_scored_rows`` yields only its rows' logits.

    A context may instead hand over layer 1's output as the array
    ``"h1"``: a node-task ``reps[0]`` of an earlier forward at the same
    parameters. Layer 1 is then that array, and layer 1's dropout and
    batch norm and layers 2..L run on it as usual. Dropout and batch norm
    act only after layer 1's activation, so a training forward's
    ``reps[0]`` is bit for bit the eval-mode layer 1.
    """
    cfg = model.config
    if ("graph_ids" in ctx) != (cfg.task == "graph"):
        raise ContractError(f"a {cfg.task}-task model needs a {cfg.task}-task context")
    act = T.elu if cfg.arch == "gat" else T.relu
    if training and cfg.dropout > 0.0 and rng is None:
        raise ContractError("training forward requires an rng")

    h = ctx.get("x")
    h = Tensor(h) if isinstance(h, np.ndarray) else h
    reps: list[Tensor] = []
    for l in range(1, cfg.n_layers + 1):
        final = l == cfg.n_layers
        cut = final and "rows" in ctx  # the last layer computes only ctx["rows"]
        handed = l == 1 and "h1" in ctx  # layer 1's output, activation included
        if handed:
            h = Tensor(ctx["h1"])
        elif l == 1 and "agg_x" in ctx:
            # a constant: dropout and batch norm act only between layers
            h = T.add_bias(T.matmul(Tensor(ctx["agg_x"]), model.params["layer1.W"]),
                           model.params["layer1.b"])
        elif cfg.arch == "gcn":
            h = gcn_layer(h, ctx["adj_rows"] if cut else ctx["adj"],
                          model.params[f"layer{l}.W"], model.params[f"layer{l}.b"])
        elif cfg.arch == "sage":
            h = sage_layer(h, ctx["mean_op"], model.params[f"layer{l}.W"],
                           model.params[f"layer{l}.b"])
            if cut:
                h = T.gather_rows(h, ctx["rows"])
        else:
            src, dst, seg = ctx["rows_edges"] if cut else (ctx["src"], ctx["dst"], None)
            h = gat_layer(
                h,
                src,
                dst,
                _gat_head_params(model, l),
                model.params[f"layer{l}.b"],
                ctx["rows"].size if cut else None,
                combine="average" if final else "concat",
                seg=seg,
            )
        if final and cfg.task == "node":
            reps.append(h)  # logits double as the last representation
            break
        h = h if handed else act(h)
        reps.append(h)
        if final:
            break
        h = T.dropout(h, cfg.dropout, training, rng)
        if cfg.batch_norm:
            h = T.batch_norm(
                h,
                model.params[f"bn{l}.gamma"],
                model.params[f"bn{l}.beta"],
                model.bn_state[f"bn{l}.mean"],
                model.bn_state[f"bn{l}.var"],
                training,
            )

    if cfg.task == "graph":
        pooled = T.segment_sum(h, ctx["graph_ids"], ctx["n_graphs"])
        logits = T.add_bias(T.matmul(pooled, model.params["head.W"]), model.params["head.b"])
    else:
        logits = h
    return logits, reps


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_entries(model: GnnModel) -> list[tuple[str, np.ndarray]]:
    entries = [(name, p.data) for name, p in model.params.items()]
    entries += [(f"state.{name}", arr) for name, arr in model.bn_state.items()]
    return entries


def save_checkpoint(model: GnnModel, path_prefix) -> None:
    """Write <prefix>.bin, then <prefix>.json (config, seed, array manifest).

    The binary holds every array flattened in manifest order as
    little-endian float64. The manifest is written last, so it only ever
    describes a binary that is already complete.
    """
    prefix = Path(path_prefix)
    entries = _checkpoint_entries(model)
    manifest = {
        "config": asdict(model.config),
        "seed": model.seed,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in entries],
    }
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in entries)
    atomic_write(prefix.with_suffix(".bin"), blob)
    atomic_write(prefix.with_suffix(".json"), json.dumps(manifest))


def load_checkpoint(path_prefix) -> GnnModel:
    """Rebuild a model from <prefix>.json and <prefix>.bin.

    The manifest must name exactly the arrays the config implies, with
    their shapes, and the binary must hold exactly those values. The seed,
    the integer config fields and every shape entry must be JSON integers.
    Anything else raises FormatError naming the file.
    """
    prefix = Path(path_prefix)
    where = prefix.with_suffix(".json")

    def integer(value, key: str) -> int:
        if type(value) is not int:
            raise FormatError(f"checkpoint manifest {where}: {key} is {value!r}, not an integer")
        return value

    try:
        manifest = json.loads(where.read_text(encoding="utf-8"))
        for f in fields(ModelConfig):
            if f.type == "int" and f.name in manifest["config"]:
                integer(manifest["config"][f.name], f"key {f.name!r}")
        config = ModelConfig(**manifest["config"])
        seed = integer(manifest["seed"], "key 'seed'")
        specs = [(str(a["name"]), tuple(integer(n, f"the shape of {a['name']!r}")
                                        for n in a["shape"])) for a in manifest["arrays"]]
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"checkpoint manifest {where} is malformed: {e}") from e
    model = init_model(config, seed)
    entries = dict(_checkpoint_entries(model))
    names = [name for name, _ in specs]
    if sorted(names) != sorted(entries):
        missing = sorted(set(entries) - set(names))
        extra = sorted(set(names) - set(entries))
        raise FormatError(
            f"checkpoint {where} arrays do not match its config: "
            f"missing {missing}, unexpected {extra}"
        )
    blob = prefix.with_suffix(".bin").read_bytes()
    if len(blob) != 8 * sum(a.size for a in entries.values()):
        raise FormatError("checkpoint binary length does not match its manifest")
    offset = 0
    for name, shape in specs:
        target = entries[name]
        if shape != target.shape:
            raise FormatError(
                f"checkpoint array {name!r} has shape {shape}, config needs {target.shape}"
            )
        target[...] = np.frombuffer(blob, "<f8", target.size, offset).reshape(shape)
        offset += target.size * 8
    return model
