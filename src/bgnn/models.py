"""GNN encoders: GCN, GraphSage (mean aggregator), and GAT.

A model is a flat dict of named parameter tensors plus its config.
``model_forward`` returns logits and the per-layer representations
(post-activation, pre-dropout) used by the similarity analysis. The
layer count, ``ModelConfig.n_layers``, is two by default; the CLI's
``--layers`` flag (INI key ``[model] layers``) sets it for every model a
run trains.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .graph_data import (
    Graph, GraphBatch, atomic_write, mean_aggregator, normalize_adjacency, sample_neighbors
)
from .sparse import SparseMatrix
from .tensor import Tensor

ARCHITECTURES = ("gcn", "sage", "gat")

# GCN and GAT hold node features below this density as CSR and run their
# first projection X @ W as a sparse product. Measured on an Intel Xeon
# with OpenBLAS on one thread, forward X @ W plus backward Xᵀ G at k = 16
# (the hidden width): for 2708x1433 and 2708x300 inputs the sparse product
# won below 1.5-2 % density and lost above it (2708x1433 at 1 %: 6.9 ms
# against 18.4 ms dense; at 3 %: 24.4 against 18.8 ms). Inputs of 16
# columns or fewer never won, but their products take well under a
# millisecond either way. The graph task decides once per dataset, on the
# features of all its graphs, and cuts each batch's rows out of that one
# CSR copy (``cut_forward_context``).
#
# The same test sets GCN's first layer. Dense features are aggregated
# once: the context holds Â X, and layer 1 is (Â X) W + b, one dense
# product with no sparse product forward or backward. CSR features are
# projected first, Â (X W), because Â X fills in: on a Cora-shaped
# 2708x1433 bundle nnz(X) is 47,744 but nnz(Â X) is 205,320 (1.2 % against
# 5.3 % density), so a cached Â X would cost about 3.7 times the work per
# step.
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


def gcn_layer(
    h: Tensor | SparseMatrix, adj_norm: SparseMatrix | None, W: Tensor, b: Tensor
) -> Tensor:
    """Normalized-adjacency aggregation: adj_norm @ h @ W + b. With
    ``adj_norm`` None, h is already aggregated (the context's Â X): h @ W + b."""
    hw = _project(h, W)
    return T.add_bias(hw if adj_norm is None else T.spmm(adj_norm, hw), b)


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
    n_out: int,
    combine: str,
    seg: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention over fixed neighborhoods (self-loops included).

    For head k: e_ij = LeakyReLU(a_selfᵀ(W h_i) + a_neighᵀ(W h_j)) for each
    edge j→i, normalized per destination with a segment softmax, then
    out_i = Σ_j α_ij W h_j. Heads are concatenated or averaged.

    The output has ``n_out`` rows, and edge e lands in row ``seg[e]``
    (``dst[e]`` by default). A layer that computes only some destinations
    gets only the edges into them, ``seg`` numbering each destination by
    its output row.
    """
    seg = dst if seg is None else seg
    outs = []
    for p in head_params:
        hw = _project(h, p["W"])
        s_self = T.reshape(T.matmul(hw, p["a_self"]), (hw.shape[0],))
        s_neigh = T.reshape(T.matmul(hw, p["a_neigh"]), (hw.shape[0],))
        e = T.leaky_relu(T.add(T.gather_rows(s_self, dst), T.gather_rows(s_neigh, src)), 0.2)
        alpha = T.segment_softmax(e, seg, n_out)
        msgs = T.scale_rows(T.gather_rows(hw, src), alpha)
        outs.append(T.segment_sum(msgs, seg, n_out))
    if combine == "concat":
        agg = T.concat_cols(*outs)
    else:
        agg = T.scale(T.add(*outs), 1.0 / len(outs))
    return T.add_bias(agg, b)


# ---------------------------------------------------------------------------
# forward


def _attention_edges(g: Graph) -> dict:
    """GAT's (src, dst) pairs: the graph's edges, then a self-loop per node."""
    loops = np.arange(g.n_nodes)
    return {"src": np.concatenate([g.edges[:, 0], loops]),
            "dst": np.concatenate([g.edges[:, 1], loops])}


def build_forward_context(config: ModelConfig, g: Graph) -> dict:
    """Precompute the per-graph structures a forward pass needs.

    Built once per graph and architecture and reused across epochs; the
    graph task builds it once for all its graphs batched together and cuts
    every mini-batch's and every split's context out of that one
    (``cut_forward_context``). GraphSage keeps the full-neighborhood mean
    operator, which every GraphSage layer reads. GCN and GAT keep features
    below ``SPARSE_INPUT_DENSITY`` as CSR under ``"x"``; the sparse first
    projection matches the dense one to rounding, not bit for bit.
    GraphSage keeps dense features, since it concatenates their rows.

    This is the one place that picks GCN's first-layer input. Dense
    features are aggregated once, as the plain array ``"adj_x"`` = Â X,
    and layer 1 computes (Â X) W; CSR features are projected first, Â (X W),
    since Â X fills in (see ``SPARSE_INPUT_DENSITY``). Both orders agree
    to rounding, not bit for bit.
    """
    if config.arch == "sage":
        return {"mean_op": mean_aggregator(*sample_neighbors(g), g.n_nodes)}
    ctx = {"adj": normalize_adjacency(g)} if config.arch == "gcn" else _attention_edges(g)
    x = g.features.data
    if np.count_nonzero(x) < SPARSE_INPUT_DENSITY * x.size:
        ctx["x"] = SparseMatrix.from_dense(x)
    elif config.arch == "gcn":
        ctx["adj_x"] = ctx["adj"].matmul_dense(x)
    return ctx


def cut_forward_context(ctx: dict, nodes: np.ndarray, g: Graph) -> dict:
    """The context of ``g``, the subgraph on ``nodes`` of the graph ``ctx``
    was built for, renumbered by place in ``nodes``, when no edge leaves
    ``nodes``: the graph task's batches are whole graphs of its full batch.

    Equal, bit for bit, to ``build_forward_context`` on ``g`` with the same
    choice of CSR features, and every operator keeps its transpose. That
    holds for the rows of Â X too: Â is block-diagonal over the graphs, so
    each row sums the same entries in the same order.
    """
    out = {k: ctx[k].submatrix(nodes, nodes) for k in ("adj", "mean_op") if k in ctx}
    if "src" in ctx:
        out.update(_attention_edges(g))
    if "x" in ctx:
        out["x"] = ctx["x"].submatrix(nodes)
    if "adj_x" in ctx:
        out["adj_x"] = ctx["adj_x"][nodes]
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
    data: Graph | GraphBatch,
    training: bool,
    rng: np.random.Generator | None = None,
    ctx: dict | None = None,
) -> tuple[Tensor, list[Tensor]]:
    """Run the model; returns (logits, per-layer representations).

    Node task takes a Graph and yields per-node logits; graph task takes
    a GraphBatch and yields per-graph logits via sum pooling and a linear
    head. Hidden layers apply ELU for GAT and ReLU otherwise.
    Representations are post-activation, pre-dropout (the node task's
    final layer representation is its logits). GraphSage always aggregates
    full neighborhoods, so dropout is the one user of the rng, and eval
    mode, which skips dropout, never touches it. A node-task context cut
    by ``cut_scored_rows`` yields only its rows' logits.
    """
    cfg = model.config
    if cfg.task == "graph":
        if not isinstance(data, GraphBatch):
            raise ContractError("graph-task forward requires a GraphBatch")
        g = data.graph
    else:
        if isinstance(data, GraphBatch):
            raise ContractError("node-task forward requires a Graph")
        g = data
    if g.feature_dim != cfg.in_dim:
        raise ShapeError(f"feature dim {g.feature_dim} != configured in_dim {cfg.in_dim}")
    if ctx is None:
        ctx = build_forward_context(cfg, g)
    act = T.elu if cfg.arch == "gat" else T.relu
    if training and cfg.dropout > 0.0 and rng is None:
        raise ContractError("training forward requires an rng")

    h = ctx.get("x", g.features)
    adj = ctx.get("adj")
    if "adj_x" in ctx:
        # Â X is a constant of training because layer 1's input never sees
        # dropout (or batch norm): both act only between layers.
        h, adj = Tensor(ctx["adj_x"]), None
    reps: list[Tensor] = []
    for l in range(1, cfg.n_layers + 1):
        final = l == cfg.n_layers
        cut = final and "rows" in ctx  # the last layer computes only ctx["rows"]
        if cfg.arch == "gcn":
            a = ctx["adj_rows"] if cut else adj
            h = gcn_layer(h, a, model.params[f"layer{l}.W"], model.params[f"layer{l}.b"])
            adj = ctx["adj"]
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
                ctx["rows"].size if cut else g.n_nodes,
                combine="average" if final else "concat",
                seg=seg,
            )
        if final and cfg.task == "node":
            reps.append(h)  # logits double as the last representation
            break
        h = act(h)
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
        pooled = T.segment_sum(h, data.graph_ids, data.n_graphs)
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
    their shapes, and the binary must hold exactly those values; anything
    else raises FormatError.
    """
    prefix = Path(path_prefix)
    where = prefix.with_suffix(".json")
    try:
        manifest = json.loads(where.read_text(encoding="utf-8"))
        config = ModelConfig(**manifest["config"])
        seed = int(manifest["seed"])
        specs = [(str(a["name"]), tuple(a["shape"])) for a in manifest["arrays"]]
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
