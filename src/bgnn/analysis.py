"""Representation-similarity study: per-layer embeddings averaged per
graph, compared across models with linear centered kernel alignment."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractError, DomainError
from .graph_data import Graph, atomic_write, batch_graphs
from .models import GnnModel, build_forward_context, model_forward


@dataclass
class RepresentationSet:
    """One matrix per layer; rows are examples in a shared, fixed order."""

    tag: str
    layers: list[np.ndarray]

    def __post_init__(self):
        if not self.layers:
            raise ContractError("representation set needs at least one layer")
        rows = {m.shape[0] for m in self.layers}
        if len(rows) > 1:
            raise ContractError(f"layers disagree on row count: {sorted(rows)}")

    @property
    def n_examples(self) -> int:
        return self.layers[0].shape[0]


def extract_layer_representations(
    model: GnnModel, graphs: list[Graph], tag: str = ""
) -> RepresentationSet:
    """Mean node embedding per graph at every layer, eval mode.

    Row g of layer matrix l is the average of graph g's node embeddings
    after layer l's activation. One eval forward over all graphs batched
    block-diagonally gives each node the same embedding as a forward over
    its graph alone; its context is built once per call.
    """
    if not graphs:
        raise ContractError("need at least one graph")
    batch = batch_graphs(graphs)
    data = batch if model.config.task == "graph" else batch.graph
    _, reps = model_forward(model, build_forward_context(model.config, data), training=False)
    bounds = np.cumsum([0] + [g.n_nodes for g in graphs])
    layers = [
        np.stack([r.data[a:b].mean(axis=0) for a, b in zip(bounds[:-1], bounds[1:])])
        for r in reps
    ]
    return RepresentationSet(tag=tag or model.config.arch, layers=layers)


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear centered kernel alignment between two representation matrices.

    ||Yc^T Xc||_F^2 / (||Xc^T Xc||_F ||Yc^T Yc||_F) after column centering.
    Invariant to orthogonal transforms and isotropic scaling of either side.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ContractError("inputs must be 2-d matrices")
    if x.shape[0] != y.shape[0]:
        raise ContractError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ContractError("need at least 2 examples")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    xx = np.linalg.norm(xc.T @ xc)
    yy = np.linalg.norm(yc.T @ yc)
    if xx == 0.0 or yy == 0.0:
        raise DomainError("zero-variance input: centering left an all-zero matrix")
    return float(np.linalg.norm(yc.T @ xc) ** 2 / (xx * yy))


def cka_matrix(sets: list[RepresentationSet]) -> list[dict]:
    """Pairwise layer-by-layer CKA across models.

    One row per (model_a, layer_a, model_b, layer_b); layers 1-based.
    """
    if not sets:
        raise ContractError("need at least one representation set")
    rows_counts = {s.n_examples for s in sets}
    if len(rows_counts) > 1:
        raise ContractError(f"sets disagree on example count: {sorted(rows_counts)}")
    out = []
    for sa, sb in product(sets, sets):
        for (ia, xa), (ib, xb) in product(
            enumerate(sa.layers, start=1), enumerate(sb.layers, start=1)
        ):
            out.append(
                {
                    "model_a": sa.tag,
                    "layer_a": ia,
                    "model_b": sb.tag,
                    "layer_b": ib,
                    "cka": linear_cka(xa, xb),
                }
            )
    return out


def save_cka_csv(rows: list[dict], path) -> None:
    lines = ["model_a,layer_a,model_b,layer_b,cka"]
    for r in rows:
        lines.append(
            f"{r['model_a']},{r['layer_a']},{r['model_b']},{r['layer_b']},{r['cka']:.6f}"
        )
    atomic_write(path, "\n".join(lines) + "\n")
