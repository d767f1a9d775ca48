"""Shared test utilities: finite-difference gradient checking, a bitwise
array comparison, the scatter reference the bincount kernel is checked
against, one-hot degree features for graph fixtures, and a TU-format
directory writer."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from bgnn.graph_data import Graph
from bgnn.tensor import Tape, Tensor, backward


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def tape_grad(build_loss, *arrays) -> list[np.ndarray]:
    """Autodiff gradients of build_loss(*tensors) w.r.t. each input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build_loss(*tensors)
    backward(loss, tape)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


def check_grads(build_loss, *arrays, rtol: float = 1e-4, atol: float = 1e-7) -> None:
    """Assert autodiff and finite-difference gradients agree for every input."""
    analytic = tape_grad(build_loss, *arrays)
    for i, a in enumerate(arrays):
        a = np.asarray(a, dtype=np.float64)

        def scalar_f(x, i=i):
            args = [np.asarray(b, dtype=np.float64) for b in arrays]
            args[i] = x
            tensors = [Tensor(b) for b in args]
            return float(build_loss(*tensors).data)

        numeric = numeric_grad(scalar_f, a.copy())
        np.testing.assert_allclose(
            analytic[i], numeric, rtol=rtol, atol=atol, err_msg=f"gradient mismatch on input {i}"
        )


def assert_bits(a, b) -> None:
    """Same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def add_at_reference(ids, x, n: int) -> np.ndarray:
    """The unbuffered ufunc scatter (np.add.at into zeros) that every
    scatter kernel must match bit for bit."""
    out = np.zeros((n,) + np.shape(x)[1:])
    np.add.at(out, ids, x)
    return out


def wide_range(g: np.random.Generator, shape) -> np.ndarray:
    """Normal values scaled over 16 decades, so that summing them in a
    different order changes the bits."""
    return g.standard_normal(shape) * 10.0 ** g.integers(-8, 9, shape)


def one_hot_degree_features(graphs: list[Graph], cap: int | None = None) -> list[Graph]:
    """Replace features with one-hot degree encodings, shared across the list.

    Dimension is min(max observed degree, cap) + 1; degrees above the cap
    land in the top bucket.
    """
    max_deg = max((int(g.degrees().max()) if g.n_nodes else 0) for g in graphs)
    top = min(max_deg, cap) if cap is not None else max_deg
    out = []
    for g in graphs:
        x = np.zeros((g.n_nodes, top + 1))
        x[np.arange(g.n_nodes), np.minimum(g.degrees(), top)] = 1.0
        out.append(replace(g, features=Tensor(x)))
    return out


def write_tu_dir(directory: Path, name: str, graphs, node_order=None, edge_order=None,
                 sep: str = ", ", blank_lines: bool = False, node_labels: bool = True) -> None:
    """Write graphs as a TU-format directory.

    Each graph is (node labels, local (u, v) edges, graph label), with one
    node label per node. ``node_order`` and ``edge_order`` give the graph
    index of each indicator line and each ``_A.txt`` line; the j-th line of
    a graph holds its j-th node or edge. By default the graphs come one
    after another. ``blank_lines`` puts an empty line before every line and
    at the end of every file.
    """
    if node_order is None:
        node_order = [g for g, (labels, _, _) in enumerate(graphs) for _ in labels]
    if edge_order is None:
        edge_order = [g for g, (_, edges, _) in enumerate(graphs) for _ in edges]
    global_id: dict[tuple[int, int], int] = {}  # (graph, local id) -> 1-based node id
    seen = [0] * len(graphs)
    indicator, node_label_lines = [], []
    for line, g in enumerate(node_order, start=1):
        global_id[g, seen[g]] = line
        indicator.append(str(g + 1))
        node_label_lines.append(str(graphs[g][0][seen[g]]))
        seen[g] += 1
    seen = [0] * len(graphs)
    a_lines = []
    for g in edge_order:
        u, v = graphs[g][1][seen[g]]
        a_lines.append(f"{global_id[g, u]}{sep}{global_id[g, v]}")
        seen[g] += 1
    files = {
        "A": a_lines,
        "graph_indicator": indicator,
        "graph_labels": [str(label) for _, _, label in graphs],
    }
    if node_labels:
        files["node_labels"] = node_label_lines
    directory.mkdir(parents=True, exist_ok=True)
    for key, lines in files.items():
        if blank_lines:
            lines = [x for line in lines for x in ("", line)] + [""]
        (directory / f"{name}_{key}.txt").write_text("\n".join(lines) + "\n")
