"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and writes, or returns, exactly
the inputs the program receives; the same seed gives byte-identical
inputs. Only numpy is needed, so the generators run in the benchmark's
own process without importing the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CoraShape:
    class_sizes: tuple[int, ...]
    vocab: int
    undirected_edges: int
    words_per_node: int
    train_per_class: int
    n_val: int
    n_test: int


# Cora: 2708 nodes in 7 classes, 1433 binary word features, 5278 undirected
# edges, about 18 words per paper, and the Planetoid 140/500/1000 split.
CORA = CoraShape((351, 217, 418, 818, 426, 298, 180), 1433, 5278, 18, 20, 500, 1000)
CORA_TINY = CoraShape((35, 22, 42, 82, 43, 30, 18), 143, 528, 18, 5, 50, 100)


# An edge joins two nodes of one class with probability HOMOPHILY, and a
# word comes from its node's class topic with probability TOPIC_SHARE. Both
# hold a GCN's test accuracy near 0.65: well below 1, so a drop in quality
# shows.
HOMOPHILY = 0.65
TOPIC_SHARE = 0.12


def cora_like_bundle(seed: int, shape: CoraShape = CORA) -> dict:
    """A Cora-shaped node-classification bundle in the loader's JSON form.

    Edges join a node of the same class (HOMOPHILY) or any node;
    endpoints are drawn with heavy-tailed weights, so degrees follow a
    power law. Each node's binary bag of words mixes its class topic
    (TOPIC_SHARE) with a shared background. Features use the sparse
    ``indices`` form that ``load_json_bundle`` reads.
    """
    rng = np.random.default_rng(seed)
    sizes = np.asarray(shape.class_sizes)
    n = int(sizes.sum())
    labels = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    members = [np.flatnonzero(labels == c) for c in range(sizes.size)]
    everyone = np.arange(n)
    weight = rng.pareto(2.0, n) + 1.0

    def draw(pool: np.ndarray) -> int:
        p = weight[pool] / weight[pool].sum()
        return int(rng.choice(pool, p=p))

    pairs: set[tuple[int, int]] = set()
    while len(pairs) < shape.undirected_edges:
        u = draw(everyone)
        v = draw(members[labels[u]] if rng.random() < HOMOPHILY else everyone)
        if u != v:
            pairs.add((min(u, v), max(u, v)))

    background = rng.dirichlet(np.full(shape.vocab, 0.3))
    topics = rng.dirichlet(np.full(shape.vocab, 0.05), size=sizes.size)
    indices = []
    for i in range(n):
        mix = TOPIC_SHARE * topics[labels[i]] + (1.0 - TOPIC_SHARE) * background
        words = np.unique(rng.choice(shape.vocab, size=shape.words_per_node, p=mix))
        indices += [[i, int(w)] for w in words]

    train = np.concatenate([rng.permutation(m)[: shape.train_per_class] for m in members])
    rest = rng.permutation(np.setdiff1d(everyone, train))
    return {
        "n_nodes": n,
        "edges": [list(e) for e in sorted(pairs)],
        "features": {
            "indices": indices,
            "values": [1.0] * len(indices),
            "shape": [n, shape.vocab],
        },
        "labels": labels.tolist(),
        "train_idx": np.sort(train).tolist(),
        "val_idx": np.sort(rest[: shape.n_val]).tolist(),
        "test_idx": np.sort(rest[shape.n_val : shape.n_val + shape.n_test]).tolist(),
    }


def write_cora_like(path: Path, seed: int, shape: CoraShape = CORA) -> None:
    Path(path).write_text(json.dumps(cora_like_bundle(seed, shape)), encoding="utf-8")


def tu_like_graphs(seed: int, n_graphs: int) -> list[tuple[int, list[tuple[int, int]], int]]:
    """Graphs of 10-30 nodes in three overlapping classes.

    Class 0 is a random tree plus up to two chords, class 1 a random tree
    plus six to eight chords, and class 2 an Erdos-Renyi graph with three
    more edges than a tree on average. The classes differ in cycles and
    degree spread rather than size, so they are not trivially separable.
    Returns (n_nodes, undirected edges, class) per graph.
    """
    rng = np.random.default_rng(seed)
    out = []
    for label in rng.permutation(np.arange(n_graphs) % 3):
        n = int(rng.integers(10, 31))
        edges: set[tuple[int, int]] = set()
        if label < 2:
            for v in range(1, n):
                edges.add((int(rng.integers(0, v)), v))
            for _ in range(int(rng.integers(0, 3)) + 6 * int(label)):
                u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
                edges.add((u, v))
        else:
            p = (2.0 * (n - 1) + 6.0) / (n * (n - 1))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < p
            edges.update(zip(iu[keep].tolist(), ju[keep].tolist()))
        out.append((n, sorted(edges), int(label)))
    return out


def write_tu_dir(directory: Path, seed: int, n_graphs: int) -> None:
    """Write a TU-format directory; node labels are node degrees.

    The directory's basename is the dataset name, as ``load_tu_dataset``
    expects. Edges are written in both directions, 1-indexed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, indicator, node_labels, graph_labels = [], [], [], []
    offset = 0
    for gid, (n, edges, label) in enumerate(tu_like_graphs(seed, n_graphs), start=1):
        degree = np.zeros(n, dtype=np.int64)
        for u, v in edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
            degree[u] += 1
            degree[v] += 1
        indicator += [str(gid)] * n
        node_labels += [str(d) for d in degree]
        graph_labels.append(str(label + 1))
        offset += n
    for suffix, lines in (
        ("A", a_lines),
        ("graph_indicator", indicator),
        ("graph_labels", graph_labels),
        ("node_labels", node_labels),
    ):
        path = directory / f"{directory.name}_{suffix}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
