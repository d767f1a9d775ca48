"""Graph containers, dataset loaders, splits, neighborhoods, and batching.

Two on-disk formats are supported: the TU plain-text collection format
for graph classification, and a JSON bundle for node-classification
graphs (one object holding edges, features, labels, and split indices).
Synthetic stochastic-block-model graphs cover fixtures and smoke tests.
"""

from __future__ import annotations

import json
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FormatError, ShapeError
from .sparse import SparseMatrix

# densities below this store bundle features as index/value triplets
SPARSE_FEATURE_DENSITY = 0.25


@dataclass
class Graph:
    """A graph with node features; undirected edges appear in both directions,
    and every architecture counts a listed pair once per listing. The
    features, a constant of every forward, are a float64 array or a CSR
    ``SparseMatrix`` (a sparse bundle's own entries, stored zeros included)."""

    n_nodes: int
    edges: np.ndarray  # (n_edges, 2) int64, possibly empty
    features: np.ndarray | SparseMatrix  # (n_nodes, feature_dim)
    node_labels: np.ndarray | None = None
    graph_label: int | None = None
    split: DatasetSplit | None = None  # a node-classification graph's own split

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= self.n_nodes):
            raise FormatError(f"edge endpoint out of range [0, {self.n_nodes})")
        if not isinstance(self.features, SparseMatrix):
            self.features = np.asarray(self.features, dtype=np.float64)
        shape = self.features.shape
        if len(shape) != 2 or shape[0] != self.n_nodes:
            raise ShapeError(f"features of shape {shape} for {self.n_nodes} nodes")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def dense_features(self) -> np.ndarray:
        """The features as an array: CSR features are densified (a new
        array each call, a stored -0.0 kept), an array is returned as is."""
        x = self.features
        return x.to_dense() if isinstance(x, SparseMatrix) else x


@dataclass
class GraphBatch:
    """Several graphs merged into one block-diagonal graph."""

    graph: Graph
    graph_ids: np.ndarray  # per-node graph assignment, nondecreasing
    n_graphs: int

    def __post_init__(self):
        if np.any(np.diff(self.graph_ids) < 0):
            raise FormatError("graph_ids must be nondecreasing")
        src_g = self.graph_ids[self.graph.edges[:, 0]]
        dst_g = self.graph_ids[self.graph.edges[:, 1]]
        if np.any(src_g != dst_g):
            raise FormatError("an edge crosses two graphs in the batch")


@dataclass
class DatasetSplit:
    """Train, val and test index lists, each sorted at construction; no
    index may appear twice, within a list or across lists."""

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        parts = (self.train_idx, self.val_idx, self.test_idx)
        if any(np.ndim(p) != 1 for p in parts):
            raise FormatError("a split takes 1-d index lists")
        self.train_idx, self.val_idx, self.test_idx = parts = [np.sort(p) for p in parts]
        joined = np.concatenate(parts)
        if len(np.unique(joined)) != len(joined):
            raise FormatError("split index lists overlap")


# ---------------------------------------------------------------------------
# TU plain-text format


def _read_int_rows(
    path: Path, width: int, low: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` integers on each non-blank line, split by commas or
    spaces, as an (n, width) int64 array, and each row's line number.
    Each integer must fit in int64 and be at least ``low`` when it is
    given; any other line raises FormatError naming ``file:line``. The
    file is read as UTF-8; other bytes raise FormatError naming it."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path.name}: not UTF-8 text: {e}") from None
    values, line_nos = array("q"), array("q")  # int64, no object per value
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        try:
            if len(parts) != width:
                raise ValueError
            values.extend(map(int, parts))
        except (ValueError, OverflowError):
            want = "a 64-bit integer" if width == 1 else f"{width} 64-bit integers"
            raise FormatError(
                f"{path.name}:{line_no}: expected {want}, got {line.strip()!r}"
            ) from None
        if low is not None and min(values[-width:]) < low:
            raise FormatError(
                f"{path.name}:{line_no}: expected at least {low}, got {line.strip()!r}"
            )
        line_nos.append(line_no)
    return np.array(values, dtype=np.int64).reshape(-1, width), np.array(line_nos, dtype=np.int64)


def load_tu_dataset(directory, name: str) -> list[Graph]:
    """Load a TU-format graph classification dataset.

    Expects ``<NAME>_A.txt`` (1-indexed global edge pairs),
    ``<NAME>_graph_indicator.txt``, ``<NAME>_graph_labels.txt`` and,
    optionally, ``<NAME>_node_labels.txt`` (one-hot encoded as features).
    Graph ids run from 1 to their maximum, there is at least one graph, and
    every graph has a node. Each graph keeps its nodes and its edges in
    file order. Graphs without node labels get a single constant feature.
    """
    directory = Path(directory)
    paths = {key: directory / f"{name}_{key}.txt"
             for key in ("A", "graph_indicator", "graph_labels", "node_labels")}
    for key in ("A", "graph_indicator", "graph_labels"):
        if not paths[key].exists():
            raise FileNotFoundError(f"missing required file {paths[key]}")
    graph_ids = _read_int_rows(paths["graph_indicator"], 1, low=1)[0][:, 0] - 1  # 0-based
    n_total = graph_ids.size
    if n_total == 0:
        raise FormatError(f"{paths['graph_indicator'].name}: the dataset has no graphs")
    counts = np.bincount(graph_ids)
    n_graphs = counts.size
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise FormatError(f"{paths['graph_indicator'].name}: graph {empty[0] + 1} has no nodes")

    raw_labels = _read_int_rows(paths["graph_labels"], 1)[0][:, 0]
    if raw_labels.shape[0] != n_graphs:
        raise FormatError(
            f"{paths['graph_labels'].name}: {raw_labels.shape[0]} labels for {n_graphs} graphs"
        )
    graph_labels = np.unique(raw_labels, return_inverse=True)[1]  # remap to 0..C-1

    # Sorted stably by graph, each graph's nodes form one run in file
    # order; a node's local id is its place in that run.
    node_order = np.argsort(graph_ids, kind="stable")
    local_ids = np.empty(n_total, dtype=np.int64)
    local_ids[node_order] = np.arange(n_total) - np.repeat(np.cumsum(counts) - counts, counts)

    edges, line_nos = _read_int_rows(paths["A"], 2)
    edges -= 1
    outside = np.flatnonzero(((edges < 0) | (edges >= n_total)).any(axis=1))
    if outside.size:
        raise FormatError(f"{paths['A'].name}:{line_nos[outside[0]]}: node id out of range")
    edge_graphs = graph_ids[edges]
    crossing = np.flatnonzero(edge_graphs[:, 0] != edge_graphs[:, 1])
    if crossing.size:
        raise FormatError(
            f"{paths['A'].name}:{line_nos[crossing[0]]}: edge joins nodes of different graphs"
        )
    edge_order = np.argsort(edge_graphs[:, 0], kind="stable")
    edge_ends = np.cumsum(np.bincount(edge_graphs[:, 0], minlength=n_graphs))[:-1]

    if paths["node_labels"].exists():
        raw_nl = _read_int_rows(paths["node_labels"], 1)[0][:, 0]
        if raw_nl.shape[0] != n_total:
            raise FormatError(f"{paths['node_labels'].name}: line count does not match node count")
        nl = np.unique(raw_nl, return_inverse=True)[1]
        all_feats = np.eye(nl.max() + 1)[nl]
    else:
        all_feats = np.ones((n_total, 1))

    return [
        Graph(n_nodes=int(n), edges=e, features=x, graph_label=int(y))
        for n, e, x, y in zip(
            counts,
            np.split(local_ids[edges[edge_order]], edge_ends),
            np.split(all_feats[node_order], np.cumsum(counts)[:-1]),
            graph_labels,
        )
    ]


# ---------------------------------------------------------------------------
# JSON node-classification bundle


def _int_array(value, path: Path, key: str, pairs: bool = False) -> np.ndarray:
    """``value`` as an int64 list, or a list of [a, b] pairs when ``pairs``.
    Floats, strings, booleans and ragged or misshapen lists raise
    FormatError naming the file and the key; nothing is truncated."""
    tail = (2,) if pairs else ()
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.size == 0:
        return np.zeros((0, *tail), dtype=np.int64)
    if arr.dtype.kind != "i" or arr.shape[1:] != tail or arr.ndim != len(tail) + 1:
        want = "a list of [a, b] integer pairs" if pairs else "a list of integers"
        raise FormatError(f"bundle {path.name}: key {key!r} must be {want}")
    return arr.astype(np.int64)


def _float_array(value, path: Path, key: str, matrix: bool = False) -> np.ndarray:
    """``value``, a list or, when ``matrix``, a list of rows, as float64.
    Every entry must be a finite JSON number: strings, booleans, null,
    NaN and Infinity raise FormatError naming the file and the key."""
    rows = value if matrix else [value]
    what = "a matrix" if matrix else "a list"
    if not (type(value) is list and all(type(r) is list for r in rows)
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        raise FormatError(f"bundle {path.name}: key {key!r} must be {what} of numbers")
    try:
        arr = np.array(value, dtype=np.float64)
    except (ValueError, OverflowError) as e:  # ragged rows, or an int beyond float range
        raise FormatError(f"bundle {path.name}: key {key!r} is not {what}: {e}") from e
    if not np.isfinite(arr).all():
        raise FormatError(f"bundle {path.name}: key {key!r} must hold finite numbers")
    return arr


def _undirected_pairs(n: int, edges: np.ndarray) -> SparseMatrix:
    """The (min, max) pattern of ``edges``: each undirected pair once, sorted."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return SparseMatrix.from_coo(n, n, lo, hi, np.ones(lo.size))


def load_json_bundle(path) -> Graph:
    """Load a node-classification graph from a JSON bundle.

    A pair stored twice or in both orientations merges into its first copy,
    as ``save_json_bundle`` merges them; the Graph mirrors each kept pair,
    except a self-loop ``[i, i]``, kept once.
    Features may be dense (nested arrays), loaded as a float64 array, or
    sparse ({indices: [[row, col], ...], values, shape}), loaded as a CSR
    ``SparseMatrix`` of exactly those entries once they pass every check:
    no n-by-d array is made. Each split list is sorted and its repeats
    merge; two lists that share a node raise FormatError naming both keys.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as e:
        raise FormatError(f"bundle {path.name} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise FormatError(f"bundle {path.name}: the top level must be a JSON object")
    for key in ("n_nodes", "edges", "features", "labels", "train_idx", "val_idx", "test_idx"):
        if key not in obj:
            raise FormatError(f"bundle {path.name} missing key {key!r}")
    n = obj["n_nodes"]
    if type(n) is not int or n < 0:
        raise FormatError(f"bundle {path.name}: key 'n_nodes' must be a non-negative integer")
    stored = _int_array(obj["edges"], path, "edges", pairs=True)
    if stored.size and (stored.min() < 0 or stored.max() >= n):
        raise FormatError(f"bundle {path.name}: key 'edges' has endpoint out of range")
    # labels first: an n_nodes that the labels do not back sizes no array
    labels = _int_array(obj["labels"], path, "labels")
    if labels.shape != (n,) or np.any(labels < 0):
        raise FormatError(f"bundle {path.name}: key 'labels' must hold {n} non-negative integers")
    if n and labels.max() >= n:  # more classes than nodes
        raise FormatError(f"bundle {path.name}: key 'labels' has class {labels.max()} >= {n} nodes")
    if _undirected_pairs(n, stored).nnz < len(stored):  # keep each pair's first copy
        stored = stored[np.sort(np.unique(np.sort(stored, axis=1), axis=0, return_index=True)[1])]
    edges = np.concatenate([stored, stored[stored[:, 0] != stored[:, 1], ::-1]], axis=0)

    feats = obj["features"]
    if isinstance(feats, dict):
        for key in ("indices", "values", "shape"):
            if key not in feats:
                raise FormatError(f"bundle {path.name}: sparse features missing key {key!r}")
        shape = tuple(_int_array(feats["shape"], path, "features").tolist())
        if len(shape) != 2 or min(shape) < 0:
            raise FormatError(f"bundle {path.name}: key 'features' has shape {shape}")
        if shape[0] != n:
            raise FormatError(
                f"bundle {path.name}: key 'features' has shape {shape}, expected {n} rows"
            )
        idx = _int_array(feats["indices"], path, "features", pairs=True)
        values = _float_array(feats["values"], path, "features")
        if values.shape != (idx.shape[0],):
            raise FormatError(
                f"bundle {path.name}: key 'features' has {values.size} values "
                f"for {idx.shape[0]} indices"
            )
        if idx.size and (idx.min() < 0 or np.any(idx.max(axis=0) >= shape)):
            raise FormatError(f"bundle {path.name}: key 'features' index out of range")
        x = SparseMatrix.from_coo(*shape, idx[:, 0], idx[:, 1], values)
        if x.nnz < idx.shape[0]:  # from_coo merged a repeated index pair
            pairs, counts = np.unique(idx, axis=0, return_counts=True)
            row, col = pairs[np.argmax(counts > 1)]
            raise FormatError(f"bundle {path.name}: key 'features' repeats index [{row}, {col}]")
    else:
        x = _float_array(feats, path, "features", matrix=True)
        if x.ndim != 2 or x.shape[0] != n:
            raise FormatError(
                f"bundle {path.name}: key 'features' has shape {x.shape}, expected {n} rows"
            )

    split = {}
    for key in ("train_idx", "val_idx", "test_idx"):
        idx = np.unique(_int_array(obj[key], path, key))
        if idx.size and (idx[0] < 0 or idx[-1] >= n):
            raise FormatError(f"bundle {path.name}: key {key!r} index out of range")
        for other, seen in split.items():
            shared = np.intersect1d(seen, idx)
            if shared.size:
                raise FormatError(
                    f"bundle {path.name}: keys {other!r} and {key!r} share node {shared[0]}"
                )
        split[key] = idx
    return Graph(n_nodes=n, edges=edges, features=x, node_labels=labels,
                 split=DatasetSplit(**split))


def save_json_bundle(g: Graph, path) -> None:
    """Write a Graph as a canonical JSON bundle.

    Canonical form: undirected edges stored once with src <= dst, sorted,
    repeats merged; features written sparse, their nonzero entries in
    row-major order, when fewer than a quarter of entries are nonzero or
    there are none, dense otherwise. Array and CSR features with the same
    dense form write the same bytes. load(save(g)) reproduces the same bundle
    byte-for-byte on a second save. The graph must carry node labels,
    since the loader requires one per node; a graph without a split writes
    empty split lists.
    """
    if g.node_labels is None:
        raise ContractError("a JSON bundle needs node labels")
    pairs = _undirected_pairs(g.n_nodes, g.edges)
    x = g.features
    nonzero = x.drop_zeros() if isinstance(x, SparseMatrix) else SparseMatrix.from_dense(x)
    size = g.n_nodes * g.feature_dim
    # a dense list of no rows would lose the width, so an empty matrix is sparse
    density = nonzero.nnz / size if size else 0.0
    if density < SPARSE_FEATURE_DENSITY:
        features = {
            "indices": np.stack([nonzero.row_ids, nonzero.col_indices], axis=1).tolist(),
            "values": nonzero.values.tolist(),
            "shape": [g.n_nodes, g.feature_dim],
        }
    else:
        features = g.dense_features().tolist()
    obj = {
        "n_nodes": g.n_nodes,
        "edges": np.stack([pairs.row_ids, pairs.col_indices], axis=1).tolist(),
        "features": features,
        "labels": g.node_labels.tolist(),
    }
    for key in ("train_idx", "val_idx", "test_idx"):
        obj[key] = getattr(g.split, key).tolist() if g.split is not None else []
    atomic_write(path, json.dumps(obj))


def atomic_write(path, data: str | bytes) -> None:
    """Write through a temporary file and a rename, so that ``path`` never
    holds a partly written file."""
    tmp = Path(str(path) + ".tmp")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data, encoding="utf-8")
    tmp.replace(path)


# ---------------------------------------------------------------------------
# adjacency, features, splits, neighborhoods, batching


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """Symmetrically normalized adjacency with self-loops: Â = D^-1/2 (A + I) D^-1/2.

    A counts each listing of a pair, and I adds to a listed self-loop;
    entry (i, j) is c_ij / sqrt(d_i d_j), with c = A + I and d_i its row
    sum. Isolated nodes reduce to a self-loop of weight 1.
    """
    n = g.n_nodes
    rows = np.concatenate([g.edges[:, 0], np.arange(n)])
    cols = np.concatenate([g.edges[:, 1], np.arange(n)])
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n))
    return SparseMatrix.from_coo(n, n, rows, cols, inv_sqrt[rows] * inv_sqrt[cols])


def random_split(
    n_items: int,
    labels: np.ndarray,
    ratios: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Seeded train/val/test split of ``n_items`` items, stratified per class.

    ``labels`` holds one class per item, and the three ratios sum to 1
    (within 1e-9); anything else raises ConfigError. Within each class,
    floor(ratio * count) items go to val and test and the remainder to
    train, so every item is placed. Classes smaller than the number of
    nonzero parts fall back to a pooled unstratified split with a warning.
    """
    labels = np.asarray(labels)
    if labels.shape != (n_items,):
        raise ConfigError(f"random_split needs {n_items} labels, got shape {labels.shape}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios {ratios} must sum to 1")
    rng = np.random.default_rng(seed)
    n_parts = sum(1 for r in ratios if r > 0)
    train: list = []
    val: list = []
    test: list = []

    def split_pool(pool: np.ndarray) -> None:
        pool = rng.permutation(pool)
        n_val = int(ratios[1] * len(pool))
        n_test = int(ratios[2] * len(pool))
        n_train = len(pool) - n_val - n_test
        train.extend(pool[:n_train])
        val.extend(pool[n_train : n_train + n_val])
        test.extend(pool[n_train + n_val :])

    leftovers = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if len(members) < n_parts:
            leftovers.append(members)
        else:
            split_pool(members)
    if leftovers:
        warnings.warn("classes too small to stratify; splitting them unstratified")
        split_pool(np.concatenate(leftovers))
    return DatasetSplit(
        train_idx=np.asarray(train, dtype=np.int64),
        val_idx=np.asarray(val, dtype=np.int64),
        test_idx=np.asarray(test, dtype=np.int64),
    )


def apply_split_masks(g: Graph, split: DatasetSplit) -> Graph:
    """Copy of g carrying ``split``."""
    return replace(g, split=split)


def sample_neighbors(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every directed edge as (rows, cols), in edge order: each node's full
    neighborhood, for GraphSage's mean. Nothing is sorted, since
    ``SparseMatrix.from_coo`` sorts the pairs itself."""
    return g.edges[:, 0], g.edges[:, 1]


def mean_aggregator(rows: np.ndarray, cols: np.ndarray, n_nodes: int) -> SparseMatrix:
    """Row-stochastic operator averaging each node's neighbors.

    Entry (i, j) is the listings of (i, j) over those of row i; rows
    without edges stay zero, so an isolated node's neighbor mean is zero.
    """
    counts = np.bincount(rows, minlength=n_nodes)
    return SparseMatrix.from_coo(n_nodes, n_nodes, rows, cols, 1.0 / counts[rows])


def batch_graphs(graphs: list[Graph]) -> GraphBatch:
    """Merge graphs into one block-diagonal graph with offset node ids.
    Features must be arrays: only the TU loader and the SBM generator make
    graph-task graphs, and both make arrays."""
    if not graphs:
        raise ConfigError("cannot batch an empty list of graphs")
    if any(isinstance(g.features, SparseMatrix) for g in graphs):
        raise ContractError("batch_graphs takes graphs with array features, not CSR")
    dim = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != dim:
            raise ShapeError(f"feature dims differ: {dim} vs {g.feature_dim}")
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
    merged = Graph(
        n_nodes=int(offsets[-1]),
        edges=np.concatenate([g.edges + offsets[i] for i, g in enumerate(graphs)], axis=0),
        features=np.concatenate([g.features for g in graphs], axis=0),
    )
    graph_ids = np.repeat(np.arange(len(graphs)), [g.n_nodes for g in graphs])
    return GraphBatch(graph=merged, graph_ids=graph_ids, n_graphs=len(graphs))


def generate_sbm(
    n_per_block: int,
    n_blocks: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    seed: int,
    noise_scale: float = 1.0,
) -> Graph:
    """Stochastic block model with block index as node label.

    Features are a one-hot block indicator (in the first n_blocks
    columns) plus seeded gaussian noise at ``noise_scale`` everywhere.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ConfigError("edge probabilities must lie in [0, 1]")
    if feature_dim < n_blocks:
        raise ConfigError(f"feature_dim {feature_dim} < n_blocks {n_blocks}")
    rng = np.random.default_rng(seed)
    n = n_per_block * n_blocks
    labels = np.repeat(np.arange(n_blocks), n_per_block)
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    chosen = rng.random(p.shape) < p
    src, dst = iu[chosen], ju[chosen]
    edges = np.concatenate(
        [np.stack([src, dst], axis=1), np.stack([dst, src], axis=1)], axis=0
    )
    x = rng.standard_normal((n, feature_dim)) * noise_scale
    x[np.arange(n), labels] += 1.0
    return Graph(n_nodes=n, edges=edges, features=x, node_labels=labels)
