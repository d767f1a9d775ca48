"""Graph containers, loaders, splits, neighborhoods, batching, generators."""

import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgnn.errors import ConfigError, ContractError, FormatError, ShapeError
from bgnn.graph_data import (
    DatasetSplit,
    Graph,
    atomic_write,
    batch_graphs,
    generate_sbm,
    load_json_bundle,
    load_tu_dataset,
    mean_aggregator,
    normalize_adjacency,
    random_split,
    sample_neighbors,
    save_json_bundle,
)
from bgnn.models import ARCHITECTURES, SPARSE_INPUT_DENSITY, ModelConfig, build_forward_context
from bgnn.sparse import SparseMatrix
from bgnn.tensor import Tensor
from bgnn import tensor as T
from helpers import (
    assert_bits, assert_same_csr, degrees, one_hot_degree_features, wide_range, write_tu_dir
)


def tiny_graph(n=3, edges=((0, 1), (1, 0)), dim=2):
    return Graph(n_nodes=n, edges=np.array(edges), features=np.zeros((n, dim)))


class TestGraphValidation:
    def test_edge_out_of_range(self):
        with pytest.raises(FormatError):
            tiny_graph(n=2, edges=((0, 2),))

    def test_feature_row_mismatch(self):
        with pytest.raises(ShapeError):
            Graph(n_nodes=3, edges=np.zeros((0, 2)), features=np.zeros((2, 2)))

    def test_features_are_a_float64_array(self):
        g = Graph(n_nodes=2, edges=np.zeros((0, 2)), features=[[1, 2], [3, 4]])
        assert isinstance(g.features, np.ndarray) and g.features.dtype == np.float64
        assert g.feature_dim == 2
        with pytest.raises(ShapeError):
            Graph(n_nodes=2, edges=np.zeros((0, 2)), features=np.zeros(2))

    def test_csr_features_kept_and_row_count_checked(self):
        x = SparseMatrix.from_coo(2, 7, [1], [6], [3.0])
        g = Graph(n_nodes=2, edges=np.zeros((0, 2)), features=x)
        assert g.features is x and g.feature_dim == 7
        with pytest.raises(ShapeError, match=r"\(3, 7\) for 2 nodes"):
            Graph(n_nodes=2, edges=np.zeros((0, 2)),
                  features=SparseMatrix.from_coo(3, 7, [], [], []))

    def test_degrees(self):
        g = tiny_graph(n=4, edges=((0, 1), (1, 0), (1, 2), (2, 1)))
        np.testing.assert_array_equal(degrees(g), [1, 2, 1, 0])


@st.composite
def tu_collections(draw):
    """Graphs and layout options for ``write_tu_dir``: nodes and edges of
    different graphs interleave in the files, and edge lists may be empty
    or hold self-loops and repeated edges."""
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 5))
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=8))
        labels = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        graphs.append((labels, edges, draw(st.integers(-5, 5))))
    node_order = draw(st.permutations([g for g, (nl, _, _) in enumerate(graphs) for _ in nl]))
    edge_order = draw(st.permutations([g for g, (_, e, _) in enumerate(graphs) for _ in e]))
    options = {
        "sep": draw(st.sampled_from([",", ", ", " ", "  "])),
        "blank_lines": draw(st.booleans()),
        "node_labels": draw(st.booleans()),
    }
    return graphs, node_order, edge_order, options


class TestTuLoader:
    def write_two_triangles(self, d, name="TOY"):
        # 6 nodes, two triangles, indicator [1,1,1,2,2,2]
        edges = []
        for base in (1, 4):
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edges.append(f"{base + a}, {base + b}")
                edges.append(f"{base + b}, {base + a}")
        (d / f"{name}_A.txt").write_text("\n".join(edges))
        (d / f"{name}_graph_indicator.txt").write_text("\n".join("112222"[i] for i in range(6)))
        (d / f"{name}_graph_indicator.txt").write_text("\n".join(["1", "1", "1", "2", "2", "2"]))
        (d / f"{name}_graph_labels.txt").write_text("1\n-1\n")

    def test_two_triangle_fixture(self, tmp_path):
        self.write_two_triangles(tmp_path)
        graphs = load_tu_dataset(tmp_path, "TOY")
        assert len(graphs) == 2
        for g in graphs:
            assert g.n_nodes == 3
            assert len(g.edges) == 6  # 3 undirected edges, both directions
        assert sorted(g.graph_label for g in graphs) == [0, 1]  # remapped from {-1, 1}

    def test_node_labels_become_one_hot_features(self, tmp_path):
        self.write_two_triangles(tmp_path)
        (tmp_path / "TOY_node_labels.txt").write_text("\n".join(["0", "1", "0", "2", "1", "0"]))
        graphs = load_tu_dataset(tmp_path, "TOY")
        assert graphs[0].feature_dim == 3
        np.testing.assert_allclose(graphs[0].features.sum(axis=1), 1.0)
        np.testing.assert_allclose(graphs[0].features[1], [0.0, 1.0, 0.0])

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="TOY_A.txt"):
            load_tu_dataset(tmp_path, "TOY")

    def test_cross_graph_edge_reports_line(self, tmp_path):
        self.write_two_triangles(tmp_path)
        a = tmp_path / "TOY_A.txt"
        a.write_text(a.read_text() + "\n1, 4")  # line 13 joins the two triangles
        with pytest.raises(FormatError, match="TOY_A.txt:13"):
            load_tu_dataset(tmp_path, "TOY")

    def test_non_integer_graph_label_reports_line(self, tmp_path):
        self.write_two_triangles(tmp_path)
        (tmp_path / "TOY_graph_labels.txt").write_text("1\nfoo\n")
        with pytest.raises(FormatError, match="TOY_graph_labels.txt:2"):
            load_tu_dataset(tmp_path, "TOY")

    def test_integer_beyond_int64_reports_line(self, tmp_path):
        self.write_two_triangles(tmp_path)
        (tmp_path / "TOY_graph_labels.txt").write_text("1\n99999999999999999999\n")
        with pytest.raises(FormatError, match="TOY_graph_labels.txt:2"):
            load_tu_dataset(tmp_path, "TOY")

    def test_graph_id_below_one_reports_line(self, tmp_path):
        self.write_two_triangles(tmp_path)
        (tmp_path / "TOY_graph_indicator.txt").write_text("1\n0\n1\n2\n2\n2\n")
        with pytest.raises(FormatError, match="TOY_graph_indicator.txt:2"):
            load_tu_dataset(tmp_path, "TOY")

    @pytest.mark.parametrize("key", ["A", "graph_indicator", "graph_labels", "node_labels"])
    def test_non_utf8_byte_named(self, tmp_path, key):
        self.write_two_triangles(tmp_path)
        (tmp_path / "TOY_node_labels.txt").write_text("0\n1\n0\n2\n1\n0\n")
        f = tmp_path / f"TOY_{key}.txt"
        f.write_bytes(f.read_bytes() + b"\n\xff\n")
        with pytest.raises(FormatError, match=f"TOY_{key}.txt: not UTF-8"):
            load_tu_dataset(tmp_path, "TOY")

    def test_graph_without_nodes_named(self, tmp_path):
        self.write_two_triangles(tmp_path)
        (tmp_path / "TOY_A.txt").write_text("")
        (tmp_path / "TOY_graph_indicator.txt").write_text("1\n1\n1\n3\n3\n3\n")
        (tmp_path / "TOY_graph_labels.txt").write_text("1\n-1\n1\n")
        with pytest.raises(FormatError, match="TOY_graph_indicator.txt: graph 2 has no nodes"):
            load_tu_dataset(tmp_path, "TOY")

    def test_graph_with_no_edges_loads(self, tmp_path):
        (tmp_path / "E_A.txt").write_text("")
        (tmp_path / "E_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "E_graph_labels.txt").write_text("5\n")
        graphs = load_tu_dataset(tmp_path, "E")
        assert graphs[0].n_nodes == 2 and len(graphs[0].edges) == 0

    def test_node_count_matches_indicator_lines(self, tmp_path):
        self.write_two_triangles(tmp_path)
        graphs = load_tu_dataset(tmp_path, "TOY")
        lines = (tmp_path / "TOY_graph_indicator.txt").read_text().splitlines()
        assert sum(g.n_nodes for g in graphs) == len(lines)

    def test_directory_without_graphs_is_a_format_error(self, tmp_path):
        for key in ("A", "graph_indicator", "graph_labels"):
            (tmp_path / f"TOY_{key}.txt").write_text("")
        with pytest.raises(FormatError, match="TOY_graph_indicator.txt"):
            load_tu_dataset(tmp_path, "TOY")

    @settings(max_examples=80, deadline=None)
    @given(tu_collections())
    def test_written_graphs_load_back(self, collection):
        graphs, node_order, edge_order, options = collection
        with tempfile.TemporaryDirectory() as d:
            write_tu_dir(Path(d), "R", graphs, node_order, edge_order, **options)
            loaded = load_tu_dataset(d, "R")
        node_classes = sorted({x for labels, _, _ in graphs for x in labels})
        graph_classes = sorted({label for _, _, label in graphs})
        assert len(loaded) == len(graphs)
        for g, (labels, edges, label) in zip(loaded, graphs):
            assert g.n_nodes == len(labels)
            assert g.edges.dtype == np.int64
            np.testing.assert_array_equal(g.edges, np.array(edges, dtype=np.int64).reshape(-1, 2))
            if options["node_labels"]:
                want = np.eye(len(node_classes))[[node_classes.index(x) for x in labels]]
            else:
                want = np.ones((len(labels), 1))
            np.testing.assert_array_equal(g.features, want)
            assert g.graph_label == graph_classes.index(label)


class TestJsonBundle:
    def minimal_bundle(self, tmp_path):
        obj = {
            "n_nodes": 2,
            "edges": [[0, 1]],
            "features": [[1.0, 0.0], [0.0, 1.0]],
            "labels": [0, 1],
            "train_idx": [0],
            "val_idx": [1],
            "test_idx": [],
        }
        p = tmp_path / "b.json"
        p.write_text(json.dumps(obj))
        return p

    def test_minimal_bundle_mirrors_edges(self, tmp_path):
        g = load_json_bundle(self.minimal_bundle(tmp_path))
        assert g.n_nodes == 2
        assert len(g.edges) == 2  # one stored edge, two directions
        np.testing.assert_array_equal(g.split.train_idx, [0])
        np.testing.assert_array_equal(g.split.val_idx, [1])
        assert g.split.test_idx.size == 0

    def test_split_lists_sorted_and_repeats_merged(self, tmp_path):
        p = self.minimal_bundle(tmp_path)
        obj = json.loads(p.read_text())
        obj.update(n_nodes=5, features=[[0.0, 1.0]] * 5, labels=[0, 1, 0, 1, 0],
                   train_idx=[3, 0, 3], val_idx=[1, 1], test_idx=[4, 2])
        p.write_text(json.dumps(obj))
        split = load_json_bundle(p).split
        for got, want in zip((split.train_idx, split.val_idx, split.test_idx),
                             ([0, 3], [1], [2, 4])):
            assert_bits(got, np.array(want, dtype=np.int64))

    @pytest.mark.parametrize("first, second", [("train_idx", "val_idx"),
                                               ("train_idx", "test_idx"),
                                               ("val_idx", "test_idx")])
    def test_overlapping_split_lists_named(self, tmp_path, first, second):
        p = self.minimal_bundle(tmp_path)
        obj = json.loads(p.read_text())
        obj.update({"train_idx": [], "val_idx": [], "test_idx": [], first: [0, 1], second: [1]})
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError,
                           match=f"b.json: keys '{first}' and '{second}' share node 1"):
            load_json_bundle(p)

    def test_missing_key_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n_nodes": 1}))
        with pytest.raises(FormatError, match="edges"):
            load_json_bundle(p)

    def test_index_out_of_range_named(self, tmp_path):
        p = self.minimal_bundle(tmp_path)
        obj = json.loads(p.read_text())
        obj["train_idx"] = [5]
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="train_idx"):
            load_json_bundle(p)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("labels", [0]),  # shorter than n_nodes
            ("labels", [0, -1]),  # negative class
            ("labels", [0, 1.5]),  # not an integer
            ("features", [[1.0, 0.0], [0.0]]),  # ragged rows
            ("features", [[1.0, 0.0]]),  # fewer rows than nodes
            ("features", {"indices": [], "values": [], "shape": [1, 2]}),
            ("n_nodes", "two"),
            ("n_nodes", 2.0),
            ("n_nodes", -1),
            ("edges", [[0, 1.7]]),  # would truncate to [0, 1]
            ("edges", [[0, 1, 1]]),  # three ids in one edge row
            ("edges", [[0, 1], [1]]),  # ragged
            ("edges", [0, 1]),  # flat, not pairs
            ("train_idx", [0.9]),  # would truncate to node 0
            ("val_idx", ["1"]),
            ("test_idx", [[1]]),
            ("features", [[float("nan"), 0.0], [0.0, 1.0]]),  # json writes NaN
            ("features", [[1.0, float("inf")], [0.0, 1.0]]),  # json writes Infinity
            ("features", [["1.5", 0.0], [0.0, 1.0]]),  # would coerce to 1.5
            ("features", [[True, 0.0], [0.0, 1.0]]),  # would coerce to 1.0
            ("features", [[None, 0.0], [0.0, 1.0]]),
            ("labels", [0, 2]),  # class 2 of 2 nodes: more classes than nodes
        ],
    )
    def test_bad_labels_or_features_named(self, tmp_path, key, value):
        p = self.minimal_bundle(tmp_path)
        obj = json.loads(p.read_text())
        obj[key] = value
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=f"b.json: key '{key}'"):
            load_json_bundle(p)

    def test_malformed_json_named(self, tmp_path):
        p = self.minimal_bundle(tmp_path)
        p.write_text(p.read_text()[:-1])
        with pytest.raises(FormatError, match="b.json is not valid JSON"):
            load_json_bundle(p)

    @pytest.mark.parametrize("top", ["null", "5", "[1, 2]", '"b"'])
    def test_top_level_not_an_object_named(self, tmp_path, top):
        p = tmp_path / "b.json"
        p.write_text(top)
        with pytest.raises(FormatError, match="b.json: the top level must be a JSON object"):
            load_json_bundle(p)

    def test_sparse_features_densified(self, tmp_path):
        obj = {
            "n_nodes": 2,
            "edges": [],
            "features": {"indices": [[0, 3], [1, 0]], "values": [2.0, 5.0], "shape": [2, 5]},
            "labels": [0, 0],
            "train_idx": [],
            "val_idx": [],
            "test_idx": [],
        }
        p = tmp_path / "s.json"
        p.write_text(json.dumps(obj))
        g = load_json_bundle(p)
        assert isinstance(g.features, SparseMatrix) and g.features.shape == (2, 5)
        x = g.features.to_dense()
        assert x[0, 3] == 2.0 and x[1, 0] == 5.0
        assert np.count_nonzero(x) == 2

    @pytest.mark.parametrize(
        "features",
        [
            {"indices": [[-1, 0]], "values": [1.0], "shape": [2, 5]},
            {"indices": [[0, -2]], "values": [1.0], "shape": [2, 5]},
            {"indices": [[0, 5]], "values": [1.0], "shape": [2, 5]},
            {"indices": [[0, 1], [1, 2]], "values": [1.0], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": [1.0, 2.0], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": [1.0], "shape": [2, 5, 1]},
            {"indices": [[0, 1.5]], "values": [1.0], "shape": [2, 5]},
            {"indices": [[0, 1, 2]], "values": [1.0], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": [1.0], "shape": [2, 5.5]},
            {"indices": [[0, 1]], "values": [1.0], "shape": "2x5"},
            {"indices": [[0, 1]], "values": ["x"], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": ["1.5"], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": [True], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": [float("nan")], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": [float("-inf")], "shape": [2, 5]},
            {"indices": [[0, 1]], "values": 1.0, "shape": [2, 5]},
            {"indices": [[0, 0], [0, 0]], "values": [1.0, 5.0], "shape": [2, 5]},  # repeated
            {"indices": [], "values": [], "shape": [3, 5]},  # 3 rows for 2 nodes
            {"indices": [], "values": [], "shape": [10**12, 5]},  # checked before any allocation
        ],
    )
    def test_bad_sparse_features_rejected(self, tmp_path, features):
        p = self.minimal_bundle(tmp_path)
        obj = json.loads(p.read_text())
        obj["features"] = features
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="features"):
            load_json_bundle(p)

    def test_sparse_index_pairs_compared_without_overflow(self, tmp_path):
        """[0, 0] and [2, 2] of a (2**63 - 1)-wide shape are distinct pairs,
        though a flat row * width + col index wraps both to one int64."""
        wide = 2**63 - 1
        features = {"indices": [[0, 0], [2, 2]], "values": [1.0, 2.0], "shape": [3, wide]}
        g = load_json_bundle(write_bundle(tmp_path / "w.json", 3, features))
        assert g.features.shape == (3, wide) and g.features.nnz == 2
        features["indices"].append([2, 2])
        features["values"].append(3.0)
        with pytest.raises(FormatError, match=r"w.json: key 'features' repeats index \[2, 2\]"):
            load_json_bundle(write_bundle(tmp_path / "w.json", 3, features))

    def test_n_nodes_that_labels_do_not_back_sizes_nothing(self, tmp_path):
        """10**12 nodes with a matching sparse shape but two labels fail on
        the labels, before anything with a row per node is made."""
        p = self.minimal_bundle(tmp_path)
        obj = json.loads(p.read_text())
        obj.update(n_nodes=10**12, features={"indices": [], "values": [], "shape": [10**12, 2]})
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="b.json: key 'labels'"):
            load_json_bundle(p)

    def test_round_trip_canonical(self, tmp_path):
        g = generate_sbm(5, 2, 0.8, 0.2, 4, seed=3)
        g.split = random_split(10, g.node_labels, (0.6, 0.2, 0.2), seed=0)
        edgeless = replace(g, edges=np.zeros((0, 2), dtype=np.int64))
        for g in (g, edgeless):
            p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
            save_json_bundle(g, p1)
            back = load_json_bundle(p1)
            assert back.edges.shape == g.edges.shape and back.edges.dtype == np.int64
            save_json_bundle(back, p2)
            assert p1.read_text() == p2.read_text()

    def test_save_needs_labels(self, tmp_path):
        with pytest.raises(ContractError):
            save_json_bundle(tiny_graph(), tmp_path / "u.json")

    def test_sparse_round_trip(self, tmp_path):
        x = np.zeros((6, 10))
        x[0, 1] = 3.0
        x[5, 9] = -2.0
        g = Graph(
            n_nodes=6,
            edges=np.array([[0, 1], [1, 0]]),
            features=x,
            node_labels=np.zeros(6, dtype=np.int64),
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_json_bundle(g, p1)
        assert "indices" in p1.read_text()  # density 2/60 stays sparse on disk
        back = load_json_bundle(p1)
        assert_bits(back.features.to_dense(), x)
        save_json_bundle(back, p2)
        assert p1.read_text() == p2.read_text()

    def test_stored_self_loop_kept_once(self, tmp_path):
        g = load_json_bundle(write_bundle(tmp_path / "a.json", 3, [[1.0]] * 3, [[0, 0], [0, 1]]))
        np.testing.assert_array_equal(g.edges, [[0, 0], [0, 1], [1, 0]])
        # GraphSage's mean over node 0's neighbors {0, 1}: each weighs 1/2
        mean = mean_aggregator(*sample_neighbors(g), g.n_nodes).to_dense()
        np.testing.assert_array_equal(mean[0], [0.5, 0.5, 0.0])
        save_json_bundle(g, tmp_path / "b.json")
        assert json.loads((tmp_path / "b.json").read_text())["edges"] == [[0, 0], [0, 1]]
        np.testing.assert_array_equal(load_json_bundle(tmp_path / "b.json").edges, g.edges)

    def test_a_pair_stored_both_ways_loads_once_per_direction(self, tmp_path):
        """[1, 0] repeats [0, 1]: GraphSage's mean for node 1 weighs 0 and
        2 alike, GCN's Â is that of the bundle without the repeat, and GAT
        attends once per neighbour."""
        g = load_json_bundle(write_bundle(tmp_path / "a.json", 3, [[1.0]] * 3,
                                          [[0, 1], [1, 0], [1, 2]]))
        assert_bits(g.edges, np.array([[0, 1], [1, 2], [1, 0], [2, 1]]))
        plain = load_json_bundle(write_bundle(tmp_path / "b.json", 3, [[1.0]] * 3,
                                              [[0, 1], [1, 2]]))
        ctx = {arch: build_forward_context(ModelConfig(arch, 1, 2, 1, heads=1), g)
               for arch in ARCHITECTURES}
        np.testing.assert_array_equal(ctx["sage"]["mean_op"].to_dense()[1], [0.5, 0.0, 0.5])
        assert_same_csr(ctx["gcn"]["adj"], normalize_adjacency(plain))
        pairs = np.stack([ctx["gat"]["src"], ctx["gat"]["dst"]], axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs) == 7  # 4 edges, 3 self-loops

    @given(n=st.integers(1, 8), pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                               max_size=30))
    @example(n=4, pairs=[(2, 1), (1, 2), (1, 2), (3, 3), (3, 3), (0, 2)])  # 0 and 3 apart
    @example(n=3, pairs=[(0, 1), (1, 2)])  # no repeat: loads as stored, then mirrored
    @settings(max_examples=40, deadline=None)
    def test_each_undirected_pair_loads_once_per_direction(self, n, pairs):
        """Repeated, reversed and self-loop pairs merge into their first
        copy, in stored order; a second round trip keeps the edges."""
        stored = [p for p in pairs if max(p) < n]
        first, seen = [], set()
        for a, b in stored:
            if (min(a, b), max(a, b)) not in seen:
                seen.add((min(a, b), max(a, b)))
                first.append((a, b))
        with tempfile.TemporaryDirectory() as tmp:
            g = load_json_bundle(write_bundle(Path(tmp) / "a.json", n, [[1.0]] * n, stored))
            save_json_bundle(g, Path(tmp) / "b.json")
            back = load_json_bundle(Path(tmp) / "b.json")
        want = first + [(b, a) for a, b in first if a != b]
        assert_bits(g.edges, np.array(want, dtype=np.int64).reshape(-1, 2))
        assert {tuple(e) for e in back.edges.tolist()} == set(want)
        assert len(back.edges) == len(want)

    def test_a_repeat_free_bundle_runs_no_unique_over_rows(self, tmp_path, monkeypatch):
        """The pattern pass finds no repeat, so no row-wise ``np.unique``
        runs; a repeat takes one."""
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(kw) or unique(*a, **kw))
        load_json_bundle(write_bundle(tmp_path / "a.json", 3, [[1.0]] * 3, [[0, 1], [2, 1]]))
        assert not any("axis" in kw for kw in calls)
        load_json_bundle(write_bundle(tmp_path / "a.json", 3, [[1.0]] * 3, [[0, 1], [1, 0]]))
        assert any("axis" in kw for kw in calls)

    @given(n=st.integers(1, 8), pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                               max_size=30))
    @example(n=4, pairs=[(2, 1), (1, 2), (1, 2), (3, 3), (3, 3), (0, 2)])
    @example(n=3, pairs=[])
    @settings(max_examples=40, deadline=None)
    def test_saved_bytes_match_the_np_unique_reference(self, n, pairs):
        """Edges listed in any order, repeated, reversed or as self-loops
        are written as ``np.unique`` of their (min, max) pairs."""
        edges = np.array([p for p in pairs if max(p) < n], dtype=np.int64).reshape(-1, 2)
        g = Graph(n_nodes=n, edges=edges, features=np.ones((n, 2)),
                  node_labels=np.zeros(n, dtype=np.int64))
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        want = np.unique(np.stack([lo, hi], axis=1), axis=0).tolist()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.json"
            save_json_bundle(g, path)
            text = path.read_text()
        assert text == json.dumps(dict(json.loads(text), edges=want))


class TestAtomicWrite:
    @pytest.mark.parametrize("case", ["write", "rename"])
    def test_failure_leaves_no_temporary(self, tmp_path, case):
        """A failed write (text that UTF-8 cannot encode) or rename (onto a
        directory) raises, and leaves nothing new beside ``path``."""
        path = tmp_path / "out"
        if case == "rename":
            path.mkdir()
        with pytest.raises(UnicodeEncodeError if case == "write" else OSError):
            atomic_write(path, "\ud800" if case == "write" else "text")
        assert [p.name for p in tmp_path.iterdir()] == (["out"] if case == "rename" else [])


def write_bundle(path: Path, n: int, features, edges=()) -> Path:
    """A bundle of ``n`` nodes of class 0 with ``features`` and no split."""
    obj = {"n_nodes": n, "edges": [list(e) for e in edges], "features": features,
           "labels": [0] * n, "train_idx": [], "val_idx": [], "test_idx": []}
    path.write_text(json.dumps(obj))
    return path


class TestSparseBundle:
    """A sparse bundle loads as CSR features holding its own entries, and
    gives what the same features in dense form give: the same dense
    matrix, the same forward contexts and the same saved bytes."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(0, 12),
        d=st.integers(0, 40),
        nonzeros=st.sampled_from(["none", "below", "above"]),  # the CSR cutoff
        zeros=st.booleans(),
    )
    @example(seed=0, n=0, d=5, nonzeros="below", zeros=False)  # no nodes
    @example(seed=0, n=4, d=0, nonzeros="below", zeros=False)  # no columns
    @example(seed=0, n=9, d=30, nonzeros="none", zeros=False)  # all zero, every row empty
    @example(seed=0, n=9, d=30, nonzeros="none", zeros=True)  # stored 0.0 and -0.0 only
    @example(seed=0, n=12, d=40, nonzeros="below", zeros=True)
    @example(seed=0, n=12, d=40, nonzeros="above", zeros=True)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_dense_form(self, seed, n, d, nonzeros, zeros):
        rng = np.random.default_rng(seed)
        size = n * d
        # the most nonzeros a matrix of this size can hold under the cutoff
        most = max(0, int(np.ceil(SPARSE_INPUT_DENSITY * size)) - 1)
        n_nonzero = {"none": 0, "below": int(rng.integers(0, most + 1)),
                     "above": int(rng.integers(min(most + 1, size), size + 1))}[nonzeros]
        n_zero = int(rng.integers(min(1, size - n_nonzero), size - n_nonzero + 1)) if zeros else 0
        cells = rng.permutation(size)[: n_nonzero + n_zero]  # bundle order is not CSR order
        rows, cols = np.divmod(cells, max(d, 1))
        values = np.concatenate([wide_range(rng, n_nonzero), rng.choice([0.0, -0.0], n_zero)])
        want = np.zeros((n, d))
        want[rows, cols] = values
        edges = rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2)) if n > 1 else []
        edges = [e for e in np.asarray(edges).tolist() if e[0] != e[1]]
        sparse_form = {"indices": np.stack([rows, cols], axis=1).tolist(),
                       "values": values.tolist(), "shape": [n, d]}

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            g = load_json_bundle(write_bundle(tmp / "s.json", n, sparse_form, edges))
            assert isinstance(g.features, SparseMatrix) and g.features.nnz == cells.size
            assert_bits(g.features.to_dense(), want)
            if n:
                dense = load_json_bundle(write_bundle(tmp / "d.json", n, want.tolist(), edges))
                assert_bits(dense.features, want)
            else:  # a dense list of no rows cannot give its width
                dense = replace(g, features=want)

            for arch in ARCHITECTURES if d else ():
                cfg = ModelConfig(arch=arch, in_dim=d, hidden_dim=4, n_classes=2, heads=2)
                got, ref = build_forward_context(cfg, g), build_forward_context(cfg, dense)
                assert got.keys() == ref.keys()
                for key, value in got.items():
                    same = assert_same_csr if isinstance(value, SparseMatrix) else assert_bits
                    same(value, ref[key])
                picked_csr = n_nonzero < SPARSE_INPUT_DENSITY * size
                assert isinstance(got.get("x"), SparseMatrix) == picked_csr
                if picked_csr and not n_zero:
                    assert got["x"] is g.features  # taken as it is, no copy

            paths = [tmp / f"{k}.json" for k in ("a", "b", "c")]
            save_json_bundle(g, paths[0])
            save_json_bundle(load_json_bundle(paths[0]), paths[1])
            save_json_bundle(dense, paths[2])
            first, *rest = (p.read_bytes() for p in paths)
            assert rest == [first, first]

    BIG = (2000, 5000)  # at 0.5 % density: a dense float64 copy takes 80 MB

    def big_bundle(self, tmp_path: Path) -> Path:
        """The BIG bundle, with 4000 random edges between distinct nodes."""
        n, d = self.BIG
        rng = np.random.default_rng(0)
        rows, cols = np.divmod(np.sort(rng.choice(n * d, n * d // 200, replace=False)), d)
        features = {"indices": np.stack([rows, cols], axis=1).tolist(),
                    "values": [1.0] * rows.size, "shape": [n, d]}
        edges = rng.integers(0, n, (4000, 2))
        return write_bundle(tmp_path / "big.json", n, features,
                            edges[edges[:, 0] != edges[:, 1]].tolist())

    @staticmethod
    def traced_peak(f):
        """f's result and the peak of the memory traced while it ran."""
        tracemalloc.start()
        try:
            return f(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_loading_makes_no_dense_matrix(self, tmp_path):
        """Loading the BIG bundle allocates well under a dense copy."""
        n, d = self.BIG
        path = self.big_bundle(tmp_path)
        g, peak = self.traced_peak(lambda: load_json_bundle(path))
        assert isinstance(g.features, SparseMatrix) and g.features.nnz == n * d // 200
        assert peak < n * d * 8 / 4

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_context_makes_no_dense_matrix(self, tmp_path, arch):
        """Every architecture's context of the BIG bundle holds its CSR
        features as they are and allocates well under a dense copy."""
        n, d = self.BIG
        g = load_json_bundle(self.big_bundle(tmp_path))
        cfg = ModelConfig(arch=arch, in_dim=d, hidden_dim=16, n_classes=2, heads=2)
        ctx, peak = self.traced_peak(lambda: build_forward_context(cfg, g))
        assert ctx["x"] is g.features and "agg_x" not in ctx
        assert peak < n * d * 8 / 4


def unique_pairs_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Â's pattern, ``np.unique`` over the listed pairs and a self-loop per
    node, and its values c_ij / sqrt(d_i d_j): c_ij counts the listings of
    (i, j), one more on the diagonal, and d_i sums row i of those counts."""
    loops = np.repeat(np.arange(g.n_nodes), 2).reshape(-1, 2)
    pairs, counts = np.unique(np.concatenate([g.edges, loops]), axis=0, return_counts=True)
    d = np.bincount(pairs[:, 0], weights=counts, minlength=g.n_nodes)
    return pairs, counts / np.sqrt(d[pairs[:, 0]] * d[pairs[:, 1]])


class TestNormalizeAdjacency:
    @given(n=st.integers(0, 10), pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                                                max_size=40))
    @example(n=0, pairs=[])  # no nodes
    @example(n=4, pairs=[])  # no edges: every node isolated
    @example(n=5, pairs=[(1, 0), (0, 1), (0, 1), (1, 0), (2, 2), (2, 2), (3, 1)])  # 4 isolated
    @settings(max_examples=60, deadline=None)
    def test_matches_the_np_unique_reference(self, n, pairs):
        """Each listing of a pair counts, a listed self-loop included."""
        edges = np.array([p for p in pairs if max(p) < n], dtype=np.int64).reshape(-1, 2)
        g = Graph(n_nodes=n, edges=edges, features=np.zeros((n, 1)))
        a = normalize_adjacency(g)
        want_pairs, want_values = unique_pairs_adjacency(g)
        assert_bits(np.stack([a.row_ids, a.col_indices], axis=1), want_pairs)
        np.testing.assert_allclose(a.values, want_values, rtol=1e-15, atol=0.0)

    def test_repeated_pair_counted_per_listing(self):
        """A pair listed twice weighs twice; the added self-loop adds to a
        listed one."""
        g = tiny_graph(n=2, edges=((0, 1), (0, 1), (1, 0), (1, 1)))
        # d = (3, 3): row 0 holds (0, 1) twice and the added (0, 0); row 1
        # holds (1, 0), the listed (1, 1) and the added one
        np.testing.assert_allclose(normalize_adjacency(g).to_dense(),
                                   [[1 / 3, 2 / 3], [1 / 3, 2 / 3]])

    def test_one_from_coo_call(self, monkeypatch):
        calls = []
        build = SparseMatrix.from_coo
        monkeypatch.setattr(SparseMatrix, "from_coo",
                            lambda *a: calls.append(a) or build(*a))
        normalize_adjacency(tiny_graph(n=3, edges=((0, 1), (1, 0), (0, 1))))
        assert len(calls) == 1

    def test_single_node(self):
        g = Graph(n_nodes=1, edges=np.zeros((0, 2)), features=np.zeros((1, 1)))
        np.testing.assert_allclose(normalize_adjacency(g).to_dense(), [[1.0]])

    def test_two_nodes_one_edge(self):
        g = tiny_graph(n=2, edges=((0, 1), (1, 0)))
        np.testing.assert_allclose(
            normalize_adjacency(g).to_dense(), [[0.5, 0.5], [0.5, 0.5]]
        )

    def test_three_node_path_hand_value(self):
        g = tiny_graph(n=3, edges=((0, 1), (1, 0), (1, 2), (2, 1)))
        a = normalize_adjacency(g).to_dense()
        np.testing.assert_allclose(a[0, 1], 1.0 / np.sqrt(2 * 3))
        np.testing.assert_allclose(a[0, 0], 0.5)
        np.testing.assert_allclose(a[1, 1], 1.0 / 3.0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_with_row_sums_in_unit_interval(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 15))
        k = int(g.integers(0, 25))
        src, dst = g.integers(0, n, k), g.integers(0, n, k)
        keep = src != dst
        edges = np.concatenate(
            [np.stack([src[keep], dst[keep]], 1), np.stack([dst[keep], src[keep]], 1)], axis=0
        )
        graph = Graph(n_nodes=n, edges=edges, features=np.zeros((n, 1)))
        a = normalize_adjacency(graph).to_dense()
        assert np.abs(a - a.T).max() < 1e-12
        assert np.all(a.sum(axis=1) > 0.0)
        # row sums can exceed 1 for irregular graphs; the operator norm cannot
        assert np.abs(np.linalg.eigvalsh(a)).max() <= 1.0 + 1e-9


class TestDegreeFeatures:
    def test_isolated_node(self):
        g = Graph(n_nodes=1, edges=np.zeros((0, 2)), features=np.zeros((1, 1)))
        (out,) = one_hot_degree_features([g])
        np.testing.assert_allclose(out.features, [[1.0]])

    def test_triangle_all_degree_two(self):
        g = tiny_graph(n=3, edges=((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)))
        (out,) = one_hot_degree_features([g])
        assert out.feature_dim == 3
        np.testing.assert_allclose(out.features[:, 2], 1.0)

    def test_cap_clamps(self):
        star_edges = [(0, i) for i in range(1, 10)] + [(i, 0) for i in range(1, 10)]
        g = tiny_graph(n=10, edges=star_edges)
        (out,) = one_hot_degree_features([g], cap=5)
        assert out.feature_dim == 6
        assert out.features[0, 5] == 1.0  # hub degree 9 lands in the top bucket


class TestRandomSplit:
    def test_all_train(self):
        s = random_split(10, np.zeros(10, dtype=np.int64), (1.0, 0.0, 0.0), seed=0)
        assert len(s.train_idx) == 10 and len(s.val_idx) == 0 and len(s.test_idx) == 0

    def test_stratified_counts(self):
        labels = np.array([0] * 50 + [1] * 50)
        s = random_split(100, labels, (0.8, 0.1, 0.1), seed=7)
        assert (len(s.train_idx), len(s.val_idx), len(s.test_idx)) == (80, 10, 10)
        for c in (0, 1):
            assert np.sum(labels[s.train_idx] == c) == 40
            assert np.sum(labels[s.val_idx] == c) == 5
            assert np.sum(labels[s.test_idx] == c) == 5

    def test_deterministic(self):
        labels = np.random.default_rng(1).integers(0, 3, 60)
        a = random_split(60, labels, (0.8, 0.1, 0.1), seed=9)
        b = random_split(60, labels, (0.8, 0.1, 0.1), seed=9)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_partition_has_no_duplicates(self):
        labels = np.random.default_rng(2).integers(0, 4, 37)
        s = random_split(37, labels, (0.6, 0.2, 0.2), seed=4)
        joined = np.concatenate([s.train_idx, s.val_idx, s.test_idx])
        assert len(np.unique(joined)) == len(joined)

    def test_tiny_class_warns_and_still_splits(self):
        labels = np.array([0] * 30 + [1])  # class 1 has a single member
        with pytest.warns(UserWarning):
            s = random_split(31, labels, (0.8, 0.1, 0.1), seed=0)
        joined = np.concatenate([s.train_idx, s.val_idx, s.test_idx])
        assert len(joined) == 31

    def test_ratios_above_one_rejected(self):
        with pytest.raises(ConfigError):
            random_split(10, np.zeros(10, dtype=np.int64), (0.8, 0.3, 0.3), seed=0)

    def test_ratios_below_one_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            random_split(100, np.zeros(100, dtype=np.int64), (0.1, 0.1, 0.1), seed=0)

    @pytest.mark.parametrize("labels", [None, np.zeros(9, dtype=np.int64),
                                        np.zeros((10, 1), dtype=np.int64)])
    def test_one_label_per_item_required(self, labels):
        with pytest.raises(ConfigError, match="10 labels"):
            random_split(10, labels, (0.8, 0.1, 0.1), seed=0)

    def test_index_lists_sorted_at_construction(self):
        split = DatasetSplit([3, 1], np.array([5, 0]), np.zeros(0, dtype=np.int64))
        for got, want in zip((split.train_idx, split.val_idx), ([1, 3], [0, 5])):
            assert_bits(got, np.array(want, dtype=np.int64))

    @pytest.mark.parametrize("val", [[0, 4], [4, 4]])  # across lists, within one
    def test_repeated_index_rejected(self, val):
        with pytest.raises(FormatError, match="split index lists overlap"):
            DatasetSplit(np.array([0, 1]), np.array(val), np.array([2]))

    @pytest.mark.parametrize("all_2d", [False, True])
    def test_2d_index_lists_rejected(self, all_2d):
        """One 2-d list used to fail in np.concatenate; three disjoint
        ones as a false overlap."""
        val, test = np.array([2, 3]), np.array([4, 5])
        if all_2d:
            val, test = val[None], test[None]
        with pytest.raises(FormatError, match="1-d index lists"):
            DatasetSplit(np.array([[0, 1]]), val, test)


@st.composite
def random_graphs(draw):
    """Up to 40 directed edges on 1-9 nodes, loops and duplicates allowed."""
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = np.array(draw(st.lists(pairs, max_size=40)), dtype=np.int64).reshape(-1, 2)
    return tiny_graph(n=n, edges=edges, dim=1)


class TestSampleNeighbors:
    @settings(max_examples=100, deadline=None)
    @given(random_graphs())
    @example(tiny_graph(n=3, edges=((1, 0), (0, 2), (1, 0), (2, 2), (0, 2), (0, 1), (2, 2))))
    def test_fanout_all_identity(self, g):
        """The edges as they are, repeated ones included, give the operator
        that the edges grouped by source in stable order give, array for
        array."""
        rows, cols = sample_neighbors(g)
        assert_bits(rows, g.edges[:, 0])
        assert_bits(cols, g.edges[:, 1])
        order = np.argsort(g.edges[:, 0], kind="stable")
        raw = mean_aggregator(rows, cols, g.n_nodes)
        grouped = mean_aggregator(g.edges[order, 0], g.edges[order, 1], g.n_nodes)
        for name in ("row_offsets", "col_indices", "values"):
            assert_bits(getattr(raw, name), getattr(grouped, name))

    def test_zero_degree_node_gets_empty(self):
        g = tiny_graph(n=3, edges=((0, 1), (1, 0)))
        rows, _ = sample_neighbors(g)
        assert not np.any(rows == 2)

    def test_mean_aggregator_rows(self):
        g = tiny_graph(n=3, edges=((0, 1), (1, 0), (0, 2), (2, 0)))
        op = mean_aggregator(*sample_neighbors(g), 3).to_dense()
        np.testing.assert_allclose(op[0], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(op.sum(axis=1), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_full_mean_operator_matches_dense_oracle(self, g):
        counts = np.zeros((g.n_nodes, g.n_nodes))
        np.add.at(counts, (g.edges[:, 0], g.edges[:, 1]), 1.0)
        deg = counts.sum(axis=1, keepdims=True)
        want = np.divide(counts, deg, out=np.zeros_like(counts), where=deg > 0)
        got = mean_aggregator(*sample_neighbors(g), g.n_nodes).to_dense()
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestEdgeRule:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    @example(tiny_graph(n=4, edges=((0, 1), (1, 0), (0, 1), (2, 2), (2, 2), (1, 2)), dim=1))
    def test_every_architecture_counts_each_listing(self, g):
        """With c_ij the listings of (i, j): Â's off-diagonal entries are
        c_ij / sqrt(d_i d_j), d counting listings plus the added self-loop;
        GAT attends over the listed pairs, then one self-loop per node.
        M̄'s entries, c_ij / deg_i, are pinned by ``TestSampleNeighbors``."""
        n = g.n_nodes
        c = np.zeros((n, n))
        np.add.at(c, (g.edges[:, 0], g.edges[:, 1]), 1.0)
        ctx = {arch: build_forward_context(ModelConfig(arch, 1, 2, 1, heads=1), g)
               for arch in ("gcn", "gat")}
        d = c.sum(axis=1) + 1.0
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(ctx["gcn"]["adj"].to_dense()[off],
                                   (c / np.sqrt(np.outer(d, d)))[off], rtol=1e-15, atol=0.0)
        listed = np.stack([ctx["gat"]["src"], ctx["gat"]["dst"]], axis=1)
        assert_bits(listed, np.concatenate([g.edges, np.repeat(np.arange(n), 2).reshape(-1, 2)]))


class TestBatching:
    def graphs(self):
        g1 = Graph(
            n_nodes=2,
            edges=np.array([[0, 1], [1, 0]]),
            features=np.arange(4.0).reshape(2, 2),
            graph_label=0,
        )
        g2 = Graph(
            n_nodes=3,
            edges=np.array([[0, 2], [2, 0]]),
            features=np.arange(6.0).reshape(3, 2) + 10,
            graph_label=1,
        )
        return [g1, g2]

    def test_singleton_batch(self):
        (g1, _) = self.graphs()
        b = batch_graphs([g1])
        np.testing.assert_array_equal(b.graph_ids, [0, 0])
        np.testing.assert_array_equal(b.graph.edges, g1.edges)

    def test_offsets(self):
        b = batch_graphs(self.graphs())
        assert b.graph.n_nodes == 5
        np.testing.assert_array_equal(b.graph_ids, [0, 0, 1, 1, 1])
        assert [2, 4] in b.graph.edges.tolist()  # second graph's (0,2) shifted by 2

    def test_segment_sum_matches_per_graph_sums(self):
        gs = self.graphs()
        b = batch_graphs(gs)
        pooled = T.segment_sum(Tensor(b.graph.features), b.graph_ids, b.n_graphs).data
        for i, g in enumerate(gs):
            np.testing.assert_allclose(pooled[i], g.features.sum(axis=0))

    def test_feature_dim_mismatch(self):
        g1, _ = self.graphs()
        g3 = Graph(n_nodes=1, edges=np.zeros((0, 2)), features=np.zeros((1, 7)))
        with pytest.raises(ShapeError):
            batch_graphs([g1, g3])

    def test_csr_features_refused(self):
        g1, g2 = self.graphs()
        g2 = replace(g2, features=SparseMatrix.from_dense(g2.features))
        with pytest.raises(ContractError, match="array features"):
            batch_graphs([g1, g2])


class TestSbm:
    def test_deterministic_limit_is_two_cliques(self):
        g = generate_sbm(3, 2, 1.0, 0.0, 2, seed=0)
        assert g.n_nodes == 6
        assert len(g.edges) == 12  # two triangles, both directions
        blocks = g.node_labels
        for u, v in g.edges:
            assert blocks[u] == blocks[v]

    def test_equal_probabilities_mix_blocks(self):
        g = generate_sbm(100, 2, 0.3, 0.3, 2, seed=5)
        same = sum(1 for u, v in g.edges if g.node_labels[u] == g.node_labels[v])
        frac_same = same / len(g.edges)
        # within-block pair share of all pairs is (2*C(100,2))/C(200,2) ≈ 0.497
        assert abs(frac_same - 0.497) < 0.03

    def test_same_seed_identical(self):
        a = generate_sbm(10, 3, 0.5, 0.1, 5, seed=11)
        b = generate_sbm(10, 3, 0.5, 0.1, 5, seed=11)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_allclose(a.features, b.features)

    def test_labels_and_feature_shape(self):
        g = generate_sbm(4, 3, 0.5, 0.1, 8, seed=2)
        np.testing.assert_array_equal(np.unique(g.node_labels), [0, 1, 2])
        assert g.features.shape == (12, 8)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            generate_sbm(3, 2, 1.5, 0.0, 2, seed=0)
