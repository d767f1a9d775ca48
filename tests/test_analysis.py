"""Linear CKA against a centered-Gram HSIC oracle, plus representation
extraction semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgnn.analysis import (
    RepresentationSet,
    cka_matrix,
    extract_layer_representations,
    linear_cka,
    save_cka_csv,
)
from bgnn.errors import ContractError, DomainError
from bgnn.graph_data import Graph
from bgnn.models import ModelConfig, init_model

from helpers import forward


def cka_via_grams(x: np.ndarray, y: np.ndarray) -> float:
    """Oracle: HSIC ratio on centered Gram matrices."""
    n = x.shape[0]
    h = np.eye(n) - 1.0 / n
    k = h @ (x @ x.T) @ h
    l = h @ (y @ y.T) @ h
    return np.trace(k @ l) / np.sqrt(np.trace(k @ k) * np.trace(l @ l))


def random_orthogonal(dim: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q


def small_graph(n_nodes=4, feat=3, seed=0) -> Graph:
    rng = np.random.default_rng(seed)
    e = np.array([[i, (i + 1) % n_nodes] for i in range(n_nodes)], dtype=np.int64)
    return Graph(
        n_nodes,
        np.vstack([e, e[:, ::-1]]),
        rng.normal(size=(n_nodes, feat)),
        graph_label=0,
    )


class TestLinearCka:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_matches_gram_hsic_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 4))
        assert linear_cka(x, y) == pytest.approx(cka_via_grams(x, y), abs=1e-10)

    def test_orthogonal_invariance(self):
        x = np.random.default_rng(1).normal(size=(6, 3))
        y = np.random.default_rng(2).normal(size=(6, 3))
        q = random_orthogonal(3, 3)
        assert linear_cka(x @ q, y) == pytest.approx(linear_cka(x, y), abs=1e-10)
        assert linear_cka(x, y @ q) == pytest.approx(linear_cka(x, y), abs=1e-10)

    def test_scale_invariance(self):
        x = np.random.default_rng(4).normal(size=(5, 2))
        y = np.random.default_rng(5).normal(size=(5, 4))
        assert linear_cka(-2.7 * x, y) == pytest.approx(linear_cka(x, y), abs=1e-10)
        assert linear_cka(x, 0.001 * y) == pytest.approx(linear_cka(x, y), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 5))
        assert abs(linear_cka(x, y) - linear_cka(y, x)) <= 1e-12

    @settings(deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 9), st.integers(1, 5), st.integers(1, 5))
    def test_always_in_unit_interval(self, seed, n, p, q):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = rng.normal(size=(n, q))
        v = linear_cka(x, y)
        assert -1e-12 <= v <= 1.0 + 1e-12

    def test_zero_variance_rejected(self):
        x = np.ones((5, 3))  # constant columns center to zero
        y = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(DomainError):
            linear_cka(x, y)
        with pytest.raises(DomainError):
            linear_cka(y, x)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ContractError):
            linear_cka(np.ones((1, 3)), np.ones((1, 3)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ContractError):
            linear_cka(np.ones((4, 2)), np.ones((5, 2)))


class TestExtraction:
    def graph_model(self, n_layers=2, feat=3, seed=0):
        cfg = ModelConfig(
            arch="gcn",
            in_dim=feat,
            hidden_dim=4,
            n_classes=2,
            dropout=0.0,
            task="graph",
            n_layers=n_layers,
        )
        return init_model(cfg, seed)

    def test_empty_graph_list_rejected(self):
        with pytest.raises(ContractError):
            extract_layer_representations(self.graph_model(), [])

    def test_single_node_graph_mean_is_the_embedding(self):
        g = Graph(
            1,
            np.zeros((0, 2), dtype=np.int64),
            np.array([[1.0, 2.0, 3.0]]),
            graph_label=0,
        )
        model = self.graph_model()
        reps = extract_layer_representations(model, [g])
        from bgnn.graph_data import batch_graphs

        _, layer_reps = forward(model, batch_graphs([g]), training=False)
        for got, want in zip(reps.layers, layer_reps):
            assert np.allclose(got[0], want.data[0])

    def test_duplicate_graph_duplicates_row(self):
        g = small_graph()
        reps = extract_layer_representations(self.graph_model(), [g, g])
        for m in reps.layers:
            assert np.array_equal(m[0], m[1])

    def test_matches_per_graph_forward(self):
        gs = [small_graph(seed=1), small_graph(n_nodes=5, seed=2)]
        model = self.graph_model()
        reps = extract_layer_representations(model, gs)
        assert len(reps.layers) == 2
        assert all(m.shape[0] == 2 for m in reps.layers)
        from bgnn.graph_data import batch_graphs

        for i, g in enumerate(gs):
            _, layer_reps = forward(model, batch_graphs([g]), training=False)
            for l, r in enumerate(layer_reps):
                assert np.allclose(reps.layers[l][i], r.data.mean(axis=0))

    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    @pytest.mark.parametrize("task", ["graph", "node"])
    def test_one_batched_forward_matches_per_graph_forwards(self, arch, task):
        no_edges = np.zeros((0, 2), dtype=np.int64)
        isolated = Graph(2, no_edges, np.ones((2, 3)), graph_label=0)
        gs = [small_graph(seed=5), isolated, small_graph(n_nodes=6, seed=6)]
        cfg = ModelConfig(arch=arch, in_dim=3, hidden_dim=4, n_classes=2, heads=2,
                          batch_norm=True, task=task)
        model = init_model(cfg, 1)
        reps = extract_layer_representations(model, gs)
        from bgnn.graph_data import batch_graphs

        for i, g in enumerate(gs):
            data = batch_graphs([g]) if task == "graph" else g
            _, layer_reps = forward(model, data, training=False)
            for l, r in enumerate(layer_reps):
                np.testing.assert_allclose(
                    reps.layers[l][i], r.data.mean(axis=0), rtol=1e-12, atol=1e-12
                )

    def test_layer_count_override(self):
        gs = [small_graph(seed=3)]
        reps = extract_layer_representations(self.graph_model(n_layers=4), gs)
        assert len(reps.layers) == 4

    def test_node_task_model_works_too(self):
        cfg = ModelConfig(arch="gcn", in_dim=3, hidden_dim=4, n_classes=2, dropout=0.0)
        g = small_graph(seed=4)
        reps = extract_layer_representations(init_model(cfg, 0), [g], tag="m")
        assert reps.tag == "m"
        assert reps.layers[-1].shape == (1, 2)  # logits are the last layer


class TestCkaMatrix:
    def two_sets(self, seed=0):
        rng = np.random.default_rng(seed)
        a = RepresentationSet("a", [rng.normal(size=(6, 3)), rng.normal(size=(6, 4))])
        b = RepresentationSet("b", [rng.normal(size=(6, 3)), rng.normal(size=(6, 4))])
        return a, b

    def test_self_pairs_have_unit_diagonal(self):
        a, _ = self.two_sets()
        rows = cka_matrix([a])
        assert len(rows) == 4
        for r in rows:
            if r["layer_a"] == r["layer_b"]:
                assert r["cka"] == pytest.approx(1.0, abs=1e-12)

    def test_two_models_full_cross_product(self):
        a, b = self.two_sets()
        rows = cka_matrix([a, b])
        assert len(rows) == 16
        assert all(0.0 <= r["cka"] <= 1.0 + 1e-12 for r in rows)
        tags = {(r["model_a"], r["model_b"]) for r in rows}
        assert tags == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}

    def test_row_count_mismatch_rejected(self):
        a, _ = self.two_sets()
        c = RepresentationSet("c", [np.ones((5, 3)) + np.eye(5, 3)])
        with pytest.raises(ContractError):
            cka_matrix([a, c])

    def test_mismatched_layer_rows_rejected(self):
        with pytest.raises(ContractError):
            RepresentationSet("bad", [np.ones((4, 2)), np.ones((5, 2))])

    def test_csv_format(self, tmp_path):
        a, b = self.two_sets()
        path = tmp_path / "cka.csv"
        save_cka_csv(cka_matrix([a, b]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model_a,layer_a,model_b,layer_b,cka"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert first[:4] == ["a", "1", "a", "1"]
        assert first[4] == "1.000000"
        for line in lines[1:]:
            assert len(line.split(",")[4].split(".")[1]) == 6
