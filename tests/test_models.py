"""GNN layers, initialization, forward passes, checkpoints."""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgnn import models, pipeline
from bgnn import tensor as T
from bgnn.boosting import init_weights
from bgnn.errors import ConfigError, ContractError, FormatError, ShapeError
from bgnn.graph_data import (
    DatasetSplit, Graph, GraphBatch, batch_graphs, generate_sbm, mean_aggregator,
    normalize_adjacency, random_split,
)
from bgnn.models import (
    ARCHITECTURES,
    SPARSE_INPUT_DENSITY,
    GnnModel,
    ModelConfig,
    build_forward_context,
    cut_scored_rows,
    gat_layer,
    gcn_layer,
    init_model,
    load_checkpoint,
    model_forward,
    sage_layer,
    save_checkpoint,
)
from bgnn.sparse import SparseMatrix
from bgnn.tensor import Tape, Tensor, backward

from helpers import assert_bits, check_grads, forward, numeric_grad


def small_graph(seed=0, n=6, dim=5, classes=3):
    g = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        j = int(g.integers(0, n - 1))
        j = j if j != i else n - 1
        src += [i, j]
        dst += [j, i]
    edges = np.unique(np.stack([src, dst], axis=1), axis=0)
    labels = g.integers(0, classes, n)
    return Graph(
        n_nodes=n, edges=edges, features=g.standard_normal((n, dim)), node_labels=labels
    )


def sparse_graph(seed=0, n=12, dim=80, nnz=10):
    """A small graph whose features are below the CSR cutoff: ``nnz``
    normal values at distinct random positions, so some nodes have no
    feature and most feature columns are empty."""
    g = small_graph(seed, n=n, dim=1)
    rng = np.random.default_rng(seed)
    x = np.zeros(n * dim)
    x[rng.choice(n * dim, size=nnz, replace=False)] = rng.standard_normal(nnz)
    assert nnz < SPARSE_INPUT_DENSITY * n * dim
    return Graph(n_nodes=n, edges=g.edges, features=x.reshape(n, dim),
                 node_labels=g.node_labels)


class TestConfig:
    def test_invalid_arch(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="mlp", in_dim=4, hidden_dim=8, n_classes=2)

    def test_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="gcn", in_dim=0, hidden_dim=8, n_classes=2)

    def test_activation_defaults(self):
        """The first layer's representation: ReLU's floor at 0 for GCN and
        GraphSage, ELU's negative values above -1 for GAT."""
        g = generate_sbm(10, 2, 0.5, 0.1, 4, seed=0)
        for arch in ARCHITECTURES:
            m = init_model(ModelConfig(arch=arch, in_dim=4, hidden_dim=8, n_classes=2), 0)
            h = forward(m, g, training=False)[1][0].data
            if arch == "gat":
                assert -1.0 < h.min() < 0.0
            else:
                assert h.min() == 0.0

    def test_gat_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="gat", in_dim=4, hidden_dim=10, n_classes=2, heads=8)

    @pytest.mark.parametrize("p", [-0.1, 1.0])
    def test_dropout_outside_unit_interval(self, p):
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig(arch="gcn", in_dim=4, hidden_dim=8, n_classes=2, dropout=p)

    def test_layer_dims(self):
        c = ModelConfig(arch="gcn", in_dim=1433, hidden_dim=16, n_classes=7)
        assert c.layer_dims() == [1433, 16, 7]
        c4 = ModelConfig(arch="gcn", in_dim=10, hidden_dim=16, n_classes=3, n_layers=4, task="graph")
        assert c4.layer_dims() == [10, 16, 16, 16, 16]


class TestInit:
    def test_same_seed_bitwise_identical(self):
        c = ModelConfig(arch="gat", in_dim=12, hidden_dim=16, n_classes=4, heads=4)
        a, b = init_model(c, 7), init_model(c, 7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_gcn_shapes(self):
        c = ModelConfig(arch="gcn", in_dim=1433, hidden_dim=16, n_classes=7)
        m = init_model(c, 0)
        assert m.params["layer1.W"].shape == (1433, 16)
        assert m.params["layer2.W"].shape == (16, 7)

    def test_glorot_bound(self):
        c = ModelConfig(arch="gcn", in_dim=100, hidden_dim=100, n_classes=2)
        m = init_model(c, 3)
        w = m.params["layer1.W"].data
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.8 * bound  # actually fills the range

    def test_biases_zero(self):
        c = ModelConfig(arch="sage", in_dim=5, hidden_dim=8, n_classes=2)
        m = init_model(c, 1)
        np.testing.assert_array_equal(m.params["layer1.b"].data, np.zeros(8))


class TestGcnLayer:
    def test_identity_composition(self):
        s = SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0] * 3)
        h = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        out = gcn_layer(h, s, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, h.data)

    def test_averaging_hand_value(self):
        s = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [0.5] * 4)
        out = gcn_layer(Tensor([[2.0], [0.0]]), s, Tensor([[1.0]]), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[1.0], [1.0]])

    def test_gradient_matches_finite_differences(self):
        g = small_graph(1, n=4, dim=3)
        adj = normalize_adjacency(g)
        rng = np.random.default_rng(2)
        w0 = rng.standard_normal((3, 2))

        def loss_of_w(w):
            out = adj.matmul_dense(g.features @ w)
            return float((out**2).sum())

        W = Tensor(w0, requires_grad=True)
        with Tape() as tape:
            out = gcn_layer(Tensor(g.features), adj, W, Tensor(np.zeros(2), requires_grad=True))
            loss = T.sum_all(T.mul(out, out))
        backward(loss, tape)
        np.testing.assert_allclose(W.grad, numeric_grad(loss_of_w, w0), rtol=1e-4, atol=1e-7)


class TestSageLayer:
    def test_isolated_node_gets_zero_neighbor_mean(self):
        op = SparseMatrix.from_coo(2, 2, [0], [1], [1.0])  # node 1 samples nobody
        h = Tensor([[1.0, 2.0], [3.0, 4.0]])
        W = Tensor(np.eye(4))
        out = sage_layer(h, op, W, Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data[1], [3.0, 4.0, 0.0, 0.0])

    def test_two_node_concat_unrolled(self):
        op = SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 1.0])
        h = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = sage_layer(h, op, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data[0], [1.0, 2.0, 3.0, 4.0])

    def test_gradient(self):
        rng = np.random.default_rng(3)
        h0 = rng.standard_normal((3, 2))
        op = SparseMatrix.from_coo(3, 3, [0, 0, 1], [1, 2, 0], [0.5, 0.5, 1.0])
        w0 = rng.standard_normal((4, 2))

        def loss_np(w):
            cat = np.concatenate([h0, op.to_dense() @ h0], axis=1)
            return float(((cat @ w) ** 2).sum())

        W = Tensor(w0, requires_grad=True)
        with Tape() as tape:
            out = sage_layer(Tensor(h0), op, W, Tensor(np.zeros(2), requires_grad=True))
            loss = T.sum_all(T.mul(out, out))
        backward(loss, tape)
        np.testing.assert_allclose(W.grad, numeric_grad(loss_np, w0), rtol=1e-4, atol=1e-7)

    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 12),
        k=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        seed=st.integers(0, 10**6),
    )
    @example(n=5, d=4, k=3, density=0.0, seed=0)  # nnz = 0
    @settings(max_examples=80, deadline=None)
    def test_csr_input_matches_the_concat_formula(self, n, d, k, density, seed):
        """A CSR h runs h W_top + M̄ (h W_bottom): its value and W's and b's
        gradients agree with [h ‖ M̄ h] @ W + b to rounding; nodes with no
        neighbor, rows with no feature and empty columns included."""
        g = np.random.default_rng(seed)
        x = np.where(g.random((n, d)) < density, g.standard_normal((n, d)), 0.0)
        x[g.integers(0, n)] = 0.0  # at least one empty row
        x[:, g.integers(0, d)] = 0.0  # and one empty column
        pairs = g.integers(0, n, (int(g.integers(0, 2 * n + 1)), 2))
        pairs = pairs[pairs[:, 0] != n - 1]  # node n - 1 has no neighbor
        op = mean_aggregator(pairs[:, 0], pairs[:, 1], n)
        w, b, grad_out = (g.standard_normal(shape) for shape in ((2 * d, k), (k,), (n, k)))
        W, B = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = sage_layer(SparseMatrix.from_dense(x), op, W, B)
            backward(T.sum_all(T.mul(out, Tensor(grad_out))), tape)
        cat = np.concatenate([x, op.to_dense() @ x], axis=1)
        np.testing.assert_allclose(out.data, cat @ w + b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(W.grad, cat.T @ grad_out, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(B.grad, grad_out.sum(axis=0), rtol=1e-12, atol=1e-12)


class TestGatLayer:
    def head_params(self, rng, d_in, dh, n_heads, zero_attention=False):
        hp = []
        for _ in range(n_heads):
            a = {
                "W": Tensor(rng.standard_normal((d_in, dh)), True),
                "a_self": Tensor(
                    np.zeros((dh, 1)) if zero_attention else rng.standard_normal((dh, 1)), True
                ),
                "a_neigh": Tensor(
                    np.zeros((dh, 1)) if zero_attention else rng.standard_normal((dh, 1)), True
                ),
            }
            hp.append(a)
        return hp

    def test_zero_attention_is_mean_aggregation(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 2))
        # star: node 0 connected to 1 and 2, self-loops everywhere
        src = np.array([1, 2, 0, 0, 0, 1, 2])
        dst = np.array([0, 0, 1, 2, 0, 1, 2])
        hp = self.head_params(rng, 2, 3, 1, zero_attention=True)
        out = gat_layer(Tensor(h), src, dst, hp, Tensor(np.zeros(3)), 3, combine="average")
        hw = h @ hp[0]["W"].data
        np.testing.assert_allclose(out.data[0], hw[[0, 1, 2]].mean(axis=0))

    def test_single_node_self_loop_only(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((1, 2))
        hp = self.head_params(rng, 2, 3, 1)
        out = gat_layer(
            Tensor(h), np.array([0]), np.array([0]), hp, Tensor(np.zeros(3)), 1, combine="average"
        )
        np.testing.assert_allclose(out.data, h @ hp[0]["W"].data)

    def test_attention_matches_brute_force(self):
        rng = np.random.default_rng(6)
        n, d_in, dh = 3, 4, 2
        h = rng.standard_normal((n, d_in))
        src = np.array([1, 2, 0, 0, 0, 1, 2])
        dst = np.array([0, 0, 1, 2, 0, 1, 2])
        hp = self.head_params(rng, d_in, dh, 2)
        out = gat_layer(Tensor(h), src, dst, hp, Tensor(np.zeros(2)), n, combine="average")

        def leaky(x):
            return np.where(x > 0, x, 0.2 * x)

        expected = np.zeros((n, dh))
        for p in hp:
            hw = h @ p["W"].data
            for i in range(n):
                nbrs = src[dst == i]
                scores = np.array(
                    [
                        leaky(float(hw[i] @ p["a_self"].data[:, 0] + hw[j] @ p["a_neigh"].data[:, 0]))
                        for j in nbrs
                    ]
                )
                alpha = np.exp(scores - scores.max())
                alpha /= alpha.sum()
                np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-12)
                expected[i] += alpha @ hw[nbrs]
        expected /= len(hp)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_concat_combine_stacks_heads(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((2, 3))
        src = dst = np.array([0, 1])  # self-loops only
        hp = self.head_params(rng, 3, 2, 2)
        out = gat_layer(Tensor(h), src, dst, hp, Tensor(np.zeros(4)), 2, combine="concat")
        assert out.shape == (2, 4)
        np.testing.assert_allclose(out.data[:, :2], h @ hp[0]["W"].data)
        np.testing.assert_allclose(out.data[:, 2:], h @ hp[1]["W"].data)


class TestModelForward:
    def configs(self):
        base = dict(in_dim=5, hidden_dim=8, n_classes=3, dropout=0.3)
        return [
            ModelConfig(arch="gcn", **base),
            ModelConfig(arch="sage", **base),
            ModelConfig(arch="gat", heads=2, **base),
        ]

    def test_eval_deterministic(self):
        g = small_graph(10)
        for cfg in self.configs():
            m = init_model(cfg, 0)
            a, _ = forward(m, g, training=False)
            b, _ = forward(m, g, training=False)
            np.testing.assert_array_equal(a.data, b.data)

    def test_zero_features_zero_biases_give_zero_gcn_logits(self):
        g = small_graph(11)
        g = Graph(n_nodes=g.n_nodes, edges=g.edges, features=np.zeros((g.n_nodes, 5)))
        m = init_model(ModelConfig(arch="gcn", in_dim=5, hidden_dim=8, n_classes=3), 0)
        logits, _ = forward(m, g, training=False)
        np.testing.assert_allclose(logits.data, 0.0)

    def test_reps_shapes_and_count(self):
        g = small_graph(12)
        for cfg in self.configs():
            m = init_model(cfg, 1)
            logits, reps = forward(m, g, training=False)
            assert logits.shape == (6, 3)
            assert len(reps) == 2
            assert reps[0].shape == (6, 8)
            assert reps[1].shape == (6, 3)

    def test_training_requires_rng(self):
        g = small_graph(13)
        m = init_model(self.configs()[0], 0)
        with pytest.raises(ContractError):
            forward(m, g, training=True)

    def test_graph_task_batch_matches_per_graph(self):
        gs = [generate_sbm(4, 2, 0.9, 0.2, 6, seed=s) for s in (0, 1)]
        gs = [
            Graph(n_nodes=g.n_nodes, edges=g.edges, features=g.features, graph_label=i)
            for i, g in enumerate(gs)
        ]
        cfg = ModelConfig(arch="gcn", in_dim=6, hidden_dim=8, n_classes=2, task="graph")
        m = init_model(cfg, 2)
        both, _ = forward(m, batch_graphs(gs), training=False)
        for i, g in enumerate(gs):
            one, _ = forward(m, batch_graphs([g]), training=False)
            np.testing.assert_allclose(both.data[i], one.data[0], atol=1e-10)

    def test_node_permutation_leaves_graph_logits_unchanged(self):
        g0 = generate_sbm(5, 2, 0.8, 0.3, 6, seed=3)
        perm = np.random.default_rng(0).permutation(g0.n_nodes)
        inv = np.argsort(perm)
        permuted = Graph(
            n_nodes=g0.n_nodes,
            edges=inv[g0.edges],
            features=g0.features[perm],
            graph_label=0,
        )
        orig = Graph(n_nodes=g0.n_nodes, edges=g0.edges, features=g0.features, graph_label=0)
        for arch, heads in (("gcn", 8), ("gat", 2), ("sage", 8)):
            cfg = ModelConfig(
                arch=arch, in_dim=6, hidden_dim=8, n_classes=2, task="graph", heads=heads
            )
            m = init_model(cfg, 4)
            a, _ = forward(m, batch_graphs([orig]), training=False)
            b, _ = forward(m, batch_graphs([permuted]), training=False)
            np.testing.assert_allclose(a.data, b.data, atol=1e-10)

    def test_end_to_end_gradient_all_architectures(self):
        g = small_graph(16, n=6, dim=4)
        y = np.eye(3)[g.node_labels % 3]
        for cfg in (
            ModelConfig(arch="gcn", in_dim=4, hidden_dim=6, n_classes=3, dropout=0.0),
            ModelConfig(arch="sage", in_dim=4, hidden_dim=6, n_classes=3, dropout=0.0),
            ModelConfig(arch="gat", in_dim=4, hidden_dim=6, n_classes=3, dropout=0.0, heads=2),
        ):
            m = init_model(cfg, 5)
            ctx = build_forward_context(cfg, g)
            name = "layer1.W" if cfg.arch != "gat" else "layer1.head0.W"
            p = m.params[name]

            with Tape() as tape:
                logits, _ = model_forward(m, ctx, training=False)
                probs = T.softmax_rows(logits)
                loss = T.cross_entropy(probs, y)
            backward(loss, tape)
            analytic = p.grad.copy()

            def loss_np(w, name=name, m=m, cfg=cfg, ctx=ctx):
                saved = m.params[name].data.copy()
                m.params[name].data[...] = w
                logits, _ = model_forward(m, ctx, training=False)
                z = logits.data
                e = np.exp(z - z.max(axis=1, keepdims=True))
                probs = e / e.sum(axis=1, keepdims=True)
                m.params[name].data[...] = saved
                return float(-(y * np.log(np.maximum(probs, 1e-10))).sum())

            numeric = numeric_grad(loss_np, p.data.copy())
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_batch_norm_used_in_graph_task(self):
        gs = [generate_sbm(4, 2, 0.9, 0.2, 6, seed=s) for s in (0, 1, 2)]
        gs = [
            Graph(n_nodes=g.n_nodes, edges=g.edges, features=g.features, graph_label=i % 2)
            for i, g in enumerate(gs)
        ]
        cfg = ModelConfig(
            arch="gcn", in_dim=6, hidden_dim=8, n_classes=2, task="graph", batch_norm=True
        )
        m = init_model(cfg, 3)
        batch = batch_graphs(gs)
        before = m.bn_state["bn1.mean"].copy()
        forward(m, batch, training=True, rng=np.random.default_rng(0))
        assert not np.allclose(m.bn_state["bn1.mean"], before)  # running stats moved

    def test_four_layer_override(self):
        g = small_graph(17, n=8, dim=4)
        cfg = ModelConfig(arch="gcn", in_dim=4, hidden_dim=6, n_classes=3, n_layers=4, dropout=0.0)
        m = init_model(cfg, 6)
        logits, reps = forward(m, g, training=False)
        assert logits.shape == (8, 3)
        assert len(reps) == 4


class TestForwardContext:
    """The context is the forward's one input: the builder checks the data
    once, and a forward checks only that the context is of its task."""

    def test_forward_takes_the_context_alone(self):
        params = list(inspect.signature(model_forward).parameters)
        assert params == ["model", "ctx", "training", "rng"]

    def test_forward_refuses_a_context_of_the_other_task(self):
        g = small_graph(15)
        batch = batch_graphs([replace(g, graph_label=0)])
        for arch in ARCHITECTURES:
            node = ModelConfig(arch=arch, in_dim=5, hidden_dim=8, n_classes=2, heads=2)
            graph = replace(node, task="graph")
            with pytest.raises(ContractError, match="node-task model needs a node-task"):
                model_forward(init_model(node, 0), build_forward_context(graph, batch), False)
            with pytest.raises(ContractError, match="graph-task model needs a graph-task"):
                model_forward(init_model(graph, 0), build_forward_context(node, g), False)

    def test_builder_refuses_the_other_tasks_input(self):
        g = small_graph(15)
        for arch in ARCHITECTURES:
            node = ModelConfig(arch=arch, in_dim=5, hidden_dim=8, n_classes=2, heads=2)
            with pytest.raises(ContractError, match="graph-task context requires a GraphBatch"):
                build_forward_context(replace(node, task="graph"), g)
            with pytest.raises(ContractError, match="node-task context requires a Graph"):
                build_forward_context(node, batch_graphs([g]))

    def test_builder_refuses_a_feature_dim_mismatch(self):
        g = small_graph(14, dim=4)
        for arch in ARCHITECTURES:
            for task, data in (("node", g), ("graph", batch_graphs([g]))):
                cfg = ModelConfig(arch=arch, in_dim=5, hidden_dim=8, n_classes=3, heads=2,
                                  task=task)
                with pytest.raises(ShapeError, match="feature dim 4 != configured in_dim 5"):
                    build_forward_context(cfg, data)


class TestSparseFeatures:
    """Features below SPARSE_INPUT_DENSITY run GCN's and GAT's first
    projection as a CSR product; the dense matrix stays the oracle."""

    @given(
        n=st.integers(1, 12),
        f=st.integers(1, 12),
        k=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        seed=st.integers(0, 10**6),
    )
    @example(n=5, f=4, k=3, density=0.0, seed=0)  # nnz = 0
    @settings(max_examples=80, deadline=None)
    def test_projection_matches_dense_oracle(self, n, f, k, density, seed):
        """Forward X @ W and the weight gradient Xᵀ G; rows (nodes with no
        features) and columns may be empty."""
        g = np.random.default_rng(seed)
        x = np.where(g.random((n, f)) < density, g.standard_normal((n, f)), 0.0)
        x[g.integers(0, n)] = 0.0  # at least one empty row
        x[:, g.integers(0, f)] = 0.0  # and one empty column
        s = SparseMatrix.from_dense(x)
        np.testing.assert_array_equal(s.to_dense(), x)
        assert s.nnz == np.count_nonzero(x)
        w, grad_out = g.standard_normal((f, k)), g.standard_normal((n, k))
        W = Tensor(w, requires_grad=True)
        with Tape() as tape:
            out = T.spmm(s, W)
            loss = T.sum_all(T.mul(out, Tensor(grad_out)))
        backward(loss, tape)
        np.testing.assert_allclose(out.data, x @ w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(W.grad, x.T @ grad_out, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("nnz", [0, 3, 4])
    def test_csr_exactly_below_the_cutoff(self, arch, nnz):
        """64 entries per row over 4 rows: the cutoff is 4 nonzeros, for
        every architecture."""
        x = np.zeros((4, 64))
        x.reshape(-1)[:nnz] = 1.0
        g = Graph(n_nodes=4, edges=np.array([[0, 1], [1, 0]]), features=x)
        cfg = ModelConfig(arch=arch, in_dim=64, hidden_dim=4, n_classes=2, heads=2)
        ctx = build_forward_context(cfg, g)
        assert isinstance(ctx.get("x"), SparseMatrix) == (nnz < 4)
        # CSR features are projected first: no context holds Â X or M̄ X of them
        assert ("agg_x" in ctx) == (arch == "gcn" and nnz >= 4)
        assert ("x" in ctx) != ("agg_x" in ctx)  # layer 1 reads exactly one of them
        if isinstance(ctx.get("x"), SparseMatrix):
            np.testing.assert_array_equal(ctx["x"].to_dense(), x)
        elif "x" in ctx:
            assert ctx["x"] is g.features  # dense GAT and GraphSage read X itself

    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_logits_match_the_dense_path(self, arch, monkeypatch):
        """The dense context comes from the same builder with the cutoff
        at 0, so it is the one a dense input gets: X itself for GAT, the
        aggregated Â X for GCN."""
        g = sparse_graph(3)
        cfg = ModelConfig(arch=arch, in_dim=80, hidden_dim=8, n_classes=3, heads=2)
        m = init_model(cfg, 4)
        ctx = build_forward_context(cfg, g)
        monkeypatch.setattr(models, "SPARSE_INPUT_DENSITY", 0.0)
        dense_ctx = build_forward_context(cfg, g)
        assert isinstance(ctx["x"], SparseMatrix) and "agg_x" not in ctx
        assert ("x" in dense_ctx) == (arch == "gat") and ("agg_x" in dense_ctx) == (arch == "gcn")
        with Tape() as sparse_tape:
            sparse, _ = model_forward(m, ctx, training=False)
        with Tape() as dense_tape:
            dense, _ = model_forward(m, dense_ctx, training=False)
        np.testing.assert_allclose(sparse.data, dense.data, rtol=0, atol=1e-12)

        def reads(tape, array):
            return any(x.data is array for _, inputs, _ in tape.entries for x in inputs)

        dense_input = dense_ctx.get("agg_x", g.features)
        assert not reads(sparse_tape, g.features) and reads(dense_tape, dense_input)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_model_loss_gradients_match_finite_differences(self, arch):
        g = sparse_graph(5, n=10, dim=70, nnz=8)
        y = np.eye(3)[g.node_labels % 3]
        cfg = ModelConfig(arch=arch, in_dim=70, hidden_dim=4, n_classes=3, heads=2, dropout=0.0)
        m = init_model(cfg, 6)
        ctx = build_forward_context(cfg, g)
        assert "x" in ctx
        names = list(m.params)

        def loss(*params):
            m.params = dict(zip(names, params))
            logits, _ = model_forward(m, ctx, training=False)
            return T.cross_entropy(T.softmax_rows(logits), y)

        check_grads(loss, *[m.params[name].data.copy() for name in names])

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_csr_features_and_their_dense_twin_give_the_same_bits(self, arch):
        """The same features given as CSR and as an array, both below the
        cutoff, build the same context, so a training step's logits and
        parameter gradients agree bit for bit (isolated nodes and nodes
        with no feature included)."""
        g = random_node_graph(8, 20, sparse=True)
        twin = replace(g, features=SparseMatrix.from_dense(g.features))
        cfg = ModelConfig(arch=arch, in_dim=70, hidden_dim=8, n_classes=3, heads=2, dropout=0.4)
        m = init_model(cfg, 2)
        weights = Tensor(np.random.default_rng(8).standard_normal((20, 3)))

        def step(graph):
            for p in m.params.values():
                p.grad = None
            ctx = build_forward_context(cfg, graph)
            assert isinstance(ctx["x"], SparseMatrix)
            with Tape() as tape:
                logits, _ = model_forward(m, ctx, training=True, rng=np.random.default_rng(0))
                backward(T.sum_all(T.mul(logits, weights)), tape)
            return logits.data, {name: p.grad for name, p in m.params.items()}

        out, grads = step(g)
        ref, ref_grads = step(twin)
        assert_bits(out, ref)
        for name in m.params:
            assert_bits(grads[name], ref_grads[name])


def project_first_forward(m: GnnModel, batch: GraphBatch) -> Tensor:
    """A GCN's logits composed by hand from ``gcn_layer(h, Â, W, b)`` on
    every layer, X first projected then aggregated; dropout must be 0."""
    cfg, p = m.config, m.params
    adj = normalize_adjacency(batch.graph)
    h = Tensor(batch.graph.features)
    for l in range(1, cfg.n_layers + 1):
        h = gcn_layer(h, adj, p[f"layer{l}.W"], p[f"layer{l}.b"])
        if l < cfg.n_layers or cfg.task == "graph":
            h = T.relu(h)
    if cfg.task == "node":
        return h
    pooled = T.segment_sum(h, batch.graph_ids, batch.n_graphs)
    return T.add_bias(T.matmul(pooled, p["head.W"]), p["head.b"])


class TestAggregatedInput:
    """A dense-feature GCN's layer 1 runs on the context's aggregated
    input Â X, computed once, which agrees with the project-first Â (X W)
    to rounding."""

    GRAPHS = {
        "isolated nodes": (6, [[0, 1], [1, 0], [1, 2], [2, 1]]),
        "no edges": (4, np.zeros((0, 2))),
        "duplicate edges": (5, [[0, 1], [1, 0], [0, 1], [1, 0], [3, 4], [4, 3], [3, 4]]),
    }

    @pytest.mark.parametrize("shape", list(GRAPHS))
    @pytest.mark.parametrize("n_layers", [2, 3])
    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_matches_project_first_composition(self, shape, n_layers, task):
        rng = np.random.default_rng(n_layers)
        n, edges = self.GRAPHS[shape]
        g = Graph(n_nodes=n, edges=edges, features=rng.standard_normal((n, 5)))
        other = Graph(n_nodes=3, edges=[[0, 1], [1, 0]],
                      features=rng.standard_normal((3, 5)))
        batch = batch_graphs([g, other] if task == "graph" else [g])
        data = batch if task == "graph" else batch.graph
        cfg = ModelConfig(arch="gcn", in_dim=5, hidden_dim=6, n_classes=3, dropout=0.0,
                          n_layers=n_layers, task=task)
        m = init_model(cfg, 7)
        ctx = build_forward_context(cfg, data)
        assert "agg_x" in ctx and "x" not in ctx
        weights = Tensor(rng.standard_normal((batch.n_graphs if task == "graph" else n, 3)))

        def logits_and_grads(forward):
            for p in m.params.values():
                p.grad = None
            with Tape() as tape:
                logits = forward()
                loss = T.sum_all(T.mul(logits, weights))
            backward(loss, tape)
            return logits.data, {name: p.grad for name, p in m.params.items()}

        cached, cached_grads = logits_and_grads(
            lambda: model_forward(m, ctx, training=True, rng=rng)[0]
        )
        oracle, oracle_grads = logits_and_grads(lambda: project_first_forward(m, batch))
        np.testing.assert_allclose(cached, oracle, rtol=1e-12, atol=1e-12)
        for name in m.params:
            np.testing.assert_allclose(
                cached_grads[name], oracle_grads[name], rtol=1e-12, atol=1e-12, err_msg=name
            )

    def test_training_step_records_one_fewer_tape_entry(self):
        g = small_graph(3)
        cfg = ModelConfig(arch="gcn", in_dim=5, hidden_dim=8, n_classes=3, dropout=0.5)
        m = init_model(cfg, 0)
        ctx = build_forward_context(cfg, g)

        def step_entries(ctx):
            with Tape() as tape:
                logits, _ = model_forward(m, ctx, training=True, rng=np.random.default_rng(0))
                backward(T.sum_all(logits), tape)
            return len(tape.entries)

        assert "agg_x" in ctx
        assert step_entries(ctx) == step_entries({"adj": ctx["adj"], "x": g.features}) - 1


def random_node_graph(seed: int, n: int, sparse: bool) -> Graph:
    """``n`` nodes, the last one isolated when n > 1; directed edges drawn
    with replacement among the others (so self-loops and duplicates
    occur). Features are gaussian, or ``n`` gaussian values at random
    places in 70 columns: below the CSR cutoff."""
    g = np.random.default_rng(seed)
    edges = g.integers(0, max(1, n - 1), (int(g.integers(0, 3 * n + 1)), 2))
    if sparse:
        x = np.zeros(n * 70)
        x[g.choice(n * 70, size=n, replace=False)] = g.standard_normal(n)
        x = x.reshape(n, 70)
    else:
        x = g.standard_normal((n, 5))
    return Graph(n_nodes=n, edges=edges, features=x)


class TestScoredRows:
    """A context cut to some rows (``cut_scored_rows``) runs the last layer
    on those rows only; logits and every gradient through them equal, bit
    for bit, the same rows of a full forward."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 30),
        take=st.sampled_from(["one", "some", "all"]),
        sparse=st.booleans(),
        batch_norm=st.booleans(),
    )
    @example(seed=0, n=1, take="one", sparse=False, batch_norm=True)
    @example(seed=1, n=30, take="all", sparse=True, batch_norm=False)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:batch_norm. batch of size 1")
    def test_rows_equal_full_forward_rows(self, seed, n, take, sparse, batch_norm):
        """Eval logits, and a training step's logits and parameter
        gradients (dropout and batch statistics from same-seeded rngs); the
        rows are a random sorted subset."""
        g = random_node_graph(seed, n, sparse)
        rng = np.random.default_rng(seed)
        k = {"one": 1, "some": max(1, n // 3), "all": n}[take]
        rows = np.sort(rng.permutation(n)[:k])
        weights = Tensor(rng.standard_normal((k, 3)))
        for arch in ARCHITECTURES:
            cfg = ModelConfig(arch=arch, in_dim=g.feature_dim, hidden_dim=16, n_classes=3,
                              heads=2, dropout=0.3, batch_norm=batch_norm)
            m = init_model(cfg, seed)
            for name, stat in m.bn_state.items():  # running stats away from 0 and 1
                stat[...] = rng.random(stat.shape) + 0.5
            ctx = build_forward_context(cfg, g)
            assert isinstance(ctx.get("x"), SparseMatrix) == sparse
            assert ("agg_x" in ctx) == (arch == "gcn" and not sparse)
            cut = cut_scored_rows(ctx, rows, n)
            full, _ = model_forward(m, ctx, training=False)
            scored, reps = model_forward(m, cut, training=False)
            assert_bits(scored.data, full.data[rows])
            assert reps[-1] is scored

            def step(forward):
                for p in m.params.values():
                    p.grad = None
                with Tape() as tape:
                    logits = forward(np.random.default_rng(seed))
                    loss = T.sum_all(T.mul(logits, weights))
                backward(loss, tape)
                return logits.data, {name: p.grad for name, p in m.params.items()}

            out, grads = step(lambda r: model_forward(m, cut, True, r)[0])
            ref, ref_grads = step(
                lambda r: T.gather_rows(model_forward(m, ctx, True, r)[0], rows)
            )
            assert_bits(out, ref)
            for name in m.params:
                assert_bits(grads[name], ref_grads[name])

    def test_last_layer_reads_only_the_rows(self):
        """GCN cuts its operator's rows; GAT keeps the edges into the rows,
        in their order, numbered by the rows' places."""
        g = random_node_graph(2, 12, sparse=False)
        rows = np.array([2, 7, 9])
        for arch in ("gcn", "gat"):
            cfg = ModelConfig(arch=arch, in_dim=5, hidden_dim=4, n_classes=3, heads=2)
            ctx = build_forward_context(cfg, g)
            cut = cut_scored_rows(ctx, rows, 12)
            assert_bits(cut["rows"], rows)
            if arch == "gcn":
                np.testing.assert_array_equal(
                    cut["adj_rows"].to_dense(), ctx["adj"].to_dense()[[2, 7, 9]]
                )
            else:
                src, dst, seg = cut["rows_edges"]
                keep = np.isin(ctx["dst"], rows)
                assert_bits(src, ctx["src"][keep])
                assert_bits(dst, ctx["dst"][keep])
                assert_bits(seg, np.searchsorted(rows, dst))

    @pytest.mark.parametrize("bad", [[], [3, 3], [-1], [12], [[1, 2]], [7, 2]])
    def test_bad_rows_rejected(self, bad):
        g = random_node_graph(2, 12, sparse=False)
        ctx = build_forward_context(ModelConfig(arch="gcn", in_dim=5, hidden_dim=4, n_classes=3), g)
        with pytest.raises(ContractError, match="strictly increasing node ids"):
            cut_scored_rows(ctx, np.array(bad, dtype=np.int64), 12)


class TestHandedLayerOne:
    """A node-task context may carry layer 1's output as ``"h1"``, a
    training forward's ``reps[0]`` at the same parameters: the forward
    runs only layers 2..L, and its eval logits equal a standalone eval
    forward bit for bit, given the batch-norm state from before the
    training forward."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("batch_norm", [False, True])
    @pytest.mark.parametrize("n_layers", [2, 3])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_eval_logits_equal_the_standalone_forward(self, arch, batch_norm, n_layers, sparse):
        g = random_node_graph(3, 24, sparse)
        rng = np.random.default_rng(4)
        cfg = ModelConfig(arch=arch, in_dim=g.feature_dim, hidden_dim=16, n_classes=3, heads=2,
                          dropout=0.4, batch_norm=batch_norm, n_layers=n_layers)
        m = init_model(cfg, 1)
        for stat in m.bn_state.values():  # running stats away from 0 and 1
            stat[...] = rng.random(stat.shape) + 0.5
        ctx = build_forward_context(cfg, g)
        cut = cut_scored_rows(ctx, [1, 5, 6, 17, 23], g.n_nodes)
        standalone, _ = model_forward(m, cut, training=False)
        # a handed-over forward reads no layer-1 input
        after_layer_1 = {k: v for k, v in cut.items() if k not in ("x", "agg_x")}
        for train_ctx in (ctx, cut_scored_rows(ctx, [0, 2, 3, 9], g.n_nodes)):
            bn = {k: v.copy() for k, v in m.bn_state.items()}
            with Tape():
                _, reps = model_forward(m, train_ctx, training=True, rng=rng)
            # a training batch norm moves every running statistic in place
            assert all(not np.array_equal(bn[k], v) for k, v in m.bn_state.items())
            handed, handed_reps = model_forward(
                replace(m, bn_state=bn), dict(after_layer_1, h1=reps[0].data), training=False
            )
            assert_bits(handed.data, standalone.data)
            assert handed_reps[0].data is reps[0].data
            assert len(handed_reps) == n_layers
            m.bn_state = bn

    @pytest.mark.parametrize("arch, extra, kd, entries", [
        ("gat", dict(hidden_dim=32, heads=16, batch_norm=True, dropout=0.6), None, 394),
        ("gcn", {}, {}, 23),
        ("gcn", dict(in_dim=70), dict(boosting=False, adaptive_temp=False, fixed_tau=2.0), 15),
        ("sage", dict(in_dim=5, n_classes=2, task="graph"), {}, 27),
    ], ids=["gat teacher", "gcn student", "gcn csr student", "sage graph student"])
    def test_training_steps_record_the_same_tape_entries(self, arch, extra, kd, entries,
                                                         monkeypatch):
        """Tape entries per training step, as the benchmark counts them, of
        the criterion-8 16-head GAT teacher and boosted adaptive-tau GCN
        student, a fixed-tau GCN student on CSR features and a boosted
        adaptive-tau graph-task GraphSage student, over epochs whose
        validation is handed layer 1."""
        cfg = ModelConfig(**dict(dict(arch=arch, in_dim=16, hidden_dim=16, n_classes=3), **extra))
        if cfg.task == "graph":
            graphs = [replace(random_node_graph(s, 4 + s % 5, False), graph_label=s % 2)
                      for s in range(24)]
            split = DatasetSplit(np.arange(12), np.arange(12, 18), np.arange(18, 24))
            data = pipeline.TaskData(kind="graph", graphs=graphs, split=split)
        else:
            g = generate_sbm(20, 3, 0.3, 0.05, 16, seed=7)
            if cfg.in_dim == 70:  # features below the CSR cutoff
                g = replace(g, features=random_node_graph(1, 60, sparse=True).features)
            split = random_split(g.n_nodes, g.node_labels, (0.1, 0.15, 0.75), seed=7)
            data = pipeline.TaskData(kind="node", graph=replace(g, split=split))
        plan = pipeline.TrainPlan([cfg, cfg], task=cfg.task, epochs=3, batch_size=4, **(kd or {}))
        lengths = []
        orig = pipeline.backward
        monkeypatch.setattr(
            pipeline, "backward",
            lambda loss, tape: lengths.append(len(tape.entries)) or orig(loss, tape))
        if kd is None:
            pipeline.train_supervised(cfg, data, plan, seed=0)
        else:
            teacher = np.random.default_rng(0).standard_normal((data.n_samples, cfg.n_classes))
            weights = init_weights(data.split_idx("train").size, cfg.n_classes)
            pipeline.train_bgnn_step(teacher, cfg, data, weights, plan, seed=1)
        batches = 3 if cfg.task == "graph" else 1  # 12 training graphs in batches of 4
        assert lengths == [entries] * (3 * batches)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(
            arch="gat", in_dim=5, hidden_dim=8, n_classes=3, heads=2, task="node"
        )
        m = init_model(cfg, 9)
        for p in m.params.values():
            p.data += np.random.default_rng(0).standard_normal(p.shape)  # move off init
        save_checkpoint(m, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == cfg
        for name in m.params:
            np.testing.assert_array_equal(loaded.params[name].data, m.params[name].data)

    def test_bn_state_restored(self, tmp_path):
        cfg = ModelConfig(
            arch="gcn", in_dim=4, hidden_dim=6, n_classes=2, task="graph", batch_norm=True
        )
        m = init_model(cfg, 1)
        m.bn_state["bn1.mean"][...] = 3.25
        save_checkpoint(m, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        np.testing.assert_allclose(loaded.bn_state["bn1.mean"], 3.25)

    def test_predictions_survive_round_trip(self, tmp_path):
        g = small_graph(18)
        cfg = ModelConfig(arch="sage", in_dim=5, hidden_dim=8, n_classes=3)
        m = init_model(cfg, 2)
        a, _ = forward(m, g, training=False)
        save_checkpoint(m, tmp_path / "s")
        b, _ = forward(load_checkpoint(tmp_path / "s"), g, training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def saved(self, tmp_path):
        cfg = ModelConfig(arch="gcn", in_dim=4, hidden_dim=6, n_classes=2, batch_norm=True)
        prefix = tmp_path / "m"
        save_checkpoint(init_model(cfg, 3), prefix)
        return prefix

    def edit_manifest(self, prefix, edit):
        path = prefix.with_suffix(".json")
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    def test_manifest_missing_array_rejected(self, tmp_path):
        prefix = self.saved(tmp_path)
        self.edit_manifest(
            prefix, lambda m: m.update(arrays=[a for a in m["arrays"] if a["name"] != "layer2.b"])
        )
        with pytest.raises(FormatError, match="layer2.b"):
            load_checkpoint(prefix)

    def test_manifest_unknown_array_rejected(self, tmp_path):
        prefix = self.saved(tmp_path)
        self.edit_manifest(prefix, lambda m: m["arrays"].append({"name": "ghost", "shape": []}))
        with pytest.raises(FormatError, match="ghost"):
            load_checkpoint(prefix)

    def test_manifest_shape_mismatch_rejected(self, tmp_path):
        prefix = self.saved(tmp_path)

        def widen(m):
            m["arrays"][1]["shape"] = [1]

        self.edit_manifest(prefix, widen)
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(prefix)

    def test_manifest_with_activation_key_rejected(self, tmp_path):
        """The activation follows from the architecture, and GraphSage
        always aggregates full neighborhoods; a manifest that still names
        an activation or a fanout is malformed."""
        for key, value in (("activation", "relu"), ("fanout", "all")):
            prefix = self.saved(tmp_path)
            self.edit_manifest(prefix, lambda m: m["config"].update({key: value}))
            with pytest.raises(FormatError, match="malformed"):
                load_checkpoint(prefix)

    @pytest.mark.parametrize("field, edit", [
        pytest.param("the shape of 'layer1.W'",
                     lambda m: m["arrays"][0].update(shape=[4.0, 6.0]), id="float_shape"),
        pytest.param("key 'n_layers'", lambda m: m["config"].update(n_layers=2.0), id="n_layers"),
        pytest.param("key 'hidden_dim'", lambda m: m["config"].update(hidden_dim=True),
                     id="bool_hidden_dim"),
        pytest.param("key 'seed'", lambda m: m.update(seed=1.5), id="fractional_seed"),
        pytest.param("key 'seed'", lambda m: m.update(seed=3.0), id="whole_float_seed"),
    ])
    def test_non_integer_fields_rejected(self, tmp_path, field, edit):
        """A float equal to an integer passes ``==`` checks but not
        ``reshape`` or ``range``, and a fraction would be truncated: the
        integer fields of a manifest must be JSON integers."""
        prefix = self.saved(tmp_path)
        self.edit_manifest(prefix, edit)
        with pytest.raises(FormatError) as e:
            load_checkpoint(prefix)
        assert str(prefix.with_suffix(".json")) in str(e.value)
        assert f"{field} is " in str(e.value) and "not an integer" in str(e.value)

    def test_unknown_config_key_rejected(self, tmp_path):
        prefix = self.saved(tmp_path)
        self.edit_manifest(prefix, lambda m: m["config"].update(colour="red"))
        with pytest.raises(FormatError):
            load_checkpoint(prefix)

    def test_malformed_json_rejected(self, tmp_path):
        prefix = self.saved(tmp_path)
        prefix.with_suffix(".json").write_text('{"config": ')
        with pytest.raises(FormatError):
            load_checkpoint(prefix)

    @pytest.mark.parametrize("delta", [-8, -3, 8])
    def test_binary_length_mismatch_rejected(self, tmp_path, delta):
        prefix = self.saved(tmp_path)
        path = prefix.with_suffix(".bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:delta] if delta < 0 else blob + bytes(delta))
        with pytest.raises(FormatError, match="length"):
            load_checkpoint(prefix)

    def test_binary_written_before_manifest(self, tmp_path, monkeypatch):
        written = []
        replace = Path.replace

        def spy(self, target):
            written.append(Path(target).suffix)
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        self.saved(tmp_path)
        assert written == [".bin", ".json"]
