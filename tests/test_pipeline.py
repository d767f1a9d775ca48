"""End-to-end training behavior: supervised baselines, distillation steps,
boosting interplay, sequential plans, evaluation, artifacts."""

import gc
import json
import math
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bgnn.graph_data as GD
import bgnn.models as M
import bgnn.pipeline as P
from bgnn.boosting import init_weights
from bgnn.errors import ConfigError, ContractError, TrainingError
from bgnn.graph_data import (
    DatasetSplit,
    Graph,
    batch_graphs,
    generate_sbm,
    random_split,
)
from bgnn.models import ARCHITECTURES, GnnModel, ModelConfig, build_forward_context, init_model
from bgnn.pipeline import (
    TaskData,
    TrainPlan,
    evaluate,
    predict,
    predict_logits,
    run_sequential,
    save_metrics,
    save_predictions,
    train_bgnn_step,
    train_supervised,
)
from bgnn.sparse import SparseMatrix
from bgnn.tensor import active_tape
from helpers import assert_bits, assert_same_csr, one_hot_degree_features


def make_node_data(n_per_block=40, seed=0, feat=8, noise=1.0):
    g = generate_sbm(n_per_block, 2, 0.9, 0.05, feat, seed, noise_scale=noise)
    split = random_split(g.n_nodes, g.node_labels, (0.6, 0.2, 0.2), seed)
    return TaskData(kind="node", graph=replace(g, split=split))


def make_graph_data(n=40, seed=0):
    graphs = []
    for i in range(n):
        if i % 2 == 0:
            e = np.array([[0, 1], [1, 2], [0, 2]], dtype=np.int64)
            g = Graph(3, np.vstack([e, e[:, ::-1]]), np.zeros((3, 1)), graph_label=0)
        else:
            e = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
            g = Graph(4, np.vstack([e, e[:, ::-1]]), np.zeros((4, 1)), graph_label=1)
        graphs.append(g)
    graphs = one_hot_degree_features(graphs)
    labels = np.array([g.graph_label for g in graphs])
    split = random_split(n, labels, (0.6, 0.2, 0.2), seed)
    return TaskData(kind="graph", graphs=graphs, split=split)


def gcn_cfg(**kw):
    base = dict(arch="gcn", in_dim=8, hidden_dim=16, n_classes=2, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def graph_cfg(**kw):
    base = dict(arch="gcn", in_dim=3, hidden_dim=8, n_classes=2, dropout=0.1, task="graph")
    base.update(kw)
    return ModelConfig(**base)


def quick_plan(models, **kw):
    base = dict(task="node", epochs=8, lam=0.0, boosting=False, adaptive_temp=False)
    base.update(kw)
    return TrainPlan(models=models, **base)


@pytest.fixture(scope="module")
def node_data():
    return make_node_data()


@pytest.fixture(scope="module")
def graph_data():
    return make_graph_data()


def params_equal(a: GnnModel, b: GnnModel) -> bool:
    if a.params.keys() != b.params.keys():
        return False
    return all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)


def oracle_logits(data: TaskData, scale=10.0) -> np.ndarray:
    return np.eye(data.n_classes)[data.labels] * scale


class TestPlanValidation:
    def test_needs_models(self):
        with pytest.raises(ConfigError):
            TrainPlan(models=[])

    def test_class_count_disagreement(self):
        with pytest.raises(ConfigError):
            TrainPlan(models=[gcn_cfg(), gcn_cfg(n_classes=3)])

    def test_task_mismatch(self):
        with pytest.raises(ConfigError):
            TrainPlan(models=[graph_cfg()], task="node")

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            TrainPlan(models=[gcn_cfg()], lam=-0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tau_min": 0.5},
            {"tau_max": 0.9},
            {"tau_min": 3.0, "tau_max": 3.0},
            {"tau_max": math.inf},
            {"tau_min": math.nan},
            {"tau_max": math.nan},
        ],
    )
    def test_tau_range(self, bad):
        with pytest.raises(ConfigError, match="tau_min"):
            TrainPlan(models=[gcn_cfg()], **bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"lr": 0.0},
            {"lr": -0.1},
            {"lr": math.inf},
            {"lr": math.nan},
            {"weight_decay": -1e-4},
            {"weight_decay": math.inf},
            {"weight_decay": math.nan},
            {"lam": math.inf},
            {"lam": math.nan},
            {"fixed_tau": 0.0},
            {"fixed_tau": math.inf},
            {"fixed_tau": math.nan},
        ],
    )
    def test_numbers_finite_and_in_range(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            TrainPlan(models=[gcn_cfg()], **bad)

    def test_batch_size_at_least_one(self):
        with pytest.raises(ConfigError, match="batch size"):
            TrainPlan(models=[graph_cfg()], task="graph", batch_size=0)

    def test_default_epochs_by_task(self):
        assert TrainPlan(models=[gcn_cfg()]).epochs == 300
        assert TrainPlan(models=[graph_cfg()], task="graph").epochs == 200


class TestSupervised:
    def test_easy_sbm_reaches_95(self, node_data):
        plan = quick_plan([gcn_cfg()], epochs=100)
        _, metrics = train_supervised(gcn_cfg(), node_data, plan, seed=0)
        assert metrics.test_acc >= 0.95

    def test_zero_epochs_returns_init_at_chance(self):
        data = make_node_data(n_per_block=100, seed=1)
        cfg = gcn_cfg()
        plan = quick_plan([cfg], epochs=0)
        model, metrics = train_supervised(cfg, data, plan, seed=5)
        assert params_equal(model, init_model(cfg, 5))
        assert metrics.per_epoch == []
        assert 0.25 <= metrics.test_acc <= 0.75

    def test_metrics_fields(self, node_data):
        plan = quick_plan([gcn_cfg()], epochs=5)
        _, m = train_supervised(gcn_cfg(), node_data, plan, seed=0)
        assert len(m.per_epoch) == 5
        assert [e["epoch"] for e in m.per_epoch] == list(range(5))
        for e in m.per_epoch:
            assert set(e) == {"epoch", "train_loss", "val_acc"}
            assert 0.0 <= e["val_acc"] <= 1.0
        assert m.wall_ms > 0
        assert m.teacher_mis_acc is None

    def test_forward_context_built_once(self, monkeypatch):
        calls = []
        orig = M.normalize_adjacency

        def spy(g):
            calls.append(g.n_nodes)
            return orig(g)

        monkeypatch.setattr(M, "normalize_adjacency", spy)
        plan = quick_plan([gcn_cfg()], epochs=5)
        train_supervised(gcn_cfg(), make_node_data(n_per_block=10), plan, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_per_epoch_evaluation_cuts_once_per_split(self, arch, monkeypatch):
        """Training and every evaluation reuse one context, and each split
        is cut from it once: the train cut serves the training steps."""
        calls = []
        for name in ("build_forward_context", "cut_scored_rows"):
            orig = getattr(P, name)
            monkeypatch.setattr(P, name, lambda *a, o=orig, n=name: calls.append((n, a)) or o(*a))
        data = make_node_data(n_per_block=10)
        cfg = gcn_cfg(arch=arch, heads=2)
        train_supervised(cfg, data, quick_plan([cfg], epochs=5), seed=0)
        assert [n for n, _ in calls] == ["build_forward_context"] + ["cut_scored_rows"] * 3
        for (_, args), split in zip(calls[1:], ("train", "val", "test")):
            assert_bits(args[1], data.split_idx(split))
        for split in ("train", "val", "test"):
            evaluate(init_model(cfg, 1), data, split)
        assert len(calls) == 4

    def test_graph_task_batches_and_normalises_once(self, monkeypatch):
        """Every mini-batch and evaluated split is cut out of one full-data
        batch and context."""
        calls = []
        for module, name in ((M, "normalize_adjacency"), (P, "batch_graphs")):
            orig = getattr(module, name)
            monkeypatch.setattr(module, name, lambda g, o=orig, n=name: calls.append(n) or o(g))
        plan = quick_plan([graph_cfg()], task="graph", epochs=5, batch_size=4)
        train_supervised(graph_cfg(), make_graph_data(n=20), plan, seed=0)
        assert sorted(calls) == ["batch_graphs", "normalize_adjacency"]

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_tapes_freed_without_cyclic_gc(self, task, monkeypatch):
        tapes = []

        class TrackedTape(P.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(P, "Tape", TrackedTape)
        if task == "node":
            data, cfg = make_node_data(n_per_block=10), gcn_cfg()
        else:
            data, cfg = make_graph_data(n=20), graph_cfg()
        plan = quick_plan([cfg], task=task, epochs=3, batch_size=8)
        gc.collect()
        gc.disable()
        try:
            train_supervised(cfg, data, plan, seed=0)
            alive = sum(ref() is not None for ref in tapes)
        finally:
            gc.enable()
        assert tapes and alive == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_epoch(self, node_data):
        plan = quick_plan([gcn_cfg()], epochs=30, lr=1e200)
        with pytest.raises(TrainingError, match="epoch"):
            train_supervised(gcn_cfg(), node_data, plan, seed=0)


def train_for(cfg: ModelConfig, data: TaskData, epochs: int, kd: bool):
    """A supervised run, or a boosted adaptive-tau KD step against fixed
    random teacher logits, at seed 3; returns the model and its metrics."""
    plan = quick_plan([cfg, cfg], task=cfg.task, epochs=epochs, lam=float(kd), boosting=kd,
                      adaptive_temp=kd, batch_size=8)
    if not kd:
        return train_supervised(cfg, data, plan, seed=3)
    teacher = np.random.default_rng(0).standard_normal((data.n_samples, data.n_classes))
    w0 = init_weights(data.split_idx("train").size, data.n_classes)
    model, _, metrics = train_bgnn_step(teacher, cfg, data, w0, plan, seed=3)
    return model, metrics


def hard_graph_data(n: int = 40) -> TaskData:
    """Noisy two-block graphs, denser within blocks for class 1: val_acc
    moves from epoch to epoch."""
    graphs = [replace(generate_sbm(3, 2, 0.9 if i % 2 else 0.4, 0.2, 3, seed=i, noise_scale=2.0),
                      node_labels=None, graph_label=i % 2) for i in range(n)]
    split = random_split(n, np.arange(n) % 2, (0.5, 0.25, 0.25), seed=2)
    return TaskData(kind="graph", graphs=graphs, split=split)


def _kd_id(kd: bool) -> str:
    return "kd" if kd else "supervised"


# node task: every case; graph task: batch norm on, two layers
PREFIX_CASES = [
    pytest.param("node", arch, bn, layers, kd, id=f"{_kd_id(kd)}-{layers}-{bn}-{arch}")
    for kd in (False, True) for layers in (2, 3) for bn in (False, True) for arch in ARCHITECTURES
] + [pytest.param("graph", arch, True, 2, kd, id=f"graph-{_kd_id(kd)}-2-True-{arch}")
     for kd in (False, True) for arch in ARCHITECTURES]


class TestPerEpochValidation:
    """Each epoch is validated once, outside the tape, on the model it
    trained: during the next epoch's first step, before its update (the
    node task from that step's layer 1), and the last one on its own; a
    k-epoch run is the first k epochs of a longer run."""

    @pytest.mark.parametrize("task, arch, batch_norm, n_layers, kd", PREFIX_CASES)
    def test_a_shorter_run_is_a_prefix(self, task, arch, batch_norm, n_layers, kd):
        """Every k-epoch run's records are the first k of an E-epoch run's,
        and the E-run restores, bit for bit, the model that the run ending
        at its first best epoch restores, batch-norm state included."""
        if task == "node":
            g = generate_sbm(30, 3, 0.2, 0.1, 8, seed=2, noise_scale=2.0)  # hard: val_acc moves
            split = random_split(g.n_nodes, g.node_labels, (0.3, 0.3, 0.4), seed=2)
            data = TaskData(kind="node", graph=replace(g, split=split))
            cfg = gcn_cfg(arch=arch, n_classes=3, heads=2, batch_norm=batch_norm,
                          n_layers=n_layers, dropout=0.5)
        else:
            data = hard_graph_data()
            cfg = graph_cfg(arch=arch, heads=2, batch_norm=batch_norm, n_layers=n_layers,
                            dropout=0.5)
        runs = [train_for(cfg, data, k, kd) for k in range(1, 9)]
        model, metrics = runs[-1]
        for k, (_, m) in enumerate(runs, start=1):
            assert m.per_epoch == metrics.per_epoch[:k]
        best, best_metrics = runs[int(np.argmax([e["val_acc"] for e in metrics.per_epoch]))]
        for name in model.params:
            assert_bits(model.params[name].data, best.params[name].data)
        for name in model.bn_state:
            assert_bits(model.bn_state[name], best.bn_state[name])
        assert metrics.test_acc == best_metrics.test_acc

    @pytest.mark.parametrize("task", ["node", "graph"])
    @pytest.mark.parametrize("kd", [False, True], ids=["supervised", "kd"])
    @pytest.mark.parametrize("epochs", [0, 1, 4])
    def test_each_epoch_validated_once(self, task, kd, epochs, monkeypatch):
        calls = []
        orig = P.evaluate

        def spy(model, data, split, h1=None):
            calls.append((split, h1 is not None, active_tape() is None))
            return orig(model, data, split, h1)

        monkeypatch.setattr(P, "evaluate", spy)
        if task == "node":
            data, cfg = make_node_data(n_per_block=10), gcn_cfg(batch_norm=True)
        else:
            data, cfg = make_graph_data(n=20), graph_cfg(batch_norm=True)
        model, metrics = train_for(cfg, data, epochs, kd)
        val = [c for c in calls if c[0] == "val"]
        assert len(val) == epochs
        handed = task == "node" and epochs > 1
        assert [c[1] for c in val] == [handed] * (epochs - 1) + [False] * (epochs > 0)
        assert all(outside for _, _, outside in calls)
        assert [e["epoch"] for e in metrics.per_epoch] == list(range(epochs))
        for e in metrics.per_epoch:
            assert set(e) == {"epoch", "train_loss", "val_acc"}
            assert 0.0 <= e["val_acc"] <= 1.0
        if epochs == 0:
            initial = init_model(cfg, 3)
            assert params_equal(model, initial)
            assert metrics.test_acc == orig(initial, data, "test").accuracy


class TestBgnnStep:
    def test_ablation_reduces_to_supervised_bitwise(self, node_data):
        cfg_t, cfg_s = gcn_cfg(), gcn_cfg(hidden_dim=12)
        plan = quick_plan([cfg_t, cfg_s], epochs=8, lam=0.0)
        teacher, _ = train_supervised(cfg_t, node_data, plan, seed=3)
        w0 = init_weights(node_data.split_idx("train").size, 2)
        student, w1, m_step = train_bgnn_step(teacher, cfg_s, node_data, w0, plan, seed=11)
        baseline, m_sup = train_supervised(cfg_s, node_data, plan, seed=11)
        assert params_equal(student, baseline)
        assert m_step.per_epoch == m_sup.per_epoch
        assert m_step.test_acc == m_sup.test_acc
        assert np.array_equal(w1.weights, w0.weights)

    def test_ablation_reduction_graph_task(self, graph_data):
        cfg_t, cfg_s = graph_cfg(), graph_cfg(hidden_dim=6)
        plan = quick_plan([cfg_t, cfg_s], task="graph", epochs=4, lam=0.0, batch_size=16)
        teacher, _ = train_supervised(cfg_t, graph_data, plan, seed=2)
        w0 = init_weights(graph_data.split_idx("train").size, 2)
        student, _, m_step = train_bgnn_step(teacher, cfg_s, graph_data, w0, plan, seed=7)
        baseline, m_sup = train_supervised(cfg_s, graph_data, plan, seed=7)
        assert params_equal(student, baseline)
        assert m_step.per_epoch == m_sup.per_epoch

    def test_teacher_params_bitwise_unchanged(self, node_data):
        cfg = gcn_cfg()
        plan = quick_plan([cfg, cfg], epochs=4, lam=1.0, boosting=True, adaptive_temp=True)
        teacher, _ = train_supervised(cfg, node_data, plan, seed=0)
        before = {k: v.data.copy() for k, v in teacher.params.items()}
        w0 = init_weights(node_data.split_idx("train").size, 2)
        train_bgnn_step(teacher, cfg, node_data, w0, plan, seed=1)
        for k, v in teacher.params.items():
            assert np.array_equal(v.data, before[k])

    def test_class_count_mismatch_raises(self, node_data):
        cfg = gcn_cfg()
        plan = quick_plan([cfg], epochs=1)
        w0 = init_weights(node_data.split_idx("train").size, 2)
        bad_teacher = init_model(gcn_cfg(n_classes=3), 0)
        with pytest.raises(ContractError):
            train_bgnn_step(bad_teacher, cfg, node_data, w0, plan, seed=0)
        with pytest.raises(ContractError):
            train_bgnn_step(np.zeros((5, 2)), cfg, node_data, w0, plan, seed=0)

    @pytest.mark.parametrize("boosting", [False, True])
    def test_weights_mismatch_raises_before_training(self, node_data, boosting, monkeypatch):
        """Weights for another training set or class count fail typed,
        with or without boosting, and nothing is trained."""
        cfg = gcn_cfg()
        plan = quick_plan([cfg, cfg], epochs=1, boosting=boosting)
        n_train = node_data.split_idx("train").size
        monkeypatch.setattr(P, "_train_student", lambda *a: pytest.fail("trained"))
        for w in (init_weights(n_train + 1, 2), init_weights(5, 2), init_weights(n_train, 3)):
            with pytest.raises(ContractError, match="sample weights"):
                train_bgnn_step(oracle_logits(node_data), cfg, node_data, w, plan, seed=0)

    def test_oracle_teacher_never_hurts(self, node_data):
        cfg = gcn_cfg()
        plan_kd = quick_plan(
            [cfg, cfg], epochs=40, lam=1.0, boosting=True, adaptive_temp=True
        )
        plan_base = quick_plan([cfg], epochs=40)
        t_logits = oracle_logits(node_data)
        n_train = node_data.split_idx("train").size
        kd_accs, base_accs = [], []
        for seed in range(5):
            w0 = init_weights(n_train, 2)
            _, _, m_kd = train_bgnn_step(t_logits, cfg, node_data, w0, plan_kd, seed=seed)
            _, m_base = train_supervised(cfg, node_data, plan_base, seed=seed)
            kd_accs.append(m_kd.test_acc)
            base_accs.append(m_base.test_acc)
        assert np.mean(kd_accs) >= np.mean(base_accs) - 0.01

    def test_weights_unchanged_iff_teacher_perfect(self, node_data):
        cfg = gcn_cfg()
        plan = quick_plan([cfg, cfg], epochs=1, lam=0.0, boosting=True)
        train_idx = node_data.split_idx("train")
        uniform = 1.0 / train_idx.size

        w0 = init_weights(train_idx.size, 2)
        _, w_perfect, _ = train_bgnn_step(
            oracle_logits(node_data), cfg, node_data, w0, plan, seed=0
        )
        assert np.max(np.abs(w_perfect.weights - uniform)) <= 1e-4

        corrupted = oracle_logits(node_data)
        flipped = train_idx[:3]
        corrupted[flipped] = corrupted[flipped][:, ::-1]
        w0 = init_weights(train_idx.size, 2)
        _, w_miss, _ = train_bgnn_step(corrupted, cfg, node_data, w0, plan, seed=0)
        assert np.max(np.abs(w_miss.weights - uniform)) > 1e-6
        # boosted samples end up with the largest weights
        order = np.argsort(w_miss.weights)[::-1]
        assert set(train_idx[order[:3]]) == set(flipped)


class TestSequential:
    def test_singleton_plan_matches_supervised(self, node_data):
        cfg = gcn_cfg()
        plan = quick_plan([cfg], epochs=6, seed=4)
        model_seq, metrics_seq = run_sequential(plan, node_data)
        model_sup, metrics_sup = train_supervised(cfg, node_data, plan, seed=4)
        assert len(metrics_seq) == 1
        assert params_equal(model_seq, model_sup)
        assert metrics_seq[0].per_epoch == metrics_sup.per_epoch

    def test_temperature_variant_schedule(self, node_data, monkeypatch):
        seen = []
        orig = P.init_temperature_module

        def spy(variant, *args, **kwargs):
            seen.append(variant)
            return orig(variant, *args, **kwargs)

        monkeypatch.setattr(P, "init_temperature_module", spy)
        cfg = gcn_cfg()
        plan = quick_plan(
            [cfg, cfg, cfg], epochs=2, lam=1.0, boosting=True, adaptive_temp=True
        )
        run_sequential(plan, node_data)
        assert seen == ["entropy_only", "concat"]

    def test_sequential_deterministic(self, node_data):
        cfg = gcn_cfg()
        plan = quick_plan(
            [cfg, cfg], epochs=4, lam=1.0, boosting=True, adaptive_temp=True, seed=9
        )
        model_a, metrics_a = run_sequential(plan, node_data)
        model_b, metrics_b = run_sequential(plan, node_data)
        assert params_equal(model_a, model_b)
        for ma, mb in zip(metrics_a, metrics_b):
            assert ma.per_epoch == mb.per_epoch
            assert ma.test_acc == mb.test_acc
            assert ma.teacher_mis_acc == mb.teacher_mis_acc

    def test_three_step_plan_produces_three_metrics(self, node_data):
        cfg = gcn_cfg()
        plan = quick_plan(
            [cfg, cfg, cfg], epochs=2, lam=0.5, boosting=True, adaptive_temp=True
        )
        _, metrics = run_sequential(plan, node_data)
        assert len(metrics) == 3
        assert metrics[0].teacher_mis_acc is None


class TestRunPlans:
    @pytest.mark.parametrize(
        "field, values, shared",
        [("fixed_tau", (2.0, 4.0), True), ("lam", (0.5, 1.0), True), ("lr", (0.01, 0.02), False)],
    )
    def test_first_model_shared_exactly_when_first_step_inputs_match(
        self, node_data, monkeypatch, field, values, shared
    ):
        calls = []
        orig = P.train_supervised

        def spy(config, data, plan, seed):
            calls.append(seed)
            return orig(config, data, plan, seed)

        monkeypatch.setattr(P, "train_supervised", spy)
        cfg_t, cfg_s = gcn_cfg(), gcn_cfg(hidden_dim=12)
        seeds = (0, 1)
        plans = [
            quick_plan([cfg_t, cfg_s], epochs=3, seed=s, **{"lam": 1.0, field: v})
            for v in values
            for s in seeds
        ]
        results = P.run_plans(plans, node_data)
        assert len(calls) == (len(seeds) if shared else len(plans))
        monkeypatch.undo()
        for plan, (model, metrics) in zip(plans, results):
            ref_model, ref_metrics = run_sequential(plan, node_data)
            assert params_equal(model, ref_model)
            assert [m.plan for m in metrics] == [plan.describe(), plan.describe()]
            for m, ref in zip(metrics, ref_metrics):
                assert m.per_epoch == ref.per_epoch
                assert m.test_acc == ref.test_acc
                assert m.teacher_mis_acc == ref.teacher_mis_acc


class TestEnsembleAndEvaluate:
    def test_accuracy_recomputable_from_saved_logits(self, node_data):
        plan = quick_plan([gcn_cfg()], epochs=5)
        model, metrics = train_supervised(gcn_cfg(), node_data, plan, seed=0)
        saved = predict_logits(model, node_data).copy()
        preds = saved.argmax(axis=1)
        assert np.array_equal(preds, predict(model, node_data))
        idx = node_data.split_idx("test")
        acc = float((preds[idx] == node_data.labels[idx]).mean())
        assert evaluate(model, node_data, "test").accuracy == acc == metrics.test_acc

    def test_unknown_split_rejected(self, node_data):
        model = init_model(gcn_cfg(), 0)
        with pytest.raises(ContractError):
            evaluate(model, node_data, "dev")

    def test_empty_split_rejected(self, graph_data):
        n = len(graph_data.graphs)
        split = DatasetSplit(
            train_idx=np.arange(n - 5),
            val_idx=np.array([], dtype=np.int64),
            test_idx=np.arange(n - 5, n),
        )
        data = TaskData(kind="graph", graphs=graph_data.graphs, split=split)
        with pytest.raises(ContractError, match="empty"):
            evaluate(init_model(graph_cfg(), 0), data, "val")

    def test_node_data_requires_split(self):
        g = generate_sbm(5, 2, 0.9, 0.05, 4, 0)
        with pytest.raises(ContractError, match="node task needs a split"):
            TaskData(kind="node", graph=g)


class TestTaskData:
    def sbm_and_split(self):
        g = generate_sbm(5, 2, 0.9, 0.05, 4, 0)
        return g, random_split(g.n_nodes, g.node_labels, (0.6, 0.2, 0.2), 0)

    def test_node_task_without_labels_rejected(self):
        g, split = self.sbm_and_split()
        with pytest.raises(ContractError, match="node labels"):
            TaskData(kind="node", graph=replace(g, node_labels=None), split=split)

    def test_graph_task_without_split_rejected(self, graph_data):
        with pytest.raises(ContractError, match="needs a split"):
            TaskData(kind="graph", graphs=graph_data.graphs)

    def test_empty_graph_list_rejected(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ContractError, match="at least one graph"):
            TaskData(kind="graph", graphs=[], split=DatasetSplit(empty, empty, empty))

    def test_unknown_kind_rejected(self, node_data):
        with pytest.raises(ContractError, match="unknown task kind"):
            TaskData(kind="edge", graph=node_data.graph, split=node_data.split)

    def test_graph_split_and_equal_split_agree(self):
        g, split = self.sbm_and_split()
        from_graph = TaskData(kind="node", graph=replace(g, split=split))
        from_split = TaskData(kind="node", graph=g, split=split)
        for part in ("train", "val", "test"):
            np.testing.assert_array_equal(from_graph.split_idx(part), from_split.split_idx(part))
        np.testing.assert_array_equal(from_graph.labels, from_split.labels)
        assert from_graph.n_classes == from_split.n_classes

    @pytest.mark.parametrize("kind", ["node", "graph"])
    @pytest.mark.parametrize(
        "bad, match",
        [([0, 1, -1], "outside"), ([0, 99], "outside"), ([0.0, 1.0], "integer"),
         ([True, False], "integer")],
    )
    def test_bad_split_index_rejected(self, graph_data, kind, bad, match):
        """Both sample sets have 20 members, so 99 is out of range."""
        split = DatasetSplit(np.asarray(bad), np.array([2, 3]), np.array([4, 5]))
        source = (dict(graph=self.sbm_and_split()[0]) if kind == "node"
                  else dict(graphs=graph_data.graphs[:20]))
        with pytest.raises(ContractError, match=match):
            TaskData(kind=kind, split=split, **source)

    def test_empty_train_split_rejected_before_training(self, graph_data):
        n = len(graph_data.graphs)
        split = DatasetSplit(np.zeros(0, dtype=np.int64), np.arange(n - 5), np.arange(n - 5, n))
        data = TaskData(kind="graph", graphs=graph_data.graphs, split=split)
        plan = quick_plan([graph_cfg()], task="graph", epochs=1)
        with pytest.raises(ContractError, match="'train' is empty"):
            train_supervised(graph_cfg(), data, plan, seed=0)


class TestGraphTask:
    def test_graph_task_learns(self, graph_data):
        plan = quick_plan([graph_cfg()], task="graph", epochs=25, batch_size=16)
        _, metrics = train_supervised(graph_cfg(), graph_data, plan, seed=0)
        assert metrics.test_acc >= 0.9

    def test_full_step_runs_on_graphs(self, graph_data):
        cfg = graph_cfg()
        plan = quick_plan(
            [cfg, cfg],
            task="graph",
            epochs=4,
            lam=1.0,
            boosting=True,
            adaptive_temp=True,
            batch_size=16,
        )
        teacher, _ = train_supervised(cfg, graph_data, plan, seed=0)
        w0 = init_weights(graph_data.split_idx("train").size, 2)
        student, w1, metrics = train_bgnn_step(teacher, cfg, graph_data, w0, plan, seed=1)
        assert w1.weights.sum() == pytest.approx(1.0)
        assert np.all(w1.weights > 0)
        assert len(metrics.per_epoch) == 4


class TestArtifacts:
    def test_metrics_json_schema(self, node_data, tmp_path):
        plan = quick_plan([gcn_cfg()], epochs=2)
        _, metrics = train_supervised(gcn_cfg(), node_data, plan, seed=0)
        path = tmp_path / "metrics.json"
        save_metrics(metrics, path)
        obj = json.loads(path.read_text())
        assert set(obj) == {
            "plan",
            "seed",
            "per_epoch",
            "test_acc",
            "teacher_mis_acc",
            "wall_ms",
        }
        assert obj["seed"] == 0
        assert len(obj["per_epoch"]) == 2
        assert set(obj["per_epoch"][0]) == {"epoch", "train_loss", "val_acc"}

    def test_predictions_roundtrip_reproduces_accuracy(self, node_data, tmp_path):
        plan = quick_plan([gcn_cfg()], epochs=3)
        model, metrics = train_supervised(gcn_cfg(), node_data, plan, seed=0)
        result = evaluate(model, node_data, "test")
        path = tmp_path / "preds.csv"
        save_predictions(result, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "sample_id,true,pred"
        table = np.array([[int(x) for x in row.split(",")] for row in rows[1:]])
        assert np.array_equal(table[:, 0], result.sample_ids)
        assert float((table[:, 1] == table[:, 2]).mean()) == result.accuracy == metrics.test_acc


def random_graphs(seed: int, n: int, one_hot_dim: int = 0) -> list[Graph]:
    """``n`` random labelled graphs of 1-8 nodes: edges drawn with
    replacement (so self-loops and duplicate edges occur), some graphs
    without edges, isolated nodes. Features are gaussian, or one-hot
    over ``one_hot_dim`` columns: sparse enough to be held as CSR."""
    g = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        size = int(g.integers(1, 9))
        edges = g.integers(0, size, (int(g.integers(0, 3 * size)) if i % 4 else 0, 2))
        if one_hot_dim:
            x = np.eye(one_hot_dim)[g.integers(0, one_hot_dim, size)]
        else:
            x = g.standard_normal((size, 3))
        graphs.append(Graph(size, edges, x, graph_label=int(g.integers(0, 2))))
    return graphs


def random_graph_data(seed: int, n: int = 30) -> TaskData:
    graphs = random_graphs(seed, n)
    split = random_split(n, np.array([g.graph_label for g in graphs]), (0.6, 0.2, 0.2), seed)
    return TaskData(kind="graph", graphs=graphs, split=split)


class TestScoredRowTraining:
    """Node-task training without a KD term runs the last layer on the
    train rows only; it trains exactly as a full forward whose train rows
    are then gathered. A shuffled split is sorted when it is made, so it
    trains exactly like its sorted form."""

    @staticmethod
    def full_forward_batches(config, data, plan, train_idx, shuffle, distill):
        yield data.forward_input(config), np.arange(data.n_samples), train_idx

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_train_row_cut_trains_like_full_forward(self, arch, order, monkeypatch):
        g = generate_sbm(15, 3, 0.4, 0.05, 6, seed=1)
        split = random_split(g.n_nodes, g.node_labels, (0.3, 0.3, 0.4), seed=1)
        given = split
        if order == "shuffled":
            rng = np.random.default_rng(0)
            given = DatasetSplit(*(rng.permutation(i) for i in astuple(split)))
        cfg = ModelConfig(arch=arch, in_dim=6, hidden_dim=16, n_classes=3, heads=2,
                          dropout=0.5, batch_norm=True)
        plan = quick_plan([cfg], epochs=6)
        data = TaskData(kind="node", graph=g, split=given)
        model, metrics = train_supervised(cfg, data, plan, seed=5)
        batches = P._epoch_batches(cfg, data, plan, split.train_idx, None, distill=False)
        assert "rows" in next(batches)[0]
        monkeypatch.setattr(P, "_epoch_batches", self.full_forward_batches)
        ref, ref_metrics = train_supervised(cfg, TaskData(kind="node", graph=g, split=split),
                                            plan, seed=5)
        for name in model.params:
            assert_bits(model.params[name].data, ref.params[name].data)
        for name in model.bn_state:
            assert_bits(model.bn_state[name], ref.bn_state[name])
        assert metrics.per_epoch == ref_metrics.per_epoch

    def test_kd_term_forwards_every_node(self, node_data):
        batches = P._epoch_batches(gcn_cfg(), node_data, quick_plan([gcn_cfg()]),
                                   node_data.split_idx("train"), None, distill=True)
        ctx, ids, rows = next(batches)
        assert "rows" not in ctx
        assert_bits(ids, np.arange(node_data.n_samples))
        assert_bits(rows, node_data.split_idx("train"))


class TestBatchCut:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 8),
        take=st.sampled_from(["one", "some", "all"]),
        sparse=st.booleans(),
    )
    @example(seed=0, n=1, take="one", sparse=False)
    @example(seed=3, n=8, take="all", sparse=True)
    @settings(max_examples=60, deadline=None)
    def test_cut_equals_rebatching(self, seed, n, take, sparse):
        """Every context entry (operators, edges, features, aggregated
        features, graph ids and graph count) and each operator's
        transpose, bit for bit, for every architecture with dense and with
        CSR features."""
        graphs = random_graphs(seed, n, one_hot_dim=70 if sparse else 0)
        empty = np.zeros(0, dtype=np.int64)
        data = TaskData(kind="graph", graphs=graphs, split=DatasetSplit(np.arange(n), empty, empty))
        k = {"one": 1, "some": max(1, n // 2), "all": n}[take]
        idx = np.random.default_rng(seed).permutation(n)[:k]
        for arch in ARCHITECTURES:
            cfg = ModelConfig(arch=arch, in_dim=graphs[0].feature_dim, hidden_dim=4,
                              n_classes=2, heads=2, task="graph")
            ctx = data.batch(cfg, idx)
            ref_ctx = build_forward_context(cfg, batch_graphs([graphs[i] for i in idx]))
            assert ctx.keys() == ref_ctx.keys() >= {"graph_ids", "n_graphs"}
            assert isinstance(ctx.get("x"), SparseMatrix) == (sparse and arch != "sage")
            assert ("x" in ctx) == (arch == "gat" or (arch == "gcn" and sparse))
            assert ("agg_x" in ctx) == (arch == "sage" or (arch == "gcn" and not sparse))
            for key, value in ctx.items():
                if isinstance(value, SparseMatrix):
                    assert_same_csr(value, ref_ctx[key])
                else:
                    assert_bits(value, ref_ctx[key])
            for key in ("adj", "mean_op"):
                if key in ctx:
                    assert ctx[key]._transpose is not None  # cut, not rebuilt
                    assert_same_csr(ctx[key].transpose(), ref_ctx[key].transpose())

    def test_cut_builds_no_graph(self, monkeypatch):
        """A batch is a cut context: once the full-data context exists, no
        Graph or GraphBatch is built or validated again, and the graph list
        is never read. The cuts equal those of an untouched copy."""
        data, ref = random_graph_data(seed=4), random_graph_data(seed=4)
        cfgs = [graph_cfg(arch=a, heads=2) for a in ARCHITECTURES]
        want = {}
        for cfg in cfgs:
            data.forward_input(cfg)
            want[cfg.arch] = (ref.batch(cfg, [3, 0, 7]), ref.split_input(cfg, "val"))

        def refuse(self, *_):
            raise AssertionError(f"touched a {type(self).__name__}")

        monkeypatch.setattr(GD.Graph, "__post_init__", refuse)
        monkeypatch.setattr(GD.GraphBatch, "__post_init__", refuse)
        untouchable = ("__getattribute__", "__getitem__", "__iter__", "__len__", "__bool__")
        data.graphs = type("GraphList", (), dict.fromkeys(untouchable, refuse))()
        for cfg in cfgs:
            got = (data.batch(cfg, [3, 0, 7]), data.split_input(cfg, "val"))
            for ctx, ref_ctx in zip(got, want[cfg.arch]):
                assert ctx.keys() == ref_ctx.keys()
                for key, value in ctx.items():
                    same = assert_same_csr if isinstance(value, SparseMatrix) else assert_bits
                    same(value, ref_ctx[key])

    def test_node_task_and_bad_ids_rejected(self, node_data, graph_data):
        with pytest.raises(ContractError, match="graph task"):
            node_data.batch(gcn_cfg(), [0])
        for bad in ([], [-1], [graph_data.n_samples], [1, 1], [1.7]):
            with pytest.raises(ContractError, match="graph ids"):
                graph_data.batch(graph_cfg(), bad)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_split_logits_equal_full_forward_rows(self, arch):
        data = random_graph_data(seed=5)
        cfg = graph_cfg(arch=arch, heads=2, batch_norm=True)
        model, _ = train_supervised(
            cfg, data, quick_plan([cfg], task="graph", epochs=2, batch_size=8), seed=0
        )
        assert any(np.any(v != 0) for k, v in model.bn_state.items() if k.endswith(".mean"))
        full = predict_logits(model, data)
        for split in ("train", "val", "test"):
            ctx = data.split_input(cfg, split)
            logits, _ = M.model_forward(model, ctx, training=False)
            assert_bits(logits.data, full[data.split_idx(split)])
            assert data.split_input(cfg, split) is ctx  # cut once

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_split_logits_match_full_forward_rows_at_hidden_16(self, arch):
        """From hidden width 16, BLAS may round a split batch's rows
        differently from the full batch's, so the logits match to rounding;
        on this fixture every prediction still agrees."""
        data = random_graph_data(seed=5, n=60)
        cfg = graph_cfg(arch=arch, hidden_dim=16, heads=2)
        model, _ = train_supervised(
            cfg, data, quick_plan([cfg], task="graph", epochs=2, batch_size=8), seed=0
        )
        full, preds = predict_logits(model, data), predict(model, data)
        for split in ("train", "val", "test"):
            idx = data.split_idx(split)
            logits, _ = M.model_forward(model, data.split_input(cfg, split), training=False)
            np.testing.assert_allclose(logits.data, full[idx], rtol=0, atol=1e-12)
            assert_bits(evaluate(model, data, split).pred, preds[idx])

    def test_graphs_batched_once_per_dataset(self, monkeypatch):
        calls = []
        monkeypatch.setattr(P, "batch_graphs", lambda gs: calls.append(gs) or batch_graphs(gs))
        data = random_graph_data(seed=2)
        contexts = [data.forward_input(graph_cfg(arch=a, heads=2)) for a in ARCHITECTURES]
        assert len(calls) == 1
        assert all(ctx["graph_ids"] is contexts[0]["graph_ids"] for ctx in contexts)

