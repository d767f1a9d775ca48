"""Acceptance gate: one test per numbered release criterion.

Fast numeric criteria (1-6) run on tiny random instances with pinned
tolerances. The distillation-study criteria (8-10) run on a frozen
600-node SBM fixture and share a module-scoped study; expect a few
minutes of wall time. They and the Cora studies are marked ``slow``, so
``-m "not slow"`` leaves them out of a quick run. Criteria that need the
real Cora bundle (3, 7, and half of 8) skip unless cora.json is found in
BGNN_DATA_DIR or the working directory -- see the README for the bundle
layout. Skips are reported, never silently passed.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

import bgnn.pipeline as P
from bgnn import tensor as T
from bgnn.analysis import linear_cka
from bgnn.boosting import SampleWeights, init_weights, samme_r_update
from bgnn.cli import main as cli_main
from bgnn.distill import kd_gradient_reference, kd_loss
from bgnn.graph_data import (
    generate_sbm,
    load_json_bundle,
    load_tu_dataset,
    random_split,
)
from bgnn.models import ModelConfig, init_model
from bgnn.pipeline import (
    TaskData,
    TrainPlan,
    evaluate,
    run_plans,
    run_sequential,
    train_bgnn_step,
    train_supervised,
)
from bgnn.sparse import SparseMatrix
from bgnn.tensor import Tape, Tensor, backward

from helpers import check_grads, forward


def _find_data(name: str) -> Path | None:
    env = os.environ.get("BGNN_DATA_DIR")
    for base in ([Path(env)] if env else []) + [Path.cwd()]:
        p = base / name
        if p.exists():
            return p
    return None


CORA = _find_data("cora.json")
needs_cora = pytest.mark.skipif(
    CORA is None, reason="cora.json bundle not found; set BGNN_DATA_DIR to enable"
)


def _node_data(n_per_block, n_blocks, p_in, p_out, feat, seed, ratios, noise=1.0):
    g = generate_sbm(n_per_block, n_blocks, p_in, p_out, feat, seed, noise_scale=noise)
    split = random_split(g.n_nodes, g.node_labels, ratios, seed=seed)
    return TaskData(kind="node", graph=g, split=split)


def _cora_data() -> TaskData:
    return TaskData(kind="node", graph=load_json_bundle(CORA))


def _one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    out = np.zeros((labels.size, c))
    out[np.arange(labels.size), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks, all ops + all models


def _ce_loss_all_nodes(model, graph, targets: np.ndarray):
    rng = np.random.default_rng(17)
    logits, _ = forward(model, graph, training=True, rng=rng)
    return T.cross_entropy(T.softmax_rows(logits), targets)


def test_01_finite_difference_gradients_ops_and_models():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 4))
    pos = rng.uniform(0.5, 2.0, size=(5, 3))
    off_kink = a + np.sign(a) * 0.1  # keep relu/elu inputs away from 0
    ids = [0, 0, 1, 2, 2]
    const = rng.normal(size=(5, 3))

    def red(x):  # weighted sum so gradients are non-uniform
        return T.sum_all(T.mul(x, Tensor(const)))

    check_grads(lambda x, y: red(T.add(x, y)), a, b)
    check_grads(lambda x, y: red(T.mul(x, y)), a, b)
    check_grads(lambda x: red(T.scale(x, -1.7)), a)
    check_grads(lambda x: red(T.add_scalar(x, 0.9)), a)
    c54 = rng.normal(size=(5, 4))
    c33 = rng.normal(size=(3, 3))
    c56 = rng.normal(size=(5, 6))
    c43 = rng.normal(size=(4, 3))
    c35 = rng.normal(size=(3, 5))
    c5 = rng.normal(size=5)
    check_grads(lambda x, y: T.sum_all(T.mul(T.matmul(x, y), Tensor(c54))), a, w)
    check_grads(lambda x, v: red(T.add_bias(x, v)), a, rng.normal(size=3))
    sp = SparseMatrix.from_coo(5, 5, [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 0, 3], np.full(6, 0.7))
    check_grads(lambda x: red(T.spmm(sp, x)), a)
    check_grads(lambda x: red(T.relu(x)), off_kink)
    check_grads(lambda x: red(T.leaky_relu(x)), off_kink)
    check_grads(lambda x: red(T.elu(x)), off_kink)
    check_grads(lambda x: red(T.sigmoid(x)), a)
    check_grads(lambda x: red(T.softmax_rows(x)), a)
    check_grads(lambda x: red(T.softmax_rows(x, 2.5)), a)
    tau_vec = rng.uniform(1.0, 3.0, size=5)
    check_grads(lambda x, t: red(T.softmax_rows(x, t)), a, tau_vec)
    check_grads(lambda x: T.sum_all(T.mul(T.segment_sum(x, ids, 3), Tensor(c33))), a)
    e = rng.normal(size=5)
    c5b = rng.normal(size=5)
    check_grads(lambda x: T.sum_all(T.mul(T.segment_softmax(x, ids, 3), Tensor(c5b))), e)
    check_grads(lambda x, y: T.sum_all(T.mul(T.concat_cols(x, y), Tensor(c56))), a, b)
    check_grads(lambda x: T.sum_all(T.mul(T.gather_rows(x, [3, 0, 2, 2]), Tensor(c43))), a)
    check_grads(lambda x: T.sum_all(T.mul(T.reshape(x, (3, 5)), Tensor(c35))), a)
    check_grads(T.sum_all, a)
    q = rng.uniform(size=(5, 3)) * (rng.uniform(size=(5, 3)) > 0.3)  # some targets zero
    check_grads(lambda p: T.cross_entropy(p, q), pos)  # probabilities off the floor
    check_grads(lambda p: T.cross_entropy(p, q, c5), pos)
    check_grads(lambda x, v: red(T.scale_rows(x, v)), a, rng.uniform(0.5, 2.0, size=5))
    check_grads(lambda x: red(T.dropout(x, 0.4, True, rng=np.random.default_rng(9))), a)
    rm, rv = np.zeros(3), np.ones(3)
    check_grads(lambda x, g_, b_: red(T.batch_norm(x, g_, b_, rm, rv, True)), a,
                rng.uniform(0.5, 1.5, size=3), rng.normal(size=3))

    # full models: every parameter of every architecture against central FD
    graph_data = _node_data(3, 2, 0.9, 0.3, 4, seed=5, ratios=(0.5, 0.25, 0.25))
    g = graph_data.graph
    targets = _one_hot(g.node_labels, 2)
    h = 1e-5
    for arch, extra in (
        ("gcn", {}),
        ("sage", {}),
        ("gat", {"heads": 2}),
    ):
        cfg = ModelConfig(arch=arch, in_dim=4, hidden_dim=4, n_classes=2, **extra)
        model = init_model(cfg, seed=2)
        with Tape() as tape:
            loss = _ce_loss_all_nodes(model, g, targets)
        backward(loss, tape)
        grads = {k: np.array(p.grad, copy=True) for k, p in model.params.items()}
        for name, param in model.params.items():
            flat = param.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(_ce_loss_all_nodes(model, g, targets).data)
                flat[i] = orig - h
                fm = float(_ce_loss_all_nodes(model, g, targets).data)
                flat[i] = orig
                num[i] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(
                grads[name].reshape(-1), num, rtol=1e-4, atol=1e-6,
                err_msg=f"{arch} parameter {name}",
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s, cap is 30s"
    print(f"[criterion 1] all ops + gcn/sage/gat params match FD (rtol 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: KD gradient equals the closed form


def test_02_kd_gradient_matches_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    for i in range(100):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 7))
        # moderate logits: keep softened probabilities above the numeric
        # floor inside kd_loss, where the closed form is exact
        z = rng.normal(size=(n, c)) * 1.5
        t = rng.normal(size=(n, c)) * 1.5
        tau = float(rng.uniform(0.75, 4.0)) if i % 2 else rng.uniform(0.75, 4.0, size=n)
        zt = Tensor(z, requires_grad=True)
        with Tape() as tape:
            loss = kd_loss(zt, t, tau)
        backward(loss, tape)
        np.testing.assert_allclose(
            zt.grad, kd_gradient_reference(z, t, tau), atol=1e-10,
            err_msg=f"instance {i}",
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"KD oracle took {elapsed:.2f}s, cap is 5s"
    print(f"[criterion 2] 100 KD gradients match (softmax(z/tau)-softmax(t/tau))/tau "
          f"within 1e-10 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: adaptive temperatures stay inside [tau_min, tau_max]


def _record_taus(monkeypatch) -> list[np.ndarray]:
    taus: list[np.ndarray] = []
    orig = P.adaptive_temperature

    def spy(module, teacher_logits):
        out = orig(module, teacher_logits)
        taus.append(np.array(out.data, copy=True))
        return out

    monkeypatch.setattr(P, "adaptive_temperature", spy)
    return taus


def test_03_adaptive_temperature_clamped_synthetic(monkeypatch):
    data = _node_data(20, 2, 0.9, 0.05, 8, seed=1, ratios=(0.6, 0.2, 0.2))
    cfg = ModelConfig(arch="gcn", in_dim=8, hidden_dim=8, n_classes=2)
    plan = TrainPlan(models=(cfg, cfg), task="node", epochs=25, seed=0)
    teacher, _ = train_supervised(cfg, data, plan, seed=0)
    taus = _record_taus(monkeypatch)
    w0 = init_weights(data.split.train_idx.size, 2)
    train_bgnn_step(teacher, cfg, data, w0, plan, seed=1)
    assert len(taus) == plan.epochs, "expected one temperature emission per epoch"
    lo = min(float(t.min()) for t in taus)
    hi = max(float(t.max()) for t in taus)
    assert lo >= 1.0 - 1e-12 and hi <= 4.0 + 1e-12, f"range [{lo}, {hi}] escapes [1, 4]"
    print(f"[criterion 3/synthetic] {len(taus)} epochs, temperatures in [{lo:.3f}, {hi:.3f}]")


@pytest.mark.slow
@needs_cora
def test_03_adaptive_temperature_clamped_cora(monkeypatch):
    data = _cora_data()
    gat = ModelConfig(arch="gat", in_dim=data.feature_dim, hidden_dim=16,
                      n_classes=data.n_classes, heads=8)
    gcn = ModelConfig(arch="gcn", in_dim=data.feature_dim, hidden_dim=16,
                      n_classes=data.n_classes)
    taus = _record_taus(monkeypatch)
    plan = TrainPlan(models=(gat, gcn), task="node", seed=0)
    run_sequential(plan, data)
    assert len(taus) == plan.epochs, "expected one temperature emission per epoch"
    lo = min(float(t.min()) for t in taus)
    hi = max(float(t.max()) for t in taus)
    assert lo >= 1.0 - 1e-12 and hi <= 4.0 + 1e-12, f"range [{lo}, {hi}] escapes [1, 4]"
    print(f"[criterion 3/cora] {len(taus)} epochs, temperatures in [{lo:.3f}, {hi:.3f}]")


# ---------------------------------------------------------------------------
# criterion 4: boosting update properties and hand values


def test_04_samme_r_update_properties():
    rng = np.random.default_rng(4)
    for n, c in [(1, 2), (5, 3), (12, 6)]:
        w = SampleWeights(rng.uniform(0.2, 1.0, n) / n, c)
        w = SampleWeights(w.weights / w.weights.sum(), c)
        p = rng.dirichlet(np.ones(c), size=n)
        y = _one_hot(rng.integers(0, c, n), c)
        out = samme_r_update(w, p, y)
        assert np.all(out.weights > 0)
        np.testing.assert_allclose(out.weights.sum(), 1.0, atol=1e-12)

    # monotone: lower true-class probability -> larger new weight
    w = init_weights(2, 3)
    p = np.array([[0.2, 0.5, 0.3], [0.4, 0.35, 0.25]])
    out = samme_r_update(w, p, _one_hot(np.array([0, 0]), 3))
    assert out.weights[0] > out.weights[1]

    # hand value: with two classes, p_true = 1/2 multiplies the weight by
    # exp(-(1/2) ln(1/2)) = sqrt(2) while a certain sample keeps factor 1
    w = SampleWeights(np.array([0.5, 0.5]), 2)
    p = np.array([[0.5, 0.5], [1.0 - 1e-12, 1e-12]])
    out = samme_r_update(w, p, _one_hot(np.array([0, 0]), 2))
    s2 = np.sqrt(2.0)
    np.testing.assert_allclose(out.weights, [s2 / (1 + s2), 1 / (1 + s2)], atol=1e-12)
    print("[criterion 4] simplex, monotonicity, and sqrt(2) hand value hold to 1e-12")


# ---------------------------------------------------------------------------
# criterion 5: disabled distillation reproduces plain training bitwise


def test_05_disabled_distillation_reproduces_supervised_bitwise():
    data = _node_data(20, 2, 0.85, 0.05, 8, seed=2, ratios=(0.6, 0.2, 0.2))
    cfg = ModelConfig(arch="gcn", in_dim=8, hidden_dim=8, n_classes=2)
    plan = TrainPlan(
        models=(cfg, cfg), task="node", epochs=6, lam=0.0,
        boosting=False, adaptive_temp=False, seed=0,
    )
    teacher, _ = train_supervised(cfg, data, plan, seed=9)
    sup_model, sup_metrics = train_supervised(cfg, data, plan, seed=3)
    w0 = init_weights(data.split.train_idx.size, 2)
    kd_model, w_out, kd_metrics = train_bgnn_step(teacher, cfg, data, w0, plan, seed=3)
    assert kd_metrics.per_epoch == sup_metrics.per_epoch, "per-epoch logs diverge"
    assert kd_metrics.test_acc == sup_metrics.test_acc
    for name, param in sup_model.params.items():
        assert np.array_equal(param.data, kd_model.params[name].data), name
    np.testing.assert_array_equal(w_out.weights, w0.weights)
    print("[criterion 5] lam=0 + boosting off + adaptive off is bit-identical to supervised")


# ---------------------------------------------------------------------------
# criterion 6: CKA properties and the centered-HSIC oracle


def test_06_cka_properties_and_hsic_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 4))
    y = rng.normal(size=(6, 5))
    assert abs(linear_cka(x, x) - 1.0) <= 1e-10
    assert abs(linear_cka(x, y) - linear_cka(y, x)) <= 1e-10
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert abs(linear_cka(x @ q, y) - linear_cka(x, y)) <= 1e-10
    assert abs(linear_cka(2.7 * x, y) - linear_cka(x, y)) <= 1e-10

    for _ in range(20):
        n = int(rng.integers(3, 9))
        a = rng.normal(size=(n, int(rng.integers(2, 7))))
        b = rng.normal(size=(n, int(rng.integers(2, 7))))
        ac = a - a.mean(axis=0)
        bc = b - b.mean(axis=0)
        k, l_ = ac @ ac.T, bc @ bc.T
        hsic = np.trace(k @ l_) / np.sqrt(np.trace(k @ k) * np.trace(l_ @ l_))
        assert abs(linear_cka(a, b) - hsic) <= 1e-10
    print("[criterion 6] CKA self/symmetry/invariance and HSIC equality hold to 1e-10")


# ---------------------------------------------------------------------------
# criterion 7: Cora supervised baseline accuracy


@pytest.mark.slow
@needs_cora
def test_07_cora_gcn_baseline_accuracy():
    data = _cora_data()
    cfg = ModelConfig(arch="gcn", in_dim=data.feature_dim, hidden_dim=16,
                      n_classes=data.n_classes)
    accs = []
    for seed in range(5):
        plan = TrainPlan(models=(cfg,), task="node", weight_decay=5e-4, seed=seed)
        t0 = time.monotonic()
        model, _ = train_supervised(cfg, data, plan, seed=seed)
        wall = time.monotonic() - t0
        assert wall < 180.0, f"seed {seed} took {wall:.0f}s, cap is 3min"
        accs.append(evaluate(model, data, "test").accuracy)
    mean = float(np.mean(accs))
    print(f"[criterion 7] Cora GCN mean test accuracy {mean:.4f} over 5 seeds (floor 0.78)")
    assert mean >= 0.78, f"mean accuracy {mean:.4f} under 0.78 floor"


# ---------------------------------------------------------------------------
# criteria 8 + 9 share one frozen SBM study (600 nodes, 3 blocks)

SBM_SEED = 7
SBM_EPOCHS = 80
STUDY_SEEDS = (0, 1, 2, 3, 4)
SWEEP_SEEDS = (0, 1, 2)


def _sbm_teacher_cfg(heads: int) -> ModelConfig:
    return ModelConfig(arch="gat", in_dim=16, hidden_dim=32, n_classes=3,
                       heads=heads, batch_norm=True, dropout=0.6)


_SBM_STUDENT = ModelConfig(arch="gcn", in_dim=16, hidden_dim=16, n_classes=3)


@pytest.fixture(scope="module")
def sbm_data() -> TaskData:
    return _node_data(200, 3, 0.10, 0.05, 16, seed=SBM_SEED, ratios=(0.1, 0.15, 0.75))


@pytest.fixture(scope="module")
def sbm_study(sbm_data):
    """Per-seed teacher/NoKD/BGNN/no-boost runs on the frozen fixture."""
    teacher_cfg = _sbm_teacher_cfg(heads=16)
    rows = []
    for s in STUDY_SEEDS:
        plan = TrainPlan(models=(teacher_cfg, _SBM_STUDENT), task="node",
                         epochs=SBM_EPOCHS, seed=s)
        teacher, _ = train_supervised(teacher_cfg, sbm_data, plan, seed=s)
        nokd_model, _ = train_supervised(_SBM_STUDENT, sbm_data, plan, seed=s + 1)
        w0 = init_weights(sbm_data.split.train_idx.size, 3)
        boost_model, _, boost_metrics = train_bgnn_step(
            teacher, _SBM_STUDENT, sbm_data, w0, plan, seed=s + 1
        )
        plain_plan = TrainPlan(models=(teacher_cfg, _SBM_STUDENT), task="node",
                               epochs=SBM_EPOCHS, boosting=False, seed=s)
        _, _, plain_metrics = train_bgnn_step(
            teacher, _SBM_STUDENT, sbm_data, w0, plain_plan, seed=s + 1
        )
        rows.append({
            "nokd": evaluate(nokd_model, sbm_data, "test").accuracy,
            "bgnn": evaluate(boost_model, sbm_data, "test").accuracy,
            "mis_boost": boost_metrics.teacher_mis_acc,
            "mis_plain": plain_metrics.teacher_mis_acc,
        })
    return rows


@pytest.mark.slow
def test_08_distillation_beats_supervised_sbm(sbm_study):
    nokd = float(np.mean([r["nokd"] for r in sbm_study]))
    bgnn = float(np.mean([r["bgnn"] for r in sbm_study]))
    margin = bgnn - nokd
    print(f"[criterion 8/sbm] NoKD {nokd:.4f} vs BGNN {bgnn:.4f}, "
          f"margin {margin:+.4f} (floor +0.003)")
    assert margin >= 0.003, f"margin {margin:+.4f} under the 0.003 floor"


@pytest.mark.slow
@needs_cora
def test_08_distillation_beats_supervised_cora():
    data = _cora_data()
    gat = ModelConfig(arch="gat", in_dim=data.feature_dim, hidden_dim=16,
                      n_classes=data.n_classes, heads=8)
    gcn = ModelConfig(arch="gcn", in_dim=data.feature_dim, hidden_dim=16,
                      n_classes=data.n_classes)
    nokd, bgnn = [], []
    for seed in range(5):
        plan = TrainPlan(models=(gcn,), task="node", seed=seed)
        model, _ = train_supervised(gcn, data, plan, seed=seed)
        nokd.append(evaluate(model, data, "test").accuracy)
        chain = TrainPlan(models=(gat, gcn), task="node", seed=seed)
        _, metrics = run_sequential(chain, data)
        bgnn.append(metrics[-1].test_acc)
    print(f"[criterion 8/cora] NoKD {np.mean(nokd):.4f} vs BGNN {np.mean(bgnn):.4f}")
    assert float(np.mean(bgnn)) > float(np.mean(nokd))


@pytest.mark.slow
def test_09_boosting_helps_teacher_missed_nodes(sbm_study):
    mis_b = [r["mis_boost"] for r in sbm_study]
    mis_p = [r["mis_plain"] for r in sbm_study]
    assert all(m is not None for m in mis_b + mis_p), (
        "teacher misclassified no training nodes on some seed; fixture is degenerate"
    )
    delta = float(np.mean(mis_b)) - float(np.mean(mis_p))
    print(f"[criterion 9] teacher-missed train-node accuracy: boosting on "
          f"{np.mean(mis_b):.4f} vs off {np.mean(mis_p):.4f}, delta {delta:+.4f}")
    assert delta >= -1e-12, f"boosting lowered the mean by {delta:+.4f}"


# ---------------------------------------------------------------------------
# criterion 10: fixed-temperature sweep, adaptive stays competitive


@pytest.mark.slow
def test_10_fixed_tau_sweep_and_adaptive_competitive(sbm_data):
    teacher_cfg = _sbm_teacher_cfg(heads=4)
    taus = range(1, 11)

    def plan(seed, **kw):
        return TrainPlan(models=(teacher_cfg, _SBM_STUDENT), task="node",
                         epochs=SBM_EPOCHS, boosting=False, seed=seed, **kw)

    # One run_plans call: the teacher does not read tau, lambda or the
    # temperature module, so every leg shares one trained teacher per seed.
    fixed = [plan(s, adaptive_temp=False, fixed_tau=float(tau), lam=1.0)
             for tau in taus for s in SWEEP_SEEDS]
    adaptive = [plan(s) for s in SWEEP_SEEDS]
    results = run_plans(fixed + adaptive, sbm_data)
    assert len(results) == len(fixed) + len(adaptive)
    accs = [metrics[-1].test_acc for _, metrics in results]
    assert all(np.isfinite(accs))
    n = len(SWEEP_SEEDS)
    fixed_means = {tau: float(np.mean(accs[k * n:(k + 1) * n])) for k, tau in enumerate(taus)}
    best_tau, best = max(fixed_means.items(), key=lambda kv: kv[1])
    adap = float(np.mean(accs[-n:]))
    line = " ".join(f"{t}:{v:.3f}" for t, v in fixed_means.items())
    print(f"[criterion 10] fixed sweep {line}; best tau={best_tau} ({best:.4f}); "
          f"adaptive {adap:.4f} (floor best-0.01)")
    assert adap >= best - 0.01, f"adaptive {adap:.4f} under best fixed {best:.4f} - 0.01"


# ---------------------------------------------------------------------------
# criterion 11: TU-format loader


def test_11_tu_dataset_loader(tmp_path):
    enzymes = _find_data("ENZYMES")
    if enzymes is not None and (enzymes / "ENZYMES_A.txt").exists():
        graphs = load_tu_dataset(enzymes, "ENZYMES")
        labels = {g.graph_label for g in graphs}
        print(f"[criterion 11] ENZYMES: {len(graphs)} graphs, {len(labels)} classes")
        assert len(graphs) == 600 and len(labels) == 6
        return
    assert cli_main(["make-fixtures", "--kind", "tu_toy", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    graphs = load_tu_dataset(tmp_path, "TOY")
    assert len(graphs) == 8
    assert sorted(g.n_nodes for g in graphs) == [3, 3, 3, 3, 4, 4, 4, 4]
    tri = {frozenset(p) for p in [(0, 1), (1, 2), (0, 2)]}
    path = {frozenset(p) for p in [(0, 1), (1, 2), (2, 3)]}
    tri_labels, path_labels = set(), set()
    for g in graphs:
        undirected = {frozenset(map(int, e)) for e in g.edges}
        if g.n_nodes == 3:
            assert undirected == tri
            tri_labels.add(g.graph_label)
        else:
            assert undirected == path
            path_labels.add(g.graph_label)
        deg = np.bincount(np.asarray(g.edges)[:, 0], minlength=g.n_nodes)
        expect = np.zeros((g.n_nodes, g.features.shape[1]))
        expect[np.arange(g.n_nodes), deg - 1] = 1.0
        np.testing.assert_array_equal(g.features, expect)
    assert len(tri_labels) == 1 and len(path_labels) == 1
    assert tri_labels != path_labels
    print("[criterion 11] ENZYMES not present; tu_toy fixture round-trips exactly")
