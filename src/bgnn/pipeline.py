"""Training orchestration: supervised baselines, sequential distillation
with boosting and adaptive temperature, evaluation, and persistence.

One training core backs both the supervised baseline and the
distillation step, so switching every distillation feature off reduces a
step to plain supervised training bit for bit (same seed, same rng
streams, same update order). Random streams are derived per purpose from
the run seed: parameter init uses the seed itself, dropout and batch
shuffling use spawned substreams, and the temperature module draws
from its own substream so enabling it never shifts the others. Every
forward reads only a forward context, which ``TaskData`` builds or cuts.
An epoch is validated in the next epoch's first step, before its update
(the node task from that step's layer 1, so only layers 2..L run); its
numbers equal a standalone evaluation bit for bit.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import tensor as T
from .boosting import SampleWeights, init_weights, samme_r_update, weighted_label_loss
from .distill import adaptive_temperature, init_temperature_module, kd_loss
from .errors import ConfigError, ContractError, TrainingError
from .graph_data import DatasetSplit, Graph, GraphBatch, atomic_write, batch_graphs
from .models import (
    GnnModel, ModelConfig, build_forward_context, cut_forward_context, cut_scored_rows, init_model,
    model_forward,
)
from .optim import Adam
from .tensor import Tape, backward, softmax_np

DEFAULT_EPOCHS = {"node": 300, "graph": 200}


@dataclass
class TaskData:
    """Node task: one graph with node labels, split by node. Graph task: a
    labelled graph list plus a split over graph indices.

    Every construction is checked: each split index must be an integer in
    ``[0, n_samples)``. A node task given no split takes the graph's.

    A forward reads one forward context, built lazily: the graph task
    batches its graphs once, the full-data context is built once per
    architecture (``forward_input``), and each split's context is cut from
    it once per architecture (``split_input``). The graph task cuts every
    mini-batch (``batch``) and every split out of that one block-diagonal
    context, so training never batches graphs or builds a context again.
    The node task cuts a split's context so that the last layer computes
    only the split's rows.
    """

    kind: str
    graph: Graph | None = None
    graphs: list[Graph] | None = None
    split: DatasetSplit | None = None
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    # arch or (arch, split) -> forward context
    _inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "node":
            if self.graph is None or self.graph.node_labels is None:
                raise ContractError("node task needs a graph with node labels")
            if self.split is None:
                self.split = self.graph.split
            self.labels = self.graph.node_labels
        elif self.kind == "graph":
            if not self.graphs:
                raise ContractError("graph task needs at least one graph")
            if any(g.graph_label is None for g in self.graphs):
                raise ContractError("graph task needs a label per graph")
            self.labels = np.asarray([g.graph_label for g in self.graphs], dtype=np.int64)
        else:
            raise ContractError(f"unknown task kind {self.kind!r}")
        if self.split is None:
            raise ContractError(f"{self.kind} task needs a split")
        n = self.n_samples
        for name in ("train", "val", "test"):
            idx = np.asarray(getattr(self.split, f"{name}_idx"))
            if idx.size and idx.dtype.kind not in "iu":
                raise ContractError(f"split {name!r} indices must be integers")
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ContractError(f"split {name!r} has an index outside [0, {n})")

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def feature_dim(self) -> int:
        return (self.graph if self.kind == "node" else self.graphs[0]).feature_dim

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def split_idx(self, split: str) -> np.ndarray:
        if split not in ("train", "val", "test"):
            raise ContractError(f"unknown split {split!r}")
        return np.asarray(getattr(self.split, f"{split}_idx"))

    @cached_property
    def _full_input(self) -> Graph | GraphBatch:
        return self.graph if self.kind == "node" else batch_graphs(self.graphs)

    def forward_input(self, config: ModelConfig) -> dict:
        """The full-data forward context (of the graph, or of every graph
        batched once per dataset), built once per architecture.

        The context depends only on the data and the architecture, so
        node-task training, every evaluation and teacher logits share it.
        """
        if config.arch not in self._inputs:
            self._inputs[config.arch] = build_forward_context(config, self._full_input)
        return self._inputs[config.arch]

    def batch(self, config: ModelConfig, idx) -> dict:
        """The forward context of the distinct graphs ``idx`` batched in
        that order, cut from ``forward_input`` (``cut_forward_context``); it
        equals, bit for bit, what ``build_forward_context`` builds on their
        ``batch_graphs``, except that the CSR-feature choice is the full
        data's."""
        if self.kind != "graph":
            raise ContractError("only the graph task is cut into batches")
        idx, n = np.asarray(idx), self.n_samples
        if (idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu" or idx.min() < 0
                or idx.max() >= n or np.unique(idx).size != idx.size):
            raise ContractError(f"a batch needs distinct integer graph ids in [0, {n})")
        return cut_forward_context(self.forward_input(config), idx)

    def split_input(self, config: ModelConfig, split: str) -> dict:
        """The forward context that scores one split, cut once per
        architecture and split: ``batch`` of the split's graphs, or the
        full context cut to the split's rows (``cut_scored_rows``). Either
        way the logits are the split's rows of a full forward, in split
        order. The node task's match bit for bit. The graph task's match
        to rounding, not bit for bit: BLAS rounds a row of a dense product
        by the row's place among the product's rows, and a split's batch
        places its nodes elsewhere (seen at hidden width 16 and up)."""
        key = (config.arch, split)
        if key not in self._inputs:
            idx = self.split_idx(split)
            self._inputs[key] = (
                self.batch(config, idx) if self.kind == "graph"
                else cut_scored_rows(self.forward_input(config), idx, self.graph.n_nodes)
            )
        return self._inputs[key]


@dataclass
class TrainPlan:
    """Sequence of models to train: teachers first, final student last.

    Distillation covers every node of the node task and the training
    graphs of the graph task.
    """

    models: list[ModelConfig]
    task: str = "node"
    epochs: int | None = None  # default 300 (node) / 200 (graph)
    lr: float = 0.01
    weight_decay: float = 5e-4
    lam: float = 1.0
    boosting: bool = True
    adaptive_temp: bool = True
    fixed_tau: float = 4.0
    tau_min: float = 1.0
    tau_max: float = 4.0
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not self.models:
            raise ConfigError("plan needs at least one model")
        if self.task not in ("node", "graph"):
            raise ConfigError(f"unknown task {self.task!r}")
        classes = {m.n_classes for m in self.models}
        if len(classes) > 1:
            raise ConfigError(f"models disagree on class count: {sorted(classes)}")
        for m in self.models:
            if m.task != self.task:
                raise ConfigError("model task does not match plan task")
        for what, value, positive in (
            ("learning rate", self.lr, True),
            ("weight decay", self.weight_decay, False),
            ("lambda", self.lam, False),
            ("fixed tau", self.fixed_tau, True),
        ):
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                rule = "positive" if positive else "non-negative"
                raise ConfigError(f"{what} must be a finite {rule} number, got {value}")
        if not 1.0 <= self.tau_min < self.tau_max < math.inf:
            raise ConfigError(
                f"need 1 <= tau_min < tau_max < inf, "
                f"got tau_min {self.tau_min}, tau_max {self.tau_max}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs is None:
            self.epochs = DEFAULT_EPOCHS[self.task]
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")

    def describe(self) -> str:
        archs = "->".join(m.arch for m in self.models)
        flags = []
        if len(self.models) > 1:
            flags.append(f"lam={self.lam:g}")
            flags.append("boost" if self.boosting else "noboost")
            flags.append("adapt" if self.adaptive_temp else f"tau={self.fixed_tau:g}")
        return " ".join([archs] + flags)


@dataclass
class TrainMetrics:
    plan: str
    seed: int
    per_epoch: list[dict]
    test_acc: float
    teacher_mis_acc: float | None
    wall_ms: float

    def __post_init__(self):
        if not 0.0 <= self.test_acc <= 1.0:
            raise ContractError(f"accuracy {self.test_acc} outside [0, 1]")


def _one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    return (np.asarray(labels)[:, None] == np.arange(c)).astype(np.float64)


def _rng_streams(seed: int) -> dict[str, np.random.Generator]:
    return {
        "dropout": np.random.default_rng(np.random.SeedSequence([seed, 1])),
        "shuffle": np.random.default_rng(np.random.SeedSequence([seed, 2])),
    }


def _snapshot(model: GnnModel) -> dict:
    return {
        "params": {k: v.data.copy() for k, v in model.params.items()},
        "bn": {k: v.copy() for k, v in model.bn_state.items()},
    }


def _restore(model: GnnModel, snap: dict) -> None:
    for k, v in snap["params"].items():
        model.params[k].data[...] = v
    for k, v in snap["bn"].items():
        model.bn_state[k][...] = v


def predict_logits(model: GnnModel, data: TaskData) -> np.ndarray:
    """Eval-mode logits for every sample (node or graph)."""
    logits, _ = model_forward(model, data.forward_input(model.config), training=False)
    return logits.data


def predict(model: GnnModel, data: TaskData) -> np.ndarray:
    return predict_logits(model, data).argmax(axis=1)


@dataclass
class EvalResult:
    accuracy: float
    sample_ids: np.ndarray
    true: np.ndarray
    pred: np.ndarray


def evaluate(
    model: GnnModel, data: TaskData, split: str, h1: np.ndarray | None = None
) -> EvalResult:
    """Accuracy and per-sample correctness of a model on one split.

    The model forwards only what the split scores
    (``TaskData.split_input``): the split's graphs, or a last layer over
    the split's nodes. Either gives the split's rows of a full forward,
    bit for bit for the node task and to rounding for the graph task.

    ``h1``, for a node-task model, is its layer 1's output over every
    node, taken from a forward at the same parameters (``reps[0]``); the
    forward then runs only layers 2..L (``model_forward``), with the same
    result as without it.
    """
    idx = data.split_idx(split)
    if idx.size == 0:
        raise ContractError(f"split {split!r} is empty")
    ctx = data.split_input(model.config, split)
    if h1 is not None:
        ctx = dict(ctx, h1=h1)
    logits, _ = model_forward(model, ctx, training=False)
    pred = logits.data.argmax(axis=1)
    true = data.labels[idx]
    return EvalResult(
        accuracy=float((true == pred).mean()), sample_ids=idx, true=true, pred=pred
    )


# ---------------------------------------------------------------------------
# training core


def _epoch_batches(
    config: ModelConfig, data: TaskData, plan: TrainPlan, train_idx, shuffle, distill: bool
):
    """Yield one epoch's training batches as (forward context, sample ids
    of the logits rows, logits rows under the label loss or None for all).

    The node task is a single full-graph batch whose label loss covers the
    training nodes in ``train_idx`` order; it draws nothing from
    ``shuffle``. Its last layer computes only those nodes
    (``TaskData.split_input``) unless ``distill``: the node task's KD term
    reads every node. The graph task yields shuffled ``batch_size`` chunks
    of training graphs, each context cut from the full-data one
    (``TaskData.batch``).
    """
    if data.kind == "node":
        if distill:
            yield data.forward_input(config), np.arange(data.n_samples), train_idx
        else:
            yield data.split_input(config, "train"), train_idx, None
        return
    order = shuffle.permutation(train_idx)
    for start in range(0, order.size, plan.batch_size):
        chunk = order[start : start + plan.batch_size]
        yield data.batch(config, chunk), chunk, None


def _train_student(
    config: ModelConfig,
    data: TaskData,
    plan: TrainPlan,
    seed: int,
    weights: np.ndarray | None = None,
    teacher_logits: np.ndarray | None = None,
    variant: str = "entropy_only",
) -> tuple[GnnModel, TrainMetrics]:
    """Train a fresh model on weighted label loss, plus the distillation
    term against ``teacher_logits`` when given and ``plan.lam`` > 0.

    Each epoch ends with one ``evaluate(..., "val")`` of the model it
    trained, and the best-validation snapshot (parameters and batch-norm
    state) is restored at the end. Epoch t is validated during epoch
    t + 1's first step, between its backward and its optimizer step: the
    parameters are still epoch t's and batch norm reads the state copied
    before that step's training forward. The node task's step forwards
    the graph it validates on, so its layer 1 is read from that forward
    (``reps[0]``, handed to ``evaluate`` as ``h1``) and only layers 2..L
    run again. The last epoch is validated on its own.
    """
    t0 = time.perf_counter()
    streams = _rng_streams(seed)
    model = init_model(config, seed)
    train_idx = data.split_idx("train")
    if train_idx.size == 0:
        raise ContractError("split 'train' is empty")
    labels = data.labels
    c = data.n_classes
    if config.n_classes != c:
        raise ContractError(f"model has {config.n_classes} classes, data has {c}")
    sample_w = np.zeros(data.n_samples)
    sample_w[train_idx] = 1.0 / train_idx.size if weights is None else weights

    params = {f"model.{k}": v for k, v in model.params.items()}
    distill = teacher_logits is not None and plan.lam > 0
    temp_module = None
    if distill and plan.adaptive_temp:
        temp_seed = int(np.random.SeedSequence([seed, 3]).generate_state(1)[0])
        temp_module = init_temperature_module(
            variant, c, temp_seed, plan.tau_min, plan.tau_max
        )
        params.update({f"temp.{k}": v for k, v in temp_module.params.items()})
    opt = Adam(params, lr=plan.lr, weight_decay=plan.weight_decay)
    kd_scale = plan.lam / (data.n_samples if data.kind == "node" else train_idx.size)

    per_epoch: list[dict] = []
    best = {"val_acc": -1.0, "snap": _snapshot(model)}
    train_loss = 0.0

    def validate(trained: GnnModel, h1: np.ndarray | None = None) -> None:
        """Close the epoch that ``trained`` ended: record it, keep it if best."""
        val_acc = evaluate(trained, data, "val", h1).accuracy
        per_epoch.append({"epoch": len(per_epoch), "train_loss": train_loss, "val_acc": val_acc})
        if val_acc > best["val_acc"]:
            best.update(val_acc=val_acc, snap=_snapshot(trained))

    for epoch in range(plan.epochs):
        losses = []
        for ctx, ids, rows in _epoch_batches(
            config, data, plan, train_idx, streams["shuffle"], distill
        ):
            label_ids = ids if rows is None else ids[rows]
            closes = epoch > 0 and not losses  # the first step closes the last epoch
            # a training batch norm updates bn_state in place: keep the last epoch's
            bn = {k: v.copy() for k, v in model.bn_state.items()} if closes else None
            with Tape() as tape:
                logits, reps = model_forward(model, ctx, training=True, rng=streams["dropout"])
                scored = logits if rows is None else T.gather_rows(logits, rows)
                loss = weighted_label_loss(
                    T.softmax_rows(scored), _one_hot(labels[label_ids], c), sample_w[label_ids]
                )
                if distill:
                    t = teacher_logits[ids]
                    tau = (
                        adaptive_temperature(temp_module, t)
                        if temp_module is not None
                        else plan.fixed_tau
                    )
                    loss = T.add(loss, T.scale(kd_loss(logits, t, tau), kd_scale))
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise TrainingError(f"training diverged at epoch {epoch}")
            backward(loss, tape)
            # Every recorded tensor points back at its tape; emptying the tape
            # frees the step's activations now instead of at the next cyclic GC.
            tape.entries.clear()
            if closes:
                # the parameters are still the last epoch's: validate it before
                # the step moves them, the node task from this forward's layer 1
                validate(replace(model, bn_state=bn),
                         reps[0].data if data.kind == "node" else None)
            opt.step()
            opt.zero_grad()
            losses.append(loss_val)
        train_loss = float(np.mean(losses)) if losses else 0.0
    if plan.epochs:
        validate(model)

    _restore(model, best["snap"])
    test_acc = evaluate(model, data, "test").accuracy
    metrics = TrainMetrics(
        plan=plan.describe(),
        seed=seed,
        per_epoch=per_epoch,
        test_acc=test_acc,
        teacher_mis_acc=None,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return model, metrics


# ---------------------------------------------------------------------------
# public entry points


def train_supervised(
    config: ModelConfig, data: TaskData, plan: TrainPlan, seed: int
) -> tuple[GnnModel, TrainMetrics]:
    """Plain cross-entropy training; best-validation checkpoint returned."""
    return _train_student(config, data, plan, seed)


def train_bgnn_step(
    teacher,
    student_config: ModelConfig,
    data: TaskData,
    weights: SampleWeights,
    plan: TrainPlan,
    seed: int,
    variant: str = "entropy_only",
) -> tuple[GnnModel, SampleWeights, TrainMetrics]:
    """One distillation step against a frozen teacher.

    Caches the teacher's eval-mode logits once, boosts the weights of
    training samples the teacher gets wrong, then trains a fresh student
    on weighted label loss plus the scaled distillation term. Returns the
    student, the updated weights, and metrics including the student's
    accuracy on teacher-misclassified training samples.

    ``teacher`` is a trained model, or a precomputed (n_samples,
    n_classes) logits array for synthetic/oracle teachers. ``weights``
    must hold one weight per training sample over the data's classes.
    """
    c = data.n_classes
    train_idx = data.split_idx("train")
    if (weights.n_train, weights.n_classes) != (train_idx.size, c):
        raise ContractError(
            f"sample weights cover {weights.n_train} samples and {weights.n_classes} "
            f"classes, the data has {train_idx.size} training samples and {c} classes"
        )
    if isinstance(teacher, GnnModel):
        if teacher.config.n_classes != c:
            raise ContractError(
                f"teacher has {teacher.config.n_classes} classes, data has {c}"
            )
        t_logits = predict_logits(teacher, data)
    else:
        t_logits = np.asarray(teacher, dtype=np.float64)
        if t_logits.shape != (data.n_samples, c):
            raise ContractError(
                f"teacher logits {t_logits.shape} do not match "
                f"({data.n_samples}, {c})"
            )
    labels = data.labels

    if plan.boosting:
        probs = softmax_np(t_logits[train_idx])
        weights = samme_r_update(weights, probs, _one_hot(labels[train_idx], c))

    student, metrics = _train_student(
        student_config, data, plan, seed, weights.weights, t_logits, variant
    )

    teacher_pred = t_logits.argmax(axis=1)
    mis = teacher_pred[train_idx] != labels[train_idx]
    if mis.any():
        student_pred = evaluate(student, data, "train").pred
        metrics.teacher_mis_acc = float((student_pred[mis] == labels[train_idx][mis]).mean())
    return student, weights, metrics


def run_plans(
    plans: list[TrainPlan], data: TaskData
) -> list[tuple[GnnModel, list[TrainMetrics]]]:
    """Train every plan's model chain, each step distilling from the last.

    Step i uses seed plan.seed + i. The temperature module sees entropy
    alone on the first distillation step and [logits, entropy] afterwards.
    Weights carry across steps.

    The first step is plain supervised training, so plans that agree on
    its inputs (first model, epochs, lr, weight decay, batch size and
    seed) share one trained first model: a tau or lambda sweep trains
    each teacher once per seed. Each plan still gets its own metrics,
    labelled with its own plan. Results come back in plan order.
    """
    firsts: dict = {}
    results = []
    for plan in plans:
        key = (astuple(plan.models[0]), plan.epochs, plan.lr, plan.weight_decay,
               plan.batch_size, plan.seed)
        if key not in firsts:
            firsts[key] = train_supervised(plan.models[0], data, plan, plan.seed)
        model, first_metrics = firsts[key]
        all_metrics = [replace(first_metrics, plan=plan.describe())]
        weights = init_weights(data.split_idx("train").size, data.n_classes)
        for i, cfg in enumerate(plan.models[1:], start=1):
            variant = "entropy_only" if i == 1 else "concat"
            model, weights, metrics = train_bgnn_step(
                model, cfg, data, weights, plan, plan.seed + i, variant=variant
            )
            all_metrics.append(metrics)
        results.append((model, all_metrics))
    return results


def run_sequential(plan: TrainPlan, data: TaskData) -> tuple[GnnModel, list[TrainMetrics]]:
    """Train one plan's model chain; see ``run_plans``."""
    return run_plans([plan], data)[0]


# ---------------------------------------------------------------------------
# persistence


def save_metrics(metrics: TrainMetrics, path) -> None:
    atomic_write(path, json.dumps(asdict(metrics)))


def save_predictions(result: EvalResult, path) -> None:
    lines = ["sample_id,true,pred"]
    for sid, t, p in zip(result.sample_ids, result.true, result.pred):
        lines.append(f"{int(sid)},{int(t)},{int(p)}")
    atomic_write(path, "\n".join(lines) + "\n")
