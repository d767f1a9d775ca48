"""The benchmark's workloads: their inputs, jobs and correctness checks.

A workload object is made for one run from the workload seed. It writes
the inputs the program receives, describes the job a child process runs
(``job_spec``), and checks what a finished job left behind (``check``).
``nominal_epochs`` is the number of training epochs the job's calls ask
for, fixed by the definition below; ``required`` names the functions a
traced job must reach.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from bgnn import analysis, cli, models, pipeline

from inputs import CORA, CORA_TINY, write_cora_like, write_tu_dir

ACC_TOL = 1e-12  # accuracies recomputed from saved artifacts must match exactly
CSV_TOL = 5e-7  # sweep.csv rounds to six decimals
CKA_SELF_TOL = 1e-9


def _finite_losses(losses, where: str) -> list[str]:
    bad = [x for x in losses if not math.isfinite(x)]
    return [f"{where}: {len(bad)} non-finite losses"] if bad else []


def _acc_in_range(acc: float, where: str) -> list[str]:
    return [] if 0.0 <= acc <= 1.0 else [f"{where}: test_acc {acc} outside [0, 1]"]


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_plan_dir(out: Path, seeds, n_steps: int, data) -> tuple[list[str], list[float]]:
    """Check one ``bgnn train`` output directory; return problems and the
    final students' test accuracies."""
    problems: list[str] = []
    accs: list[float] = []
    for seed in seeds:
        final = None
        for step in range(n_steps):
            path = out / f"metrics_step{step}_seed{seed}.json"
            if not path.is_file():
                problems.append(f"{path}: missing")
                continue
            final = json.loads(path.read_text(encoding="utf-8"))
            problems += _finite_losses([e["train_loss"] for e in final["per_epoch"]], str(path))
            problems += _acc_in_range(final["test_acc"], str(path))
        preds_path = out / f"predictions_seed{seed}.csv"
        if final is None or not preds_path.is_file():
            problems.append(f"{out}: seed {seed} has no final metrics or predictions")
            continue
        rows = _read_csv(preds_path)
        ids = np.array([int(r["sample_id"]) for r in rows])
        true = np.array([int(r["true"]) for r in rows])
        pred = np.array([int(r["pred"]) for r in rows])
        recomputed = float((true == pred).mean())
        if abs(recomputed - final["test_acc"]) > ACC_TOL:
            problems.append(
                f"{preds_path}: accuracy {recomputed} != metrics test_acc {final['test_acc']}"
            )
        model = models.load_checkpoint(out / f"model_seed{seed}")
        if not np.array_equal(pipeline.predict(model, data)[ids], pred):
            problems.append(f"{out}/model_seed{seed}: reloaded model changes its predictions")
        accs.append(final["test_acc"])
    return problems, accs


class SbmGatDistill:
    """One seed of the criterion-8 study through the public API."""

    kind = "api"
    required = (
        "graph_data.generate_sbm", "pipeline.train_supervised", "pipeline.train_bgnn_step",
        "models.gat_layer", "models.gcn_layer", "tensor.segment_sum", "tensor.segment_softmax",
        "tensor.gather_rows", "tensor.scale_rows", "tensor.leaky_relu", "tensor.concat_cols",
        "tensor.batch_norm", "tensor.elu", "tensor.spmm", "sparse.matmul_dense",
        "graph_data.normalize_adjacency", "optim.Adam.step", "tensor.backward",
        "distill.kd_loss", "distill.adaptive_temperature", "boosting.samme_r_update",
        "boosting.weighted_label_loss",
    )

    def __init__(self, inputs: Path, seed: int, tiny: bool):
        # The frozen criterion-8 fixture (fixture seed 7); the workload seed
        # is the study seed, as in the acceptance test. The teacher trains 6
        # epochs, not 80, so that a run holds several jobs: 80 take over 30 s,
        # and peak RSS grows with every epoch (about 1.5 GB after 20).
        self.job = {
            "sbm": dict(n_per_block=30 if tiny else 200, n_blocks=3, p_in=0.10, p_out=0.05,
                        feature_dim=16, seed=7, split=[0.10, 0.15, 0.75]),
            "heads": 16,
            "teacher_epochs": 2 if tiny else 6,
            "student_epochs": 3 if tiny else 80,
            "train_seed": seed,
        }
        self.nominal_epochs = self.job["teacher_epochs"] + self.job["student_epochs"]

    def job_spec(self, out: Path) -> dict:
        return self.job

    def check(self, out: Path, result: dict) -> tuple[list[str], list[float]]:
        problems = _finite_losses(result["losses"], "sbm_gat_distill")
        if len(result["losses"]) != self.nominal_epochs:
            problems.append(f"{len(result['losses'])} epoch losses, want {self.nominal_epochs}")
        for acc in result["test_acc"] + [result["teacher_test_acc"]]:
            problems += _acc_in_range(acc, "sbm_gat_distill")
        return problems, result["test_acc"]


class CoraGcnTauSweep:
    """``bgnn sweep`` over tau on a Cora-shaped bundle, GCN teacher and student."""

    kind = "cli"
    taus = (2.0, 4.0)
    seeds = (0,)
    required = (
        "cli.load_dataset", "graph_data.load_json_bundle", "pipeline.train_supervised",
        "pipeline.train_bgnn_step", "models.gcn_layer", "tensor.spmm", "tensor.matmul",
        "tensor.softmax_rows", "sparse.matmul_dense", "sparse.from_coo",
        "graph_data.normalize_adjacency", "optim.Adam.step", "tensor.backward",
        "distill.kd_loss", "models.save_checkpoint", "pipeline.save_metrics",
        "pipeline.save_predictions",
    )

    def __init__(self, inputs: Path, seed: int, tiny: bool):
        self.bundle = inputs / "cora_like.json"
        write_cora_like(self.bundle, seed, CORA_TINY if tiny else CORA)
        self.epochs = 3 if tiny else 20  # 80 would leave one 20-s job per run
        self.nominal_epochs = len(self.taus) * len(self.seeds) * 2 * self.epochs
        self._data = None

    def job_spec(self, out: Path) -> dict:
        return {"commands": [[
            "sweep", "--parameter", "tau", "--values", ",".join(f"{t:g}" for t in self.taus),
            "--task", "node", "--dataset", str(self.bundle), "--plan", "kd",
            "--teachers", "gcn", "--student", "gcn", "--hidden", "16",
            "--epochs", str(self.epochs), "--seeds", ",".join(map(str, self.seeds)),
            "--out", str(out),
        ]]}

    def check(self, out: Path, result: dict) -> tuple[list[str], list[float]]:
        if self._data is None:
            self._data = cli.load_dataset(str(self.bundle))
        problems: list[str] = []
        accs: list[float] = []
        point_stats = {}
        for tau in self.taus:
            p, a = check_plan_dir(out / f"tau={tau:g}", self.seeds, 2, self._data)
            problems += p
            accs += a
            if a:
                point_stats[f"{tau:g}"] = (float(np.mean(a)), float(np.std(a)))
        sweep = out / "sweep.csv"
        rows = _read_csv(sweep)
        if sorted(r["value"] for r in rows) != sorted(point_stats):
            problems.append(f"{sweep}: rows {[r['value'] for r in rows]} do not match the points")
        for r in rows:
            mean, std = point_stats.get(r["value"], (math.nan, math.nan))
            if not (abs(float(r["mean_acc"]) - mean) <= CSV_TOL
                    and abs(float(r["std"]) - std) <= CSV_TOL):
                problems.append(f"{sweep}: row {r} is not the mean of its point's metrics")
        return problems, accs


class TuGraphSageCka:
    """``bgnn train`` on a TU directory (GCN teacher, SAGE student), then ``bgnn cka``."""

    kind = "cli"
    seeds = (0, 1)
    required = (
        "cli.load_dataset", "graph_data.load_tu_dataset", "graph_data.batch_graphs",
        "graph_data.mean_aggregator", "graph_data.sample_neighbors",
        "models.build_forward_context", "models.sage_layer", "models.gcn_layer",
        "tensor.segment_sum", "tensor.concat_cols", "optim.Adam.step", "tensor.backward",
        "distill.kd_loss", "distill.adaptive_temperature", "boosting.samme_r_update",
        "models.save_checkpoint", "models.load_checkpoint",
        "analysis.extract_layer_representations", "analysis.cka_matrix",
    )

    def __init__(self, inputs: Path, seed: int, tiny: bool):
        self.tu_dir = inputs / "SYNTU"
        write_tu_dir(self.tu_dir, seed, n_graphs=30 if tiny else 600)
        self.dataset = f"tu:{self.tu_dir}"
        self.epochs = 2 if tiny else 12
        self.nominal_epochs = len(self.seeds) * 2 * self.epochs
        self._data = None

    def job_spec(self, out: Path) -> dict:
        train = out / "train"
        return {"commands": [
            ["train", "--task", "graph", "--dataset", self.dataset, "--plan", "bgnn",
             "--teachers", "gcn", "--student", "sage", "--hidden", "16",
             "--epochs", str(self.epochs), "--seeds", ",".join(map(str, self.seeds)),
             "--out", str(train)],
            ["cka", "--dataset", self.dataset, "--out", str(out / "cka.csv"),
             "--checkpoints", ",".join(str(train / f"model_seed{s}") for s in self.seeds)],
        ]}

    def check(self, out: Path, result: dict) -> tuple[list[str], list[float]]:
        if self._data is None:
            self._data = cli.load_dataset(self.dataset)
        problems, accs = check_plan_dir(out / "train", self.seeds, 2, self._data)
        cka_path = out / "cka.csv"
        rows = _read_csv(cka_path)
        n_reps = len(self.seeds) * 2  # two layers per student
        if len(rows) != n_reps * n_reps:
            problems.append(f"{cka_path}: {len(rows)} rows, want {n_reps * n_reps}")
        for r in rows:
            if (r["model_a"], r["layer_a"]) == (r["model_b"], r["layer_b"]):
                if abs(float(r["cka"]) - 1.0) > CKA_SELF_TOL:
                    problems.append(f"{cka_path}: self-CKA {r['cka']} for {r['model_a']}")
        # The CSV keeps six decimals, so also check one model at full precision.
        student = models.load_checkpoint(out / "train" / f"model_seed{self.seeds[0]}")
        reps = analysis.extract_layer_representations(student, self._data.graphs)
        for layer, x in enumerate(reps.layers, start=1):
            cka = analysis.linear_cka(x, x)
            if abs(cka - 1.0) > CKA_SELF_TOL:
                problems.append(f"self-CKA of layer {layer} is {cka!r}, not 1 within 1e-9")
        return problems, accs


WORKLOADS = {
    "sbm_gat_distill": SbmGatDistill,
    "cora_gcn_tau_sweep": CoraGcnTauSweep,
    "tu_graph_sage_cka": TuGraphSageCka,
}
