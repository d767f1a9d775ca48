"""Run one benchmark job in this process and write its result file.

    python3 bench/child.py <spec.json>

The spec names the workload, the job's inputs and output paths, and
whether to trace. The parent started this process and records its start
and exit; this process records, on the shared monotonic clock, when the
first dataset load returned (the end of set-up), and its own peak RSS.
With ``setup_only`` it stops right there. It needs ``bgnn`` importable,
which the parent arranges through PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# Called through their modules, so that a traced run sees the wrapped names.
from bgnn import boosting, cli, graph_data, pipeline
from bgnn.models import ModelConfig
from bgnn.pipeline import TaskData, TrainPlan


class SetupDone(Exception):
    """Raised to stop a set-up-only job once its dataset is loaded."""


def sbm_gat_distill(job: dict, result: dict, mark_setup) -> None:
    """One seed of the criterion-8 study: GAT teacher, boosted GCN student."""
    sbm = job["sbm"]
    g = graph_data.generate_sbm(
        sbm["n_per_block"], sbm["n_blocks"], sbm["p_in"], sbm["p_out"],
        sbm["feature_dim"], sbm["seed"],
    )
    split = graph_data.random_split(
        g.n_nodes, g.node_labels, tuple(sbm["split"]), seed=sbm["seed"]
    )
    data = TaskData(kind="node", graph=graph_data.apply_split_masks(g, split), split=split)
    mark_setup()
    n_classes = sbm["n_blocks"]
    teacher_cfg = ModelConfig(
        arch="gat", in_dim=sbm["feature_dim"], hidden_dim=32, n_classes=n_classes,
        heads=job["heads"], batch_norm=True, dropout=0.6,
    )
    student_cfg = ModelConfig(
        arch="gcn", in_dim=sbm["feature_dim"], hidden_dim=16, n_classes=n_classes
    )
    seed = job["train_seed"]

    def plan(epochs: int) -> TrainPlan:
        return TrainPlan(models=(teacher_cfg, student_cfg), task="node", epochs=epochs, seed=seed)

    teacher, t_metrics = pipeline.train_supervised(
        teacher_cfg, data, plan(job["teacher_epochs"]), seed
    )
    w0 = boosting.init_weights(split.train_idx.size, n_classes)
    _, _, s_metrics = pipeline.train_bgnn_step(
        teacher, student_cfg, data, w0, plan(job["student_epochs"]), seed + 1
    )
    result["losses"] = [e["train_loss"] for m in (t_metrics, s_metrics) for e in m.per_epoch]
    result["test_acc"] = [s_metrics.test_acc]
    result["teacher_test_acc"] = t_metrics.test_acc


def cli_job(job: dict, result: dict, mark_setup) -> None:
    """Run the job's ``bgnn`` commands in order; set-up ends at the first load."""
    load = cli.load_dataset

    def load_and_mark(spec):
        data = load(spec)
        mark_setup()
        return data

    cli.load_dataset = load_and_mark
    try:
        for argv in job["commands"]:
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"bgnn {' '.join(argv)} exited with {rc}")
    finally:
        cli.load_dataset = load


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result: dict = {}

    def mark_setup() -> None:
        if "setup_done" not in result:
            result["setup_done"] = time.monotonic()
            if spec["setup_only"]:
                raise SetupDone

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["job_id"])
        tracer.install()
    run = sbm_gat_distill if spec["kind"] == "api" else cli_job
    try:
        run(spec["job"], result, mark_setup)
    except SetupDone:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["job_id"] = tracer.job
        result["spans"] = tracer.spans
    out = Path(spec["result"])
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
