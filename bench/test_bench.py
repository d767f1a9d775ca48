"""Tests of the benchmark itself: ``python3 -m pytest bench``.

The workloads run end to end at tiny size, the tracer puts back every
function it wrapped, and self time is checked on hand-built span trees.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans as sp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_end_to_end(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: result["metrics"][name]["unit"] for name in result["metrics"]} == {
        m["name"]: m["unit"] for m in declared
    }


def test_same_seed_gives_the_same_test_acc():
    accs = []
    for _ in range(2):
        proc = _run("--workload", "sbm_gat_distill", "--seed", "5", "--seconds", "1", "--tiny")
        accs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["test_acc"])
    assert accs[0] == accs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sbm_gat_distill",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _bindings():
    import importlib

    import bgnn
    from bgnn.optim import Adam
    from bgnn.sparse import SparseMatrix

    mods = [bgnn] + [importlib.import_module(f"bgnn.{m}") for m in sp.MODULES]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (SparseMatrix, Adam):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_records_spans_and_restores_every_function():
    import numpy as np
    from bgnn import tensor as T
    from bgnn.sparse import SparseMatrix

    before = _bindings()
    tracer = sp.Tracer(job=0)
    tracer.install()
    try:
        patched = _bindings()
        assert patched["bgnn.pipeline", "backward"] is not before["bgnn.pipeline", "backward"]
        assert patched["bgnn.models", "normalize_adjacency"] is patched[
            "bgnn.graph_data", "normalize_adjacency"]
        s = SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, 2.0])
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(T.spmm(s, x))
        T.backward(loss, tape)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = [span[0] for span in tracer.spans]
    assert names == ["sparse.from_coo", "tensor.spmm", "sparse.matmul_dense", "tensor.backward",
                     "tensor.spmm.bwd", "sparse.from_coo", "sparse.matmul_dense"]
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["sparse.matmul_dense"][5] == 2 * 2 * 3  # 2 * nnz * k
    assert tracer.spans[4][3] == 3  # the op's backward runs under backward()
    np.testing.assert_array_equal(x.grad, [[2.0] * 3, [1.0] * 3])


def _span(name, start, end, parent, tag=None, work=None):
    return [name, start, end, parent, tag, work]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert sp.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    overlapping = [_span("root", 0.0, 10.0, -1), _span("x", 1.0, 4.0, 0),
                   _span("y", 3.0, 6.0, 0), _span("z", 9.0, 12.0, 0)]
    assert sp.self_times(overlapping) == [4.0, 3.0, 3.0, 3.0]
    kept = sp.restrict(spans, [s[0] in ("root", "a.child") for s in spans])
    assert [s[0] for s in kept] == ["root", "a.child"] and kept[1][3] == 0
    assert sp.self_times(kept) == [9.0, 1.0]


def test_phase_self_time_and_epochs_on_a_hand_built_run():
    spans = [
        _span("pipeline.train_supervised", 0.0, 1.0, -1, "gcn"),
        _span("models.build_forward_context", 0.00, 0.01, 0),
        _span("models.model_forward", 0.01, 0.10, 0, "train"),
        _span("tensor.backward", 0.10, 0.15, 0, None, 7),
        _span("optim.Adam.step", 0.15, 0.20, 0),
        _span("pipeline.evaluate", 0.20, 0.30, 0, "val"),
        _span("models.model_forward", 0.21, 0.29, 5, "eval"),
        _span("models.build_forward_context", 0.22, 0.25, 6),
        _span("pipeline.evaluate", 0.30, 0.70, 0, "val"),
        _span("pipeline.evaluate", 0.70, 0.80, 0, "test"),
    ]
    m = sp.job_metrics(spans)
    assert m["pipeline.phase.context_ms"] == pytest.approx(40.0)
    assert m["pipeline.phase.eval_ms"] == pytest.approx(100.0 - 30.0 + 400.0 + 100.0)
    assert m["pipeline.phase.forward_ms"] == pytest.approx(90.0)
    assert m["models.model_forward.eval_ms"] == pytest.approx(80.0)
    assert m["tensor.tape_entries_per_step.gcn"] == 7
    assert sp.epoch_ms(spans)["gcn"] == [pytest.approx(400.0)]
