"""Outside-in tracing: wrap the program's public functions and derive the
per-layer metrics from the spans they record.

A :class:`Tracer` replaces each traced function with a wrapper that
records a span (name, start, end, parent, tag, work) in memory. A name
bound elsewhere with ``from ... import`` is replaced in every ``bgnn``
module that holds it, and methods are replaced on their class. A tape
op's backward is timed by wrapping the closure the op has just appended
to ``Tape.entries``; that span's parent is the running ``backward``.
``uninstall`` puts every original back. The program itself is not
modified.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from statistics import median, quantiles

MODULES = (
    "tensor",
    "sparse",
    "optim",
    "graph_data",
    "models",
    "distill",
    "boosting",
    "pipeline",
    "analysis",
    "cli",
)

TAPE_OPS = (
    "segment_sum",
    "segment_softmax",
    "gather_rows",
    "scale_rows",
    "leaky_relu",
    "concat_cols",
    "batch_norm",
    "elu",
    "spmm",
    "matmul",
    "softmax_rows",
)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


# (module, attribute, tag(args, kwargs), work(args, kwargs)); a dotted
# attribute is a method replaced on its class. Spans are named
# "<module>.<attribute>", except that the CSR methods go by their module
# alone ("sparse.matmul_dense"), as sparse.py holds nothing else.
TARGETS = (
    [("tensor", op, None, None) for op in TAPE_OPS]
    + [
        ("tensor", "backward", None, lambda a, k: len(_arg(a, k, 1, "tape").entries)),
        ("sparse", "SparseMatrix.matmul_dense", None,
         lambda a, k: 2 * a[0].nnz * a[1].shape[1]),
        ("sparse", "SparseMatrix.from_coo", None, None),
        ("optim", "Adam.step", None, None),
        ("graph_data", "normalize_adjacency", None, None),
        ("graph_data", "batch_graphs", None, None),
        ("graph_data", "mean_aggregator", None, None),
        ("graph_data", "sample_neighbors", None, None),
        ("graph_data", "generate_sbm", None, None),
        ("graph_data", "load_json_bundle", None, None),
        ("graph_data", "load_tu_dataset", None, None),
        ("models", "gcn_layer", None, None),
        ("models", "sage_layer", None, None),
        ("models", "gat_layer", None, lambda a, k: len(_arg(a, k, 3, "head_params"))),
        ("models", "build_forward_context", None, None),
        ("models", "model_forward",
         lambda a, k: "train" if _arg(a, k, 2, "training") else "eval", None),
        ("models", "save_checkpoint", None, None),
        ("models", "load_checkpoint", None, None),
        ("distill", "kd_loss", None, None),
        ("distill", "adaptive_temperature", None, None),
        ("boosting", "samme_r_update", None, None),
        ("boosting", "weighted_label_loss", None, None),
        ("pipeline", "train_supervised", lambda a, k: _arg(a, k, 0, "config").arch, None),
        ("pipeline", "train_bgnn_step",
         lambda a, k: _arg(a, k, 1, "student_config").arch, None),
        ("pipeline", "run_sequential", None, None),
        ("pipeline", "evaluate", lambda a, k: _arg(a, k, 2, "split"), None),
        ("pipeline", "save_metrics", None, None),
        ("pipeline", "save_predictions", None, None),
        ("analysis", "extract_layer_representations", None, None),
        ("analysis", "cka_matrix", None, None),
        ("cli", "load_dataset", None, None),
    ]
)


class Tracer:
    """Records spans from wrapped program functions; one per job process."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list = []  # [name, start, end, parent, tag, work]; parent < own index
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, name, tag, work, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = [name, t0, t1, parent, tag, work]

    def wrap(self, name: str, fn, tag=None, work=None, tape_op: bool = False):
        """Return ``fn`` wrapped so that each call records a span."""
        call = self._call
        active_tape = self._active_tape if tape_op else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tag(args, kwargs) if tag else None
            w = work(args, kwargs) if work else None
            tape = active_tape() if active_tape else None
            n0 = len(tape.entries) if tape is not None else 0
            out = call(name, t, w, fn, args, kwargs)
            if tape is not None and len(tape.entries) > n0:
                res, inputs, back = tape.entries[-1]
                tape.entries[-1] = (res, inputs, self._timed_backward(name + ".bwd", back))
            return out

        return wrapper

    def _timed_backward(self, name: str, back):
        def timed(g):
            self._call(name, None, None, back, (g,), {})

        return timed

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target in the imported ``bgnn`` package."""
        import importlib

        import bgnn
        from bgnn.tensor import active_tape

        self._active_tape = active_tape
        mods = [bgnn] + [importlib.import_module(f"bgnn.{m}") for m in MODULES]
        for mod_name, attr, tag, work in TARGETS:
            mod = importlib.import_module(f"bgnn.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{mod_name}.{attr.removeprefix('SparseMatrix.')}"
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, tag, work))
                else:
                    new = self.wrap(name, raw, tag, work)
                self._patch(cls, meth, new)
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original, tag, work,
                                tape_op=mod_name == "tensor" and attr in TAPE_OPS)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived metrics

TRAIN_CALLS = ("pipeline.train_supervised", "pipeline.train_bgnn_step")
PHASES = {
    "models.build_forward_context": "context",
    "models.model_forward": "forward",  # training-mode calls only
    "tensor.backward": "backward",
    "optim.Adam.step": "optimizer",
    "pipeline.evaluate": "eval",
}
ARCHS = ("gat", "gcn", "sage")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def restrict(spans, keep: list[bool]) -> list:
    """The spans whose ``keep`` flag is set, each re-parented to its
    nearest kept ancestor."""
    new_index, nearest, out = {}, [], []
    for i, s in enumerate(spans):
        anc = nearest[s[3]] if s[3] >= 0 else -1
        if keep[i]:
            new_index[i] = len(out)
            out.append([s[0], s[1], s[2], new_index.get(anc, -1), *s[4:]])
            anc = i
        nearest.append(anc)
    return out


def training_call(spans) -> list[int]:
    """For each span, the index of the training call it runs under, or -1."""
    owner: list[int] = []
    for i, s in enumerate(spans):
        owner.append(i if s[0] in TRAIN_CALLS else (owner[s[3]] if s[3] >= 0 else -1))
    return owner


def job_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one job's spans; unreached layers read 0."""
    total = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    for name, start, end, _parent, tag, w in spans:
        key = f"{name}.{tag}" if name == "models.model_forward" else name
        total[key] += (end - start) * 1000.0
        calls[key] += 1
        work[key] += w or 0
    m: dict[str, float] = {}
    for op in TAPE_OPS:
        m[f"tensor.{op}.fwd_ms"] = total[f"tensor.{op}"]
        m[f"tensor.{op}.bwd_ms"] = total[f"tensor.{op}.bwd"]
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
    for name in ("optim.Adam.step", "sparse.matmul_dense", "sparse.from_coo",
                 "graph_data.normalize_adjacency", "graph_data.batch_graphs",
                 "graph_data.mean_aggregator", "models.build_forward_context"):
        m[f"{name}.ms"] = total[name]
        m[f"{name}.calls"] = calls[name]
    # computed, not counted: 2*nnz*k flops per call over the measured time
    mm = "sparse.matmul_dense"
    m[f"{mm}.mflops"] = work[mm] / total[mm] / 1e3 if total[mm] else 0.0
    heads = work["models.gat_layer"]
    m["models.gat_layer.ms_per_head"] = total["models.gat_layer"] / heads if heads else 0.0
    m["pipeline.train_supervised.calls"] = calls["pipeline.train_supervised"]
    for name in ("models.gcn_layer", "models.sage_layer", "graph_data.sample_neighbors",
                 "tensor.backward", "distill.kd_loss", "distill.adaptive_temperature",
                 "boosting.samme_r_update", "boosting.weighted_label_loss",
                 "graph_data.generate_sbm", "graph_data.load_json_bundle",
                 "graph_data.load_tu_dataset", "cli.load_dataset", "models.save_checkpoint",
                 "models.load_checkpoint", "analysis.extract_layer_representations",
                 "analysis.cka_matrix"):
        m[f"{name}.ms"] = total[name]
    m["models.model_forward.train_ms"] = total["models.model_forward.train"]
    m["models.model_forward.eval_ms"] = total["models.model_forward.eval"]
    m["pipeline.persist.ms"] = total["pipeline.save_metrics"] + total["pipeline.save_predictions"]

    owner = training_call(spans)
    entries = defaultdict(int)
    for i, s in enumerate(spans):
        if s[0] == "tensor.backward" and owner[i] >= 0:
            arch = spans[owner[i]][4]
            entries[arch] = max(entries[arch], s[5])
    for a in ARCHS:
        m[f"tensor.tape_entries_per_step.{a}"] = entries[a]

    phase_spans = restrict(spans, [
        owner[i] >= 0 and s[0] in PHASES and (s[0] != "models.model_forward" or s[4] == "train")
        for i, s in enumerate(spans)
    ])
    phase_ms = defaultdict(float)
    for s, t in zip(phase_spans, self_times(phase_spans)):
        phase_ms[PHASES[s[0]]] += t * 1000.0
    for p in PHASES.values():
        m[f"pipeline.phase.{p}_ms"] = phase_ms[p]
    return m


def epoch_ms(spans) -> dict[str, list[float]]:
    """Per-epoch wall times by architecture.

    An epoch ends when its validation pass returns; epoch k lasts from the
    end of validation pass k-1 to the end of pass k, so the first epoch of
    each training call (which also pays for initialisation) is left out.
    """
    owner = training_call(spans)
    ends = defaultdict(list)  # training call -> ends of its validation passes
    for i, s in enumerate(spans):
        if s[0] == "pipeline.evaluate" and s[4] == "val" and owner[i] >= 0:
            ends[owner[i]].append(s[2])
    out = defaultdict(list)
    for call, times in ends.items():
        times.sort()
        out[spans[call][4]] += [(b - a) * 1000.0 for a, b in zip(times, times[1:])]
    return out


def run_metrics(per_job_spans: list[list]) -> dict[str, float]:
    """Median over jobs of each per-job metric, plus pooled epoch percentiles."""
    per_job = [job_metrics(s) for s in per_job_spans]
    m = {k: float(median(j[k] for j in per_job)) for k in per_job[0]}
    pooled = defaultdict(list)
    for spans in per_job_spans:
        for a, values in epoch_ms(spans).items():
            pooled[a] += values
    for a in ARCHS:
        v = pooled[a]
        m[f"pipeline.epoch_ms.{a}.p50"] = float(median(v)) if v else 0.0
        m[f"pipeline.epoch_ms.{a}.p90"] = quantiles(v, n=10)[8] if len(v) > 1 else 0.0
    return m


def call_breakdown(spans) -> list[str]:
    """Readable lines: per training call, its epochs, adjacency rebuilds,
    sparse-product share and tape size; then the job's largest tape ops."""
    stats: dict[int, dict] = {}
    for s, own in zip(spans, training_call(spans)):
        if own < 0:
            continue
        st = stats.setdefault(own, defaultdict(float))
        if s[0] == "graph_data.normalize_adjacency":
            st["adj"] += 1
        elif s[0] == "sparse.matmul_dense":
            st["spmm_ms"] += (s[2] - s[1]) * 1000.0
        elif s[0] == "pipeline.evaluate" and s[4] == "val":
            st["epochs"] += 1
        elif s[0] == "tensor.backward":
            st["entries"] = max(st["entries"], s[5])
    lines = []
    for call, st in sorted(stats.items()):
        name, start, end, _, arch, _ = spans[call]
        ms = (end - start) * 1000.0
        lines.append(
            f"{name.rsplit('.', 1)[1]}[{arch}] {ms:.0f} ms, {st['epochs']:.0f} epochs, "
            f"normalize_adjacency x{st['adj']:.0f}, matmul_dense {st['spmm_ms']:.0f} ms "
            f"({st['spmm_ms'] / ms:.0%}), {st['entries']:.0f} tape entries per step"
        )
    op_ms = defaultdict(float)
    for s in spans:
        if s[0].startswith("tensor.") and s[0] != "tensor.backward":
            op_ms[s[0].removesuffix(".bwd")] += (s[2] - s[1]) * 1000.0
    top = sorted(op_ms.items(), key=lambda kv: -kv[1])[:5]
    lines.append("largest tape ops (fwd+bwd): " + ", ".join(f"{k} {v:.0f} ms" for k, v in top))
    return lines
