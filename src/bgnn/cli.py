"""Command-line entry point: train, sweep, cka, make-fixtures.

Configuration comes from an INI file whose sections and keys are the
``SETTINGS`` table; command-line flags override file values and parse
exactly like them. Every input is validated before any training starts
or any file is written. Exit codes: 0 success, 1 runtime failure,
2 usage/config error.

Datasets: ``sbm:small|medium|large`` (synthetic, fixed seed), a ``.json``
node-classification bundle path, or ``tu:DIR`` for a TU-format directory.
Relative paths fall back to $BGNN_DATA_DIR.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import cka_matrix, extract_layer_representations, save_cka_csv
from .errors import BgnnError, ConfigError, FormatError
from .graph_data import (
    atomic_write,
    generate_sbm,
    load_json_bundle,
    load_tu_dataset,
    random_split,
    save_json_bundle,
)
from .models import ARCHITECTURES, ModelConfig, load_checkpoint, save_checkpoint
from .pipeline import (
    TaskData,
    TrainPlan,
    evaluate,
    run_plans,
    save_metrics,
    save_predictions,
)

PLANS = ("nokd", "kd", "bgnn")
DATASET_SEED = 1234  # synthetic datasets and splits are fixed across runs
SPLIT_RATIOS = (0.8, 0.1, 0.1)
SBM_PRESETS = {
    "small": dict(n_per_block=40, n_blocks=2, feature_dim=8),
    "medium": dict(n_per_block=100, n_blocks=2, feature_dim=16),
    "large": dict(n_per_block=200, n_blocks=3, feature_dim=16),
}


@dataclass
class RunConfig:
    task: str = "node"
    dataset: str = "sbm:small"
    plan: str = "nokd"
    teachers: tuple = ()
    student: str = "gcn"
    hidden: int = 64
    layers: int = ModelConfig.n_layers
    dropout: float = ModelConfig.dropout
    heads: int = ModelConfig.heads
    batch_norm: bool = ModelConfig.batch_norm
    epochs: int | None = TrainPlan.epochs
    lr: float = TrainPlan.lr
    weight_decay: float = TrainPlan.weight_decay
    batch_size: int = TrainPlan.batch_size
    lam: float = TrainPlan.lam
    boosting: bool = TrainPlan.boosting
    adaptive_temp: bool = TrainPlan.adaptive_temp
    fixed_tau: float = TrainPlan.fixed_tau
    tau_min: float = TrainPlan.tau_min
    tau_max: float = TrainPlan.tau_max
    seeds: tuple = (0,)
    out: str = "runs"

    def validate(self) -> None:
        if self.task not in ("node", "graph"):
            raise ConfigError(f"task must be node or graph, got {self.task!r}")
        if self.plan not in PLANS:
            raise ConfigError(f"plan must be one of {PLANS}, got {self.plan!r}")
        for arch in (self.student, *self.teachers):
            if arch not in ARCHITECTURES:
                raise ConfigError(f"architecture must be one of {ARCHITECTURES}, got {arch!r}")
        if self.plan in ("kd", "bgnn") and not self.teachers:
            raise ConfigError(f"plan {self.plan!r} needs at least one teacher")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        for seed in self.seeds:
            if not isinstance(seed, int) or seed < 0:
                raise ConfigError(f"seeds must be non-negative integers, got {seed!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _parse_str_list(s: str) -> tuple:
    return tuple(x.strip() for x in s.split(",") if x.strip())


# RunConfig attribute -> (INI section, INI key, parser). On the command line
# each setting is the flag --<key> with "-" for "_", parsed by the same
# parser, except the three booleans, which are the SWITCHES below.
SETTINGS = {
    "task": ("run", "task", str),
    "dataset": ("run", "dataset", str),
    "plan": ("run", "plan", str),
    "seeds": ("run", "seeds", _parse_int_list),
    "out": ("run", "out", str),
    "student": ("model", "student", str),
    "teachers": ("model", "teachers", _parse_str_list),
    "hidden": ("model", "hidden", int),
    "layers": ("model", "layers", int),
    "dropout": ("model", "dropout", float),
    "heads": ("model", "heads", int),
    "batch_norm": ("model", "batch_norm", _parse_bool),
    "epochs": ("train", "epochs", int),
    "lr": ("train", "lr", float),
    "weight_decay": ("train", "weight_decay", float),
    "batch_size": ("train", "batch_size", int),
    "lam": ("distill", "lambda", float),
    "boosting": ("distill", "boosting", _parse_bool),
    "adaptive_temp": ("distill", "adaptive_temp", _parse_bool),
    "fixed_tau": ("distill", "fixed_tau", float),
    "tau_min": ("distill", "tau_min", float),
    "tau_max": ("distill", "tau_max", float),
}
# RunConfig attribute -> (flag, the value the flag sets)
SWITCHES = {
    "batch_norm": ("--batch-norm", True),
    "boosting": ("--no-boost", False),
    "adaptive_temp": ("--no-adaptive-temp", False),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _anchor(path: Path, lines: list[str], pattern: str) -> str:
    pat = re.compile(pattern)
    for no, line in enumerate(lines, start=1):
        if pat.match(line):
            return f"{path}:{no}"
    return str(path)


def load_config_file(path) -> dict:
    """Parse and fully validate an INI config; unknown keys are errors."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 text: {e}") from None
    lines = text.splitlines()
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    schema = {(sec, key): (attr, parse) for attr, (sec, key, parse) in SETTINGS.items()}
    sections = {sec for sec, _ in schema}
    values = {}
    for sec in cp.sections():
        if sec not in sections:
            where = _anchor(path, lines, rf"\s*\[{re.escape(sec)}\]")
            raise ConfigError(f"{where}: unknown section [{sec}]")
        for key, raw in cp.items(sec):
            where = _anchor(path, lines, rf"\s*{re.escape(key)}\s*[=:]")
            if (sec, key) not in schema:
                raise ConfigError(f"{where}: unknown key {key!r} in [{sec}]")
            attr, parse = schema[(sec, key)]
            try:
                values[attr] = parse(raw)
            except ValueError as e:
                raise ConfigError(f"{where}: bad value for {key!r}: {e}") from e
    return values


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by every flag given."""
    values = load_config_file(args.config) if args.config else {}
    for attr, (_, key, parse) in SETTINGS.items():
        raw = getattr(args, attr)
        if raw is None:
            continue
        try:
            values[attr] = raw if attr in SWITCHES else parse(raw)
        except ValueError as e:
            raise ConfigError(f"bad value for {_flag(key)}: {e}") from e
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# datasets


def _resolve_path(spec: str) -> Path:
    p = Path(spec)
    if p.exists():
        return p
    root = os.environ.get("BGNN_DATA_DIR")
    if root:
        candidate = Path(root) / spec
        if candidate.exists():
            return candidate
    raise ConfigError(f"dataset {spec!r} not found (also tried $BGNN_DATA_DIR)")


def load_dataset(spec: str) -> TaskData:
    """Resolve a dataset spec to task data; never mutates source files."""
    if spec.startswith("sbm:"):
        preset = spec.split(":", 1)[1]
        if preset not in SBM_PRESETS:
            raise ConfigError(f"unknown sbm preset {preset!r}; choose from {sorted(SBM_PRESETS)}")
        g = generate_sbm(p_in=0.9, p_out=0.05, seed=DATASET_SEED, **SBM_PRESETS[preset])
        split = random_split(g.n_nodes, g.node_labels, SPLIT_RATIOS, DATASET_SEED)
        return TaskData(kind="node", graph=g, split=split)
    if spec.startswith("tu:"):
        directory = _resolve_path(spec.split(":", 1)[1])
        graphs = load_tu_dataset(directory, directory.name)
        labels = np.array([g.graph_label for g in graphs])
        split = random_split(len(graphs), labels, SPLIT_RATIOS, DATASET_SEED)
        return TaskData(kind="graph", graphs=graphs, split=split)
    if spec.endswith(".json"):
        return TaskData(kind="node", graph=load_json_bundle(_resolve_path(spec)))
    raise ConfigError(
        f"unrecognized dataset {spec!r}: expected sbm:<preset>, tu:<dir>, or a .json bundle"
    )


def _load_for_task(cfg: RunConfig) -> TaskData:
    """The dataset of a training run, with non-empty train, val and test splits."""
    data = load_dataset(cfg.dataset)
    if data.kind != cfg.task:
        raise ConfigError(
            f"dataset {cfg.dataset!r} is {data.kind}-level but task is {cfg.task!r}"
        )
    for split in ("train", "val", "test"):
        if data.split_idx(split).size == 0:
            raise ConfigError(f"dataset {cfg.dataset!r} has an empty {split} split")
    return data


# ---------------------------------------------------------------------------
# commands


def make_plan(cfg: RunConfig, data: TaskData, seed: int) -> TrainPlan:
    def arch_cfg(arch: str) -> ModelConfig:
        return ModelConfig(
            arch=arch,
            in_dim=data.feature_dim,
            hidden_dim=cfg.hidden,
            n_classes=data.n_classes,
            dropout=cfg.dropout,
            heads=cfg.heads,
            batch_norm=cfg.batch_norm,
            n_layers=cfg.layers,
            task=cfg.task,
        )

    models = [arch_cfg(a) for a in cfg.teachers] + [arch_cfg(cfg.student)]
    if cfg.plan == "nokd":
        models = [arch_cfg(cfg.student)]
    return TrainPlan(
        models=models,
        task=cfg.task,
        epochs=cfg.epochs,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        lam=cfg.lam,
        boosting=cfg.boosting if cfg.plan == "bgnn" else False,
        adaptive_temp=cfg.adaptive_temp if cfg.plan == "bgnn" else False,
        fixed_tau=cfg.fixed_tau,
        tau_min=cfg.tau_min,
        tau_max=cfg.tau_max,
        batch_size=cfg.batch_size,
        seed=seed,
    )


def _run_points(points: list[tuple[RunConfig, Path]], data: TaskData) -> list[list[float]]:
    """Train every seed of every (config, output dir) point in one
    ``run_plans`` call and write its artifacts; return each point's
    final-step test accuracies. Every plan is validated before any
    directory is made."""
    jobs = [(i, out, make_plan(cfg, data, seed))
            for i, (cfg, out) in enumerate(points) for seed in cfg.seeds]
    for _, out in points:
        out.mkdir(parents=True, exist_ok=True)
    accs: list[list[float]] = [[] for _ in points]
    results = run_plans([plan for _, _, plan in jobs], data)
    for (i, out, plan), (model, metrics) in zip(jobs, results):
        seed = plan.seed
        for step, m in enumerate(metrics):
            save_metrics(m, out / f"metrics_step{step}_seed{seed}.json")
        save_predictions(evaluate(model, data, "test"), out / f"predictions_seed{seed}.csv")
        save_checkpoint(model, out / f"model_seed{seed}")
        accs[i].append(metrics[-1].test_acc)
    return accs


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    _run_points([(cfg, Path(cfg.out))], _load_for_task(cfg))
    return 0


SWEEP_PARAMS = {"tau": "fixed_tau", "lambda": "lam", "lr": "lr"}  # -> RunConfig attribute


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"bad sweep values {args.values!r}: {e}") from e
    if not values:
        raise ConfigError("sweep needs at least one value")
    names = [f"{v:g}" for v in values]  # each point's directory and sweep.csv label
    if len(set(names)) != len(names):
        raise ConfigError(f"sweep values {args.values!r} give duplicate point names {names}")
    data = _load_for_task(cfg)
    out = Path(cfg.out)
    points = []
    for v, name in zip(values, names):
        sub = dataclasses.replace(cfg, **{SWEEP_PARAMS[args.parameter]: v})
        if args.parameter == "tau":
            sub.adaptive_temp = False  # a fixed-temperature sweep point
        points.append((sub, out / f"{args.parameter}={name}"))
    accs = _run_points(points, data)
    lines = ["value,mean_acc,std"] + [
        f"{name},{np.mean(a):.6f},{np.std(a):.6f}" for name, a in zip(names, accs)
    ]
    atomic_write(out / "sweep.csv", "\n".join(lines) + "\n")
    return 0


def cmd_cka(args: argparse.Namespace) -> int:
    prefixes = _parse_str_list(args.checkpoints)
    if not prefixes:
        raise ConfigError("need at least one checkpoint")
    for p in prefixes:
        if not (Path(p + ".json").exists() and Path(p + ".bin").exists()):
            raise ConfigError(f"checkpoint {p!r} not found (need {p}.json and {p}.bin)")
    data = load_dataset(args.dataset)
    if data.kind != "graph":
        raise ConfigError("cka needs a graph-classification dataset")
    models = [load_checkpoint(p) for p in prefixes]
    for p, m in zip(prefixes, models):
        if m.config.in_dim != data.feature_dim:
            raise ConfigError(
                f"checkpoint {p!r} takes {m.config.in_dim} input features, "
                f"but dataset {args.dataset!r} has {data.feature_dim}"
            )
    tags = []
    for i, m in enumerate(models):
        tag = m.config.arch
        if sum(1 for other in models if other.config.arch == tag) > 1:
            tag = f"{tag}{i}"
        tags.append(tag)
    sets = [
        extract_layer_representations(m, data.graphs, tag)
        for m, tag in zip(models, tags)
    ]
    save_cka_csv(cka_matrix(sets), args.out)
    return 0


# ---------------------------------------------------------------------------
# fixtures


def _write_tu_toy(out: Path, seed: int) -> None:
    """Eight tiny graphs: triangles (label 1) and 4-paths (label 2), with
    node degrees as TU node labels so the loader builds one-hot features."""
    rng = np.random.default_rng(seed)
    kinds = rng.permutation([0, 1, 0, 1, 0, 1, 0, 1])
    a_lines, indicator, node_labels, graph_labels = [], [], [], []
    offset = 0
    for gid, kind in enumerate(kinds, start=1):
        if kind == 0:
            local = [(0, 1), (1, 2), (0, 2)]
            n, degs, label = 3, [2, 2, 2], 1
        else:
            local = [(0, 1), (1, 2), (2, 3)]
            n, degs, label = 4, [1, 2, 2, 1], 2
        for u, v in local:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        indicator += [str(gid)] * n
        node_labels += [str(d) for d in degs]
        graph_labels.append(str(label))
        offset += n
    for name, lines in (
        ("TOY_A.txt", a_lines),
        ("TOY_graph_indicator.txt", indicator),
        ("TOY_graph_labels.txt", graph_labels),
        ("TOY_node_labels.txt", node_labels),
    ):
        atomic_write(out / name, "\n".join(lines) + "\n")


def cmd_make_fixtures(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "sbm":
        g = generate_sbm(40, 2, 0.9, 0.05, 8, args.seed)
        split = random_split(g.n_nodes, g.node_labels, SPLIT_RATIOS, args.seed)
        save_json_bundle(dataclasses.replace(g, split=split), out / "sbm_small.json")
    elif args.kind == "json_toy":
        g = generate_sbm(6, 2, 0.9, 0.1, 4, args.seed)
        split = random_split(g.n_nodes, g.node_labels, (0.7, 0.15, 0.15), args.seed)
        save_json_bundle(dataclasses.replace(g, split=split), out / "toy.json")
    else:
        _write_tu_toy(out, args.seed)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override it")
    for attr, (sec, key, _) in SETTINGS.items():
        if attr in SWITCHES:
            flag, value = SWITCHES[attr]
            p.add_argument(flag, dest=attr, action="store_const", const=value,
                           help=f"[{sec}] {key} = {str(value).lower()}")
        else:
            p.add_argument(_flag(key), dest=attr, metavar=key.upper(), help=f"[{sec}] {key}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bgnn", description="Sequential GNN distillation runner"
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training plan, write artifacts")
    _add_run_flags(t)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sweep", help="repeat a plan over parameter values")
    _add_run_flags(s)
    s.add_argument("--parameter", choices=sorted(SWEEP_PARAMS), required=True)
    s.add_argument("--values", default="", help="comma-separated values")
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("cka", help="layer-similarity matrix from checkpoints")
    c.add_argument("--checkpoints", required=True, help="comma-separated prefixes")
    c.add_argument("--dataset", required=True)
    c.add_argument("--out", required=True, help="output CSV path")
    c.set_defaults(func=cmd_cka)

    m = sub.add_parser("make-fixtures", help="write deterministic toy datasets")
    m.add_argument("--kind", choices=["sbm", "tu_toy", "json_toy"], required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_make_fixtures)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BgnnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
