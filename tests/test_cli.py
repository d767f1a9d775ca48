"""Command-line behavior: config parsing, flag overrides, exit codes,
artifact layout, fixture generation, and the cka runner."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bgnn import cli
from bgnn.cli import load_config_file, load_dataset, main
from bgnn.errors import ConfigError
from bgnn.graph_data import load_json_bundle, load_tu_dataset
from bgnn.models import ModelConfig, init_model, load_checkpoint, save_checkpoint
from bgnn.pipeline import predict
from helpers import write_tu_dir


def run(*argv) -> int:
    return main(list(argv))


def fail_if_called(*args, **kwargs):
    raise AssertionError("training started before the plan was validated")


def write_tu_shapes(directory: Path, n_graphs: int) -> None:
    """Triangles (label 1) and 4-paths (label 2) in turn, node degrees as
    node labels: a TU directory named after ``directory``."""
    triangle = ([2, 2, 2], [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 1)
    path = ([1, 2, 2, 1], [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)], 2)
    write_tu_dir(directory, directory.name, [triangle, path] * (n_graphs // 2))


def write_four_node_bundle(path: Path, **splits) -> Path:
    obj = {
        "n_nodes": 4, "edges": [[0, 1], [2, 3]], "labels": [0, 0, 1, 1],
        "features": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
        "train_idx": [0, 2], "val_idx": [1], "test_idx": [3],
    }
    path.write_text(json.dumps({**obj, **splits}))
    return path


def write_sparse_bundle(path: Path, n: int = 40, vocab: int = 200) -> Path:
    """Two classes in turn on a ring; each node has two words from its
    class's half of the vocabulary, so 1 % of the features are nonzero."""
    rng = np.random.default_rng(0)
    labels = [i % 2 for i in range(n)]
    indices = [[i, int(w)] for i in range(n)
               for w in np.sort(rng.choice(vocab // 2, 2, replace=False)) + labels[i] * vocab // 2]
    obj = {
        "n_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)], "labels": labels,
        "features": {"indices": indices, "values": [1.0] * len(indices), "shape": [n, vocab]},
        "train_idx": list(range(n // 2)), "val_idx": list(range(n // 2, 3 * n // 4)),
        "test_idx": list(range(3 * n // 4, n)),
    }
    path.write_text(json.dumps(obj))
    return path


def train_args(out, **extra):
    argv = [
        "train",
        "--dataset",
        "sbm:small",
        "--plan",
        "nokd",
        "--student",
        "gcn",
        "--hidden",
        "8",
        "--epochs",
        "3",
        "--seeds",
        "0",
        "--out",
        str(out),
    ]
    for k, v in extra.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    return argv


class TestTrain:
    def test_nokd_smoke_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run(*train_args(out)) == 0
        metrics = json.loads((out / "metrics_step0_seed0.json").read_text())
        assert 0.0 <= metrics["test_acc"] <= 1.0
        assert metrics["seed"] == 0
        assert len(metrics["per_epoch"]) == 3
        preds = (out / "predictions_seed0.csv").read_text().splitlines()
        assert preds[0] == "sample_id,true,pred"
        assert (out / "model_seed0.json").exists()
        assert (out / "model_seed0.bin").exists()

    def test_bgnn_plan_writes_one_metrics_file_per_step(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "train",
            "--dataset",
            "sbm:small",
            "--plan",
            "bgnn",
            "--teachers",
            "gcn",
            "--student",
            "gcn",
            "--hidden",
            "8",
            "--epochs",
            "2",
            "--seeds",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        assert (out / "metrics_step0_seed1.json").exists()
        assert (out / "metrics_step1_seed1.json").exists()

    def test_kd_plan_without_teachers_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*train_args(out, plan="kd")) == 2
        assert not out.exists()
        assert "teacher" in capsys.readouterr().err

    def test_unknown_dataset_exits_2(self, tmp_path):
        assert run(*train_args(tmp_path / "r", dataset="nope:xyz")) == 2
        assert run(*train_args(tmp_path / "r", dataset="missing.json")) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_failure_exits_1(self, tmp_path):
        assert run(*train_args(tmp_path / "r", lr="1e200", epochs="30")) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            {"plan": "bgnn", "teachers": "gcn", "tau_min": 0.5},
            {"plan": "bgnn", "teachers": "gcn", "tau_max": 0.9},
            {"dropout": 1.0},
            {"plan": "kd", "teachers": "gcn", "lambda": "nan"},
            {"plan": "kd", "teachers": "gcn", "fixed_tau": "inf"},
            {"lr": "inf"},
            {"lr": 0},
            {"weight_decay": "nan"},
            {"plan": "bgnn", "teachers": "gcn", "tau_max": "inf"},
            {"epochs": -3},
            {"seeds": "1.5"},
            {"seeds": "-1"},
            {"seeds": "0,0"},
        ],
    )
    def test_invalid_plan_values_exit_2_before_training(self, tmp_path, monkeypatch, flags):
        monkeypatch.setattr(cli, "run_plans", fail_if_called)
        out = tmp_path / "r"
        assert run(*train_args(out, **flags)) == 2
        assert not out.exists()

    def test_graph_batch_size_zero_exits_2_before_training(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_plans", fail_if_called)
        shapes = tmp_path / "SHAPES"
        write_tu_shapes(shapes, 20)
        out = tmp_path / "r"
        argv = train_args(out, task="graph", dataset=f"tu:{shapes}", batch_size=0)
        assert run(*argv) == 2
        assert "batch size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_empty_bundle_split_exits_2_before_output(self, tmp_path, capsys, split):
        bundle = write_four_node_bundle(tmp_path / "four.json", **{f"{split}_idx": []})
        out = tmp_path / "r"
        assert run(*train_args(out, dataset=bundle)) == 2
        err = capsys.readouterr().err
        assert "four.json" in err and f"empty {split} split" in err
        assert not out.exists()

    def test_toy_fixture_empty_val_split_exits_2_before_output(self, tmp_path, capsys):
        toy = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--out", str(toy)) == 0
        out = tmp_path / "r"
        assert run(*train_args(out, task="graph", dataset=f"tu:{toy}")) == 2
        assert "empty val split" in capsys.readouterr().err
        assert not out.exists()

    def test_tu_directory_without_graphs_exits_2_before_output(self, tmp_path, capsys):
        empty = tmp_path / "EMPTY"
        write_tu_dir(empty, "EMPTY", [])
        out = tmp_path / "r"
        assert run(*train_args(out, task="graph", dataset=f"tu:{empty}")) == 2
        assert "EMPTY_graph_indicator.txt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["tu_byte", "ini_byte", "bundle_null", "bundle_number"])
    def test_unreadable_input_exits_2_before_output(self, tmp_path, capsys, case):
        out = tmp_path / "r"
        if case == "tu_byte":
            shapes = tmp_path / "SHAPES"
            write_tu_shapes(shapes, 20)
            named = shapes / "SHAPES_graph_labels.txt"
            named.write_bytes(named.read_bytes() + b"\xff\n")
            argv = train_args(out, task="graph", dataset=f"tu:{shapes}")
        elif case == "ini_byte":
            named = tmp_path / "run.ini"
            named.write_bytes(b"[run]\nplan = nokd\n# caf\xe9\n")
            argv = [*train_args(out), "--config", str(named)]
        else:
            named = tmp_path / "top.json"
            named.write_text("null" if case == "bundle_null" else "5")
            argv = train_args(out, dataset=named)
        assert run(*argv) == 2
        assert named.name in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_sweep_point_exits_2_before_training(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_plans", fail_if_called)
        out = tmp_path / "s"
        argv = train_args(out, plan="kd", teachers="gcn", dropout=1.0)
        argv[0] = "sweep"
        assert run(*argv, "--parameter", "tau", "--values", "2") == 2
        assert not out.exists()

    def test_bad_bundle_labels_exit_2(self, tmp_path, capsys):
        assert run("make-fixtures", "--kind", "json_toy", "--out", str(tmp_path)) == 0
        bundle = tmp_path / "toy.json"
        obj = json.loads(bundle.read_text())
        obj["labels"] = obj["labels"][:-1]
        bundle.write_text(json.dumps(obj))
        out = tmp_path / "r"
        assert run(*train_args(out, dataset=bundle)) == 2
        assert "key 'labels'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("value", ["x", "1.5", True, None, float("nan"), float("inf")])
    def test_bad_bundle_features_exit_2(self, tmp_path, capsys, sparse, value):
        assert run("make-fixtures", "--kind", "json_toy", "--out", str(tmp_path)) == 0
        bundle = tmp_path / "toy.json"
        obj = json.loads(bundle.read_text())
        if sparse:
            shape = [len(obj["features"]), len(obj["features"][0])]
            obj["features"] = {"indices": [[0, 0]], "values": [value], "shape": shape}
        else:
            obj["features"][0][0] = value
        bundle.write_text(json.dumps(obj))
        out = tmp_path / "r"
        assert run(*train_args(out, dataset=bundle)) == 2
        assert "toy.json: key 'features'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_sparse_feature_index_exits_2(self, tmp_path, capsys):
        bundle = write_sparse_bundle(tmp_path / "sparse.json")
        obj = json.loads(bundle.read_text())
        obj["features"]["indices"].append(obj["features"]["indices"][3])
        obj["features"]["values"].append(5.0)
        bundle.write_text(json.dumps(obj))
        out = tmp_path / "r"
        assert run(*train_args(out, dataset=bundle)) == 2
        assert "sparse.json: key 'features' repeats index [1, " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("student", ["gcn", "gat"])
    def test_sparse_bundle_predictions_survive_reload(self, tmp_path, student):
        """The CSR path depends only on the data, so a reloaded model on a
        freshly loaded bundle takes it again and predicts the same."""
        bundle = write_sparse_bundle(tmp_path / "sparse.json")
        out = tmp_path / "r"
        assert run(*train_args(out, dataset=bundle, student=student, seeds="0,1")) == 0
        data = load_dataset(str(bundle))
        for seed in (0, 1):
            model = load_checkpoint(out / f"model_seed{seed}")
            assert "x" in data.forward_input(model.config)[1]
            lines = (out / f"predictions_seed{seed}.csv").read_text().splitlines()[1:]
            ids, _, pred = np.array([line.split(",") for line in lines], dtype=int).T
            np.testing.assert_array_equal(predict(model, data)[ids], pred)

    def test_task_dataset_mismatch_exits_2(self, tmp_path):
        assert run(*train_args(tmp_path / "r", task="graph")) == 2

    def test_multi_seed_runs(self, tmp_path):
        out = tmp_path / "run"
        argv = train_args(out)
        argv[argv.index("--seeds") + 1] = "0,1"
        assert run(*argv) == 0
        assert (out / "metrics_step0_seed0.json").exists()
        assert (out / "metrics_step0_seed1.json").exists()


class TestConfigFile:
    def write(self, tmp_path, text) -> Path:
        p = tmp_path / "run.ini"
        p.write_text(text)
        return p

    def test_file_values_applied(self, tmp_path):
        ini = self.write(
            tmp_path,
            "[run]\ndataset = sbm:small\nplan = nokd\nseeds = 3\n"
            f"out = {tmp_path / 'run'}\n"
            "[model]\nstudent = gcn\nhidden = 8\n[train]\nepochs = 2\n",
        )
        assert run("train", "--config", str(ini)) == 0
        metrics = json.loads((tmp_path / "run" / "metrics_step0_seed3.json").read_text())
        assert len(metrics["per_epoch"]) == 2

    def test_flags_override_file(self, tmp_path):
        ini = self.write(
            tmp_path,
            "[run]\ndataset = sbm:small\nplan = nokd\nseeds = 0\n"
            f"out = {tmp_path / 'file_out'}\n"
            "[model]\nstudent = gcn\nhidden = 8\n[train]\nepochs = 5\n",
        )
        out = tmp_path / "flag_out"
        assert run("train", "--config", str(ini), "--epochs", "1", "--out", str(out)) == 0
        metrics = json.loads((out / "metrics_step0_seed0.json").read_text())
        assert len(metrics["per_epoch"]) == 1
        assert not (tmp_path / "file_out").exists()

    def test_unknown_key_exits_2_without_writing(self, tmp_path, capsys):
        ini = self.write(
            tmp_path,
            f"[run]\ndataset = sbm:small\nout = {tmp_path / 'run'}\ncheese = 9\n",
        )
        assert run("train", "--config", str(ini)) == 2
        err = capsys.readouterr().err
        assert "cheese" in err
        assert f"{ini}:4" in err  # line-anchored
        assert not (tmp_path / "run").exists()

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        ini = self.write(tmp_path, "[run]\nplan = nokd\n[mystery]\nx = 1\n")
        assert run("train", "--config", str(ini)) == 2
        assert "[mystery]" in capsys.readouterr().err

    def test_bad_value_reports_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        for line, key in [
            ("[train]\nepochs = banana", "epochs"),
            ("seeds = 1.5", "seeds"),
            ("seeds = -1", "seeds"),
            ("seeds = 2,2", "seeds"),
        ]:
            ini = self.write(tmp_path, f"[run]\nout = {out}\n{line}\n")
            assert run("train", "--config", str(ini)) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert run("train", "--config", str(tmp_path / "gone.ini")) == 2

    def test_loader_rejects_unknown_directly(self, tmp_path):
        ini = self.write(tmp_path, "[run]\nwhat = 1\n")
        with pytest.raises(ConfigError, match="what"):
            load_config_file(ini)


# a value other than the default for every setting, as written in an INI file
SAMPLES = {
    "task": "graph", "dataset": "tu:elsewhere", "plan": "bgnn", "seeds": "3,1",
    "out": "elsewhere", "student": "gat", "teachers": "sage,gcn", "hidden": "12",
    "layers": "3", "dropout": "0.25", "heads": "2", "batch_norm": "true", "epochs": "7",
    "lr": "0.05", "weight_decay": "0", "batch_size": "5", "lam": "0.5", "boosting": "false",
    "adaptive_temp": "false", "fixed_tau": "2.5", "tau_min": "1.5", "tau_max": "3.5",
}


class TestSettingsTable:
    def test_every_field_has_a_key_and_a_flag(self, capsys):
        assert {f.name for f in fields(cli.RunConfig)} == set(cli.SETTINGS) == set(SAMPLES)
        assert set(cli.SWITCHES) == {"batch_norm", "boosting", "adaptive_temp"}
        with pytest.raises(SystemExit):
            run("train", "--help")
        usage = capsys.readouterr().out
        for attr, (_, key, _) in cli.SETTINGS.items():
            flag = cli.SWITCHES[attr][0] if attr in cli.SWITCHES else cli._flag(key)
            assert f"{flag} " in usage

    @pytest.mark.parametrize("attr", list(SAMPLES))
    def test_flag_and_ini_key_give_the_same_value(self, tmp_path, monkeypatch, attr):
        monkeypatch.setattr(cli.RunConfig, "validate", lambda self: None)  # one key alone
        section, key, _ = cli.SETTINGS[attr]
        raw = SAMPLES[attr]
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = {raw}\n")
        if attr in cli.SWITCHES:
            flag, value = cli.SWITCHES[attr]
            argv = [flag]
            assert str(value).lower() == raw
        else:
            argv = [cli._flag(key), raw]
        parser = cli.build_parser()
        from_ini = cli.load_run_config(parser.parse_args(["train", "--config", str(ini)]))
        from_flag = cli.load_run_config(parser.parse_args(["train", *argv]))
        assert getattr(from_flag, attr) == getattr(from_ini, attr)
        assert getattr(from_flag, attr) != getattr(cli.RunConfig(), attr)

    @pytest.mark.parametrize("flag, value", [("hidden", "abc"), ("lr", "x"), ("seeds", "1.5")])
    def test_bad_flag_value_exits_2_and_names_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r"
        assert run(*train_args(out, **{flag: value})) == 2
        assert f"bad value for --{flag}" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def sweep_args(self, out, parameter, values):
        return [
            "sweep",
            "--parameter",
            parameter,
            "--values",
            values,
            "--dataset",
            "sbm:small",
            "--plan",
            "kd",
            "--teachers",
            "gcn",
            "--student",
            "gcn",
            "--hidden",
            "8",
            "--epochs",
            "2",
            "--seeds",
            "0",
            "--out",
            str(out),
        ]

    def test_tau_sweep_writes_summary_rows(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(*self.sweep_args(out, "tau", "1,2")) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,mean_acc,std"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        assert (out / "tau=1" / "metrics_step1_seed0.json").exists()

    def test_empty_values_exits_2(self, tmp_path):
        assert run(*self.sweep_args(tmp_path / "s", "tau", "")) == 2
        assert not (tmp_path / "s").exists()

    def test_invalid_values_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_plans", fail_if_called)
        for parameter, values in [
            ("tau", "0"), ("lr", "-1"), ("tau", "1,inf"), ("lambda", "1,nan"), ("lr", "inf"),
            ("tau", "2,2.0000001"), ("lambda", "1,1"),
        ]:
            assert run(*self.sweep_args(tmp_path / "s", parameter, values)) == 2
        assert not (tmp_path / "s").exists()

    def test_single_value_sweep_matches_train(self, tmp_path):
        """Every sweep point, one value or several, writes what its own
        ``bgnn train`` run writes, although the points share a teacher."""
        for parameter, values, flag in [
            ("tau", "2", "fixed-tau"), ("tau", "2,4", "fixed-tau"), ("lambda", "0.5,1", "lambda")
        ]:
            sweep_out = tmp_path / f"sweep_{parameter}_{values}"
            assert run(*self.sweep_args(sweep_out, parameter, values)) == 0
            for v in values.split(","):
                train_out = tmp_path / f"train_{parameter}_{v}"
                argv = self.sweep_args(train_out, parameter, values)[5:]
                assert run("train", *argv, f"--{flag}", v) == 0
                point = sweep_out / f"{parameter}={v}"
                for step in (0, 1):
                    name = f"metrics_step{step}_seed0.json"
                    a = json.loads((point / name).read_text())
                    b = json.loads((train_out / name).read_text())
                    assert a["per_epoch"] == b["per_epoch"]
                    assert a["test_acc"] == b["test_acc"]
                    assert a["plan"] == b["plan"]
                for name in ("predictions_seed0.csv", "model_seed0.json", "model_seed0.bin"):
                    assert (point / name).read_bytes() == (train_out / name).read_bytes()


class TestFixtures:
    def test_sbm_fixture_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("make-fixtures", "--kind", "sbm", "--seed", "0", "--out", str(a)) == 0
        assert run("make-fixtures", "--kind", "sbm", "--seed", "0", "--out", str(b)) == 0
        assert (a / "sbm_small.json").read_bytes() == (b / "sbm_small.json").read_bytes()

    def test_sbm_fixture_loads_as_node_data(self, tmp_path):
        assert run("make-fixtures", "--kind", "sbm", "--seed", "1", "--out", str(tmp_path)) == 0
        g = load_json_bundle(tmp_path / "sbm_small.json")
        assert g.n_nodes == 80
        assert g.split.train_idx.size > 0

    def test_tu_toy_round_trips_through_loader(self, tmp_path):
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(tmp_path)) == 0
        graphs = load_tu_dataset(tmp_path, "TOY")
        assert len(graphs) == 8
        sizes = sorted(g.n_nodes for g in graphs)
        assert sizes == [3, 3, 3, 3, 4, 4, 4, 4]
        assert all(g.features.shape[1] == 2 for g in graphs)  # one-hot degrees

    def test_json_toy_is_schema_valid(self, tmp_path):
        assert run("make-fixtures", "--kind", "json_toy", "--seed", "0", "--out", str(tmp_path)) == 0
        g = load_json_bundle(tmp_path / "toy.json")
        assert g.n_nodes == 12
        assert g.node_labels is not None


class TestCka:
    def graph_dataset_dir(self, tmp_path) -> Path:
        d = tmp_path / "tu"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        # rename so the directory name matches the dataset prefix
        for f in d.iterdir():
            f.rename(d / f.name.replace("TOY", d.name.upper()))
        return d

    def make_checkpoint(self, tmp_path, arch="gcn", seed=0, in_dim=2, task="graph") -> Path:
        cfg = ModelConfig(
            arch=arch,
            in_dim=in_dim,
            hidden_dim=4,
            n_classes=2,
            dropout=0.0,
            heads=2,
            task=task,
        )
        prefix = tmp_path / f"{arch}{seed}"
        save_checkpoint(init_model(cfg, seed), prefix)
        return prefix

    def test_single_checkpoint_unit_diagonal(self, tmp_path):
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        ckpt = self.make_checkpoint(tmp_path)
        out = tmp_path / "cka.csv"
        assert run("cka", "--checkpoints", str(ckpt), "--dataset", f"tu:{d}", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model_a,layer_a,model_b,layer_b,cka"
        assert len(lines) == 5  # 2 layers -> 4 pairs
        for line in lines[1:]:
            ma, la, mb, lb, v = line.split(",")
            if (ma, la) == (mb, lb):
                assert v == "1.000000"

    def test_toy_fixture_runs_despite_empty_splits(self, tmp_path):
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        assert run(*train_args(tmp_path / "r", task="graph", dataset=f"tu:{d}")) == 2
        ckpt = self.make_checkpoint(tmp_path)
        out = tmp_path / "cka.csv"
        assert run("cka", "--checkpoints", str(ckpt), "--dataset", f"tu:{d}", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_three_model_matrix(self, tmp_path):
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        ckpts = [
            str(self.make_checkpoint(tmp_path, arch, seed))
            for seed, arch in enumerate(["gcn", "sage", "gat"])
        ]
        out = tmp_path / "cka.csv"
        code = run("cka", "--checkpoints", ",".join(ckpts), "--dataset", f"tu:{d}", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + (3 * 2) ** 2

    def test_missing_checkpoint_exits_2(self, tmp_path):
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        code = run(
            "cka",
            "--checkpoints",
            str(tmp_path / "ghost"),
            "--dataset",
            f"tu:{d}",
            "--out",
            str(tmp_path / "cka.csv"),
        )
        assert code == 2

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        ckpt = self.make_checkpoint(tmp_path)
        blob = ckpt.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:-3])
        code = run(
            "cka",
            "--checkpoints",
            str(ckpt),
            "--dataset",
            f"tu:{d}",
            "--out",
            str(tmp_path / "cka.csv"),
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "cka.csv").exists()

    def test_checkpoint_naming_an_activation_exits_2(self, tmp_path, capsys):
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        for key, value in (("activation", "relu"), ("fanout", "all")):
            ckpt = self.make_checkpoint(tmp_path)
            manifest = json.loads(ckpt.with_suffix(".json").read_text())
            assert key not in manifest["config"]
            manifest["config"][key] = value
            ckpt.with_suffix(".json").write_text(json.dumps(manifest))
            out = tmp_path / "cka.csv"
            code = run("cka", "--checkpoints", str(ckpt), "--dataset", f"tu:{d}", "--out", str(out))
            assert code == 2
            assert "malformed" in capsys.readouterr().err
            assert not out.exists()

    def test_node_dataset_rejected(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        code = run(
            "cka",
            "--checkpoints",
            str(ckpt),
            "--dataset",
            "sbm:small",
            "--out",
            str(tmp_path / "cka.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("task, in_dim", [("graph", 7), ("node", 8)])
    def test_feature_mismatch_exits_2(self, tmp_path, capsys, task, in_dim):
        """A checkpoint for other features (the node case is shaped like an
        ``sbm:small`` model) is a configuration error naming the checkpoint,
        raised before ``--out`` is written."""
        d = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--seed", "0", "--out", str(d)) == 0
        good = self.make_checkpoint(tmp_path)
        bad = self.make_checkpoint(tmp_path, arch="sage", in_dim=in_dim, task=task)
        code = run(
            "cka",
            "--checkpoints",
            f"{good},{bad}",
            "--dataset",
            f"tu:{d}",
            "--out",
            str(tmp_path / "cka.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f"takes {in_dim} input features" in err
        assert not (tmp_path / "cka.csv").exists()


class TestDatasets:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        assert run("make-fixtures", "--kind", "json_toy", "--seed", "0", "--out", str(tmp_path)) == 0
        monkeypatch.chdir(tmp_path / ".." if (tmp_path / "..").exists() else tmp_path)
        monkeypatch.setenv("BGNN_DATA_DIR", str(tmp_path))
        data = load_dataset("toy.json")
        assert data.kind == "node"
        assert data.n_samples == 12

    def test_sbm_presets_fixed_across_calls(self):
        a = load_dataset("sbm:small")
        b = load_dataset("sbm:small")
        assert np.array_equal(a.graph.features.data, b.graph.features.data)
        assert np.array_equal(a.split_idx("train"), b.split_idx("train"))

    def test_builtin_datasets_keep_dense_features(self, tmp_path):
        """Dense SBM Gaussians and one-hot TU degrees are far above the CSR
        cutoff: GCN and GAT keep the dense first projection on them."""
        toy = tmp_path / "TOY"
        assert run("make-fixtures", "--kind", "tu_toy", "--out", str(toy)) == 0
        for data in (load_dataset("sbm:small"), load_dataset(f"tu:{toy}")):
            for arch in ("gcn", "gat"):
                cfg = ModelConfig(arch=arch, in_dim=data.feature_dim, hidden_dim=8,
                                  n_classes=data.n_classes, task=data.kind)
                assert "x" not in data.forward_input(cfg)[1]
