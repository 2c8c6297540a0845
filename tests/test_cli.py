import csv
import dataclasses
import io
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcrobust.ablate as ablate
import pcrobust.cli as cli
from pcrobust import cloudio
from pcrobust.cli import main
from pcrobust.config import (
    KEYS,
    ConfigError,
    build_dataset_specs,
    build_train_config,
    expand_grid,
    parse_flat_file,
)
from pcrobust.data import SyntheticDatasetSpec, derive_seed, gen_dataset
from pcrobust.evaluate import evaluate
from pcrobust.losses import LossConfig
from pcrobust.model import (TooFewPointsError, init_baseline, init_model, load_checkpoint,
                             save_checkpoint)
from pcrobust.sampling import (SAMPLER_VARIANTS, InfeasibleSampleError, SampleSpec,
                               anchor_candidates)
from pcrobust.train import Adam, InfeasibleAnchorsError, TrainConfig, train

from conftest import random_cloud

TINY_CONFIG = """\
# tiny end-to-end run
classes = sphere,plane
train_per_class = 4
test_per_class = 2
points = 48
data_seed = 3
m_anchors = 8
d_model = 16
d_attn = 4
group_k = 4
n_layers = 2
sampler = fps
sampler_k = 3
lambda = 0.1
epochs = 2
batch_size = 8
seed = 1
"""


def write_cloud(tmp_path, seed=0, n=64):
    cloud = random_cloud(seed, n=n)
    path = tmp_path / "cloud.rpc"
    cloudio.write_binary(cloud, path)
    return path, cloud


class TestSampleCommand:
    def test_indices_file(self, tmp_path):
        src, cloud = write_cloud(tmp_path)
        out = tmp_path / "idx.txt"
        sub = tmp_path / "sub.rpc"
        rc = main(
            [
                "sample", "--input", str(src), "--sampler", "fps", "--m", "10",
                "--output", str(out), "--cloud-output", str(sub),
            ]
        )
        assert rc == 0
        idx = [int(v) for v in out.read_text().split()]
        assert len(idx) == 10 and len(set(idx)) == 10
        assert cloudio.read_binary(sub).n == 10

    def test_das_sample(self, tmp_path):
        src, _ = write_cloud(tmp_path, seed=1)
        out = tmp_path / "idx.txt"
        rc = main(
            [
                "sample", "--input", str(src), "--sampler", "das-l0",
                "--m", "5", "--k", "3", "--seed", "7", "--output", str(out),
            ]
        )
        assert rc == 0
        assert len(out.read_text().split()) == 5


    @pytest.mark.parametrize("sampler", SAMPLER_VARIANTS)
    def test_each_sampler_name(self, tmp_path, sampler):
        src, _ = write_cloud(tmp_path, seed=2)
        out = tmp_path / "idx.txt"
        rc = main(["sample", "--input", str(src), "--sampler", sampler, "--m", "4",
                   "--output", str(out)])
        assert rc == 0
        assert len(set(out.read_text().split())) == 4

    @pytest.mark.parametrize(
        "flags", [["--sampler", "das"], ["--sampler", "das-l1"], ["--method", "fps"]]
    )
    def test_rejects_other_sampler_flags(self, tmp_path, flags, capsys):
        src, _ = write_cloud(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["sample", "--input", str(src), "--m", "4",
                  "--output", str(tmp_path / "idx.txt")] + flags)
        assert err.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("sampler", ["fps", "random"])
    def test_k_for_a_sampler_that_reads_none_is_a_usage_error(self, tmp_path, sampler,
                                                              capsys):
        src, _ = write_cloud(tmp_path)
        out = tmp_path / "idx.txt"
        rc = main(["sample", "--input", str(src), "--sampler", sampler, "--m", "4",
                   "--k", "3", "--output", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"--k sets the density score's neighbour count; sampler {sampler} reads no k\n")


def write_small_xyz(tmp_path):
    path = tmp_path / "small.xyz"
    cloudio.write_cloud(random_cloud(5, n=10), path)
    return path


class TestInputTooSmall:
    """A cloud too small for the flags ends in '<input>: <reason>', exit 2."""

    @pytest.mark.parametrize("sampler", ["das-l0", "fps"])
    def test_sample_names_m(self, tmp_path, capsys, sampler):
        src, out = write_small_xyz(tmp_path), tmp_path / "idx.txt"
        rc = main(["sample", "--input", str(src), "--sampler", sampler, "--m", "20",
                   "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err.startswith(f"{src}: --m 20: cannot draw 20 distinct indices from ")

    def test_sample_names_k(self, tmp_path, capsys):
        src, out = write_small_xyz(tmp_path), tmp_path / "idx.txt"
        rc = main(["sample", "--input", str(src), "--m", "3", "--k", "12",
                   "--output", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (f"{src}: --k 12 needs at least 13 points, "
                                           "the cloud has 10\n")

    @pytest.mark.parametrize("flags", [["--kind", "drop-global", "--output", "out.rpc"],
                                       ["--suite", "--output-dir", "out"]])
    def test_corrupt(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        src = write_small_xyz(tmp_path)
        rc = main(["corrupt", "--input", str(src)] + flags)
        err = capsys.readouterr().err
        assert rc == 2 and not Path(flags[-1]).exists()
        assert err.startswith(f"{src}: ") and "requires N >= 32, got N=10" in err

    def test_eval(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        src = data_dir / "small.xyz"
        cloudio.write_cloud(random_cloud(5, n=24, label=0), src)
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "r.json"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8, d_model=8,
                            d_attn=4, group_k=4, n_layers=1)
        save_checkpoint(ckpt, params, SampleSpec(m=8, variant="fps"))
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--report",
                   str(report), "--kinds", "drop-global"])
        assert rc == 2 and not report.exists()
        assert capsys.readouterr().err == f"{src}: drop-global requires N >= 32, got N=24\n"


class TestOutputDirectories:
    """An output whose directory does not exist ends the command, exit 2,
    before it reads a config, a checkpoint or data."""

    @pytest.mark.parametrize("command, flag", [
        ("train", "--out"), ("train", "--curve"), ("eval", "--report"), ("eval", "--curves"),
        ("eval", "--log"), ("ablate", "--out"),
    ])
    def test_checked_before_any_work(self, tmp_path, monkeypatch, capsys, command, flag):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} did work before checking {flag}")

        for name in ("parse_flat_file", "load_checkpoint", "load_split", "gen_dataset",
                     "train", "evaluate", "run_grid"):
            monkeypatch.setattr(cli, name, no_work)
        ok = {name: str(tmp_path / name) for name in ("m.ckpt", "c.csv", "r.json", "l.csv")}
        argv = {
            "train": ["train", "--config", "run.cfg", "--out", ok["m.ckpt"],
                      "--curve", ok["c.csv"]],
            "eval": ["eval", "--ckpt", "m.ckpt", "--data", "data", "--report", ok["r.json"],
                     "--curves", ok["c.csv"], "--log", ok["l.csv"]],
            "ablate": ["ablate", "--grid", "grid.cfg", "--out", ok["c.csv"]],
        }[command]
        bad = tmp_path / "nodir" / "out.file"
        argv[argv.index(flag) + 1] = str(bad)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"{flag} {bad}: directory {bad.parent} does not exist\n")
        assert not bad.parent.exists()
        assert not any(tmp_path.iterdir())


class TestCorruptCommand:
    def test_single(self, tmp_path):
        src, cloud = write_cloud(tmp_path)
        out = tmp_path / "jittered.rpc"
        rc = main(
            [
                "corrupt", "--input", str(src), "--kind", "jitter-gaussian",
                "--severity", "2", "--seed", "9", "--output", str(out),
            ]
        )
        assert rc == 0
        assert cloudio.read_binary(out).n == cloud.n

    def test_suite_tree_and_determinism(self, tmp_path):
        src, _ = write_cloud(tmp_path, n=64)
        d1, d2 = tmp_path / "suite1", tmp_path / "suite2"
        for d in (d1, d2):
            rc = main(
                ["corrupt", "--input", str(src), "--suite", "--seed", "4",
                 "--output-dir", str(d)]
            )
            assert rc == 0
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*.rpc"))
        assert len(files1) == 45
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()

    def test_single_is_the_suite_cell_of_the_same_seed(self, tmp_path):
        src, _ = write_cloud(tmp_path, n=64)
        single, suite = tmp_path / "single.rpc", tmp_path / "suite"
        assert main(["corrupt", "--input", str(src), "--kind", "impulse", "--severity", "3",
                     "--seed", "7", "--output", str(single)]) == 0
        assert main(["corrupt", "--input", str(src), "--suite", "--seed", "7",
                     "--output-dir", str(suite)]) == 0
        cell = suite / "impulse" / "3" / (src.stem + ".rpc")
        assert single.read_bytes() == cell.read_bytes()

    def test_suite_reports_files_written(self, tmp_path, monkeypatch, capsys):
        src, _ = write_cloud(tmp_path)
        monkeypatch.setattr(cli, "ALL_KINDS", ("scale", "impulse"))
        out = tmp_path / "suite"
        assert main(["corrupt", "--input", str(src), "--suite",
                     "--output-dir", str(out)]) == 0
        assert len(list(out.rglob("*.rpc"))) == 10
        assert "wrote 10 corrupted clouds" in capsys.readouterr().out

    def test_severity_defaults_to_3(self, tmp_path):
        src, _ = write_cloud(tmp_path)
        outs = [tmp_path / "default.rpc", tmp_path / "three.rpc"]
        for out, flags in zip(outs, ([], ["--severity", "3"])):
            assert main(["corrupt", "--input", str(src), "--kind", "impulse",
                         "--output", str(out)] + flags) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flags", [["--kind", "impulse"], ["--severity", "1"],
                                       ["--output", "x.rpc"]], ids=["kind", "severity", "output"])
    def test_suite_takes_no_single_corruption_flag(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        src, _ = write_cloud(tmp_path)
        rc = main(["corrupt", "--input", str(src), "--suite", "--output-dir", "suite"] + flags)
        assert rc == 2 and not Path("suite").exists() and not Path("x.rpc").exists()
        assert capsys.readouterr().err.endswith(f"it takes no {flags[0]}\n")

    def test_severity_validation(self, tmp_path):
        src, _ = write_cloud(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(
                ["corrupt", "--input", str(src), "--kind", "scale",
                 "--severity", "9", "--output", str(tmp_path / "x.rpc")]
            )
        assert err.value.code == 2


class TestEndToEnd:
    def test_gen_train_eval_ablate(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)

        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)]) == 0
        assert len(list((data_dir / "train").glob("*.rpc"))) == 8
        assert len(list((data_dir / "test").glob("*.rpc"))) == 4
        assert (data_dir / "manifest.txt").exists()

        ckpt = tmp_path / "model.ckpt"
        curve = tmp_path / "curve.csv"
        rc = main(
            ["train", "--config", str(cfg), "--out", str(ckpt),
             "--data", str(data_dir), "--curve", str(curve)]
        )
        assert rc == 0
        assert ckpt.exists()
        assert curve.read_text().startswith("epoch,")

        report = tmp_path / "report.json"
        curves = tmp_path / "er_curves.csv"
        log = tmp_path / "log.csv"
        rc = main(
            [
                "eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                "--report", str(report), "--kinds", "jitter-gaussian,add-global",
                "--curves", str(curves), "--log", str(log),
            ]
        )
        assert rc == 0
        text = report.read_text()
        assert '"er_clean"' in text and '"er_cor"' in text
        assert curves.read_text().startswith("kind,severity,error_rate")
        assert log.read_text().startswith("cloud_index,")

        # rerunning evaluation is bitwise reproducible
        report2 = tmp_path / "report2.json"
        main(
            ["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
             "--report", str(report2), "--kinds", "jitter-gaussian,add-global"]
        )
        assert report.read_bytes() == report2.read_bytes()

        grid = tmp_path / "grid.cfg"
        grid.write_text(TINY_CONFIG.replace("sampler = fps", "sampler = fps|random"))
        table = tmp_path / "table.csv"
        rc = main(
            ["ablate", "--grid", str(grid), "--out", str(table),
             "--kinds", "jitter-gaussian"]
        )
        assert rc == 0
        lines = table.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 sampler rows

    def test_written_files_are_pinned_byte_for_byte(self, tmp_path):
        # eval's files are rebuilt here from evaluate()'s in-memory result:
        # csv.writer rows with CRLF line ends, and the report's JSON; with 10
        # anchors, one test cloud's drop-global copy caps them
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.replace("sampler = fps", "sampler = das-l0")
                       .replace("m_anchors = 8", "m_anchors = 10"))
        data_dir = tmp_path / "data"
        ckpt = tmp_path / "model.ckpt"
        curve = tmp_path / "curve.csv"
        assert main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(ckpt),
                     "--data", str(data_dir), "--curve", str(curve)]) == 0
        assert curve.read_bytes().split(b"\r\n")[0] == b"epoch,train_loss,val_error"

        report, curves, log = tmp_path / "r.json", tmp_path / "er.csv", tmp_path / "log.csv"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--report", str(report), "--curves", str(curves), "--log", str(log),
                     "--kinds", "drop-global", "--severities", "5",
                     "--eval-seeds", "0,1"]) == 0
        params, sampler = load_checkpoint(ckpt)
        expected, records = evaluate(params, cli.load_split(data_dir, "test"), sampler,
                                     kinds=("drop-global",), severities=(5,),
                                     eval_seeds=(0, 1))
        assert any(r.capped for r in records) and not all(r.capped for r in records)

        def csv_bytes(rows):
            buf = io.StringIO()
            csv.writer(buf).writerows(rows)
            return buf.getvalue().encode()

        assert report.read_bytes() == (expected.to_json() + "\n").encode()
        assert curves.read_bytes() == csv_bytes(
            [("kind", "severity", "error_rate")]
            + [(k, s, expected.per_cell[k, s]) for k, s in sorted(expected.per_cell)])
        assert log.read_bytes() == csv_bytes(
            [("cloud_index", "kind", "severity", "eval_seed", "label", "predicted", "capped")]
            + [(r.cloud_index, r.kind, r.severity, r.eval_seed, r.label, r.predicted,
                int(r.capped)) for r in records])
        assert b"\r\n" in log.read_bytes()

        table = tmp_path / "table.csv"
        assert main(["ablate", "--grid", str(cfg), "--out", str(table),
                     "--kinds", "drop-global"]) == 0
        assert table.read_bytes().split(b"\r\n")[0] == (
            b"sampler,sampler_k,lambda,tau,sem_layers,seed,er_clean,er_cor,capped")

    def test_train_names_the_file_of_an_infeasible_cloud(self, tmp_path, monkeypatch, capsys):
        # some 48-point clouds have fewer than 40 points of positive density weight
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.replace("m_anchors = 8", "m_anchors = 40")
                       .replace("sampler = fps", "sampler = das-l0"))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)]) == 0
        monkeypatch.setattr(Adam, "step", lambda self, grads: pytest.fail("optimizer stepped"))
        tc = build_train_config(parse_flat_file(cfg))
        ckpt = tmp_path / "model.ckpt"
        tail = "m_anchors = 40 is infeasible for sampler das-l0: cannot draw 40 distinct indices"

        def first_short(clouds):
            return next((i, n) for i, n in enumerate(anchor_candidates(c, tc.sampler)
                                                     for c in clouds) if n < 40)

        clouds = cli.load_split(data_dir, "train")
        i, available = first_short(clouds)
        message = f"{clouds[i].source}: {tail} from {available} anchor candidates"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt),
                     "--data", str(data_dir)]) == 2
        assert capsys.readouterr().err == message + "\n"
        with pytest.raises(InfeasibleSampleError) as err:
            train(clouds, tc)
        assert isinstance(err.value, InfeasibleAnchorsError)
        assert str(err.value) == message
        assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)

        # the in-memory dataset has no files, so it names the cloud's index
        dataset = gen_dataset(build_dataset_specs(parse_flat_file(cfg))[0])
        index, available = first_short(dataset)
        message = f"dataset cloud {index}: {tail} from {available} anchor candidates"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
        assert capsys.readouterr().err == message + "\n"
        with pytest.raises(InfeasibleAnchorsError) as err:
            train(dataset, tc)
        assert str(err.value) == message
        assert not ckpt.exists()

    def test_train_names_the_file_of_a_cloud_smaller_than_group_k(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG.replace("group_k = 4", "group_k = 50"))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)]) == 0
        first = sorted((data_dir / "train").glob("*.rpc"))[0]
        message = f"{first}: 48 points, fewer than the 50 that group_k = 50 and sampler fps read"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "model.ckpt"),
                     "--data", str(data_dir)]) == 2
        assert capsys.readouterr().err == message + "\n"
        with pytest.raises(TooFewPointsError) as err:
            train(cli.load_split(data_dir, "train"), build_train_config(parse_flat_file(cfg)))
        assert str(err.value) == message

    def test_eval_names_the_file_of_a_variant_smaller_than_group_k(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)]) == 0
        ckpt = tmp_path / "model.ckpt"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8, d_model=8,
                            d_attn=4, group_k=16, n_layers=1)
        sampler = SampleSpec(m=8, variant="fps")
        save_checkpoint(ckpt, params, sampler)
        report = tmp_path / "r.json"
        first = sorted((data_dir / "test").glob("*.rpc"))[0]
        # drop-global keeps a quarter of the 48 points at severity 5
        message = (f"{first}, drop-global severity 5: 12 points, fewer than "
                   "the 16 that group_k = 16 and sampler fps read")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--report",
                     str(report), "--kinds", "drop-global", "--severities", "5"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not report.exists()
        with pytest.raises(TooFewPointsError) as err:
            evaluate(params, cli.load_split(data_dir, "test"), sampler,
                     kinds=("drop-global",), severities=(5,))
        assert str(err.value) == message

    def test_gen_data_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        main(["gen-data", "--spec", str(cfg), "--out", str(d1)])
        main(["gen-data", "--spec", str(cfg), "--out", str(d2)])
        for p1 in sorted(d1.rglob("*.rpc")):
            p2 = d2 / p1.relative_to(d1)
            assert p1.read_bytes() == p2.read_bytes()

    def test_train_rerun_bitwise_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        main(["train", "--config", str(cfg), "--out", str(c1)])
        main(["train", "--config", str(cfg), "--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_every_grid_axis_has_a_column(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "classes = sphere,plane\ntrain_per_class = 4\ntest_per_class = 2\n"
            "points = 48\nd_model = 16\nd_attn = 4\ngroup_k = 4\nn_layers = 2\n"
            "epochs = 1\nbatch_size = 8\nsampler = fps\nlambda = 0\n"
            "m_anchors = 4|8\narch = attention|baseline\n"
        )
        out = tmp_path / "table.csv"
        assert main(["ablate", "--grid", str(grid), "--out", str(out),
                     "--kinds", "scale"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["sampler", "sampler_k", "lambda", "tau", "sem_layers",
                                 "seed", "arch", "m_anchors", "er_clean", "er_cor",
                                 "capped"]
        assert [(r["arch"], r["m_anchors"]) for r in rows] == [
            ("attention", "4"), ("attention", "8"), ("baseline", "4"), ("baseline", "8")]


class TestListFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--eval-seeds", "0,a"),
            ("eval", "--severities", "1,6"),
            ("eval", "--severities", ","),
            ("eval", "--kinds", "scale,fog"),
            ("ablate", "--kinds", "fog"),
        ],
        ids=["seed", "severity", "empty", "kind", "ablate-kind"],
    )
    def test_bad_list_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        # the files do not exist: the flag is rejected before anything is read
        missing = str(tmp_path / "missing")
        files = (["--ckpt", missing, "--data", missing, "--report", missing]
                 if command == "eval" else ["--grid", missing, "--out", missing])
        with pytest.raises(SystemExit) as err:
            main([command, *files, flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: {value!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sample", "--m", "0"),
            ("sample", "--k", "0"),
            ("sample", "--m", "two"),
            ("eval", "--k", "0"),
            ("corrupt", "--severity", "9"),
            ("sample", "--seed", "-1"),
            ("corrupt", "--seed", "-1"),
        ],
        ids=["sample-m", "sample-k", "sample-m-text", "eval-k", "corrupt-severity",
             "sample-seed", "corrupt-seed"],
    )
    def test_bad_number_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        # the input does not exist: the flag is rejected before it is read
        missing = str(tmp_path / "missing")
        files = {
            "sample": ["--input", missing, "--output", missing, "--m", "4"],
            "eval": ["--ckpt", missing, "--data", missing, "--report", missing],
            "corrupt": ["--input", missing, "--kind", "scale", "--output", missing],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([command, *files, flag, value])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert f"argument {flag}: " in message and value in message
        assert not list(tmp_path.iterdir())


class TestUnlabeledDataFile:
    @pytest.fixture
    def data_dir(self, tmp_path):
        """Three XYZ clouds, of which ``c1.xyz`` has no label line."""
        data = tmp_path / "data"
        data.mkdir()
        for i in range(3):
            cloud = random_cloud(i, n=48, label=None if i == 1 else i % 2)
            cloudio.write_cloud(cloud, data / f"c{i}.xyz")
        return data

    def test_train_names_the_file(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "model.ckpt"
        message = f"{data_dir / 'c1.xyz'}: no label; every cloud needs one"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--data", str(data_dir)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(cli.load_split(data_dir, "train"), build_train_config(parse_flat_file(cfg)))

    def test_eval_names_the_file(self, tmp_path, data_dir, capsys):
        ckpt = tmp_path / "model.ckpt"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8,
                            d_model=16, d_attn=4, group_k=4, n_layers=2)
        sampler = SampleSpec(m=8, k=5, variant="das-l0")
        save_checkpoint(ckpt, params, sampler)
        report = tmp_path / "r.json"
        message = f"{data_dir / 'c1.xyz'}: no label; every cloud needs one"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--report", str(report)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not report.exists()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(params, cli.load_split(data_dir, "test"), sampler)


DAS_8_5 = SampleSpec(m=8, k=5, variant="das-l0")
FPS_8_5 = SampleSpec(m=8, k=5, variant="fps")


class TestEvalSamplerOverride:
    @pytest.fixture
    def run_eval(self, tmp_path, monkeypatch):
        """Runs eval with extra flags on a checkpoint saved with a given
        sampler; returns the exit code and the samplers handed to evaluate()."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        data_dir = tmp_path / "data"
        main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)])
        ckpt = tmp_path / "model.ckpt"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8,
                            d_model=16, d_attn=4, group_k=4, n_layers=2)
        used = []
        real = cli.evaluate

        def recording(params, dataset, sampler=None, **kwargs):
            used.append(sampler)
            return real(params, dataset, sampler=sampler, **kwargs)

        monkeypatch.setattr(cli, "evaluate", recording)
        base = ["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                "--report", str(tmp_path / "r.json"), "--kinds", "scale",
                "--severities", "1", "--eval-seeds", "0"]

        def run(saved, flags, weights=params):
            save_checkpoint(ckpt, weights, saved)
            return main(base + flags), used
        return run

    @pytest.mark.parametrize(
        "saved, flags, expected",
        [
            (DAS_8_5, [], DAS_8_5),
            (DAS_8_5, ["--k", "3"], SampleSpec(m=8, k=3, variant="das-l0")),
            (DAS_8_5, ["--sampler", "fps"], FPS_8_5),
            (FPS_8_5, ["--sampler", "das-l0", "--k", "2"],
             SampleSpec(m=8, k=2, variant="das-l0")),
        ],
        ids=["checkpoint", "k-alone", "sampler-alone", "both"],
    )
    def test_overrides(self, run_eval, saved, flags, expected):
        assert run_eval(saved, flags) == (0, [expected])

    @pytest.mark.parametrize(
        "saved, flags", [(DAS_8_5, ["--sampler", "random", "--k", "3"]), (FPS_8_5, ["--k", "3"])],
        ids=["sampler-random", "checkpoint-fps"],
    )
    def test_k_for_a_sampler_that_reads_none_is_a_usage_error(self, run_eval, saved, flags,
                                                              capsys):
        assert run_eval(saved, flags) == (2, [])
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--sampler", "fps"], ["--k", "2"]],
                             ids=["sampler", "k"])
    def test_baseline_takes_no_sampler_flag(self, run_eval, tmp_path, flags, capsys):
        baseline = init_baseline(np.random.default_rng(0), 2, d_model=16)
        assert run_eval(DAS_8_5, flags, baseline) == (2, [])
        err = capsys.readouterr().err
        assert err.startswith(f"{flags[0]} ") and "a baseline samples no anchors" in err
        assert not (tmp_path / "r.json").exists()


class TestEvalInputErrors:
    @pytest.mark.parametrize("case", ["missing-ckpt", "no-clouds", "repeated-seed"])
    def test_exits_2_with_one_named_line(self, tmp_path, capsys, case):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        data_dir, empty = tmp_path / "data", tmp_path / "empty"
        assert main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)]) == 0
        empty.mkdir()
        ckpt, missing = tmp_path / "model.ckpt", tmp_path / "missing.ckpt"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8,
                            d_model=16, d_attn=4, group_k=4, n_layers=2)
        save_checkpoint(ckpt, params, SampleSpec(m=8, k=5, variant="das-l0"))
        flags, message = {
            "missing-ckpt": (["--ckpt", str(missing), "--data", str(data_dir)],
                             f"[Errno 2] No such file or directory: '{missing}'"),
            "no-clouds": (["--ckpt", str(ckpt), "--data", str(empty)],
                          f"no cloud files under {empty}"),
            "repeated-seed": (["--ckpt", str(ckpt), "--data", str(data_dir),
                               "--eval-seeds", "0,0,1"],
                              "eval seed 0 is repeated in (0, 0, 1): a seed reads the same "
                              "stream each time, so its predictions would count twice"),
        }[case]
        report = tmp_path / "r.json"
        assert main(["eval", *flags, "--report", str(report), "--kinds", "scale"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not report.exists()


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        src, _ = write_cloud(tmp_path)
        out = tmp_path / "idx.txt"
        proc = subprocess.run(
            [
                sys.executable, "-m", "pcrobust.cli", "sample",
                "--input", str(src), "--sampler", "fps", "--m", "4",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().split()) == 4

    def test_config_error_exits_2_with_one_line(self, tmp_path):
        cfg = tmp_path / "v0.cfg"
        cfg.write_text("val_fraction = 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "pcrobust.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / "model.ckpt")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"{cfg}:1: val_fraction = '0': ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert not (tmp_path / "model.ckpt").exists()

    def test_package_import_loads_no_cli_module(self):
        # every ``import pcrobust`` pays for the modules it loads; the CLI
        # and the grid runner serve the console script alone
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, pcrobust; print(*sorted(sys.modules))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "pcrobust.model" in loaded
        assert "pcrobust.cli" not in loaded and "pcrobust.ablate" not in loaded


class TestConfigParsing:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1\n# comment\nb = two words  # trailing\n\n")
        assert parse_flat_file(path) == {"a": "1", "b": "two words"}

    def test_flat_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("not a pair\n")
        with pytest.raises(ValueError):
            parse_flat_file(path)

    def test_expand_grid(self):
        keys, combos = expand_grid({"a": "1|2", "b": "x", "c": "3|4"})
        assert keys == ["a", "c"]
        assert len(combos) == 4
        assert {"a": "1", "b": "x", "c": "3"} in combos

    def test_expand_grid_no_axes(self):
        keys, combos = expand_grid({"a": "1"})
        assert keys == [] and combos == [{"a": "1"}]

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match=r"unknown config keys \['lamda'\]"):
            build_train_config({"lamda": "0.5"})

    def test_train_rejects_misspelled_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG + "lamda = 0.5\n")
        ckpt = tmp_path / "model.ckpt"
        message = f"{cfg}:18: unknown config keys ['lamda']"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not ckpt.exists()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_train_config(parse_flat_file(cfg))

    def test_missing_keys_take_dataclass_defaults(self):
        assert build_train_config({}) == TrainConfig()
        test_spec = dataclasses.replace(SyntheticDatasetSpec(), per_class=30,
                                        seed=derive_seed(0, "test-split"))
        assert build_dataset_specs({}) == (SyntheticDatasetSpec(), test_spec)

    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("seed = 1\nepochs = abc\n", 2, "epochs"),
            ("lr = fast\n", 1, "lr"),
            ("sem_layers = 1,x\n", 1, "sem_layers"),
            ("epochs = 2\nseed = 1\nepochs = 3\n", 3, "epochs"),
            ("lambda = 0|0.1\n", 1, "lambda"),
            ("seed = 1\nlamda = 0.5\n", 2, "lamda"),
            ("points = 0\n", 1, "points"),
            ("arch = baseline\nlambda = 0.2\n", 1, "arch"),
            ("seed = 1\nlambda = nan\n", 2, "lambda"),
            ("lr = inf\n", 1, "lr"),
            ("tau = -inf\n", 1, "tau"),
            ("epochs = 2\nseed = -1\n", 2, "seed"),
            ("data_seed = -1\n", 1, "data_seed"),
            ("d_model = 0\n", 1, "d_model"),
            ("d_attn = 0\n", 1, "d_attn"),
            ("group_k = 0\n", 1, "group_k"),
            ("lambda = 0\nn_layers = 0\n", 2, "n_layers"),
            ("seed = 1\nsem_mode = channel\n", 2, "sem_mode"),
            ("optimizer = sgd\n", 1, "optimizer"),
            ("seed = 1\nval_fraction = 0\n", 2, "val_fraction"),
        ],
        ids=["int", "float", "list", "repeated", "grid-value", "unknown", "points-0",
             "baseline-attention-sem", "nan", "inf", "minus-inf", "seed-negative",
             "data-seed-negative", "d-model-0", "d-attn-0", "group-k-0", "n-layers-0",
             "removed-sem-mode", "removed-optimizer", "val-fraction-0"],
    )
    def test_malformed_config_names_file_line_and_key(self, tmp_path, text, line, key):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        where = re.escape(f"{path}:{line}: ")
        with pytest.raises(ConfigError, match=rf"^{where}.*\b{key}\b"):
            cfg = parse_flat_file(path)
            build_dataset_specs(cfg)
            build_train_config(cfg)

    def test_bad_grid_cell_trains_no_cell(self, tmp_path, monkeypatch, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text(TINY_CONFIG.replace("seed = 1", "seed = 0|-1"))
        trained = []
        monkeypatch.setattr(ablate, "train", lambda *args: trained.append(args))
        axes, configs = expand_grid(parse_flat_file(grid))
        where = re.escape(f"{grid}:17: seed = '-1'")
        with pytest.raises(ConfigError, match=rf"^{where}") as err:
            ablate.run_grid([], [], configs, axes=axes)
        assert main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "table.csv"),
                     "--kinds", "scale"]) == 2
        assert capsys.readouterr().err == f"{err.value}\n"
        assert trained == []

    def test_malformed_dict_config_names_key(self):
        with pytest.raises(ConfigError, match=r"^epochs = 'abc': invalid literal"):
            build_train_config({"epochs": "abc"})

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"epochs = \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            parse_flat_file(path)

    def test_every_setting_has_a_key(self):
        # a dataclass field that no config key sets is a setting without a caller
        def names(cls, prefix=""):
            return {prefix + f.name for f in dataclasses.fields(cls)}

        settable = ({("data", name) for name in names(SyntheticDatasetSpec)}
                    | {("train", name) for name in names(TrainConfig) - {"sampler", "loss"}}
                    | {("train", name) for name in names(SampleSpec, "sampler.")}
                    | {("train", name) for name in names(LossConfig, "loss.")})
        keyed = {("data" if owner == "test" else owner, field)
                 for owner, field, _ in KEYS.values()}
        assert settable - keyed == set()

    def test_keys_apply_in_table_order(self):
        # a key lands after the keys its validity depends on, in any file order
        tc = build_train_config({"sem_layers": "6,5", "n_layers": "6"})
        assert (tc.n_layers, tc.loss.sem_layers) == (6, (5, 6))
        assert build_train_config({"arch": "baseline", "lambda": "0"}).arch == "baseline"
        # the default lambda 0.1 needs attention layers, which a baseline lacks
        with pytest.raises(ConfigError, match="^arch = 'baseline': loss.sem_weight > 0"):
            build_train_config({"arch": "baseline"})

    def test_public_names_resolve_once(self):
        import pcrobust

        assert len(set(pcrobust.__all__)) == len(pcrobust.__all__)
        assert [n for n in pcrobust.__all__ if not hasattr(pcrobust, n)] == []

    def test_readme_key_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Run-config format", 1)[1].split("\n## ", 1)[0]
        first_cells = [row.split("|")[1] for row in section.splitlines()
                       if row.startswith("| `")]
        documented = {name for cell in first_cells for name in re.findall(r"`(\w+)`", cell)}
        assert documented == set(KEYS)
