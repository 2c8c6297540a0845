import csv
import dataclasses
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
from pcrobust.data import SyntheticDatasetSpec, derive_seed
from pcrobust.losses import LossConfig
from pcrobust.model import init_model, save_checkpoint
from pcrobust.sampling import SAMPLER_VARIANTS, SampleSpec
from pcrobust.train import TrainConfig

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
                   "--k", "3", "--output", str(out)])
        assert rc == 0
        assert len(set(out.read_text().split())) == 4

    @pytest.mark.parametrize(
        "flags", [["--sampler", "das"], ["--sampler", "ballquery"], ["--method", "fps"]]
    )
    def test_rejects_other_sampler_flags(self, tmp_path, flags, capsys):
        src, _ = write_cloud(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["sample", "--input", str(src), "--m", "4",
                  "--output", str(tmp_path / "idx.txt")] + flags)
        assert err.value.code == 2
        assert flags[0] in capsys.readouterr().err


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

    def test_suite_reports_files_written(self, tmp_path, monkeypatch, capsys):
        src, _ = write_cloud(tmp_path)
        monkeypatch.setattr(cli, "ALL_KINDS", ("scale", "impulse"))
        out = tmp_path / "suite"
        assert main(["corrupt", "--input", str(src), "--suite",
                     "--output-dir", str(out)]) == 0
        assert len(list(out.rglob("*.rpc"))) == 10
        assert "wrote 10 corrupted clouds" in capsys.readouterr().out

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

    def test_train_names_the_file(self, tmp_path, data_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"{data_dir / 'c1.xyz'}: no label")):
            main(["train", "--config", str(cfg), "--out", str(out), "--data", str(data_dir)])
        assert not out.exists()

    def test_eval_names_the_file(self, tmp_path, data_dir):
        ckpt = tmp_path / "model.ckpt"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8,
                            d_model=16, d_attn=4, group_k=4, n_layers=2)
        save_checkpoint(ckpt, params, SampleSpec(m=8, k=5, variant="das-l0"))
        report = tmp_path / "r.json"
        with pytest.raises(ValueError, match=re.escape(f"{data_dir / 'c1.xyz'}: no label")):
            main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                  "--report", str(report)])
        assert not report.exists()


class TestEvalSamplerOverride:
    @pytest.fixture
    def eval_inputs(self, tmp_path, monkeypatch):
        """A das-l0 checkpoint (m=8, k=5), test data, and the list of
        samplers that eval runs hand to evaluate()."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        data_dir = tmp_path / "data"
        main(["gen-data", "--spec", str(cfg), "--out", str(data_dir)])
        ckpt = tmp_path / "model.ckpt"
        params = init_model(np.random.default_rng(0), n_classes=2, m_anchors=8,
                            d_model=16, d_attn=4, group_k=4, n_layers=2)
        save_checkpoint(ckpt, params, SampleSpec(m=8, k=5, variant="das-l0"))
        used = []
        real = cli.evaluate

        def recording(params, dataset, sampler=None, **kwargs):
            used.append(sampler)
            return real(params, dataset, sampler=sampler, **kwargs)

        monkeypatch.setattr(cli, "evaluate", recording)
        base = ["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                "--report", str(tmp_path / "r.json"), "--kinds", "scale",
                "--severities", "1", "--eval-seeds", "0"]
        return base, used

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], SampleSpec(m=8, k=5, variant="das-l0")),
            (["--k", "3"], SampleSpec(m=8, k=3, variant="das-l0")),
            (["--sampler", "fps"], SampleSpec(m=8, k=5, variant="fps")),
            (["--sampler", "das-l1", "--k", "2"], SampleSpec(m=8, k=2, variant="das-l1")),
        ],
        ids=["checkpoint", "k-alone", "sampler-alone", "both"],
    )
    def test_overrides(self, eval_inputs, flags, expected):
        base, used = eval_inputs
        assert main(base + flags) == 0
        assert used == [expected]


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

    def test_train_rejects_misspelled_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG + "lamda = 0.5\n")
        ckpt = tmp_path / "model.ckpt"
        with pytest.raises(ConfigError, match="lamda"):
            main(["train", "--config", str(cfg), "--out", str(ckpt)])
        assert not ckpt.exists()

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
        ],
        ids=["int", "float", "list", "repeated", "grid-value", "unknown", "points-0",
             "baseline-attention-sem", "nan", "inf", "minus-inf", "seed-negative",
             "data-seed-negative", "d-model-0", "d-attn-0", "group-k-0", "n-layers-0"],
    )
    def test_malformed_config_names_file_line_and_key(self, tmp_path, text, line, key):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        where = re.escape(f"{path}:{line}: ")
        with pytest.raises(ConfigError, match=rf"^{where}.*\b{key}\b"):
            cfg = parse_flat_file(path)
            build_dataset_specs(cfg)
            build_train_config(cfg)

    def test_bad_grid_cell_trains_no_cell(self, tmp_path, monkeypatch):
        grid = tmp_path / "grid.cfg"
        grid.write_text(TINY_CONFIG.replace("seed = 1", "seed = 0|-1"))
        trained = []
        monkeypatch.setattr(ablate, "train", lambda *args: trained.append(args))
        where = re.escape(f"{grid}:17: seed = '-1'")
        with pytest.raises(ConfigError, match=rf"^{where}"):
            main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "table.csv"),
                  "--kinds", "scale"])
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
        tc = build_train_config({"arch": "baseline", "sem_mode": "channel"})
        assert tc.loss.sem_mode == "channel"

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
