import pickle
import re

import numpy as np
import pytest

from pcrobust import cloudio
from pcrobust.corruption import CorruptionSpec, apply_corruption
from pcrobust.data import (
    SHAPE_GENERATORS,
    SyntheticDatasetSpec,
    derive_seed,
    gen_dataset,
    sphere_surface,
)
from pcrobust.geometry import PointCloud, normalize_unit_sphere
from pcrobust.model import CheckpointFormatError

from conftest import random_cloud


class TestXyzFormat:
    def test_round_trip_with_label(self, tmp_path):
        cloud = random_cloud(0, n=20, label=3)
        path = tmp_path / "cloud.xyz"
        cloudio.write_xyz(cloud, path)
        back = cloudio.read_xyz(path)
        assert back.label == 3
        assert np.array_equal(back.points, cloud.points)

    def test_round_trip_without_label(self, tmp_path):
        cloud = random_cloud(1, n=5)
        path = tmp_path / "cloud.xyz"
        cloudio.write_xyz(cloud, path)
        assert cloudio.read_xyz(path).label is None

    def test_reads_plain_whitespace(self, tmp_path):
        path = tmp_path / "plain.xyz"
        path.write_text("# label 2\n0 0 0\n1.5   2.5\t3.5\n")
        cloud = cloudio.read_xyz(path)
        assert cloud.label == 2
        assert cloud.points.tolist() == [[0, 0, 0], [1.5, 2.5, 3.5]]

    def test_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            cloudio.read_xyz(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# label 1\n")
        with pytest.raises(ValueError):
            cloudio.read_xyz(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0 0 0\n1 2\n", "line 2: expected 3 coordinates, got 2 fields"),
            ("0 0 0\n\n1 two 3\n", "line 3: could not convert string to float"),
            ("# label x\n0 0 0\n", "line 1: invalid literal for int()"),
            ("# only a comment\n", "no points found"),
            ("1 nan 2\n", "line 1: non-finite coordinate"),
            ("0 0 0\n1 1e400 2\n", "line 2: non-finite coordinate"),
            ("# label 1 2\n0 0 0\n", "line 1: label line needs 1 value, got 2"),
            ("# label 1\n0 0 0\n# label 4\n", "line 3: second label line"),
            ("0 0 0\n# label -1\n", "line 2: label -1 is outside 0..4294967295"),
            ("# label 4294967296\n0 0 0\n", "line 1: label 4294967296 is outside"),
        ],
        ids=["fields", "non-numeric", "label", "empty", "nan", "overflow",
             "label-fields", "label-twice", "label-negative", "label-too-large"],
    )
    def test_error_names_path_and_line(self, tmp_path, text, reason):
        path = tmp_path / "bad.xyz"
        path.write_text(text)
        with pytest.raises(cloudio.CloudFormatError) as err:
            cloudio.read_xyz(path)
        assert err.value.path == path
        assert err.value.reason.startswith(reason)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "junk.xyz"
        path.write_bytes(b"JUNK\xff\xfe 1 2 3\n")
        with pytest.raises(cloudio.CloudFormatError) as err:
            cloudio.read_cloud(path)
        assert err.value.path == path
        assert err.value.reason.startswith("not UTF-8 text")


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        cloud = random_cloud(2, n=33, label=5)
        path = tmp_path / "cloud.rpc"
        cloudio.write_binary(cloud, path)
        back = cloudio.read_binary(path)
        assert back.label == 5
        assert back.n == 33
        # storage is f32
        assert np.abs(back.points - cloud.points).max() <= 1e-6

    def test_no_label(self, tmp_path):
        cloud = random_cloud(3, n=8)
        path = tmp_path / "cloud.rpc"
        cloudio.write_binary(cloud, path)
        assert cloudio.read_binary(path).label is None

    def test_magic_and_layout(self, tmp_path):
        cloud = PointCloud([[1.0, 2.0, 3.0]], label=9)
        path = tmp_path / "one.rpc"
        cloudio.write_binary(cloud, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RPC1"
        assert len(raw) == 4 + 4 + 4 + 12 + 4

    @pytest.mark.parametrize("label", [-1, 2**32])
    def test_label_outside_u32_names_path_and_label(self, tmp_path, label):
        path = tmp_path / "bad.rpc"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: label {label} "):
            cloudio.write_binary(PointCloud([[0.0, 0.0, 0.0]], label=label), path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rpc"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(ValueError):
            cloudio.read_binary(path)

    def saved_bytes(self, tmp_path):
        # 4 magic + 8 header + 5 x 12 points + 4 label = 76 bytes
        path = tmp_path / "cloud.rpc"
        cloudio.write_binary(random_cloud(6, n=5, label=2), path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("keep", [6, 40, 74], ids=["header", "points", "label"])
    def test_truncated_file(self, tmp_path, keep):
        path, raw = self.saved_bytes(tmp_path)
        path.write_bytes(raw[:keep])
        with pytest.raises(cloudio.CloudFormatError, match="truncated") as err:
            cloudio.read_binary(path)
        assert err.value.path == path
        assert err.value.reason.startswith("truncated")

    def test_trailing_bytes(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        path.write_bytes(raw + b"\0\0\0")
        with pytest.raises(cloudio.CloudFormatError, match="3 trailing bytes") as err:
            cloudio.read_binary(path)
        assert isinstance(err.value, ValueError)
        assert str(path) in str(err.value)

    def test_bad_label_flag(self, tmp_path):
        path, raw = self.saved_bytes(tmp_path)
        path.write_bytes(raw[:8] + (2).to_bytes(4, "little") + raw[12:])
        with pytest.raises(cloudio.CloudFormatError, match="label flag 2"):
            cloudio.read_binary(path)

    def test_zero_point_count(self, tmp_path):
        path = tmp_path / "empty.rpc"
        path.write_bytes(b"RPC1" + bytes(8))
        with pytest.raises(cloudio.CloudFormatError, match="point count 0") as err:
            cloudio.read_binary(path)
        assert err.value.path == path

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coordinate(self, tmp_path, value):
        path, raw = self.saved_bytes(tmp_path)
        # y of point 2: after magic, header and two points, one f32 in
        at = 12 + 2 * 12 + 4
        path.write_bytes(raw[:at] + np.array([value], "<f4").tobytes() + raw[at + 4 :])
        with pytest.raises(cloudio.CloudFormatError) as err:
            cloudio.read_binary(path)
        assert err.value.path == path
        assert err.value.reason == "point 2 has a non-finite coordinate"

    def test_dispatch_by_content(self, tmp_path):
        cloud = random_cloud(4, n=6, label=1)
        bin_path = tmp_path / "a.rpc"
        txt_path = tmp_path / "a.xyz"
        cloudio.write_cloud(cloud, bin_path)
        cloudio.write_cloud(cloud, txt_path)
        assert cloudio.read_cloud(bin_path).label == 1
        assert cloudio.read_cloud(txt_path).label == 1


@pytest.mark.parametrize("error", [cloudio.CloudFormatError, CheckpointFormatError])
def test_format_errors_round_trip_through_pickle(error):
    back = pickle.loads(pickle.dumps(error("a.rpc", "bad magic")))
    assert type(back) is error
    assert (back.path, back.reason, str(back)) == ("a.rpc", "bad magic", "a.rpc: bad magic")


class TestCloudSource:
    @pytest.mark.parametrize("name", ["cloud.rpc", "cloud.xyz"])
    def test_a_read_cloud_names_its_file(self, tmp_path, name):
        path = tmp_path / name
        cloudio.write_cloud(random_cloud(5, n=12, label=1), path)
        cloud = cloudio.read_cloud(path)
        assert cloud.source == str(path)
        # equality ignores the file: the same points read from elsewhere
        elsewhere = tmp_path / f"elsewhere{path.suffix}"
        elsewhere.write_bytes(path.read_bytes())
        twin = cloudio.read_cloud(elsewhere)
        assert twin.source == str(elsewhere) and twin == cloud
        for derived in (cloud.with_points(cloud.points), normalize_unit_sphere(cloud),
                        apply_corruption(cloud, CorruptionSpec("scale", 3, 0))):
            assert derived.source is None


class TestSyntheticData:
    def test_cardinality_and_labels(self):
        spec = SyntheticDatasetSpec(classes=("sphere", "cube"), per_class=10,
                                    points=64, seed=1)
        clouds = gen_dataset(spec)
        assert len(clouds) == 20
        assert [c.label for c in clouds] == [0] * 10 + [1] * 10
        assert all(c.n == 64 for c in clouds)

    def test_deterministic(self):
        spec = SyntheticDatasetSpec(per_class=3, points=32, seed=7)
        a = gen_dataset(spec)
        b = gen_dataset(spec)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.points, cb.points)

    def test_different_seeds_differ(self):
        base = dict(per_class=2, points=32)
        a = gen_dataset(SyntheticDatasetSpec(seed=1, **base))
        b = gen_dataset(SyntheticDatasetSpec(seed=2, **base))
        assert not np.array_equal(a[0].points, b[0].points)

    def test_sphere_surface_norms(self):
        pts = sphere_surface(np.random.default_rng(0), 500)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12

    def test_all_shapes_generate(self):
        rng = np.random.default_rng(1)
        for name, gen in SHAPE_GENERATORS.items():
            pts = gen(rng, 128)
            assert pts.shape == (128, 3), name
            assert np.isfinite(pts).all(), name

    def test_outputs_normalized(self):
        clouds = gen_dataset(SyntheticDatasetSpec(per_class=2, points=64, seed=3))
        for c in clouds:
            assert abs(np.linalg.norm(c.points, axis=1).max() - 1.0) <= 1e-9
            assert np.abs(c.points.mean(axis=0)).max() <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(classes=("sphere",))
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(classes=("sphere", "blob"))
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(per_class=0)
        with pytest.raises(ValueError, match="points"):
            SyntheticDatasetSpec(points=0)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")
