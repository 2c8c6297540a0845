"""Property fuzz of the two file readers: any input either loads or fails
with the reader's one named format error, never with anything else."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcrobust import cloudio
from pcrobust.geometry import PointCloud
from pcrobust.model import (
    CHECKPOINT_MAGIC,
    CheckpointFormatError,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from pcrobust.sampling import SampleSpec

# derandomized so that tier-1 runs are repeatable; no example database
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# XYZ-like text: lines that are mostly three numbers, some of them
# non-finite, mixed with labels and junk
number = st.one_of(
    st.floats().map(repr), st.sampled_from(["1e400", "-1e400", "nan", "-0"])
)
token = st.one_of(number, st.sampled_from(["#", "label", "3"]), st.text(max_size=4))
line = st.one_of(st.lists(number, min_size=3, max_size=3), st.lists(token, max_size=4))
xyz_text = st.lists(line.map(" ".join), max_size=6).map("\n".join)


@st.composite
def rpc1_body(draw):
    """A small point count and label flag, f32 coordinates (NaN and inf
    among them) of about the right length, and a short arbitrary tail."""
    n = draw(st.integers(0, 3))
    flag = draw(st.integers(0, 2))
    coords = draw(st.lists(st.floats(width=32), min_size=3 * n, max_size=3 * n))
    tail = draw(st.binary(max_size=6))
    return struct.pack("<II", n, flag) + np.array(coords, "<f4").tobytes() + tail


def _read_cloud_or_format_error(path, raw):
    path.write_bytes(raw)
    try:
        cloud = cloudio.read_cloud(path)
    except cloudio.CloudFormatError as exc:
        assert exc.path == path
        return
    assert isinstance(cloud, PointCloud)


class TestReadCloudFuzz:
    @FUZZ
    @given(raw=st.binary(max_size=120))
    def test_arbitrary_bytes(self, tmp_path, raw):
        _read_cloud_or_format_error(tmp_path / "cloud", raw)

    @FUZZ
    @given(raw=st.one_of(st.binary(max_size=120), rpc1_body()))
    def test_rpc1_prefix(self, tmp_path, raw):
        _read_cloud_or_format_error(tmp_path / "cloud", cloudio.MAGIC + raw)

    @FUZZ
    @given(text=xyz_text)
    def test_xyz_like_text(self, tmp_path, text):
        _read_cloud_or_format_error(tmp_path / "cloud", text.encode("utf-8"))


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    params = init_model(np.random.default_rng(0), 3, 4, d_model=4, d_attn=2,
                        group_k=2, n_layers=1)
    save_checkpoint(path, params, SampleSpec(m=4, k=2))
    return path.read_bytes()


def _load_or_format_error(path, raw):
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except CheckpointFormatError as exc:
        assert exc.path == path


class TestLoadCheckpointFuzz:
    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path, raw):
        _load_or_format_error(tmp_path / "model.ckpt", CHECKPOINT_MAGIC + raw)

    @FUZZ
    @given(data=st.data())
    def test_patched_checkpoint(self, tmp_path, saved_checkpoint, data):
        # overwrite a few bytes of a valid file after its magic, then maybe
        # cut it short: the header fields stay small enough to reach the
        # sampler, shape and value checks
        raw = bytearray(saved_checkpoint)
        at = data.draw(st.integers(len(CHECKPOINT_MAGIC), len(raw) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        raw[at : at + len(patch)] = patch
        keep = data.draw(st.integers(len(CHECKPOINT_MAGIC), len(raw)))
        _load_or_format_error(tmp_path / "model.ckpt", bytes(raw[:keep]))
