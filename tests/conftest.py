import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pcrobust import geometry, sampling
from pcrobust.geometry import PointCloud, axis_angle_rotation, normalize_unit_sphere


def random_cloud(seed, n=64, normalized=True, label=None):
    pts = np.random.default_rng(seed).standard_normal((n, 3))
    cloud = PointCloud(pts, label)
    return normalize_unit_sphere(cloud) if normalized else cloud


def random_axis_rotation(rng):
    """A rotation by a uniform angle about an isotropically drawn axis."""
    return axis_angle_rotation(rng.standard_normal(3), rng.uniform(0.0, 2 * np.pi))


@pytest.fixture
def cluster_outlier_cloud():
    """Five tightly packed points plus one far outlier (pairwise ~0.1 vs ~10)."""
    pts = [
        [0.00, 0.00, 0.00],
        [0.10, 0.00, 0.00],
        [0.00, 0.10, 0.00],
        [0.05, 0.05, 0.07],
        [0.10, 0.10, 0.00],
        [10.0, 0.00, 0.00],
    ]
    return PointCloud(pts)


@pytest.fixture
def table_builds(monkeypatch):
    """Points of every neighbour-table build, in call order."""
    built = []
    real = geometry._nearest_columns

    def counting(points, width):
        built.append(points)
        return real(points, width)

    monkeypatch.setattr(geometry, "_nearest_columns", counting)
    return built


def _record_clouds(monkeypatch, name):
    """Patch ``sampling.<name>`` to record the cloud of every call, in call order."""
    built = []
    real = getattr(sampling, name)

    def counting(cloud, *args, **kwargs):
        built.append(cloud)
        return real(cloud, *args, **kwargs)

    monkeypatch.setattr(sampling, name, counting)
    return built


@pytest.fixture
def profile_builds(monkeypatch):
    """The cloud of every density_profile call, in call order."""
    return _record_clouds(monkeypatch, "density_profile")


@pytest.fixture
def fps_builds(monkeypatch):
    """The cloud of every fps_sample call, in call order."""
    return _record_clouds(monkeypatch, "fps_sample")
