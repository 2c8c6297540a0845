"""Point-cloud file formats.

Two interchange formats:

* text "XYZ": one point per line, three decimal floats separated by
  whitespace; an optional ``# label <int>`` header line carries the class id.
* binary "RPC1": magic bytes ``RPC1``, little-endian u32 point count,
  u32 label flag (0/1), N x 3 little-endian f32 coordinates, then a u32
  label when the flag is set.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .geometry import PointCloud

MAGIC = b"RPC1"
LABEL_MAX = 2**32 - 1  # the RPC1 label is a u32


class FormatError(ValueError):
    """A file that cannot be read; names the path and the reason."""

    def __init__(self, path, reason: str):
        super().__init__(path, reason)  # the constructor's args, so pickle rebuilds it
        self.path = path
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


class CloudFormatError(FormatError):
    """An RPC1 or XYZ point-cloud file that cannot be read."""


class BinaryReader:
    """Bounds-checked reads through one binary file, front to back.

    Every read that would run past the end, a wrong magic and bytes left
    over at ``finish`` raise ``error(path, reason)``.
    """

    def __init__(self, path, magic: bytes, error: type[FormatError]):
        self.path, self.error = path, error
        self.raw = Path(path).read_bytes()
        head = self.raw[: len(magic)]
        if head != magic:
            raise error(path, f"bad magic {head!r}, expected {magic!r}")
        self.offset = len(magic)

    def _take(self, n_bytes: int, what: str) -> int:
        """Claims the next n_bytes; returns their start offset."""
        start = self.offset
        if start + n_bytes > len(self.raw):
            raise self.error(
                self.path,
                f"truncated: {what} needs {n_bytes} bytes at offset {start}, "
                f"file has {len(self.raw)}",
            )
        self.offset += n_bytes
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt), what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        start = self._take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)

    def finish(self, last: str) -> None:
        extra = len(self.raw) - self.offset
        if extra:
            raise self.error(self.path, f"{extra} trailing bytes after the {last}")


def write_xyz(cloud: PointCloud, path) -> None:
    lines = []
    if cloud.label is not None:
        lines.append(f"# label {cloud.label}")
    for x, y, z in cloud.points:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_xyz(path) -> PointCloud:
    """Raises CloudFormatError for a file that is not UTF-8 text, naming the
    line for a line without 3 fields, a non-numeric or non-finite coordinate,
    a label line without exactly one integer in 0..LABEL_MAX, or a second
    label line, and for a file without points."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CloudFormatError(path, f"not UTF-8 text: {exc}") from exc
    label = None
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if line.startswith("#"):
                fields = line[1:].split()
                if fields[:1] == ["label"]:
                    if len(fields) != 2:
                        raise ValueError(f"label line needs 1 value, got {len(fields) - 1}")
                    if label is not None:
                        raise ValueError(f"second label line (label {label} already set)")
                    label = int(fields[1])
                    if not 0 <= label <= LABEL_MAX:
                        raise ValueError(f"label {label} is outside 0..{LABEL_MAX}")
            elif line:
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError(f"expected 3 coordinates, got {len(parts)} fields")
                coords = [float(v) for v in parts]
                if not all(map(math.isfinite, coords)):
                    raise ValueError(f"non-finite coordinate in {line!r}")
                rows.append(coords)
        except ValueError as exc:
            raise CloudFormatError(path, f"line {lineno}: {exc}") from exc
    if not rows:
        raise CloudFormatError(path, "no points found")
    return PointCloud(np.array(rows), label, str(path))


def write_binary(cloud: PointCloud, path) -> None:
    """Raises ValueError, before writing, for a label outside 0..LABEL_MAX."""
    has_label = cloud.label is not None
    if has_label and not 0 <= cloud.label <= LABEL_MAX:
        raise ValueError(f"{path}: label {cloud.label} does not fit RPC1's "
                         f"u32 label field (0..{LABEL_MAX})")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", cloud.n, 1 if has_label else 0))
        fh.write(cloud.points.astype("<f4").tobytes())
        if has_label:
            fh.write(struct.pack("<I", cloud.label))


def read_binary(path) -> PointCloud:
    """Raises CloudFormatError for a bad magic or label flag, a point count
    of 0, a truncated file, trailing bytes, or a non-finite coordinate."""
    reader = BinaryReader(path, MAGIC, CloudFormatError)
    n, label_flag = reader.unpack("<II", "point count and label flag")
    if label_flag not in (0, 1):
        raise CloudFormatError(path, f"label flag {label_flag} is not 0 or 1")
    if n == 0:
        raise CloudFormatError(path, "point count 0")
    pts = reader.array("<f4", n * 3, "points").reshape(n, 3)
    label = reader.unpack("<I", "label")[0] if label_flag else None
    reader.finish("cloud")
    finite = np.isfinite(pts).all(axis=1)  # before any cast: a NaN cast can warn
    if not finite.all():
        first = int(np.argmin(finite))
        raise CloudFormatError(path, f"point {first} has a non-finite coordinate")
    return PointCloud(pts, label, str(path))


def read_cloud(path) -> PointCloud:
    """Dispatch on content: binary when the magic matches, XYZ text otherwise."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_binary(path)
    return read_xyz(path)


def write_cloud(cloud: PointCloud, path) -> None:
    """Dispatch on extension: .xyz/.txt write text, everything else binary."""
    if str(path).endswith((".xyz", ".txt")):
        write_xyz(cloud, path)
    else:
        write_binary(cloud, path)
