"""Typed containers for dense prediction channels and their on-disk format.

The PNCM container is intentionally trivial to parse from any language:

    magic   4 bytes  "PNCM"
    version u8       1
    H, W, C u32 x 3  little endian
    C channel records, each:
        name_len u8
        name     ASCII bytes
        values   H*W float32, little endian, row major

Detection stacks carry channels ``base, end, asc, des, block``; orientation
stacks carry ``ox, oy``.  Each name appears once, and the set of names
picks the stack type.  Heights (asc/des) are stored in pixels at the map
resolution.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

MAGIC = b"PNCM"
VERSION = 1
_MAX_DIM = 1 << 16
_MAX_CHANNELS = 16


class MapFormatError(ValueError):
    pass


def _prepare(name: str, arr, lo: float | None, hi: float | None) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(arr), dtype=np.float32)
    if a.ndim != 2 or a.size == 0:
        raise MapFormatError(f"channel {name!r} must be a 2-D plane with pixels, got shape {a.shape}")
    a_min, a_max = float(a.min()), float(a.max())  # a NaN reaches both, an infinity one of them
    if not (math.isfinite(a_min) and math.isfinite(a_max)):
        raise MapFormatError(f"channel {name!r} contains NaN or infinite values")
    if lo is not None and a_min < lo - 1e-6:
        raise MapFormatError(f"channel {name!r} below {lo}")
    if hi is not None and a_max > hi + 1e-6:
        raise MapFormatError(f"channel {name!r} above {hi}")
    a.flags.writeable = False
    return a


class _PlaneStack:
    """Named float32 planes of one shape, checked in ``RANGES`` order and frozen: the one check, also of planes read from disk.

    ``RANGES`` maps each plane name, in field and file order, to its ``(lo, hi)`` bounds (None: unbounded).
    """

    RANGES: ClassVar[dict[str, tuple[float | None, float | None]]]

    def __post_init__(self):
        for name, (lo, hi) in self.RANGES.items():
            object.__setattr__(self, name, _prepare(name, getattr(self, name), lo, hi))
        if len({getattr(self, name).shape for name in self.RANGES}) != 1:
            raise MapFormatError("all channels must share one shape")

    @property
    def shape(self) -> tuple[int, int]:
        return getattr(self, next(iter(self.RANGES))).shape

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def width(self) -> int:
        return self.shape[1]

    def channels(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.RANGES}

    def __eq__(self, other):  # value equality: the same stack type with equal planes
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in self.RANGES)

    @classmethod
    def zeros(cls, height: int, width: int):
        return cls(**{name: np.zeros((height, width), dtype=np.float32) for name in cls.RANGES})


@dataclass(frozen=True, eq=False)
class ChannelMaps(_PlaneStack):
    """The five detection channels; base/end/block in [0,1], asc/des >= 0."""

    RANGES: ClassVar = {"base": (0.0, 1.0), "end": (0.0, 1.0), "asc": (0.0, None), "des": (0.0, None), "block": (0.0, 1.0)}

    base: np.ndarray
    end: np.ndarray
    asc: np.ndarray
    des: np.ndarray
    block: np.ndarray


@dataclass(frozen=True, eq=False)
class OrientationMaps(_PlaneStack):
    """Unit-circle orientation field; both planes in [-1, 1]."""

    RANGES: ClassVar = {"ox": (-1.0, 1.0), "oy": (-1.0, 1.0)}

    ox: np.ndarray
    oy: np.ndarray


def write_maps(maps: ChannelMaps | OrientationMaps) -> bytes:
    channels = maps.channels()
    h, w = maps.shape
    out = [MAGIC, struct.pack("<BIII", VERSION, h, w, len(channels))]
    for name, arr in channels.items():
        encoded = name.encode("ascii")
        out.append(struct.pack("<B", len(encoded)))
        out.append(encoded)
        out.append(arr.astype("<f4").tobytes(order="C"))
    return b"".join(out)


def read_maps(data: bytes) -> ChannelMaps | OrientationMaps:
    """Parse a PNCM container; the stack the channel names pick checks the values.

    The planes are read-only views of ``data`` (of one copy of it, if ``data`` is mutable).
    """
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    if len(data) < 17 or data[:4] != MAGIC:
        raise MapFormatError("unsupported container: bad magic")
    version, h, w, c = struct.unpack_from("<BIII", data, 4)
    if version != VERSION:
        raise MapFormatError(f"unsupported container: version {version}")
    if not (1 <= h <= _MAX_DIM and 1 <= w <= _MAX_DIM and 1 <= c <= _MAX_CHANNELS):
        raise MapFormatError("size overflow in header")
    offset = 17
    plane_bytes = h * w * 4
    channels: dict[str, np.ndarray] = {}
    for _ in range(c):
        if offset + 1 > len(data):
            raise MapFormatError("container truncated")
        (name_len,) = struct.unpack_from("<B", data, offset)
        offset += 1
        if offset + name_len + plane_bytes > len(data):
            raise MapFormatError("container truncated")
        try:
            name = data[offset : offset + name_len].decode("ascii")
        except UnicodeDecodeError as exc:
            raise MapFormatError("channel name is not ASCII") from exc
        offset += name_len
        arr = np.frombuffer(data, dtype="<f4", count=h * w, offset=offset).reshape(h, w)
        offset += plane_bytes
        if name in channels:
            raise MapFormatError(f"repeated channel {name!r}")
        channels[name] = arr
    if offset != len(data):
        raise MapFormatError("trailing bytes after channel records")
    for cls in (ChannelMaps, OrientationMaps):
        if set(channels) == set(cls.RANGES):
            return cls(**channels)
    raise MapFormatError(f"unexpected channel set {sorted(channels)}")


def rotate_maps(maps: ChannelMaps | OrientationMaps, turns: int):
    """Rotate all planes by 90-degree counterclockwise ``turns``.

    Height channels are rotation-invariant scalars and are only permuted;
    orientation vectors are additionally rotated by the same angle.
    """
    t = turns % 4
    if t == 0:
        return maps
    if isinstance(maps, ChannelMaps):
        return ChannelMaps(**{name: np.rot90(arr, t).copy() for name, arr in maps.channels().items()})
    ox = np.rot90(maps.ox, t).copy()
    oy = np.rot90(maps.oy, t).copy()
    if t == 1:
        return OrientationMaps(oy, -ox)
    if t == 2:
        return OrientationMaps(-ox, -oy)
    return OrientationMaps(-oy, ox)
