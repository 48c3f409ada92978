"""Binary file formats.

Feature map (.bfm), "BFM1", little-endian:
    magic   4 bytes  b"BFM1"
    height  u32
    width   u32
    channels u32
    flags   u8       bit0 = rectified; other bits must be 0
    reserved 3 bytes zero
    payload height*width*channels float32, location-major, channel fastest

Gallery model set (.bgm), "BGM1", little-endian:
    magic   4 bytes  b"BGM1"
    count   u32      number of per-identity models
    dim     u32      descriptor dimension
    per model:
        id_len  u16, then id_len bytes of UTF-8 identity id
        w       dim float32
        b, rescale_a, rescale_b   float32 each

Both round-trip bit-exactly.  Descriptors are stored as float32 .npy
files (see save_descriptor / load_descriptor).
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, CorruptFileError, FormatError, ModelValueError, NumericError
from .svm import GalleryModelSet

BFM_MAGIC = b"BFM1"
BGM_MAGIC = b"BGM1"
FLAG_RECTIFIED = 0x01

# Caps the element count so a hostile header cannot trigger a giant
# allocation; 2**28 float32 values is 1 GiB.
MAX_MAP_ELEMENTS = 2**28


@dataclass
class FeatureMap:
    """A stored (H, W, C) activation grid plus its rectification flag."""

    values: np.ndarray
    rectified: bool = False

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def channels(self):
        return self.values.shape[2]

    def validate(self):
        if self.values.ndim != 3:
            raise FormatError(f"expected 3-D values, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise NumericError("feature map contains non-finite values")
        if self.rectified and np.any(self.values < 0):
            raise NumericError("rectified feature map has negative entries")


def save_feature_map(path, values, rectified=False):
    fmap = values if isinstance(values, FeatureMap) else FeatureMap(
        np.asarray(values), rectified
    )
    arr = np.ascontiguousarray(fmap.values, dtype=np.float32)
    fmap = FeatureMap(arr, fmap.rectified)
    fmap.validate()
    h, w, c = arr.shape
    if h * w * c > MAX_MAP_ELEMENTS:
        raise BoundsError(f"map of {h}x{w}x{c} exceeds the format limit")
    flags = FLAG_RECTIFIED if fmap.rectified else 0
    with open(path, "wb") as f:
        f.write(BFM_MAGIC)
        f.write(struct.pack("<IIIB3x", h, w, c, flags))
        f.write(arr.tobytes(order="C"))


def load_feature_map(path):
    with open(path, "rb") as f:
        header = f.read(20)
        if len(header) < 20:
            raise CorruptFileError(f"{path}: truncated header")
        if header[:4] != BFM_MAGIC:
            raise FormatError(f"{path}: bad magic {header[:4]!r}")
        h, w, c, flags = struct.unpack("<IIIB3x", header[4:])
        if flags & ~FLAG_RECTIFIED:
            raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")
        if h < 1 or w < 1 or c < 1:
            raise BoundsError(f"{path}: non-positive dimension {h}x{w}x{c}")
        n = h * w * c
        if n > MAX_MAP_ELEMENTS:
            raise BoundsError(f"{path}: {h}x{w}x{c} exceeds the format limit")
        payload = f.read(4 * n + 1)
    if len(payload) != 4 * n:
        raise CorruptFileError(
            f"{path}: header declares {n} floats, payload holds "
            f"{'more' if len(payload) > 4 * n else len(payload) // 4}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(h, w, c)
    fmap = FeatureMap(values.copy(), bool(flags & FLAG_RECTIFIED))
    fmap.validate()
    return fmap


def save_gallery(path, gallery):
    w = np.ascontiguousarray(gallery.w, dtype="<f4")
    tail = np.stack([gallery.b, gallery.rescale_a, gallery.rescale_b],
                    axis=1).astype("<f4")
    with open(path, "wb") as f:
        f.write(BGM_MAGIC)
        f.write(struct.pack("<II", len(gallery.identity_ids), gallery.descriptor_dim))
        for identity_id, w_row, tail_row in zip(gallery.identity_ids, w, tail):
            raw = identity_id.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise FormatError(f"identity id too long: {identity_id!r}")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(w_row.tobytes())
            f.write(tail_row.tobytes())


def load_gallery(path):
    """Read a .bgm file; its values must be finite with rescale_a > 0."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        raise CorruptFileError(f"{path}: truncated header")
    if data[:4] != BGM_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    count, dim = struct.unpack_from("<II", data, 4)
    if dim < 1:
        raise BoundsError(f"{path}: non-positive descriptor dim")
    record = 4 * dim + 12  # w, b, rescale_a, rescale_b
    if count * (2 + record) > len(data) - 12:
        raise CorruptFileError(f"{path}: truncated model record")
    ids = []
    w = np.empty((count, dim), dtype=np.float32)
    tail = np.empty((count, 3), dtype=np.float32)
    offset = 12
    for j in range(count):
        if offset + 2 > len(data):
            raise CorruptFileError(f"{path}: truncated model record")
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + id_len + record > len(data):
            raise CorruptFileError(f"{path}: truncated model record")
        ids.append(data[offset : offset + id_len].decode("utf-8"))
        offset += id_len
        w[j] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
        tail[j] = np.frombuffer(data, dtype="<f4", count=3, offset=offset + 4 * dim)
        offset += record
    if offset != len(data):
        raise CorruptFileError(f"{path}: {len(data) - offset} trailing bytes")
    b, rescale_a, rescale_b = tail.T.astype(np.float64)
    if not (np.isfinite(w).all() and np.isfinite(tail).all()):
        raise ModelValueError(f"{path}: non-finite model values")
    if not (rescale_a > 0).all():
        raise ModelValueError(f"{path}: rescale_a must be positive")
    return GalleryModelSet(ids, w, b, rescale_a, rescale_b)


def save_descriptor(path, descriptor):
    np.save(path, np.asarray(descriptor, dtype=np.float32), allow_pickle=False)


def load_descriptor(path):
    arr = np.load(path, allow_pickle=False)
    if arr.ndim != 1:
        raise FormatError(f"{path}: descriptor must be 1-D, got shape {arr.shape}")
    return arr
