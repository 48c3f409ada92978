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

Both round-trip bit-exactly.

Descriptor store, one per encode run, in one directory:
    descriptors.npy  .npy version 1.0, (n, dim) little-endian float32, C order
    manifest.csv     header "media_id", then the id of each row, in order

Rows are streamed to ``descriptors.npy.tmp``, which is renamed into
place after the last row; the manifest is written after that and
renamed into place too, so a manifest always names a whole store (see
StoreWriter / load_store).
"""

import os
import struct
import tokenize
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    CorruptFileError,
    FormatError,
    ModelValueError,
    NumericError,
    ProtocolError,
    ShapeError,
)
from .svm import GalleryModelSet

BFM_MAGIC = b"BFM1"
BGM_MAGIC = b"BGM1"
FLAG_RECTIFIED = 0x01
STORE_FILE = "descriptors.npy"
MANIFEST_FILE = "manifest.csv"

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
        try:
            ids.append(data[offset : offset + id_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise CorruptFileError(f"{path}: identity id of model {j} is not UTF-8") from None
        offset += id_len
        w[j] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
        tail[j] = np.frombuffer(data, dtype="<f4", count=3, offset=offset + 4 * dim)
        offset += record
    if offset != len(data):
        raise CorruptFileError(f"{path}: {len(data) - offset} trailing bytes")
    if not (np.isfinite(w).all() and np.isfinite(tail).all()):
        raise ModelValueError(f"{path}: non-finite model values")
    b, rescale_a, rescale_b = tail.T.astype(np.float64)
    if not (rescale_a > 0).all():
        raise ModelValueError(f"{path}: rescale_a must be positive")
    try:
        return GalleryModelSet(ids, w, b, rescale_a, rescale_b)
    except ProtocolError as exc:  # duplicate or unsorted ids
        raise CorruptFileError(f"{path}: {exc}") from None


class StoreWriter:
    """Streams the rows of one encode run into a descriptor store.

    Each row is cast into one reused float32 buffer and appended to
    ``descriptors.npy.tmp`` as soon as it is written; the directory and
    the header are made at the first row, once the dim is known.
    :meth:`commit` renames the array into place, then writes the
    manifest, so a manifest only ever names a whole store.  Closing the
    writer without a commit (the ``with`` block exits) deletes the
    temporary file and every directory the writer made.
    """

    def __init__(self, out_dir, media_ids):
        self.out_dir = Path(out_dir)
        self.media_ids = list(media_ids)
        self._tmp = self.out_dir / f"{STORE_FILE}.tmp"
        self._file = None
        self._row = None
        self._rows = 0
        self._made = []  # directories this writer created, deepest first

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def write(self, descriptor):
        """Append one row; a descriptor of another shape than the first
        row's is a ShapeError and is not written."""
        if self._file is None:
            self._open(np.size(descriptor))
        if np.shape(descriptor) != self._row.shape:
            raise ShapeError(f"one store holds one descriptor dim: row {self._rows} "
                             f"has shape {np.shape(descriptor)}, row 0 {self._row.shape}")
        np.copyto(self._row, descriptor, casting="same_kind")
        self._file.write(self._row)
        self._rows += 1

    def _open(self, dim):
        d = self.out_dir
        while not d.exists():
            self._made.append(d)
            d = d.parent
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._file = open(self._tmp, "wb")
        np.lib.format.write_array_header_1_0(self._file, {
            "descr": "<f4", "fortran_order": False, "shape": (len(self.media_ids), dim)})
        self._row = np.empty(dim, dtype="<f4")

    def commit(self):
        """Put the store in place once every row has been written."""
        n = len(self.media_ids)
        if self._file is None or self._rows != n:
            raise ShapeError(f"a store of {n} rows got {self._rows}")
        self._file.close()
        os.replace(self._tmp, self.out_dir / STORE_FILE)
        self._made = []  # they hold the store now
        tmp = self.out_dir / f"{MANIFEST_FILE}.tmp"
        tmp.write_text("".join(f"{m}\n" for m in ["media_id", *self.media_ids]),
                       encoding="utf-8")
        os.replace(tmp, self.out_dir / MANIFEST_FILE)

    def close(self):
        """Discard an uncommitted store; a no-op after :meth:`commit`."""
        if self._file is not None:
            self._file.close()
            self._tmp.unlink(missing_ok=True)  # renamed away by a commit
        for d in self._made:
            try:
                d.rmdir()
            except OSError:  # it holds files this writer did not write
                break


def save_store(out_dir, media_ids, descriptors):
    """Write the store of one encode run: row i of ``descriptors.npy`` is
    ``descriptors[i]`` as float32, and id i in ``manifest.csv`` names it."""
    with StoreWriter(out_dir, media_ids) as store:
        for descriptor in descriptors:
            store.write(descriptor)
        store.commit()


def _read_store_header(f, path):
    """(n, dim) of an open store; leaves ``f`` at the first row."""
    try:
        if np.lib.format.read_magic(f) != (1, 0):
            raise ValueError("not a version 1.0 .npy file")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        # numpy parses the header text as a Python literal
        raise FormatError(f"{path}: {exc}") from None
    if dtype.str != "<f4" or fortran_order or len(shape) != 2:
        raise FormatError(f"{path}: expected a 2-D C-order <f4 array, got "
                          f"{dtype.str} {'F' if fortran_order else 'C'} {shape}")
    if shape[1] < 1:
        raise BoundsError(f"{path}: non-positive descriptor dim {shape[1]}")
    return shape


def load_store(store_dir, media_ids):
    """Rows of the store in ``store_dir`` for ``media_ids``, in that order,
    as one (len(media_ids), dim) float32 array.

    The header is checked once: a 2-D C-order <f4 array with one row per
    manifest id and a payload that fills the file exactly.  Only the
    requested rows are read, each checked finite as it is read.  A
    missing manifest, or a medium it does not name, is a ConfigError; a
    malformed store is a FormatError.
    """
    store_dir = Path(store_dir)
    manifest = store_dir / MANIFEST_FILE
    if not manifest.is_file():
        raise ConfigError(f"no descriptor store at {store_dir}")
    # ids are ASCII; a corrupt byte just makes an id that names no medium
    lines = manifest.read_text(encoding="utf-8", errors="replace").splitlines()
    if lines[:1] != ["media_id"]:
        raise FormatError(f"{manifest}: header must be exactly media_id")
    rows = {media_id: row for row, media_id in enumerate(lines[1:])}
    try:
        index = [rows[m] for m in media_ids]
    except KeyError as exc:
        raise ConfigError(f"{manifest} names no medium {exc.args[0]!r}") from None
    path = store_dir / STORE_FILE
    with open(path, "rb") as f:
        n, dim = _read_store_header(f, path)
        if n != len(rows):  # also catches a duplicate id
            raise CorruptFileError(f"{path}: {n} rows for {len(rows)} distinct ids in {manifest}")
        start, row_bytes = f.tell(), 4 * dim
        if os.fstat(f.fileno()).st_size != start + n * row_bytes:
            raise CorruptFileError(f"{path}: payload does not hold {n}x{dim} float32 values")
        out = np.empty((len(index), dim), dtype="<f4")
        for i, row in enumerate(index):
            f.seek(start + row * row_bytes)
            if f.readinto(out[i]) != row_bytes or not np.isfinite(out[i]).all():
                raise CorruptFileError(f"{path}: row {row} ({media_ids[i]}) "
                                       f"is short or non-finite")
    return out
