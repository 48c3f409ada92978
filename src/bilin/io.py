"""Binary file formats.

Feature map (.bfm), "BFM1", little-endian:
    magic   4 bytes  b"BFM1"
    height  u32
    width   u32
    channels u32
    flags   u8       bit0 = rectified; other bits must be 0
    reserved 3 bytes, must be 0
    payload height*width*channels float32, location-major, channel fastest

Gallery model set (.bgm), "BGM1", little-endian:
    magic   4 bytes  b"BGM1"
    count   u32      number of per-identity models
    dim     u32      descriptor dimension
    per model:
        id_len  u16, then id_len bytes of UTF-8 identity id
        w       dim float32
        b, rescale_a, rescale_b   float32 each

Both round-trip bit-exactly.  save_gallery writes the header, the ids
and the tails first, then w a block of columns at a time, each block's
rows cast to float32 one at a time and written at their offsets: a
GalleryModelSet's w is one block, and a GalleryFit forms its weights a
block at a time as they are written, so the writer copies no whole
matrix and a GalleryFit never forms one.  load_gallery reads a .bgm
record by record, each model's w and tail straight into the arrays that
hold them, once the file size covers what the header declares.  Reading
a .bfm and checking its values are apart:
read_feature_map checks the header and the payload size, reading the
file with three system calls between its open and close (the header,
an fstat, one readv of the payload and a byte past it), map_faults
checks the values of a whole (N, H, W, C) stack of maps at once
(finite, and not negative where rectified), FeatureMap.validate checks
one map the same way, and load_feature_map reads and validates.
MapReader reads a chunk of maps into one reused float32 stack and
checks the stack at once: encode reads its media so, and so does
finetune's first pass over its train maps, which keeps each map's
MapFile record (path, shape, flag) but not its values.  Once a chunk's
shape is known, each map takes one readv of its header, its slot of the
stack and a byte past it; a map that does not fit that shape exactly is
read again as read_feature_map reads it, which names what is wrong.
MapReader.reread reads such records again, with the same one readv per
map, and rejects a map whose header, size or values have changed since.

Descriptor store, one per encode run, in one directory:
    descriptors.npy  .npy version 1.0, (n, dim) little-endian float32, C order
    manifest.csv     header "media_id", then the id of each row, in order

Like every stage output (see Outputs), the store is staged: rows stream
into ``descriptors.npy.tmp`` a block at a time, the manifest is staged
after the last row, and both are renamed into place, descriptors first,
only once the run succeeds, so a manifest always names a whole store
(see StoreWriter).  StoreReader checks a store once and then reads the
requested rows a block at a time into one reused buffer, each checked
finite; load_store reads them all at once through it.  StoreReader's
columns reads a block of columns of every requested row instead, one
positioned read per row, so a caller that walks the columns a block at
a time never holds the rows whole.
"""

import functools
import math
import os
import re
import struct
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
# Store rows read and checked finite at once; the check's boolean
# temporary is a quarter of this.
READ_RUN_BYTES = 1 << 18


@dataclass
class FeatureMap:
    """A stored (H, W, C) activation grid plus its rectification flag."""

    values: np.ndarray
    rectified: bool = False

    def validate(self):
        if self.values.ndim != 3:
            raise FormatError(f"expected 3-D values, got shape {self.values.shape}")
        (fault,) = map_faults(self.values[None], [self.rectified])
        if fault:
            raise NumericError(fault)


def map_faults(maps, rectified):
    """What :meth:`FeatureMap.validate` finds wrong with each map of an
    ``(N, H, W, C)`` stack, whose rectification flags are ``rectified``:
    a message, or None for a sound map.  Both tests read one min and one
    max per map: NaN carries through both, and -0.0 is not below 0."""
    low, high = maps.min(axis=(1, 2, 3)), maps.max(axis=(1, 2, 3))
    finite = np.isfinite(low) & np.isfinite(high)
    negative = np.asarray(rectified, dtype=bool) & (low < 0)
    return [None if ok and not neg
            else "feature map contains non-finite values" if not ok
            else "rectified feature map has negative entries"
            for ok, neg in zip(finite.tolist(), negative.tolist())]


def _header(shape, rectified):
    """The 20 header bytes of a .bfm map of ``shape`` (H, W, C)."""
    return BFM_MAGIC + struct.pack("<IIIB3x", *shape, FLAG_RECTIFIED if rectified else 0)


@functools.lru_cache(maxsize=16)
def _flags(shape):
    """The flag of each of the two headers of a .bfm map of ``shape``,
    keyed by its 20 bytes."""
    return {_header(shape, flag): flag for flag in (False, True)}


def save_feature_map(path, values, rectified=False):
    """Write ``values`` (H, W, C), or a :class:`FeatureMap`, as a .bfm map;
    its shape and size are checked before its values are copied to float32."""
    if isinstance(values, FeatureMap):
        values, rectified = values.values, values.rectified
    values = np.asarray(values)
    if values.ndim != 3:
        raise FormatError(f"expected 3-D values, got shape {values.shape}")
    h, w, c = values.shape
    if h * w * c > MAX_MAP_ELEMENTS:
        raise BoundsError(f"map of {h}x{w}x{c} exceeds the format limit")
    fmap = FeatureMap(np.ascontiguousarray(values, dtype=np.float32), rectified)
    fmap.validate()
    with open(path, "wb") as f:
        f.write(_header(fmap.values.shape, fmap.rectified))
        f.write(fmap.values)


def _named(exc, path):
    """The OSError ``exc`` naming ``path``, as open() would: os.read and
    os.readv do not."""
    return OSError(exc.errno, exc.strerror, os.fspath(path))


def _read_header(fd, path):
    """``((H, W, C), rectified)`` from the header of the open .bfm ``fd``,
    checked, once an fstat has sized the payload before anything the
    header declares is allocated."""
    header = os.read(fd, 20)
    if len(header) < 20:
        raise CorruptFileError(f"{path}: truncated header")
    if header[:4] != BFM_MAGIC:
        raise FormatError(f"{path}: bad magic {header[:4]!r}")
    h, w, c, flags, reserved = struct.unpack("<IIIB3s", header[4:])
    if flags & ~FLAG_RECTIFIED:
        raise FormatError(f"{path}: unknown flag bits 0x{flags:02x}")
    if any(reserved):
        raise FormatError(f"{path}: reserved header bytes {reserved.hex(' ')} are not zero")
    if h < 1 or w < 1 or c < 1:
        raise BoundsError(f"{path}: non-positive dimension {h}x{w}x{c}")
    n = h * w * c
    if n > MAX_MAP_ELEMENTS:
        raise BoundsError(f"{path}: {h}x{w}x{c} exceeds the format limit")
    size = os.fstat(fd).st_size - 20
    if size < 4 * n:
        raise CorruptFileError(f"{path}: header declares {n} floats, payload holds {size // 4}")
    return (h, w, c), bool(flags & FLAG_RECTIFIED)


def _read_payload(fd, path, out):
    """Read the payload of the open .bfm ``fd``, past its header, into the
    float32 array ``out``: one readv into ``out`` and a 1-byte buffer,
    which proves the end of the file."""
    got = os.readv(fd, [out, bytearray(1)])
    if got != out.nbytes:  # the file shrank, or holds a byte past the payload
        raise CorruptFileError(
            f"{path}: header declares {out.size} floats, payload holds "
            f"{'more' if got > out.nbytes else got // 4}"
        )


def read_feature_map(path):
    """The map stored at ``path``, with its header and payload size
    checked but not its values (see :func:`map_faults`).

    Between its open and close, a map takes three system calls: a read
    of the 20-byte header, an fstat that sizes the payload before the
    array the header declares is allocated, and one readv into that
    array and a 1-byte buffer, which proves the end of the file.  No
    buffer is sized from the file's length, so a long file with a small
    header costs no more than its header declares.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        shape, rectified = _read_header(fd, path)
        values = np.empty(shape, dtype="<f4")
        _read_payload(fd, path, values)
    except OSError as exc:
        raise _named(exc, path) from None
    finally:
        os.close(fd)
    return FeatureMap(values, rectified)


def load_feature_map(path):
    """The map stored at ``path``, read and validated."""
    fmap = read_feature_map(path)
    fmap.validate()
    return fmap


class MapFile(NamedTuple):
    """A .bfm map's path, with the (H, W, C) shape and the flag its header
    declared when :meth:`MapReader.chunks` read it."""

    path: str
    shape: tuple
    rectified: bool


class MapReader:
    """Reads .bfm maps a chunk at a time into one reused float32
    ``(n, H, W, C)`` stack, grown to the largest chunk, and checks each
    chunk's values as one stack (see :func:`map_faults`).

    :meth:`chunks` reads maps in order and cuts them into chunks of one
    shape; :meth:`reread` reads again maps that :meth:`chunks` found
    sound.  Each gives views of the stack, which the next read overwrites.
    Both read a map of a known shape with one readv of its header, its
    slot of the stack and a byte past it (see :meth:`_readv`).
    """

    def __init__(self):
        self._buffer = np.empty(0, dtype="<f4")
        self._head, self._tail = bytearray(20), bytearray(1)

    def _stack(self, n, shape):
        size = n * math.prod(shape)
        if size > self._buffer.size:
            self._buffer = None  # so the old buffer is freed first
            self._buffer = np.empty(size, dtype="<f4")
        return self._buffer[:size].reshape(n, *shape)

    def _readv(self, fd, path, slot):
        """Read the open map ``fd`` from its start with one readv into the
        20-byte header buffer, ``slot`` and a byte past it: the flag of its
        header if that is a header of ``slot``'s shape, else None, and
        whether the file held exactly the header and the slot."""
        try:
            got = os.readv(fd, [self._head, slot, self._tail])
        except OSError as exc:
            raise _named(exc, path) from None
        return _flags(slot.shape).get(bytes(self._head)), got == 20 + slot.nbytes

    def _read(self, path, slot):
        """``(shape, flag)`` of the map at ``path``, read into ``slot`` if it
        has ``slot``'s shape; ``(shape, None)``, with nothing read into
        the slot, if it has another or ``slot`` is None.  A map that does
        not fill ``slot`` with one readv is read again by the checked
        path, header, fstat and payload, which names what is wrong."""
        fd = os.open(path, os.O_RDONLY)
        try:
            if slot is not None:
                flag, whole = self._readv(fd, path, slot)
                if flag is not None and whole:
                    return slot.shape, flag
                os.lseek(fd, 0, os.SEEK_SET)
            shape, flag = _read_header(fd, path)
            if slot is None or shape != slot.shape:
                return shape, None
            _read_payload(fd, path, slot)
            return shape, flag
        finally:
            os.close(fd)

    def chunks(self, paths, room, failures):
        """Read the maps at ``paths`` in order and yield them in chunks of
        one shape, at most ``room(shape)`` maps each, as ``(positions,
        maps, rectified)``: the maps' positions in ``paths``, their
        ``(k, H, W, C)`` stack and their flags.  A map that cannot be read
        goes to ``failures`` as (position, message) instead; one whose
        values fail goes there too, and stays in its chunk.  No map's
        file is open while a chunk is yielded."""
        positions, rectified, stack = [], [], None
        for position, path in enumerate(paths):
            flag = None
            while flag is None:  # at most twice: the map starts a new chunk
                try:
                    shape, flag = self._read(path, None if stack is None
                                             else stack[len(positions)])
                except FormatError as exc:
                    failures.append((position, str(exc)))
                    break
                except OSError as exc:
                    failures.append((position, str(_named(exc, path))))
                    break
                if flag is None:  # the first map of another shape
                    if positions:
                        yield self._checked(positions, stack, rectified, failures)
                        positions, rectified = [], []
                    stack = self._stack(room(shape), shape)
            else:
                positions.append(position)
                rectified.append(flag)
                if len(positions) == len(stack):
                    yield self._checked(positions, stack, rectified, failures)
                    positions, rectified = [], []
        if positions:
            yield self._checked(positions, stack, rectified, failures)

    @staticmethod
    def _checked(positions, stack, rectified, failures):
        maps = stack[:len(positions)]
        failures += [(position, fault) for position, fault
                     in zip(positions, map_faults(maps, rectified)) if fault]
        return positions, maps, rectified

    def reread(self, files):
        """The maps of ``files``, MapFile records of one shape, read again
        as an ``(n, H, W, C)`` view of the stack.  Each takes one readv of
        its header, its payload and a byte past it.  A map whose header,
        size or values have changed since its record was made is a
        CorruptFileError naming its file."""
        stack = self._stack(len(files), files[0].shape)
        for f, slot in zip(files, stack):
            fd = os.open(f.path, os.O_RDONLY)
            try:
                flag, whole = self._readv(fd, f.path, slot)
            finally:
                os.close(fd)
            if flag != f.rectified:
                raise CorruptFileError(f"{f.path}: header changed since the first read")
            if not whole:
                raise CorruptFileError(f"{f.path}: payload size changed since the first read")
        for f, fault in zip(files, map_faults(stack, [f.rectified for f in files])):
            if fault:
                raise CorruptFileError(f"{f.path}: changed since the first read: {fault}")
        return stack


def save_gallery(path, gallery):
    """Write ``gallery`` as a .bgm: a :class:`bilin.svm.GalleryModelSet`,
    whose ``w`` is one block of columns, or a :class:`bilin.svm.GalleryFit`,
    whose weights come a block of columns at a time.  The header, the ids
    and the tails are written first, leaving room for each model's ``w``;
    then each block's rows are cast to float32 a row at a time and
    written at their offsets.  So the writer copies no whole matrix, and
    a GalleryFit's (k, dim) weights are never formed at all."""
    ids = [identity_id.encode("utf-8") for identity_id in gallery.identity_ids]
    for identity_id, raw in zip(gallery.identity_ids, ids):
        if len(raw) > 0xFFFF:
            raise FormatError(f"identity id too long: {identity_id!r}")
    dim = gallery.descriptor_dim
    tail = np.stack([gallery.b, gallery.rescale_a, gallery.rescale_b],
                    axis=1).astype("<f4")
    with open(path, "wb") as f:
        f.write(BGM_MAGIC)
        f.write(struct.pack("<II", len(ids), dim))
        starts = []  # where each model's w begins
        for raw, tail_row in zip(ids, tail):
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            starts.append(f.tell())
            f.seek(4 * dim, os.SEEK_CUR)
            f.write(tail_row)
        lo = 0
        for block in gallery.column_blocks():
            for start, row in zip(starts, block):
                f.seek(start + 4 * lo)
                f.write(row.astype("<f4"))
            lo += block.shape[1]


def load_gallery(path):
    """Read a .bgm file, record by record; its values must be finite with
    rescale_a > 0."""
    with open(path, "rb") as f:
        header = f.read(12)
        if len(header) < 12:
            raise CorruptFileError(f"{path}: truncated header")
        if header[:4] != BGM_MAGIC:
            raise FormatError(f"{path}: bad magic {header[:4]!r}")
        count, dim = struct.unpack_from("<II", header, 4)
        if dim < 1:
            raise BoundsError(f"{path}: non-positive descriptor dim")
        record = 4 * dim + 12  # w, b, rescale_a, rescale_b
        size = os.fstat(f.fileno()).st_size
        if count * (2 + record) > size - 12:
            raise CorruptFileError(f"{path}: truncated model record")
        ids = []
        w = np.empty((count, dim), dtype="<f4")
        tail = np.empty((count, 3), dtype="<f4")
        offset = 12
        for j in range(count):
            raw = f.read(2)
            if len(raw) < 2:
                raise CorruptFileError(f"{path}: truncated model record")
            (id_len,) = struct.unpack("<H", raw)
            offset += 2 + id_len + record
            if offset > size:
                raise CorruptFileError(f"{path}: truncated model record")
            try:
                ids.append(f.read(id_len).decode("utf-8"))
            except UnicodeDecodeError:
                raise CorruptFileError(f"{path}: identity id of model {j} is not UTF-8") from None
            if f.readinto(w[j]) + f.readinto(tail[j]) != record:  # the file shrank
                raise CorruptFileError(f"{path}: truncated model record")
    if offset != size:
        raise CorruptFileError(f"{path}: {size - offset} trailing bytes")
    if not (np.isfinite(w).all() and np.isfinite(tail).all()):
        raise ModelValueError(f"{path}: non-finite model values")
    b, rescale_a, rescale_b = tail.T.astype(np.float64)
    if not (rescale_a > 0).all():
        raise ModelValueError(f"{path}: rescale_a must be positive")
    try:
        return GalleryModelSet(ids, w, b, rescale_a, rescale_b)
    except ProtocolError as exc:  # duplicate or unsorted ids
        raise CorruptFileError(f"{path}: {exc}") from None


class Outputs:
    """Stages a run's files in ``out_dir``, which gets all of them or none.

    :meth:`path` names the ``<name>.tmp`` to write ``name`` to, and
    :meth:`commit` renames the staged files in the order they were named,
    after removing the old copy of the last, which marks a finished run.
    Leaving the ``with`` block without a commit deletes every temporary
    and every directory the run made.

    ``owns``, a regular expression, names the files of ``out_dir`` that
    a run replaces as a set: the commit also removes each file whose name
    matches it in full and that the run did not stage.
    """

    def __init__(self, out_dir, owns=None):
        self.out_dir = Path(out_dir)
        self._owns = owns
        self._names = []
        self._made = []  # directories this run created, deepest first

    def __enter__(self):
        return self

    def path(self, name):
        if not self._names:
            d = self.out_dir
            while not d.exists():
                self._made.append(d)
                d = d.parent
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self._names.append(name)
        return self.out_dir / f"{name}.tmp"

    def commit(self):
        if self._names:  # so a crash between renames leaves no marker
            (self.out_dir / self._names[-1]).unlink(missing_ok=True)
        for name in self._names:
            os.replace(self.out_dir / f"{name}.tmp", self.out_dir / name)
        if self._owns is not None and self.out_dir.exists():
            for path in self.out_dir.iterdir():
                if re.fullmatch(self._owns, path.name) and path.name not in self._names:
                    path.unlink()
        self._names, self._made = [], []  # the directories hold the outputs now

    def __exit__(self, *exc_info):
        for name in self._names:
            (self.out_dir / f"{name}.tmp").unlink(missing_ok=True)
        for d in self._made:
            try:
                d.rmdir()
            except OSError:  # it holds files this run did not write
                break


class StoreWriter:
    """Streams the rows of one encode run into a store staged in ``out``.

    Rows come in ``(k, dim)`` blocks, one per :meth:`write`; each is
    cast into one reused float32 buffer, grown to the largest block, and
    appended at once, after the header at the first block.  :meth:`finish`
    checks the row count and stages the manifest for ``out.commit()``.
    """

    def __init__(self, out, media_ids):
        self.out = out
        self.media_ids = list(media_ids)
        self._file = None
        self._buffer = None
        self._rows = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._file is not None:
            self._file.close()

    def write(self, rows):
        """Append a ``(k, dim)`` block of rows.  Any other shape, or a
        block of another dim than the first row's, is a ShapeError and is
        not written."""
        block = np.asarray(rows)
        if block.ndim != 2:
            raise ShapeError(f"a store takes a (k, dim) block of rows, got shape {block.shape}")
        k, dim = block.shape
        if self._file is None:
            self._file = open(self.out.path(STORE_FILE), "wb")
            np.lib.format.write_array_header_1_0(self._file, {
                "descr": "<f4", "fortran_order": False, "shape": (len(self.media_ids), dim)})
            self._buffer = np.empty((k, dim), dtype="<f4")
        if dim != self._buffer.shape[1]:
            raise ShapeError(f"one store holds one descriptor dim: row {self._rows} "
                             f"has dim {dim}, row 0 dim {self._buffer.shape[1]}")
        if k > len(self._buffer):
            self._buffer = np.empty((k, dim), dtype="<f4")
        np.copyto(self._buffer[:k], block, casting="same_kind")
        self._file.write(self._buffer[:k])
        self._rows += k

    def finish(self):
        """Stage the manifest once every row has been written."""
        n = len(self.media_ids)
        if self._file is None or self._rows != n:
            raise ShapeError(f"a store of {n} rows got {self._rows}")
        self._file.close()
        with open(self.out.path(MANIFEST_FILE), "w", encoding="utf-8") as f:
            # a line at a time, not joined into one string first
            f.writelines(f"{m}\n" for m in ["media_id", *self.media_ids])


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


class StoreReader:
    """Rows of the store in ``store_dir`` for ``media_ids``, in that order,
    read a block at a time.

    Opening checks the store once: the manifest names every requested
    id, and ``descriptors.npy`` is a 2-D C-order <f4 array with one row
    per manifest id and a payload that fills the file exactly.  A missing
    manifest, or a medium it does not name, is a ConfigError; a malformed
    store is a FormatError.  :meth:`read` then reads only the requested
    rows, each checked finite as it is read.
    """

    def __init__(self, store_dir, media_ids):
        store_dir = Path(store_dir)
        manifest = store_dir / MANIFEST_FILE
        if not manifest.is_file():
            raise ConfigError(f"no descriptor store at {store_dir}")
        # ids are ASCII; a corrupt byte just makes an id that names no medium
        lines = manifest.read_text(encoding="utf-8", errors="replace").splitlines()
        if lines[:1] != ["media_id"]:
            raise FormatError(f"{manifest}: header must be exactly media_id")
        rows = {media_id: row for row, media_id in enumerate(lines[1:])}
        self.media_ids = list(media_ids)
        try:
            self._index = np.array([rows[m] for m in self.media_ids], dtype=np.int64)
        except KeyError as exc:
            raise ConfigError(f"{manifest} names no medium {exc.args[0]!r}") from None
        self.path = store_dir / STORE_FILE
        self._file = open(self.path, "rb")
        try:
            n, self.dim = _read_store_header(self._file, self.path)
            if n != len(rows):  # also catches a duplicate id
                raise CorruptFileError(f"{self.path}: {n} rows for {len(rows)} distinct "
                                       f"ids in {manifest}")
            self._start = self._file.tell()
            if os.fstat(self._file.fileno()).st_size != self._start + n * 4 * self.dim:
                raise CorruptFileError(f"{self.path}: payload does not hold "
                                       f"{n}x{self.dim} float32 values")
        except BaseException:
            self._file.close()
            raise
        self._buffer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def read(self, lo, hi):
        """Rows ``lo:hi`` of the requested ids, as a (hi - lo, dim) view of
        one reused float32 buffer, grown to the largest block read; the
        next read overwrites it."""
        k, row_bytes = hi - lo, 4 * self.dim
        if self._buffer is None or k > len(self._buffer):
            self._buffer = None  # so the old buffer is freed first
            self._buffer = np.empty((k, self.dim), dtype="<f4")
        out, index = self._buffer[:k], self._index[lo:hi]
        # one read per run of consecutive store rows, checked before the
        # next; a run holds at most READ_RUN_BYTES of rows (or one row)
        run = max(1, READ_RUN_BYTES // row_bytes)
        starts = np.flatnonzero((np.diff(index, prepend=-2) != 1)
                                | (np.arange(k) % run == 0)).tolist()
        for i, j in zip(starts, [*starts[1:], k]):
            self._file.seek(self._start + int(index[i]) * row_bytes)
            whole = self._file.readinto(out[i:j]) // row_bytes
            ok = np.isfinite(out[i:i + whole]).all(axis=1)
            bad = i + int(np.argmin(np.append(ok, False)))  # first non-finite or unread
            if bad < j:
                raise CorruptFileError(f"{self.path}: row {index[bad]} "
                                       f"({self.media_ids[lo + bad]}) is short or non-finite")
        return out

    @property
    def shape(self):
        """(requested rows, dim): the shape of what :meth:`read` reads whole."""
        return len(self.media_ids), self.dim

    def columns(self, lo, hi):
        """Columns ``lo:hi`` of every requested row, ``hi`` clipped at
        ``dim``, as a new (rows, hi - lo) float32 array: one positioned
        read per row, each row checked finite."""
        hi = min(hi, self.dim)
        out = np.empty((len(self._index), hi - lo), dtype="<f4")
        fd = self._file.fileno()
        offsets = (self._start + 4 * (self.dim * self._index + lo)).tolist()
        got = [os.preadv(fd, [row], offset) for row, offset in zip(out, offsets)]
        ok = (np.array(got) == 4 * (hi - lo)) & np.isfinite(out).all(axis=1)
        bad = int(np.argmin(np.append(ok, False)))  # the first non-finite or short row
        if bad < len(ok):
            raise CorruptFileError(f"{self.path}: row {self._index[bad]} "
                                   f"({self.media_ids[bad]}) is short or non-finite")
        return out


def load_store(store_dir, media_ids):
    """Every row of :class:`StoreReader` ``(store_dir, media_ids)``, as one
    (len(media_ids), dim) float32 array."""
    with StoreReader(store_dir, media_ids) as store:
        return store.read(0, len(store.media_ids))
