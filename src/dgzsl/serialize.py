"""On-disk formats: matrices, attribute tables, split manifests, checkpoints.

Matrix file: 8-byte magic ``DGZSLM01``, two unsigned 32-bit little-endian
ints (rows, cols), then rows×cols little-endian float32 values, row-major.

Attribute file: UTF-8 CSV; first column is a 0-based integer class id, the
remaining columns are that class's attribute vector. Ids must form a
permutation of 0..C−1.

Split manifest: UTF-8 ``key = value`` lines with keys ``seen``, ``unseen``
(comma-separated class ids) and ``train_labels``, ``test_labels`` (label file
paths, one integer per line, resolved relative to the manifest).

Checkpoint: 8-byte magic ``DGZSLCK1``, u32 tensor count, then per tensor a
u32 name length, the UTF-8 name, and the tensor in the matrix-file layout.
Scalar metadata rides along as 1×1 tensors named ``meta.<key>``.

Matrix bodies stream in row blocks of at most ``_BLOCK_BYTES`` of the array
a block is cut from or read into (``row_blocks``): the writers cut their
source, float64 or float32, and cast one block at a time to float32,
rejecting a finite value that float32 cannot hold; the one body reader
checks a header against the file size before anything is allocated, then
reads and checks one float32 block at a time (``open_matrix`` hands
each block to its caller, ``load_matrix`` fills one array of the caller's
dtype from them, or reads a float32 one in place, and ``load_checkpoint``
reads every header first, then each tensor body into the array its caller
allocated for it).

Every output file is written whole to a temp file beside it, preallocated
to its exact size, then renamed over its path (``_atomic_write``; the text
files, ``eval.json`` among them, go through ``save_text`` as UTF-8); an
empty file is not preallocated, nothing is fsynced, and a failure to open or
rename the temp file names the path.
"""

from __future__ import annotations

import errno
import math
import os
import struct
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ShapeError

MATRIX_MAGIC = b"DGZSLM01"
CHECKPOINT_MAGIC = b"DGZSLCK1"
_HEADER = struct.Struct("<II")
# bytes per row block when a matrix streams to or from disk, counted in the
# array the block is cut from (a writer's source) or read into (a reader's
# float32 stage): a 2,048-wide file is read in 512-row blocks, so a product
# over a block spreads the packing of its weight over that many rows
_BLOCK_BYTES = 1 << 22


def _matrix_nbytes(values: int) -> int:
    """Bytes of a matrix file (or checkpoint entry) holding ``values``
    float32 values: magic, header, body."""
    return len(MATRIX_MAGIC) + _HEADER.size + 4 * values


def row_blocks(rows: int, cols: int, itemsize: int):
    """Slices cutting ``rows`` rows of ``cols`` values of ``itemsize`` bytes
    into blocks of at most _BLOCK_BYTES each (one row at least), sized within
    one row of each other: a block holds at least half a budget's worth of
    rows, so no block is a lone straggler row."""
    per = max(1, _BLOCK_BYTES // max(1, itemsize * cols))
    count = -(-rows // per)
    return [slice(i * rows // count, (i + 1) * rows // count) for i in range(count)]


def as_float32(b, first: int, where: str, out=None):
    """Row block ``b`` (rows ``first``… of its matrix) as contiguous float32,
    cast into ``out`` (a float32 array of its shape) when given. A finite
    value that float32 cannot hold, which the cast would turn into ±inf, is
    a DataFormatError naming its row, column and value; NaN and ±inf pass as
    they are."""
    try:
        with np.errstate(over="raise"):
            if out is None:
                return np.ascontiguousarray(b, dtype="<f4")
            np.copyto(out, b)
            return out
    except FloatingPointError:
        with np.errstate(over="ignore"):
            lost = np.isfinite(b) & ~np.isfinite(b.astype("<f4"))
        row, col = divmod(int(np.argmax(lost)), b.shape[1])
        raise DataFormatError(
            f"{where}: value {b[row, col]} at row {first + row}, column {col} does not fit in float32"
        ) from None


def check_finite(b, first: int, where: str) -> None:
    """A NaN or ±inf in row block ``b`` (rows ``first``… of its matrix) is a
    DataFormatError naming the first one's row, column and value."""
    finite = np.isfinite(b)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), b.shape[1])
        raise DataFormatError(f"{where}: non-finite value {b[row, col]} at row {first + row}, column {col}")


def _write_rows(fh, shape, blocks, where: str) -> None:
    """Writes the matrix-file header for ``shape``, then each row block as
    float32 (as_float32); the blocks must fill ``shape`` in order."""
    fh.write(MATRIX_MAGIC + _HEADER.pack(*shape))
    rows = 0
    for block in blocks:
        b = np.asarray(block)
        if b.ndim != 2 or b.shape[1] != shape[1]:
            raise ShapeError(f"{where}: row block of shape {b.shape} does not fit a {shape} matrix")
        fh.write(as_float32(b, rows, where).data)
        rows += b.shape[0]
        del block, b  # so a producer that computes the next block can reuse this one's memory
    if rows != shape[0]:
        raise ShapeError(f"{where}: row blocks hold {rows} rows, the header says {shape[0]}")


def _write_matrix(fh, arr, where: str) -> None:
    """Writes one matrix in the matrix-file layout to a binary file object,
    casting one row block of ``arr`` at a time; ``where`` names it in
    errors."""
    a = np.asarray(arr)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise DataFormatError(f"can only serialize 1-D or 2-D arrays, got shape {a.shape}")
    _write_rows(fh, a.shape, (a[s] for s in row_blocks(*a.shape, a.itemsize)), where)


def _preallocate(fh, size: int, path) -> None:
    """Allocates ``size`` bytes of disk for the empty file ``fh`` before it is
    written. A file whose blocks are allocated has nothing for the
    filesystem to flush when it replaces an existing file (ext4's
    auto_da_alloc does so on rename, which can cost far more than the write
    itself). Where the call is missing or the filesystem does not support
    it, the file is written as it comes; any other failure, such as a full
    disk, is raised naming ``path`` before a byte is written."""
    fallocate = getattr(os, "posix_fallocate", None)
    # an empty file has nothing to allocate, and a zero length is EINVAL
    if fallocate is None or size == 0:
        return
    try:
        fallocate(fh.fileno(), 0, size)
    except OSError as e:
        if e.errno not in (errno.EOPNOTSUPP, errno.ENOTSUP):
            raise OSError(e.errno, e.strerror, str(path)) from None


@contextmanager
def _atomic_write(path, size: int):
    """Writes the ``size`` bytes of a file to a preallocated temp file in the
    same directory, then os.replace()s it over ``path``; if the write raises,
    or writes other than ``size`` bytes, the temp file goes and ``path`` is
    untouched. An OSError opening or renaming the temp file names ``path``."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _preallocate(fh, size, path)
            yield fh
            if fh.tell() != size:
                raise DataFormatError(f"{path}: wrote {fh.tell()} bytes, expected {size}")
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp):  # opening or renaming the temp file
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def save_text(path, text: str) -> None:
    """Writes ``text`` as UTF-8 through _atomic_write."""
    data = text.encode("utf-8")
    with _atomic_write(path, len(data)) as fh:
        fh.write(data)


def save_matrix(path, arr) -> None:
    with _atomic_write(path, _matrix_nbytes(np.size(arr))) as fh:
        _write_matrix(fh, arr, str(path))


def save_rows(path, shape, blocks, then=None) -> None:
    """Writes a ``shape`` matrix file from row blocks that fill it in order,
    so the whole matrix never has to exist at once. ``then()``, if given,
    runs once the body is written and before the file replaces ``path``:
    if it raises, ``path`` is left as it was."""
    with _atomic_write(path, _matrix_nbytes(shape[0] * shape[1])) as fh:
        _write_rows(fh, shape, blocks, str(path))
        if then is not None:
            then()


def _read_header(fh, size: int, where: str) -> tuple[int, int]:
    """Reads a matrix header at the position of ``fh``, a file of ``size``
    bytes, and checks that the body it announces fits in the bytes left."""
    start = fh.tell()
    magic = fh.read(8)
    if magic != MATRIX_MAGIC:
        raise DataFormatError(f"{where}: bad matrix magic {magic!r}")
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise DataFormatError(f"{where}: truncated matrix header")
    rows, cols = _HEADER.unpack(header)
    n = rows * cols
    end = start + _matrix_nbytes(n)
    if size < end:
        raise DataFormatError(
            f"{where}: expected {n} float32 values, file is short by {end - size} bytes"
        )
    return rows, cols


def _read_blocks(fh, where: str, shape, out=None):
    """Reads a ``shape`` matrix body from the position of ``fh`` one row block
    at a time, and yields (row slice, float32 block) once each block is
    checked for NaN and ±inf.

    Blocks are read into the rows of ``out`` (a float32 array of ``shape``)
    when it is given, else into one reused stage: such a block is only valid
    until the next one.
    """
    rows, cols = shape
    blocks = row_blocks(rows, cols, 4)
    direct = out is not None
    if not direct:  # the stage is as tall as the tallest block
        out = np.empty((-(-rows // max(1, len(blocks))), cols), "<f4")
    for s in blocks:
        block = out[s] if direct else out[: s.stop - s.start]
        if fh.readinto(block) != block.nbytes:
            raise DataFormatError(f"{where}: file ended inside the matrix body")
        check_finite(block, s.start, where)
        yield s, block


@contextmanager
def open_matrix(path):
    """Opens a matrix file and checks its header against the file size.

    Yields ``(shape, blocks)``. ``blocks(out=None)`` reads the body as
    _read_blocks does, into ``out`` or through one reused float32 stage, and
    after the last block rejects trailing bytes and an empty matrix; so a
    caller that keeps what it needs of each block never holds the whole
    matrix, and a file passes only once it has been read to the end.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        shape = _read_header(fh, size, str(path))

        def blocks(out=None):
            yield from _read_blocks(fh, str(path), shape, out)
            end = fh.tell()
            if end != size:
                raise DataFormatError(f"{path}: {size - end} trailing bytes after matrix body")
            if shape[0] * shape[1] == 0:
                raise DataFormatError(f"{path}: matrix is empty")

        yield shape, blocks


def _fill(blocks, arr):
    """Reads a matrix body into ``arr`` through ``blocks(out)`` (as
    open_matrix yields it): straight in when ``arr`` is float32, else one
    block at a time through the reader's float32 stage."""
    direct = arr.dtype == np.dtype("<f4")
    for s, block in blocks(arr if direct else None):
        if not direct:
            arr[s] = block
    return arr


def load_matrix(path, dtype=np.float64):
    """The whole matrix of a file in one ``dtype`` array; float32 is read
    straight into it."""
    with open_matrix(path) as (shape, blocks):
        return _fill(blocks, np.empty(shape, dtype))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e}") from None


def plain_number_text(text: str) -> bool:
    """Whether ``text`` may hold numbers: ASCII without ``_``. int() and
    float() would also read ``1_0`` as 10 and ``٣`` as 3, which no file
    format, config value or command-line number here allows."""
    return text.isascii() and "_" not in text


def _read_numbers(path) -> str:
    """The text of a file that holds only numbers (plain_number_text). The
    error names the line of the first character the rule rejects."""
    text = _read_text(path)
    if plain_number_text(text):
        return text
    at = next(i for i, c in enumerate(text) if c == "_" or not c.isascii())
    line = len(text[: at + 1].splitlines())
    raise DataFormatError(f"{path}:{line}: {text[at]!r} in a number; numbers are plain ASCII")


def write_attribute_csv(path, attributes) -> None:
    # Python floats from tolist() format as the NumPy scalars would, faster
    a = np.asarray(attributes, dtype=np.float64).tolist()
    lines = [",".join([str(i), *map(repr, row)]) for i, row in enumerate(a)]
    save_text(path, "\n".join(lines) + "\n")


def read_attribute_csv(path):
    """Returns the C×M attribute matrix indexed by class id."""
    rows = {}
    width = None
    for ln, raw in enumerate(_read_numbers(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) < 2:
            raise DataFormatError(f"{path}:{ln}: need a class id plus attributes")
        try:
            cid = int(cells[0])
            vals = [float(c) for c in cells[1:]]
        except ValueError as e:
            raise DataFormatError(f"{path}:{ln}: {e}") from None
        bad = [c.strip() for c, v in zip(cells[1:], vals) if not math.isfinite(v)]
        if bad:
            raise DataFormatError(f"{path}:{ln}: non-finite attribute {bad[0]!r}")
        if cid < 0:
            raise DataFormatError(f"{path}:{ln}: negative class id {cid}")
        if cid in rows:
            raise DataFormatError(f"{path}:{ln}: duplicate class id {cid}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DataFormatError(
                f"{path}:{ln}: expected {width} attributes, got {len(vals)}"
            )
        rows[cid] = vals
    if not rows:
        raise DataFormatError(f"{path}: no attribute rows")
    count = len(rows)
    if sorted(rows) != list(range(count)):
        raise DataFormatError(
            f"{path}: class ids must be exactly 0..{count - 1}, got {sorted(rows)}"
        )
    return np.array([rows[i] for i in range(count)], dtype=np.float64)


def write_labels(path, labels) -> None:
    ids = np.asarray(labels, dtype=np.int64).tolist()
    save_text(path, "".join(f"{v}\n" for v in ids))


def read_labels(path):
    """One int64 label per line; blank lines are skipped. A file ending in a
    newline is read in one pass of int(), which strips whitespace as the
    line loop does and rejects a blank line, an inner space or a line break
    other than \\n; on any fault the line loop reads it again and names the
    line."""
    text = _read_numbers(path)
    if text.endswith("\n"):
        try:
            return np.fromiter(map(int, text.split("\n")[:-1]), dtype=np.int64)
        except (ValueError, OverflowError):
            pass
    return _label_lines(text, path)


def _label_lines(text: str, path):
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            label = int(line)
        except ValueError:
            raise DataFormatError(f"{path}:{ln}: not an integer label: {line!r}") from None
        if not -(2**63) <= label < 2**63:
            raise DataFormatError(f"{path}:{ln}: label out of range: {line!r}")
        out.append(label)
    return np.array(out, dtype=np.int64)


def _parse_ids(text: str, where: str):
    if not plain_number_text(text):
        raise DataFormatError(f"{where}: not plain ASCII integers: {text!r}")
    try:
        ids = [int(t) for t in text.replace(",", " ").split()]
    except ValueError as e:
        raise DataFormatError(f"{where}: {e}") from None
    if len(set(ids)) != len(ids):
        raise DataFormatError(f"{where}: duplicate class ids")
    return tuple(ids)


def write_manifest(path, seen, unseen, train_labels_file, test_labels_file) -> None:
    save_text(
        path,
        f"seen = {','.join(str(i) for i in seen)}\n"
        f"unseen = {','.join(str(i) for i in unseen)}\n"
        f"train_labels = {train_labels_file}\n"
        f"test_labels = {test_labels_file}\n",
    )


def read_key_values(text: str, where: str, keys, error) -> dict:
    """key -> (line number, value) of the ``key = value`` lines of a config
    or manifest, skipping blank and ``#`` lines. A line without ``=``, a key
    not in ``keys`` or a repeated one raises ``error`` naming ``where:line``."""
    entries = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{where}:{ln}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in keys:
            raise error(f"{where}:{ln}: unknown key {key!r}")
        if key in entries:
            raise error(f"{where}:{ln}: duplicate key {key!r}")
        entries[key] = ln, value.strip()
    return entries


def read_manifest(path) -> dict:
    """Parses the split manifest; label paths are resolved against its dir."""
    keys = ("seen", "unseen", "train_labels", "test_labels")
    entries = read_key_values(_read_text(path), str(path), keys, DataFormatError)
    missing = set(keys) - entries.keys()
    if missing:
        raise DataFormatError(f"{path}: missing manifest keys {sorted(missing)}")
    seen, unseen, train, test = (entries[key][1] for key in keys)
    base = Path(path).parent
    return {
        "seen": _parse_ids(seen, f"{path}: seen"),
        "unseen": _parse_ids(unseen, f"{path}: unseen"),
        "train_labels": base / train,
        "test_labels": base / test,
    }


def save_checkpoint(path, tensors: dict, meta: dict | None = None) -> None:
    items = dict(tensors)
    for key, value in (meta or {}).items():
        items[f"meta.{key}"] = np.array([[float(value)]])
    size = len(CHECKPOINT_MAGIC) + 4 + sum(
        4 + len(name.encode("utf-8")) + _matrix_nbytes(np.size(arr)) for name, arr in items.items()
    )
    with _atomic_write(path, size) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(items)))
        for name, arr in items.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            _write_matrix(fh, arr, f"{path}[{name}]")


def _float32_arrays(shapes, meta) -> dict:
    return {name: np.empty(shape, "<f4") for name, shape in shapes.items()}


def load_checkpoint(path, allocate=_float32_arrays) -> tuple[dict, dict]:
    """Returns (tensors, meta) with meta values unpacked from 1×1 tensors.

    The file is read in two passes. The first reads every entry's name and
    header, checks them against the file size, and reads the meta entries.
    ``allocate(shapes, meta)`` then gets the stored shape of every tensor
    (name -> (rows, cols)) and returns the arrays they are read into, name ->
    float32 or float64 array of that size; the default is one float32 array
    per tensor, as stored, and ``train`` passes the views of one model's
    flat vector. The second pass reads each body once, straight into its
    array or through the float32 stage one block at a time. So a faulty
    value in a body is reported after every fault of the entries, the meta
    and ``allocate``'s checks.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint magic {magic!r}")
        head = fh.read(4)
        if len(head) < 4:
            raise DataFormatError(f"{path}: truncated tensor count")
        (count,) = struct.unpack("<I", head)
        bodies, meta, names = {}, {}, set()  # bodies: name -> (shape, offset)
        for _ in range(count):
            head = fh.read(4)
            if len(head) < 4:
                raise DataFormatError(f"{path}: truncated tensor name header")
            (nlen,) = struct.unpack("<I", head)
            try:
                name = fh.read(min(nlen, size - fh.tell())).decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataFormatError(f"{path}: tensor name is not UTF-8: {e}") from None
            if name in names:
                raise DataFormatError(f"{path}: tensor {name!r} appears twice")
            names.add(name)
            where = f"{path}[{name}]"
            shape = _read_header(fh, size, where)
            if name.startswith("meta."):
                for _, block in _read_blocks(fh, where, shape):
                    pass
                if shape != (1, 1):
                    raise DataFormatError(f"{path}: meta entry {name!r} is not 1×1")
                meta[name[5:]] = float(block[0, 0])
            else:
                bodies[name] = shape, fh.tell()
                fh.seek(4 * shape[0] * shape[1], os.SEEK_CUR)
        end = fh.tell()
        if end != size:
            raise DataFormatError(f"{path}: {size - end} trailing bytes")
        tensors = allocate({name: shape for name, (shape, _) in bodies.items()}, meta)
        for name, (shape, offset) in bodies.items():
            fh.seek(offset)
            _fill(partial(_read_blocks, fh, f"{path}[{name}]", shape), tensors[name].reshape(shape))
    return tensors, meta
