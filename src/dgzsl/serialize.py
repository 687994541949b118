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

Matrix bodies stream in row blocks of at most ``_BLOCK_BYTES`` of float64
(``row_blocks``): the writers cast one block at a time to float32, and the
one body reader checks a header against the file size before anything is
allocated, then reads and checks one block at a time (``open_matrix`` hands
each block to its caller, ``load_matrix`` fills one array from them).
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ShapeError

MATRIX_MAGIC = b"DGZSLM01"
CHECKPOINT_MAGIC = b"DGZSLCK1"
_HEADER = struct.Struct("<II")
# bytes of float64 rows per block when a matrix streams to or from disk
_BLOCK_BYTES = 1 << 22


def row_blocks(rows: int, cols: int):
    """Slices cutting ``rows`` rows of ``cols`` float64 values into blocks of
    at most _BLOCK_BYTES each (one row at least), sized within one row of
    each other: a block holds at least half a budget's worth of rows, so no
    block is a lone straggler row."""
    per = max(1, _BLOCK_BYTES // max(1, 8 * cols))
    count = -(-rows // per)
    return [slice(i * rows // count, (i + 1) * rows // count) for i in range(count)]


def _write_rows(fh, shape, blocks) -> None:
    """Writes the matrix-file header for ``shape``, then each row block as
    float32; the blocks must fill ``shape`` in order."""
    fh.write(MATRIX_MAGIC + _HEADER.pack(*shape))
    rows = 0
    for block in blocks:
        b = np.asarray(block)
        if b.ndim != 2 or b.shape[1] != shape[1]:
            raise ShapeError(f"row block of shape {b.shape} does not fit a {shape} matrix")
        fh.write(np.ascontiguousarray(b, dtype="<f4").data)
        rows += b.shape[0]
        del block, b  # so a producer that computes the next block can reuse this one's memory
    if rows != shape[0]:
        raise ShapeError(f"row blocks hold {rows} rows, the header says {shape[0]}")


def _write_matrix(fh, arr) -> None:
    """Writes one matrix in the matrix-file layout to a binary file object,
    casting one row block at a time."""
    a = np.asarray(arr)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise DataFormatError(f"can only serialize 1-D or 2-D arrays, got shape {a.shape}")
    _write_rows(fh, a.shape, (a[s] for s in row_blocks(*a.shape)))


def matrix_bytes(arr) -> bytes:
    buf = io.BytesIO()
    _write_matrix(buf, arr)
    return buf.getvalue()


@contextmanager
def _atomic_write(path):
    """Writes to a temp file in the same directory, then os.replace()s it
    over ``path``; if the write raises, the temp file goes and ``path`` is
    untouched."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_matrix(path, arr) -> None:
    with _atomic_write(path) as fh:
        _write_matrix(fh, arr)


def save_rows(path, shape, blocks) -> None:
    """Writes a ``shape`` matrix file from row blocks that fill it in order,
    so the whole matrix never has to exist at once."""
    with _atomic_write(path) as fh:
        _write_rows(fh, shape, blocks)


def _read_header(fh, size: int, where: str) -> tuple[int, int]:
    """Reads a matrix header at the position of ``fh``, a file of ``size``
    bytes, and checks that the body it announces fits in the bytes left."""
    magic = fh.read(8)
    if magic != MATRIX_MAGIC:
        raise DataFormatError(f"{where}: bad matrix magic {magic!r}")
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise DataFormatError(f"{where}: truncated matrix header")
    rows, cols = _HEADER.unpack(header)
    n = rows * cols
    end = fh.tell() + 4 * n
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
    blocks = row_blocks(rows, cols)
    direct = out is not None
    if not direct:  # the stage is as tall as the tallest block
        out = np.empty((-(-rows // max(1, len(blocks))), cols), "<f4")
    for s in blocks:
        block = out[s] if direct else out[: s.stop - s.start]
        if fh.readinto(block) != block.nbytes:
            raise DataFormatError(f"{where}: file ended inside the matrix body")
        finite = np.isfinite(block)
        if not finite.all():
            row, col = divmod(int(np.argmin(finite)), cols)
            raise DataFormatError(
                f"{where}: non-finite value {block[row, col]} at row {s.start + row}, column {col}"
            )
        yield s, block


@contextmanager
def open_matrix(path):
    """Opens a matrix file and checks its header against the file size.

    Yields ``(shape, blocks)``. ``blocks`` reads the body as _read_blocks does,
    through one reused float32 stage, and after the last block rejects
    trailing bytes and an empty matrix; so a caller that keeps what it needs
    of each block never holds the whole matrix, and a file passes only once
    it has been read to the end.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        shape = _read_header(fh, size, str(path))

        def blocks():
            yield from _read_blocks(fh, str(path), shape)
            end = fh.tell()
            if end != size:
                raise DataFormatError(f"{path}: {size - end} trailing bytes after matrix body")
            if shape[0] * shape[1] == 0:
                raise DataFormatError(f"{path}: matrix is empty")

        yield shape, blocks()


def load_matrix(path):
    with open_matrix(path) as (shape, blocks):
        arr = np.empty(shape, np.float64)
        for s, block in blocks:
            arr[s] = block
    return arr


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
    a = np.asarray(attributes, dtype=np.float64)
    lines = [
        ",".join([str(i)] + [repr(float(v)) for v in row]) for i, row in enumerate(a)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    Path(path).write_text(
        "".join(f"{int(v)}\n" for v in np.asarray(labels)), encoding="utf-8"
    )


def read_labels(path):
    out = []
    for ln, raw in enumerate(_read_numbers(path).splitlines(), 1):
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
    text = (
        f"seen = {','.join(str(i) for i in seen)}\n"
        f"unseen = {','.join(str(i) for i in unseen)}\n"
        f"train_labels = {train_labels_file}\n"
        f"test_labels = {test_labels_file}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def read_manifest(path) -> dict:
    """Parses the split manifest; label paths are resolved against its dir."""
    base = Path(path).parent
    entries = {}
    for ln, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise DataFormatError(f"{path}:{ln}: duplicate key {key!r}")
        entries[key] = value
    required = {"seen", "unseen", "train_labels", "test_labels"}
    missing = required - entries.keys()
    if missing:
        raise DataFormatError(f"{path}: missing manifest keys {sorted(missing)}")
    unknown = entries.keys() - required
    if unknown:
        raise DataFormatError(f"{path}: unknown manifest keys {sorted(unknown)}")
    return {
        "seen": _parse_ids(entries["seen"], f"{path}: seen"),
        "unseen": _parse_ids(entries["unseen"], f"{path}: unseen"),
        "train_labels": base / entries["train_labels"],
        "test_labels": base / entries["test_labels"],
    }


def save_checkpoint(path, tensors: dict, meta: dict | None = None) -> None:
    items = dict(tensors)
    for key, value in (meta or {}).items():
        items[f"meta.{key}"] = np.array([[float(value)]])
    with _atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(items)))
        for name, arr in items.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            _write_matrix(fh, arr)


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns (tensors, meta) with meta values unpacked from 1×1 tensors.
    Tensors stay float32, as stored: model_from_named casts them into its
    flat vector without a second float64 copy."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint magic {magic!r}")
        head = fh.read(4)
        if len(head) < 4:
            raise DataFormatError(f"{path}: truncated tensor count")
        (count,) = struct.unpack("<I", head)
        tensors, meta, names = {}, {}, set()
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
            arr = np.empty(_read_header(fh, size, where), "<f4")
            for _ in _read_blocks(fh, where, arr.shape, arr):
                pass
            if name.startswith("meta."):
                if arr.shape != (1, 1):
                    raise DataFormatError(f"{path}: meta entry {name!r} is not 1×1")
                meta[name[5:]] = float(arr[0, 0])
            else:
                tensors[name] = arr
        end = fh.tell()
    if end != size:
        raise DataFormatError(f"{path}: {size - end} trailing bytes")
    return tensors, meta
