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
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError

MATRIX_MAGIC = b"DGZSLM01"
CHECKPOINT_MAGIC = b"DGZSLCK1"
_HEADER = struct.Struct("<II")


def matrix_bytes(arr) -> bytes:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise DataFormatError(f"can only serialize 1-D or 2-D arrays, got shape {a.shape}")
    rows, cols = a.shape
    body = np.ascontiguousarray(a, dtype="<f4").tobytes()
    return MATRIX_MAGIC + _HEADER.pack(rows, cols) + body


def save_matrix(path, arr) -> None:
    Path(path).write_bytes(matrix_bytes(arr))


def _matrix_from(buf: bytes, offset: int, where: str) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 8] != MATRIX_MAGIC:
        raise DataFormatError(f"{where}: bad matrix magic {buf[offset:offset+8]!r}")
    offset += 8
    if len(buf) < offset + _HEADER.size:
        raise DataFormatError(f"{where}: truncated matrix header")
    rows, cols = _HEADER.unpack_from(buf, offset)
    offset += _HEADER.size
    n = rows * cols
    end = offset + 4 * n
    if len(buf) < end:
        raise DataFormatError(
            f"{where}: expected {n} float32 values, file is short by {end - len(buf)} bytes"
        )
    data = np.frombuffer(buf, dtype="<f4", count=n, offset=offset)
    return data.astype(np.float64).reshape(rows, cols), end


def load_matrix(path):
    buf = Path(path).read_bytes()
    arr, end = _matrix_from(buf, 0, str(path))
    if end != len(buf):
        raise DataFormatError(f"{path}: {len(buf) - end} trailing bytes after matrix body")
    if arr.size == 0:
        raise DataFormatError(f"{path}: matrix is empty")
    if not np.all(np.isfinite(arr)):
        raise DataFormatError(f"{path}: matrix contains non-finite values")
    return arr


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
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise DataFormatError(f"{path}:{ln}: not an integer label: {line!r}") from None
    return np.array(out, dtype=np.int64)


def _parse_ids(text: str, where: str):
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
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
    blob = [CHECKPOINT_MAGIC, struct.pack("<I", len(items))]
    for name, arr in items.items():
        encoded = name.encode("utf-8")
        blob.append(struct.pack("<I", len(encoded)))
        blob.append(encoded)
        blob.append(matrix_bytes(arr))
    Path(path).write_bytes(b"".join(blob))


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns (tensors, meta) with meta values unpacked from 1×1 tensors."""
    buf = Path(path).read_bytes()
    if buf[:8] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad checkpoint magic {buf[:8]!r}")
    if len(buf) < 12:
        raise DataFormatError(f"{path}: truncated tensor count")
    (count,) = struct.unpack_from("<I", buf, 8)
    offset = 12
    tensors, meta = {}, {}
    for _ in range(count):
        if len(buf) < offset + 4:
            raise DataFormatError(f"{path}: truncated tensor name header")
        (nlen,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        try:
            name = buf[offset : offset + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: tensor name is not UTF-8: {e}") from None
        offset += nlen
        arr, offset = _matrix_from(buf, offset, f"{path}[{name}]")
        if name.startswith("meta."):
            if arr.shape != (1, 1):
                raise DataFormatError(f"{path}: meta entry {name!r} is not 1×1")
            meta[name[5:]] = float(arr[0, 0])
        else:
            tensors[name] = arr
    if offset != len(buf):
        raise DataFormatError(f"{path}: {len(buf) - offset} trailing bytes")
    return tensors, meta
