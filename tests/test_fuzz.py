"""Fuzzed file readers: each one loads its input or raises DataFormatError.

Inputs are valid files with bytes flipped, u32 fields overwritten, tails cut
or junk appended, plus raw bytes (invalid UTF-8 included) and text over each
format's own alphabet.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl.errors import DataFormatError
from dgzsl.serialize import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_matrix,
    read_attribute_csv,
    read_labels,
    read_manifest,
)

from conftest import write_new
from oracles import whole_matrix_bytes

EXAMPLES = 150

_rng = np.random.default_rng(0)
MATRIX = whole_matrix_bytes(_rng.normal(size=(3, 4)))
CHECKPOINT = CHECKPOINT_MAGIC + struct.pack("<I", 3) + b"".join(
    struct.pack("<I", len(name)) + name + whole_matrix_bytes(arr)
    for name, arr in (
        (b"enc.h0.w", _rng.normal(size=(3, 2))),
        (b"enc.h0.b", _rng.normal(size=(1, 2))),
        (b"meta.keep_prob", np.array([[0.8]])),
    )
)
CSV = "0,0.5,-1.25\n1,1e-3,2\n2,3.0,0\n"
MANIFEST = "seen = 0,1\nunseen = 2\ntrain_labels = train.txt\ntest_labels = test.txt\n"


def mutated(valid: bytes):
    """``valid`` with up to four bytes replaced, up to two aligned u32 fields
    overwritten, cut at some length and followed by a few junk bytes."""
    n = len(valid)

    def apply(args):
        flips, words, cut, junk = args
        buf = bytearray(valid)
        for pos, byte in flips:
            buf[pos] = byte
        for pos, value in words:
            buf[4 * pos : 4 * pos + 4] = struct.pack("<I", value)
        return bytes(buf[:cut]) + junk

    return st.tuples(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), max_size=4),
        st.lists(st.tuples(st.integers(0, n // 4 - 1), st.integers(0, 2**32 - 1)), max_size=2),
        st.integers(0, n),
        st.binary(max_size=8),
    ).map(apply)


def text_of(valid: str, alphabet: str):
    return st.one_of(
        mutated(valid.encode()),
        st.text(alphabet=alphabet, max_size=80).map(str.encode),
        st.binary(max_size=40),
    )


def loads_or_rejects(reader, path, blob: bytes) -> None:
    path.unlink(missing_ok=True)
    write_new(path, blob)
    try:
        reader(path)
    except DataFormatError:
        pass


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=EXAMPLES)
@given(blob=st.one_of(mutated(MATRIX), st.binary(max_size=40)))
def test_matrix_reader(work, blob):
    loads_or_rejects(load_matrix, work / "m.bin", blob)


@settings(max_examples=EXAMPLES)
@given(blob=st.one_of(mutated(CHECKPOINT), st.binary(max_size=40)))
def test_checkpoint_reader(work, blob):
    loads_or_rejects(load_checkpoint, work / "m.ckpt", blob)


@settings(max_examples=EXAMPLES)
@given(blob=text_of(CSV, "0123456789,.-+eEinfaINF_٣ \t\n"))
def test_attribute_csv_reader(work, blob):
    loads_or_rejects(read_attribute_csv, work / "attributes.csv", blob)


@settings(max_examples=EXAMPLES)
@given(blob=text_of(MANIFEST, "seunitrabl_ .,=#0123456789-٣\n"))
def test_manifest_reader(work, blob):
    loads_or_rejects(read_manifest, work / "split.manifest", blob)


@settings(max_examples=EXAMPLES)
@given(blob=text_of("0\n3\n-1\n", "0123456789-+_٣ \n"))
def test_label_reader(work, blob):
    loads_or_rejects(read_labels, work / "labels.txt", blob)
