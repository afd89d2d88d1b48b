"""Fuzz test of the binary parsers: any file is a Dataset or a DatasetFormatError.

Well-formed IDX pairs and CIFAR files are truncated, garbled and extended
at random positions. A parser may accept the result (a garbled pixel is
still a valid image) but must never fail any other way.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrap.datasets import (MNIST_IMAGE_MAGIC, MNIST_LABEL_MAGIC, Dataset,
                              DatasetFormatError, load_cifar, load_mnist_idx)

CIFAR_HEAD = {"cifar10": 1, "cifar100-fine": 2}

# (kind, position, bytes); positions favour the headers, where the counts live
edits = st.lists(st.tuples(st.sampled_from(("truncate", "garble", "extend")),
                           st.one_of(st.integers(0, 24), st.integers(0, 2**14)),
                           st.binary(min_size=1, max_size=6)),
                 max_size=3)


def mutate(data: bytes, changes) -> bytes:
    for kind, pos, chunk in changes:
        if kind == "truncate":
            data = data[:pos % (len(data) + 1)]
        elif kind == "garble" and data:
            pos %= len(data)
            chunk = chunk[:len(data) - pos]
            data = data[:pos] + chunk + data[pos + len(chunk):]
        else:
            data = data + chunk
    return data


def parse(paths, parser):
    """Run the parser; return the Dataset, or None for a DatasetFormatError."""
    try:
        ds = parser(*paths)
    except DatasetFormatError:
        return None
    assert isinstance(ds, Dataset)
    return ds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), rows=st.integers(1, 4), cols=st.integers(1, 4),
       data=st.data(), image_edits=edits, label_edits=edits)
def test_mnist_parser_accepts_or_raises_format_error(n, rows, cols, data,
                                                     image_edits, label_edits):
    pixels = data.draw(st.binary(min_size=n * rows * cols, max_size=n * rows * cols))
    labels = bytes(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    images = struct.pack(">IIII", MNIST_IMAGE_MAGIC, n, rows, cols) + pixels
    label_file = struct.pack(">II", MNIST_LABEL_MAGIC, n) + labels
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "images"), Path(tmp, "labels")
        paths[0].write_bytes(mutate(images, image_edits))
        paths[1].write_bytes(mutate(label_file, label_edits))
        ds = parse(paths, load_mnist_idx)
    if not image_edits and not label_edits:
        assert ds is not None
        assert ds.images.tobytes() == pixels
        assert (ds.labels - 1).tolist() == list(labels)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(written=st.sampled_from(sorted(CIFAR_HEAD)), read=st.sampled_from(sorted(CIFAR_HEAD)),
       n=st.integers(1, 3), data=st.data(), changes=edits)
def test_cifar_parser_accepts_or_raises_format_error(written, read, n, data, changes):
    head = CIFAR_HEAD[written]
    label_bytes = st.one_of(st.integers(0, 9), st.integers(0, 255))
    records = b"".join(
        bytes(data.draw(st.lists(label_bytes, min_size=head, max_size=head)))
        + data.draw(st.binary(min_size=3072, max_size=3072))
        for _ in range(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.bin")
        path.write_bytes(mutate(records, changes))
        ds = parse((path, read), load_cifar)
    if not changes and written == read:
        raw = np.frombuffer(records, dtype=np.uint8).reshape(n, head + 3072)
        valid = raw[:, head - 1] < (10 if read == "cifar10" else 100)
        if read == "cifar100-fine":
            valid &= raw[:, 0] < 20
        assert (ds is not None) == bool(valid.all())
