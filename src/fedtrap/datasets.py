"""Dataset ingestion, normalization, run sampling, and exact-duplicate scanning.

A `Dataset` holds its images as one array of a parsed file's own uint8
bytes, and a sample's id is its row in that file. A run's draw is a set
of rows; pixels become float32 in [-1, 1] only in the rows
`Dataset.stacked(rows)` is asked for. Labels are 1-based
everywhere. Duplicate detection hashes every row in cache-sized chunks,
finds the hashes that repeat with one sort, compares raw bytes only among
rows whose hash repeats, and reports rows; the bytes decide every group.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import combinations

import numpy as np

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801
CIFAR100_COARSE_CLASSES = 20

CIFAR100_FINE_LABELS = (
    "apple", "aquarium_fish", "baby", "bear", "beaver", "bed", "bee", "beetle",
    "bicycle", "bottle", "bowl", "boy", "bridge", "bus", "butterfly", "camel",
    "can", "castle", "caterpillar", "cattle", "chair", "chimpanzee", "clock",
    "cloud", "cockroach", "couch", "crab", "crocodile", "cup", "dinosaur",
    "dolphin", "elephant", "flatfish", "forest", "fox", "girl", "hamster",
    "house", "kangaroo", "keyboard", "lamp", "lawn_mower", "leopard", "lion",
    "lizard", "lobster", "man", "maple_tree", "motorcycle", "mountain", "mouse",
    "mushroom", "oak_tree", "orange", "orchid", "otter", "palm_tree", "pear",
    "pickup_truck", "pine_tree", "plain", "plate", "poppy", "porcupine",
    "possum", "rabbit", "raccoon", "ray", "road", "rocket", "rose", "sea",
    "seal", "shark", "shrew", "skunk", "skyscraper", "snail", "snake", "spider",
    "squirrel", "streetcar", "sunflower", "sweet_pepper", "table", "tank",
    "telephone", "television", "tiger", "tractor", "train", "trout", "tulip",
    "turtle", "wardrobe", "whale", "willow_tree", "wolf", "woman", "worm",
)


class DatasetFormatError(ValueError):
    """A dataset file does not match its declared binary format."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as two arrays; a sample's id is its row.

    `images` is (N, C, H, W) uint8 raw pixels (a parsed file's own bytes).
    `labels` is (N,) int64 in 1..num_classes.
    """

    images: np.ndarray
    labels: np.ndarray
    split: str                     # "train" | "test" | "synthetic"
    num_classes: int
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.images.dtype != np.uint8 or self.images.ndim != 4:
            raise ValueError("images must be an (N, C, H, W) uint8 array, "
                             f"got {self.images.dtype} {self.images.shape}")
        if self.labels.dtype != np.int64:
            raise ValueError(f"labels must be int64, got {self.labels.dtype}")
        n = len(self.images)
        if not n:
            raise ValueError("dataset must be non-empty")
        if self.labels.shape != (n,):
            raise ValueError(f"{n} images but labels {self.labels.shape}")
        for label in (self.labels.min(), self.labels.max()):
            if not 1 <= label <= self.num_classes:
                raise ValueError(f"label {label} outside 1..{self.num_classes}")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, ...]:
        return self.images.shape[1:]

    def stacked(self, rows: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Normalized (n,C,H,W) float32 images and (n,) int64 labels of `rows`
        (default: every row), as new arrays.

        Pixels map p -> (p/255 - 0.5)/0.5, range [-1, 1]. Each in-place step
        rounds to float32 exactly as the per-image expression does, so the
        result is bit-identical to it.
        """
        images = self.images[rows].astype(np.float32)
        images /= np.float32(255)
        images -= np.float32(0.5)
        images /= np.float32(0.5)
        return images, self.labels[rows].copy()

    def label_name(self, label: int) -> str:
        if self.label_names is not None:
            return self.label_names[label - 1]
        return str(label)


@dataclass(frozen=True, eq=False)
class RunDraw:
    member_flag: int                  # t: 1 if the target is inside the training set
    rows: np.ndarray                  # the training set's source rows, in draw order
    target_id: int                    # the target's source row

    def __post_init__(self):
        inside = bool((self.rows == self.target_id).any())
        if bool(self.member_flag) != inside:
            raise ValueError("member flag disagrees with the drawn sets")


# -- parsers ----------------------------------------------------------------


def _check_size(data: bytes, size: int, what: str, exact: bool = True) -> None:
    if len(data) < size or (exact and len(data) > size):
        state = "truncated" if len(data) < size else "oversized"
        raise DatasetFormatError(
            f"{state} {what}: expected {size} bytes, file has {len(data)}")


def _check_label_bytes(raw: np.ndarray, num_classes: int, what: str = "label") -> None:
    if raw.max() >= num_classes:
        bad = int(np.argmax(raw >= num_classes))
        raise DatasetFormatError(f"item {bad} has {what} byte {raw[bad]}, "
                                 f"outside 0..{num_classes - 1}")


def _shift_labels(raw: np.ndarray, num_classes: int) -> np.ndarray:
    """Raw 0-based label bytes -> 1-based int64 labels."""
    _check_label_bytes(raw, num_classes)
    return np.add(raw, 1, dtype=np.int64)


def load_mnist_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse the big-endian IDX pair; labels shift from raw 0..9 to 1..10."""
    with open(images_path, "rb") as fh:
        img_data = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_data = fh.read()

    _check_size(img_data, 16, "image header", exact=False)
    magic, n, rows, cols = struct.unpack_from(">IIII", img_data)
    if magic != MNIST_IMAGE_MAGIC:
        raise DatasetFormatError(f"bad image magic 0x{magic:08x}, "
                                 f"expected 0x{MNIST_IMAGE_MAGIC:08x}")
    _check_size(lbl_data, 8, "label header", exact=False)
    lmagic, ln = struct.unpack_from(">II", lbl_data)
    if lmagic != MNIST_LABEL_MAGIC:
        raise DatasetFormatError(f"bad label magic 0x{lmagic:08x}, "
                                 f"expected 0x{MNIST_LABEL_MAGIC:08x}")
    if n != ln:
        raise DatasetFormatError(f"image file holds {n} items, label file {ln}")
    if n == 0:
        raise DatasetFormatError("files declare zero items")
    if rows == 0 or cols == 0:
        raise DatasetFormatError(f"files declare empty {rows}x{cols} images")

    _check_size(img_data, 16 + n * rows * cols, "image file")
    _check_size(lbl_data, 8 + n, "label file")
    images = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(n, 1, rows, cols)
    labels = _shift_labels(np.frombuffer(lbl_data, dtype=np.uint8, offset=8), 10)
    return Dataset(images=images, labels=labels, split=split, num_classes=10)


def load_cifar(path, variant: str, split: str = "train") -> Dataset:
    """Parse one CIFAR binary file.

    cifar10 records are 1 label byte + 3072 image bytes; cifar100-fine
    records carry a coarse byte (checked to lie in 0..19, otherwise unused)
    then the fine label byte.
    """
    if variant == "cifar10":
        head, num_classes, names = 1, 10, None
    elif variant == "cifar100-fine":
        head, num_classes, names = 2, 100, CIFAR100_FINE_LABELS
    else:
        raise ValueError(f"unknown variant {variant!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    record = head + 3072
    if len(data) == 0 or len(data) % record:
        raise DatasetFormatError(
            f"file length {len(data)} is not a positive multiple of the "
            f"{record}-byte {variant} record")
    n = len(data) // record
    raw = np.frombuffer(data, dtype=np.uint8).reshape(n, record)
    if variant == "cifar100-fine":
        _check_label_bytes(raw[:, 0], CIFAR100_COARSE_CLASSES, "coarse label")
    return Dataset(images=raw[:, head:].reshape(n, 3, 32, 32),
                   labels=_shift_labels(raw[:, head - 1], num_classes),
                   split=split, num_classes=num_classes, label_names=names)


# -- normalization -----------------------------------------------------------


def normalize(dataset: Dataset) -> Dataset:
    """Pass-through kept for the frozen `perfbench/workloads.py`: runs normalize
    the rows they draw. The next benchmark change drops that call, then this."""
    return dataset


# -- run sampling -------------------------------------------------------------


def sample_run(source: Dataset, num_samples: int, member_flag: int, seed: int) -> RunDraw:
    """Draw N training rows and a target row in (t=1) or out of (t=0) them."""
    if num_samples >= len(source):
        raise ValueError(f"need num_samples < |source| ({num_samples} >= {len(source)})")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(source), size=num_samples, replace=False)
    if member_flag:
        target = int(rng.choice(chosen))
    else:
        # the k-th unchosen row, with the k that rng.choice over the unchosen
        # rows would draw; below[i] counts the unchosen rows under sorted row i
        k = int(rng.integers(0, len(source) - num_samples))
        below = np.sort(chosen) - np.arange(num_samples)
        target = k + int(np.searchsorted(below, k, side="right"))
    return RunDraw(member_flag=int(bool(member_flag)), rows=chosen, target_id=target)


# -- duplicate scanning --------------------------------------------------------


@dataclass(frozen=True)
class DuplicateReport:
    within_train: tuple[tuple[int, ...], ...]          # row groups, byte-identical
    cross_split: tuple[tuple[int, int], ...]           # (train_row, test_row)
    mismatched_within: tuple[tuple[int, ...], ...]     # groups with >1 distinct label
    mismatched_cross: tuple[tuple[int, int], ...]      # pairs with differing labels
    cross_images: int                                  # distinct shared contents

    def within_train_pairs(self) -> list[tuple[int, int]]:
        return [pair for group in self.within_train for pair in combinations(group, 2)]


_HASH_CHUNK_BYTES = 1 << 19   # bytes hashed per einsum: a chunk stays in L2 from copy to hash
_HASH_SEED = 0x5EED_D00B


def _row_hashes(images: np.ndarray) -> np.ndarray:
    """One uint64 per row of the uint8 `images`, a function of the row's
    C-order bytes.

    Rows are copied ~512 KiB at a time into a zero-padded buffer a whole
    number of uint64 words wide, small enough that the copy is still in L2
    when it is hashed. One `einsum` per chunk sums each row's words times
    fixed odd multipliers; it is the same sum as an integer matmul, and
    array arithmetic wraps modulo 2**64 without a warning. Equal bytes give
    equal hashes; rows that differ in one word never collide, since an odd
    multiplier is invertible.
    """
    n, width = len(images), math.prod(images.shape[1:])
    words = max(1, -(-width // 8))   # an empty row is one zero word
    multipliers = np.random.PCG64(_HASH_SEED).random_raw(words) | np.uint64(1)
    chunk = max(1, _HASH_CHUNK_BYTES // (8 * words))
    buf = np.zeros((min(chunk, n), 8 * words), dtype=np.uint8)
    hashes = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        buf[:m, :width] = images[lo:lo + m].reshape(m, width)
        np.einsum("ij,j->i", buf[:m].view(np.uint64), multipliers, out=hashes[lo:lo + m])
    return hashes


def _duplicate_groups(hashes: np.ndarray, row) -> list[list[int]]:
    """Indices whose `row(i)` bytes repeat, grouped by those bytes.

    The hashes that occur more than once are the equal neighbours of one
    sort; every index holding one is a candidate. Candidates are grouped
    by `row(i).tobytes()` in ascending order, so each group is ascending
    and groups come in order of their first index. Bytes decide every
    group: a hash collision only costs a comparison.
    """
    ordered = np.sort(hashes)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(np.isin(hashes, repeats)).tolist():
        groups.setdefault(row(i).tobytes(), []).append(i)
    return [members for members in groups.values() if len(members) > 1]


def _rows_by_bytes(images: np.ndarray) -> list[list[int]]:
    """Groups of byte-identical rows, each ascending, in order of first row."""
    return _duplicate_groups(_row_hashes(images), images.__getitem__)


def find_exact_duplicates(train: Dataset, test: Dataset) -> DuplicateReport:
    """Byte-identical image groups within train and across the two splits, as rows.

    Groups that hold test rows only are not reported.
    """
    if train.image_shape != test.image_shape:
        raise ValueError(f"image shapes differ: {train.image_shape} vs {test.image_shape}")
    n = len(train)  # indices past the train rows are test rows
    hashes = np.concatenate([_row_hashes(train.images), _row_hashes(test.images)])
    groups = _duplicate_groups(
        hashes, lambda i: train.images[i] if i < n else test.images[i - n])

    within, mism_within, cross, mism_cross, shared = [], [], [], [], 0
    for members in groups:
        rows = [i for i in members if i < n]
        if len(rows) > 1:
            within.append(group := tuple(rows))
            if len(set(train.labels[rows].tolist())) > 1:
                mism_within.append(group)
        others = [i - n for i in members if i >= n]
        for j in others:
            for i in rows:
                cross.append((i, j))
                if train.labels[i] != test.labels[j]:
                    mism_cross.append((i, j))
        shared += bool(rows and others)

    return DuplicateReport(
        within_train=tuple(sorted(within)),
        cross_split=tuple(sorted(cross)),
        mismatched_within=tuple(sorted(mism_within)),
        mismatched_cross=tuple(sorted(mism_cross)),
        cross_images=shared,
    )


def duplicate_report_rows(report: DuplicateReport, train: Dataset,
                          test: Dataset) -> list[tuple[str, int, int, str, str]]:
    """CSV rows: kind, train_id, other_id, label_a, label_b (ids are rows)."""
    kinds = (("within_train", report.within_train_pairs(), train),
             ("cross_split", report.cross_split, test))
    return [(kind, a, b, train.label_name(int(train.labels[a])),
             other.label_name(int(other.labels[b])))
            for kind, pairs, other in kinds for a, b in pairs]


# -- synthetic data ------------------------------------------------------------


def synth_dataset(num_samples: int, num_classes: int = 10,
                  image_shape: tuple[int, int, int] = (1, 14, 14),
                  seed: int = 0) -> Dataset:
    """Seeded uniform-random raw images; all samples guaranteed pairwise distinct."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if num_samples > (distinct := 256 ** math.prod(image_shape)):
        raise ValueError(f"only {distinct} distinct {image_shape} images exist, "
                         f"asked for {num_samples}")
    rng = np.random.default_rng(seed)
    # drawn as int64, which fixes the generator's stream; 0..255 fit uint8
    images = rng.integers(0, 256, (num_samples, *image_shape), np.int64).astype(np.uint8)
    labels = rng.integers(1, num_classes + 1, size=num_samples)
    # redraw every later copy of an image, in ascending row order, until none is left
    while dupes := sorted(i for rows in _rows_by_bytes(images) for i in rows[1:]):
        for i in dupes:
            images[i] = rng.integers(0, 256, size=image_shape, dtype=np.int64)
    return Dataset(images=images, labels=labels, split="synthetic", num_classes=num_classes)


# -- fixture writers (tiny files in the real binary formats) -------------------


def write_mnist_fixture(images_path, labels_path, images: np.ndarray,
                        labels: np.ndarray) -> None:
    """Write a valid IDX pair from uint8 images (N, rows, cols) and raw labels 0..9."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", MNIST_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", MNIST_LABEL_MAGIC, n))
        fh.write(labels.tobytes())


def write_cifar_fixture(path, images: np.ndarray, fine_labels: np.ndarray,
                        coarse_labels: np.ndarray | None = None) -> None:
    """Write CIFAR records from uint8 images (N, 3, 32, 32).

    With coarse labels the cifar100 layout is produced, otherwise cifar10.
    """
    images = np.asarray(images, dtype=np.uint8)
    labels = [fine_labels] if coarse_labels is None else [coarse_labels, fine_labels]
    records = np.empty((len(images), len(labels) + 3072), dtype=np.uint8)
    for column, values in enumerate(labels):
        records[:, column] = np.asarray(values, dtype=np.uint8)
    records[:, len(labels):] = images.reshape(len(images), 3072)
    records.tofile(path)
