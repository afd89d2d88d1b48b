import hashlib
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtrap import datasets
from fedtrap.datasets import (Dataset, DatasetFormatError, duplicate_report_rows,
                              find_exact_duplicates, load_cifar, load_mnist_idx,
                              sample_run, synth_dataset,
                              write_cifar_fixture, write_mnist_fixture)
from oracles import draw_by_complement, duplicates_by_dict, row_hashes_by_matmul


def make_dataset(images, labels, split="synthetic", num_classes=10):
    return Dataset(np.asarray(images, dtype=np.uint8), np.asarray(labels, dtype=np.int64),
                   split, num_classes)


def hand_written_idx_pair(tmp_path, pixels, labels):
    """Build IDX files byte by byte, independent of the package's writer."""
    n, rows, cols = pixels.shape
    img = tmp_path / "imgs"
    lbl = tmp_path / "lbls"
    with open(img, "wb") as fh:
        fh.write(struct.pack(">I", 0x00000803))
        fh.write(struct.pack(">III", n, rows, cols))
        fh.write(bytes(int(v) for v in pixels.reshape(-1)))
    with open(lbl, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(bytes(int(v) for v in labels))
    return img, lbl


# -- MNIST IDX ---------------------------------------------------------------


def test_mnist_fixture_parses_with_exact_pixels(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(4, 5, 7))
    labels = np.array([0, 9, 3, 3])
    img, lbl = hand_written_idx_pair(tmp_path, pixels, labels)
    ds = load_mnist_idx(img, lbl)
    assert len(ds) == 4
    assert ds.image_shape == (1, 5, 7)
    assert ds.images.dtype == np.uint8
    np.testing.assert_array_equal(ds.images[:, 0], pixels)
    np.testing.assert_array_equal(ds.labels, labels + 1)
    # the images are a view of the file's bytes, not a per-sample copy
    assert not ds.images.flags.owndata and not ds.images.flags.writeable


def test_mnist_rejects_bad_magic(tmp_path):
    img, lbl = hand_written_idx_pair(tmp_path, np.zeros((1, 2, 2), int), [0])
    raw = bytearray(img.read_bytes())
    raw[3] = 0x99
    img.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="magic"):
        load_mnist_idx(img, lbl)


def test_mnist_rejects_zero_items(tmp_path):
    img = tmp_path / "imgs"
    lbl = tmp_path / "lbls"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 0, 28, 28))
    lbl.write_bytes(struct.pack(">II", 0x00000801, 0))
    with pytest.raises(DatasetFormatError, match="zero items"):
        load_mnist_idx(img, lbl)


def test_mnist_rejects_truncated_payload(tmp_path):
    img, lbl = hand_written_idx_pair(tmp_path, np.zeros((2, 3, 3), int), [1, 2])
    img.write_bytes(img.read_bytes()[:-4])
    with pytest.raises(DatasetFormatError, match=r"expected 34 bytes, file has 30"):
        load_mnist_idx(img, lbl)


def test_mnist_rejects_count_mismatch(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    img, _ = hand_written_idx_pair(tmp_path / "a", np.zeros((2, 3, 3), int), [1, 2])
    _, lbl = hand_written_idx_pair(tmp_path / "b", np.zeros((3, 3, 3), int), [1, 2, 3])
    with pytest.raises(DatasetFormatError, match="2 items, label file 3"):
        load_mnist_idx(img, lbl)


def test_mnist_writer_round_trips_bytes(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    labels = np.array([5, 0, 9], dtype=np.uint8)
    ref_img, ref_lbl = hand_written_idx_pair(tmp_path, pixels, labels)
    out_img, out_lbl = tmp_path / "w_imgs", tmp_path / "w_lbls"
    write_mnist_fixture(out_img, out_lbl, pixels, labels)
    assert out_img.read_bytes() == ref_img.read_bytes()
    assert out_lbl.read_bytes() == ref_lbl.read_bytes()


def test_mnist_rejects_out_of_range_label(tmp_path):
    img, lbl = hand_written_idx_pair(tmp_path, np.zeros((2, 3, 3), int), [4, 10])
    with pytest.raises(DatasetFormatError, match="item 1 has label byte 10"):
        load_mnist_idx(img, lbl)


@pytest.mark.parametrize("which", ["images", "labels"])
def test_mnist_rejects_bytes_past_the_declared_payload(tmp_path, which):
    img, lbl = hand_written_idx_pair(tmp_path, np.zeros((2, 3, 3), int), [1, 2])
    path = img if which == "images" else lbl
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DatasetFormatError, match="oversized"):
        load_mnist_idx(img, lbl)


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
def test_mnist_rejects_empty_images(tmp_path, rows, cols):
    img, lbl = tmp_path / "imgs", tmp_path / "lbls"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 2, rows, cols))
    lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([1, 2]))
    with pytest.raises(DatasetFormatError, match="empty"):
        load_mnist_idx(img, lbl)


# -- CIFAR -------------------------------------------------------------------


def hand_written_cifar(tmp_path, name, records):
    """records: list of (label bytes tuple, 3072 image bytes array)."""
    path = tmp_path / name
    with open(path, "wb") as fh:
        for head, image in records:
            fh.write(bytes(head))
            fh.write(bytes(int(v) for v in image))
    return path


def test_cifar10_fixture_parses(tmp_path):
    rng = np.random.default_rng(2)
    imgs = rng.integers(0, 256, size=(2, 3072))
    path = hand_written_cifar(tmp_path, "c10.bin", [((7,), imgs[0]), ((0,), imgs[1])])
    ds = load_cifar(path, "cifar10")
    assert len(ds) == 2 and ds.num_classes == 10
    assert ds.labels.tolist() == [8, 1]
    np.testing.assert_array_equal(ds.images.reshape(2, 3072), imgs)


def test_cifar100_uses_fine_label_and_ignores_coarse(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=3072)
    path = hand_written_cifar(tmp_path, "c100.bin", [((13, 1), img)])
    ds = load_cifar(path, "cifar100-fine")
    assert ds.num_classes == 100
    assert ds.labels.tolist() == [2]
    assert ds.label_name(ds.labels[0]) == "aquarium_fish"


def test_cifar_wrong_variant_length_error(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=3072)
    path = hand_written_cifar(tmp_path, "c10.bin", [((7,), img)])
    with pytest.raises(DatasetFormatError, match="multiple"):
        load_cifar(path, "cifar100-fine")


def test_cifar_writer_round_trips_bytes(tmp_path):
    """The writer's one buffer holds the per-record layout, in both forms."""
    rng = np.random.default_rng(5)
    imgs = rng.integers(0, 256, size=(3, 3, 32, 32), dtype=np.uint8)
    fine, coarse = [9, 2, 99], [4, 0, 19]
    ref = hand_written_cifar(tmp_path, "ref.bin", [
        ((c, f), img.reshape(-1)) for c, f, img in zip(coarse, fine, imgs)])
    out = tmp_path / "out.bin"
    write_cifar_fixture(out, imgs, fine_labels=fine, coarse_labels=np.array(coarse))
    assert out.read_bytes() == ref.read_bytes()
    ref10 = hand_written_cifar(tmp_path, "ref10.bin", [
        ((f,), img.reshape(-1)) for f, img in zip(fine, imgs)])
    write_cifar_fixture(tmp_path / "out10.bin", imgs, fine_labels=np.array(fine))
    assert (tmp_path / "out10.bin").read_bytes() == ref10.read_bytes()
    reparsed = load_cifar(out, "cifar100-fine")
    assert reparsed.labels.tolist() == [10, 3, 100]


@pytest.mark.parametrize("variant, head, byte", [("cifar10", (10,), 10),
                                                ("cifar100-fine", (0, 100), 100),
                                                ("cifar100-fine", (20, 5), 20),
                                                ("cifar100-fine", (200, 5), 200)])
def test_cifar_rejects_out_of_range_label(tmp_path, variant, head, byte):
    img = np.zeros(3072, dtype=np.uint8)
    path = hand_written_cifar(tmp_path, "c.bin", [(head, img)])
    with pytest.raises(DatasetFormatError, match=f"label byte {byte}"):
        load_cifar(path, variant)


# -- the Dataset constructor ---------------------------------------------------


def test_dataset_rejects_wrong_dtypes_lengths_and_labels():
    images = np.zeros((3, 1, 2, 2), dtype=np.uint8)
    labels = np.array([1, 2, 3], dtype=np.int64)
    Dataset(images, labels, "train", 3)
    for dtype in (np.float32, np.float64):
        with pytest.raises(ValueError, match="uint8 array"):
            Dataset(images.astype(dtype), labels, "train", 3)
    with pytest.raises(ValueError, match="uint8 array"):
        Dataset(images[:, 0], labels, "train", 3)
    with pytest.raises(ValueError, match="int64"):
        Dataset(images, labels.astype(np.int32), "train", 3)
    with pytest.raises(ValueError, match="3 images"):
        Dataset(images, labels[:2], "train", 3)
    with pytest.raises(ValueError, match="non-empty"):
        Dataset(images[:0], labels[:0], "train", 3)
    for bad in (0, 4):
        with pytest.raises(ValueError, match=f"label {bad} outside 1..3"):
            Dataset(images, np.array([1, bad, 2], dtype=np.int64), "train", 3)


# -- normalization -----------------------------------------------------------


def test_normalize_endpoints_and_midpoint():
    ds = make_dataset([[[[0, 255, 127, 128]]]], [1], num_classes=2)
    xs, ys = ds.stacked()
    assert xs.dtype == np.float32 and ds.images.dtype == np.uint8
    np.testing.assert_array_equal(xs[0, 0, 0, :2], [-1.0, 1.0])
    np.testing.assert_allclose(xs[0, 0, 0, 2:], [-1 / 255, 1 / 255], rtol=1e-4)
    np.testing.assert_array_equal(ys, ds.labels)
    assert not np.shares_memory(ys, ds.labels)


def test_stacked_rows_are_the_rows_of_the_whole_stack():
    ds = synth_dataset(12, seed=5)
    xs, ys = ds.stacked()
    rows = np.array([7, 0, 11, 3])
    sub_xs, sub_ys = ds.stacked(rows)
    assert sub_xs.tobytes() == xs[rows].tobytes()
    np.testing.assert_array_equal(sub_ys, ys[rows])
    assert not np.shares_memory(ds.stacked(slice(2, 5))[1], ds.labels)


def test_normalize_round_trip():
    ds = synth_dataset(10, seed=6)
    xs, _ = ds.stacked()
    back = np.rint((xs * np.float32(0.5) + np.float32(0.5)) * np.float32(255))
    assert back.astype(np.uint8).tobytes() == ds.images.tobytes()


def per_image_reference(images):
    """The per-sample arithmetic of (p/255 - 0.5)/0.5, one image at a time."""
    return b"".join(((img.astype(np.float32) / np.float32(255) - np.float32(0.5))
                     / np.float32(0.5)).tobytes() for img in images)


def test_normalize_is_bit_identical_to_per_image_arithmetic(tmp_path):
    rng = np.random.default_rng(16)
    every_byte = np.arange(256, dtype=np.uint8)
    mnist_px = np.concatenate([every_byte, rng.integers(0, 256, 6 * 28 * 28 - 256,
                                                        dtype=np.uint8)])
    write_mnist_fixture(tmp_path / "i", tmp_path / "l", mnist_px.reshape(6, 28, 28),
                        rng.integers(0, 10, 6))
    cifar_px = np.concatenate([every_byte, rng.integers(0, 256, 4 * 3072 - 256,
                                                        dtype=np.uint8)])
    write_cifar_fixture(tmp_path / "c.bin", cifar_px.reshape(4, 3, 32, 32),
                        rng.integers(0, 100, 4), rng.integers(0, 20, 4))
    for ds in (load_mnist_idx(tmp_path / "i", tmp_path / "l"),
               load_cifar(tmp_path / "c.bin", "cifar100-fine"),
               synth_dataset(40, seed=16)):
        assert ds.stacked()[0].tobytes() == per_image_reference(ds.images)
        for seed, member in ((0, 1), (1, 0), (2, 1)):
            draw = sample_run(ds, 2, member, seed)
            target = ds.images[[draw.target_id]]
            assert ds.stacked([draw.target_id])[0].tobytes() == per_image_reference(target)


# -- run sampling ----------------------------------------------------------------


def test_sample_run_member_contains_target_nonmember_does_not():
    source = synth_dataset(50, seed=7)
    normalized, _ = source.stacked()
    for seed in range(1000):
        draw = sample_run(source, 10, member_flag=seed % 2, seed=seed)
        assert len(draw.rows) == 10
        assert (draw.target_id in draw.rows.tolist()) == bool(seed % 2)
        assert type(draw.target_id) is int
        image, label = source.stacked([draw.target_id])
        assert image.tobytes() == normalized[draw.target_id].tobytes()
        assert label.tolist() == [source.labels[draw.target_id]]


def test_sample_run_is_deterministic():
    source = synth_dataset(50, seed=8)
    a = sample_run(source, 10, 1, seed=3)
    b = sample_run(source, 10, 1, seed=3)
    assert a.rows.tolist() == b.rows.tolist()
    assert a.target_id == b.target_id


def test_sample_run_pins_the_setdiff_draw():
    # the draw the non-member complement was first built with: a sorted
    # setdiff1d of the pool against the chosen ids
    source = synth_dataset(1200, seed=17)
    n = len(source)
    images, labels = source.stacked()
    for seed in range(200):
        for member in (1, 0):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(n, size=64, replace=False)
            pool = chosen if member else np.setdiff1d(np.arange(n), chosen)
            target = int(rng.choice(pool))
            draw = sample_run(source, 64, member, seed)
            assert draw.rows.tolist() == chosen.tolist()
            assert draw.target_id == target
            xs, ys = source.stacked(draw.rows)
            assert xs.tobytes() == images[chosen].tobytes()
            np.testing.assert_array_equal(ys, labels[chosen])


@pytest.mark.parametrize("pool, num_samples", [(2, 1), (40, 32), (545, 512), (1200, 64),
                                               (1000, 999), (60000, 32)])
def test_sample_run_draws_what_the_complement_scan_draws(pool, num_samples):
    """The non-member target is found by searchsorted, not by listing every
    unchosen row; both read the same generator draw, so every run keeps its
    target."""
    source = Dataset(np.zeros((pool, 1, 1, 1), dtype=np.uint8),
                     np.ones(pool, dtype=np.int64), "synthetic", 1)
    for seed in range(150):
        for member in (1, 0):
            chosen, target = draw_by_complement(pool, num_samples, member, seed)
            draw = sample_run(source, num_samples, member, seed)
            assert draw.rows.tolist() == chosen.tolist()
            assert draw.target_id == target, (seed, member)


def test_run_draw_rejects_a_flag_that_disagrees_with_the_ids():
    source = synth_dataset(20, seed=18)
    draw = sample_run(source, 5, 1, seed=0)
    with pytest.raises(ValueError, match="member flag"):
        replace(draw, member_flag=0)


def test_sample_run_rejects_oversized_draw():
    source = synth_dataset(10, seed=9)
    with pytest.raises(ValueError, match="num_samples"):
        sample_run(source, 10, 1, seed=0)


def test_sample_run_inclusion_frequency_matches_combinatorics():
    # drawing 2 of 4 without replacement includes each item with p = 1/2
    source = synth_dataset(4, seed=10)
    counts = np.zeros(4)
    trials = 10000
    for seed in range(trials):
        draw = sample_run(source, 2, 1, seed=seed)
        counts[draw.rows] += 1
    freqs = counts / trials
    np.testing.assert_allclose(freqs, 0.5, atol=0.02)


# -- duplicate scanning -------------------------------------------------------------


def planted_duplicate_sets():
    rng = np.random.default_rng(11)
    imgs = rng.integers(0, 256, size=(6, 3, 8, 8))
    imgs[4] = imgs[1]  # within-train duplicate, planted with differing labels
    train = make_dataset(imgs, [1, 2, 3, 1, 5, 2], split="train", num_classes=5)
    test_imgs = rng.integers(0, 256, size=(3, 3, 8, 8))
    test_imgs[0] = imgs[2]  # cross-split duplicate, same label
    test = make_dataset(test_imgs, [3, 3, 3], split="test", num_classes=5)
    return train, test


def test_planted_duplicates_are_found_and_flagged():
    train, test = planted_duplicate_sets()
    report = find_exact_duplicates(train, test)
    assert report.within_train == ((1, 4),)
    assert report.mismatched_within == ((1, 4),)   # labels 2 vs 5
    assert report.within_train_pairs() == [(1, 4)]
    assert report.cross_split == ((2, 0),)
    assert report.cross_images == 1
    assert report.mismatched_cross == ()           # both labeled 3


def test_duplicate_report_ids_are_builtin_ints():
    train, test = planted_duplicate_sets()
    report = find_exact_duplicates(train, test)
    ids = [i for field in (report.within_train, report.cross_split,
                           report.mismatched_within, report.mismatched_cross)
           for group in field for i in group]
    assert ids and all(type(i) is int for i in ids)
    assert type(report.cross_images) is int
    rows = duplicate_report_rows(report, train, test)
    assert rows == [("within_train", 1, 4, "2", "5"), ("cross_split", 2, 0, "3", "3")]
    assert all(type(v) is int for row in rows for v in row[1:3])


def all_zero_hashes(images):
    return np.zeros(len(images), dtype=np.uint64)


def test_duplicate_groups_are_verified_by_bytes_not_hash_alone(monkeypatch):
    """Every row hashing alike makes every row a candidate; the bytes alone
    must then give the report the real hashes give."""
    for train, test in (planted_duplicate_sets(), planted_pair((3, 5, 5), seed=23)):
        expected = find_exact_duplicates(train, test)
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "_row_hashes", all_zero_hashes)
            assert find_exact_duplicates(train, test) == expected
        assert expected == duplicates_by_dict(train, test)
    with monkeypatch.context() as patch:
        patch.setattr(datasets, "_row_hashes", all_zero_hashes)
        collided = synth_dataset(200, image_shape=(1, 1, 1), seed=21)
    ds = synth_dataset(200, image_shape=(1, 1, 1), seed=21)
    assert collided.images.tobytes() == ds.images.tobytes()
    np.testing.assert_array_equal(collided.labels, ds.labels)


def planted_images(rng, shape, n_train, n_test):
    """Random train and test images with every kind of copy planted: a group of
    four, a pair, a test image matching two train copies, two test copies of
    one train image and a pair that occurs only within test."""
    train = rng.integers(0, 256, size=(n_train, *shape))
    test = rng.integers(0, 256, size=(n_test, *shape))
    train[[3, 7, n_train - 1]] = train[0]
    train[5] = train[2]
    test[1] = train[2]
    test[4] = test[n_test - 1] = train[9]
    test[2] = test[6]
    return train, test


def planted_pair(shape, seed, n_train=40, n_test=12):
    rng = np.random.default_rng(seed)
    train, test = planted_images(rng, shape, n_train, n_test)
    return (make_dataset(train, rng.integers(1, 4, n_train), split="train", num_classes=3),
            make_dataset(test, rng.integers(1, 4, n_test), split="test", num_classes=3))


def cifar_pair(tmp_path, seed):
    rng = np.random.default_rng(seed)
    train, test = planted_images(rng, (3, 32, 32), 30, 10)
    paths = []
    for name, images in (("train.bin", train), ("test.bin", test)):
        write_cifar_fixture(tmp_path / name, images, rng.integers(0, 3, len(images)),
                            rng.integers(0, 20, len(images)))
        paths.append(tmp_path / name)
    return [load_cifar(path, "cifar100-fine", split) for path, split in zip(paths, ("train", "test"))]


def mnist_pair(tmp_path, seed):
    rng = np.random.default_rng(seed)
    train, test = planted_images(rng, (28, 28), 30, 10)
    train[:, :4] = test[:, :4] = 0  # blank top rows, as MNIST digits have
    pair = []
    for split, images in (("train", train), ("test", test)):
        names = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
        write_mnist_fixture(*names, images, rng.integers(0, 3, len(images)))
        pair.append(load_mnist_idx(*names, split=split))
    return pair


def small_width_pair(tmp_path, seed):
    """One-byte images, drawn from few values: most rows have copies."""
    rng = np.random.default_rng(seed)
    return (make_dataset(rng.integers(0, 24, (300, 1, 1, 1)), rng.integers(1, 4, 300),
                         split="train", num_classes=3),
            make_dataset(rng.integers(0, 24, (90, 1, 1, 1)), rng.integers(1, 4, 90),
                         split="test", num_classes=3))


PAIRS = {
    "cifar-strided": cifar_pair,
    "mnist": mnist_pair,
    "1x14x14": lambda tmp_path, seed: planted_pair((1, 14, 14), seed),
    "3x5x5": lambda tmp_path, seed: planted_pair((3, 5, 5), seed),
    "1x1x1-crowded": small_width_pair,
}


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@pytest.mark.parametrize("kind", PAIRS)
def test_duplicate_scan_matches_the_dict_scan(tmp_path, monkeypatch, kind, chunk_rows):
    train, test = PAIRS[kind](tmp_path, seed=31)
    if chunk_rows is not None:  # a few rows per hashing chunk, so chunks end mid-split
        width = -(-train.images[0].nbytes // 8) * 8
        monkeypatch.setattr(datasets, "_HASH_CHUNK_BYTES", chunk_rows * width)
    report = find_exact_duplicates(train, test)
    assert report == duplicates_by_dict(train, test)
    assert report.within_train and report.cross_split


def test_planted_copies_are_each_reported():
    train, test = planted_pair((3, 5, 5), seed=37)
    report = find_exact_duplicates(train, test)
    assert report.within_train == ((0, 3, 7, 39), (2, 5))
    assert report.within_train_pairs() == [(0, 3), (0, 7), (0, 39), (3, 7), (3, 39),
                                           (7, 39), (2, 5)]
    assert report.cross_split == ((2, 1), (5, 1), (9, 4), (9, 11))
    assert report.cross_images == 2  # the test-only pair (2, 6) is not reported


def test_row_hashes_depend_only_on_row_bytes(monkeypatch):
    rng = np.random.default_rng(41)
    raw = rng.integers(0, 256, (50, 2 + 75), dtype=np.uint8)
    strided = raw[:, 2:].reshape(50, 3, 5, 5)
    expected = datasets._row_hashes(np.ascontiguousarray(strided))
    np.testing.assert_array_equal(datasets._row_hashes(strided), expected)
    monkeypatch.setattr(datasets, "_HASH_CHUNK_BYTES", 7)
    np.testing.assert_array_equal(datasets._row_hashes(strided), expected)
    assert datasets._rows_by_bytes(np.zeros((3, 0, 1, 1), dtype=np.uint8)) == [[0, 1, 2]]


_rng = np.random.default_rng(47)
HASH_CASES = {  # 40 rows each; most widths are not a whole number of uint64 words
    "cifar-strided": _rng.integers(0, 256, (40, 2 + 3072), dtype=np.uint8)[:, 2:]
                     .reshape(40, 3, 32, 32),
    "uint8-3-bytes": _rng.integers(0, 256, (40, 1, 1, 3), dtype=np.uint8),
    "uint8-75-bytes": _rng.integers(0, 256, (40, 3, 5, 5), dtype=np.uint8),
    # the bytes of wider values as uint8 rows: 18 and 20 bytes end inside a
    # word, 16 fill two words exactly
    "uint16-18-bytes": _rng.integers(0, 2**16, (40, 1, 3, 3), dtype=np.uint16).view(np.uint8),
    "float32-20-bytes": _rng.standard_normal((40, 1, 1, 5), dtype=np.float32).view(np.uint8),
    "int64-16-bytes": _rng.integers(-2**63, 2**63 - 1, (40, 1, 1, 2), dtype=np.int64)
                      .view(np.uint8),
}


@pytest.mark.parametrize("chunk_bytes", [None, 7, 8, 200, 4096])
@pytest.mark.parametrize("kind", HASH_CASES)
def test_row_hashes_match_the_matmul_hash(monkeypatch, kind, chunk_bytes):
    """The chunked einsum gives the uint64s of one whole-array integer matmul,
    also when chunks hold one row or end inside the array."""
    images = HASH_CASES[kind]
    if chunk_bytes is not None:
        monkeypatch.setattr(datasets, "_HASH_CHUNK_BYTES", chunk_bytes)
    hashes = datasets._row_hashes(images)
    assert hashes.dtype == np.uint64
    assert hashes.tobytes() == row_hashes_by_matmul(images).tobytes()


def rows_read_by_groups(hashes, contents):
    """`_duplicate_groups` over rows holding one byte each, with the indices
    whose bytes it read."""
    read = []

    def row(i):
        read.append(i)
        return np.array([contents[i]], dtype=np.uint8)

    return datasets._duplicate_groups(np.array(hashes, dtype=np.uint64), row), read


@pytest.mark.parametrize("hashes, contents, groups, read", [
    # one train and one test row: distinct, then copies
    ([4, 9], [1, 2], [], []),
    ([4, 4], [1, 1], [[0, 1]], [0, 1]),
    # three train rows and three test rows; one hash is held by four rows
    # across both splits, one of them a collision with other bytes
    ([5, 2, 5, 5, 8, 5], [3, 1, 3, 7, 0, 3], [[0, 2, 5]], [0, 2, 3, 5]),
    ([2**64 - 1, 0, 2**64 - 1, 0, 6], [9, 4, 9, 4, 5], [[0, 2], [1, 3]], [0, 1, 2, 3]),
])
def test_duplicate_groups_read_only_rows_whose_hash_repeats(hashes, contents, groups, read):
    assert rows_read_by_groups(hashes, contents) == (groups, read)


def test_duplicate_groups_read_no_row_when_every_hash_is_distinct():
    hashes = np.random.default_rng(53).permutation(5000).astype(np.uint64) * np.uint64(2**40)
    assert rows_read_by_groups(hashes, None) == ([], [])


@st.composite
def planted_image_pairs(draw):
    """Small train and test splits over few pixel values, with copies planted
    within and across the splits."""
    shape = draw(st.sampled_from([(1, 1, 1), (1, 1, 3), (3, 2, 2), (2, 3, 5)]))
    n_train, n_test = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.integers(0, draw(st.sampled_from([2, 4, 256])), (n_train + n_test, *shape))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n_train + n_test - 1),
                                            st.integers(0, n_train + n_test - 1)), max_size=6)):
        images[dst] = images[src]
    labels = rng.integers(1, 4, n_train + n_test)
    return (make_dataset(images[:n_train], labels[:n_train], "train", 3),
            make_dataset(images[n_train:], labels[n_train:], "test", 3),
            draw(st.sampled_from([None, 1, 8, 40])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=planted_image_pairs())
def test_duplicate_scan_matches_the_dict_scan_on_random_planted_pairs(case):
    train, test, chunk_bytes = case
    with pytest.MonkeyPatch.context() as patch:
        if chunk_bytes is not None:
            patch.setattr(datasets, "_HASH_CHUNK_BYTES", chunk_bytes)
        assert find_exact_duplicates(train, test) == duplicates_by_dict(train, test)


def test_duplicate_scan_allocates_a_fraction_of_the_image_bytes():
    """A 16,384-row CIFAR-layout pool (48 MiB of images, strided as load_cifar
    leaves them): the scan never holds a copy of the images."""
    n, n_test = 16384, 1024
    rng = np.random.default_rng(43)
    raw = rng.integers(0, 256, (n + n_test, 2 + 3072), dtype=np.uint8)
    raw[[10, 20, n + 3], 2:] = raw[0, 2:]
    images = raw[:, 2:].reshape(-1, 3, 32, 32)
    labels = np.ones(n + n_test, dtype=np.int64)
    train = Dataset(images[:n], labels[:n], "train", 1)
    test = Dataset(images[n:], labels[n:], "test", 1)
    tracemalloc.start()
    try:
        report = find_exact_duplicates(train, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.within_train == ((0, 10, 20),) and report.cross_images == 1
    assert peak < train.images.nbytes / 4, f"peak {peak / 2**20:.1f} MiB"


def test_duplicate_scan_pairs_every_copy_across_splits():
    rng = np.random.default_rng(19)
    imgs = rng.integers(0, 256, size=(5, 1, 4, 4))
    imgs[3] = imgs[0]
    test_imgs = rng.integers(0, 256, size=(4, 1, 4, 4))
    test_imgs[1] = test_imgs[2] = imgs[0]
    train = make_dataset(imgs, [1, 1, 1, 2, 1])
    test = make_dataset(test_imgs, [1, 1, 2, 1])
    report = find_exact_duplicates(train, test)
    assert report.cross_split == ((0, 1), (0, 2), (3, 1), (3, 2))
    assert report.mismatched_cross == ((0, 2), (3, 1))
    assert report.cross_images == 1


def test_duplicate_scan_rejects_mismatched_shapes():
    train, _ = planted_duplicate_sets()
    small = synth_dataset(3, image_shape=(3, 4, 4), seed=12)
    with pytest.raises(ValueError, match="shapes"):
        find_exact_duplicates(train, small)


# -- synthetic generator --------------------------------------------------------------


def test_synth_dataset_is_deterministic_and_labeled_in_range():
    a = synth_dataset(32, num_classes=10, seed=13)
    b = synth_dataset(32, num_classes=10, seed=13)
    assert a.images.dtype == np.uint8
    assert a.images.tobytes() == b.images.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.labels.min() >= 1 and a.labels.max() <= 10
    c = synth_dataset(32, num_classes=10, seed=14)
    assert a.images.tobytes() != c.images.tobytes()


SYNTH_DIGESTS = {  # sha256 of images then labels bytes, pinned before images were uint8 throughout
    ((1, 1, 1), 200, 0): "4d845de41ff6780c10602d7513d193feaa28ce250eb4217d8a33eea53414370f",
    ((1, 1, 1), 200, 1): "0fa155e564298cada77f2b847d77e0e452a70eec6984ac88a873e59485ffaf80",
    ((1, 1, 1), 200, 2): "b9c44ea7dafd2030837c9c985c9354b4f22fd267eef57726706c54bb415e6a03",
    ((1, 1, 1), 200, 3): "ecdee5d6b0d978d94117b01239059ef6be01bc28a6e7cb0377534eb004c31558",
    ((1, 14, 14), 300, 0): "8cce9679b9868462630972ed1d3189724bdadc65d02c462684fea578da45ecf6",
    ((1, 14, 14), 300, 1): "c7d4abd18ce6cbae255d6364749fc14f89203641e91a6f16aa1d9d9a59966eb9",
}


@pytest.mark.parametrize("image_shape, num_samples, seed", SYNTH_DIGESTS)
def test_synth_dataset_bytes_are_pinned(image_shape, num_samples, seed):
    """A crowded (1, 1, 1) pool runs the redraw loop; a (1, 14, 14) pool is
    the synthetic experiments' shape."""
    ds = synth_dataset(num_samples, image_shape=image_shape, seed=seed)
    digest = hashlib.sha256(ds.images.tobytes() + ds.labels.tobytes()).hexdigest()
    assert digest == SYNTH_DIGESTS[image_shape, num_samples, seed]


def test_synth_dataset_has_no_duplicates_by_scan():
    ds = synth_dataset(300, image_shape=(1, 4, 4), seed=15)
    report = find_exact_duplicates(ds, synth_dataset(5, image_shape=(1, 4, 4), seed=999))
    assert report.within_train == ()


def test_synth_dataset_rejects_more_samples_than_distinct_images():
    with pytest.raises(ValueError, match="only 256 distinct"):
        synth_dataset(257, image_shape=(1, 1, 1))
    ds = synth_dataset(256, image_shape=(1, 1, 1), seed=3)
    assert sorted(ds.images.reshape(-1).tolist()) == list(range(256))


def test_synth_dataset_redraws_later_copies_in_ascending_row_order():
    """The redraw loop the generator was first written with, kept as a pin of
    its RNG stream: every later copy of an image is redrawn, lowest row first."""
    num_samples, shape, seed = 200, (1, 1, 1), 21
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(num_samples, *shape), dtype=np.int64)
    labels = rng.integers(1, 11, size=num_samples)
    rounds = 0
    while True:
        seen, dupes = set(), []
        for i in range(num_samples):
            key = images[i].tobytes()
            if key in seen:
                dupes.append(i)
            seen.add(key)
        if not dupes:
            break
        rounds += 1
        for i in dupes:
            images[i] = rng.integers(0, 256, size=shape, dtype=np.int64)
    assert rounds > 1  # the pin only holds if images were redrawn, over several rounds
    ds = synth_dataset(num_samples, image_shape=shape, seed=seed)
    assert ds.images.tobytes() == images.astype(np.uint8).tobytes()
    np.testing.assert_array_equal(ds.labels, labels)
