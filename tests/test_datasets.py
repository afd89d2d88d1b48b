import struct
from dataclasses import replace

import numpy as np
import pytest

from fedtrap.datasets import (Dataset, DatasetFormatError, duplicate_report_rows,
                              find_exact_duplicates, load_cifar, load_mnist_idx,
                              sample_run, synth_dataset,
                              write_cifar_fixture, write_mnist_fixture)


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
    rng = np.random.default_rng(5)
    imgs = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    ref = hand_written_cifar(tmp_path, "ref.bin", [
        ((4, 9), imgs[0].reshape(-1)), ((0, 2), imgs[1].reshape(-1))])
    out = tmp_path / "out.bin"
    write_cifar_fixture(out, imgs, fine_labels=[9, 2], coarse_labels=[4, 0])
    assert out.read_bytes() == ref.read_bytes()
    reparsed = load_cifar(out, "cifar100-fine")
    assert reparsed.labels.tolist() == [10, 3]


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


def test_duplicate_groups_are_verified_by_bytes_not_hash_alone():
    train, test = planted_duplicate_sets()
    report = find_exact_duplicates(train, test)
    for group in report.within_train:
        first = train.images[group[0]].tobytes()
        for other in group[1:]:
            assert train.images[other].tobytes() == first


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
