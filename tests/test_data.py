import numpy as np
import pytest

from cacconv import DataFormatError, InvalidArgument, sobel_gradient
from cacconv.tensor import channel_mean
from cacconv.data import (
    CIFAR10_MEAN,
    CIFAR10_STD,
    RECORD_BYTES,
    augment_batch,
    load_cifar10,
    load_cifar10_split,
    normalize_images,
    parse_cifar10_file,
    synth_dataset,
    write_cifar10_batch,
)
from cacconv.train import evaluate, train_model


def random_batch(n, seed):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.int64)
    return images, labels


class TestCifarBinary:
    def test_write_parse_round_trip(self, tmp_path):
        images, labels = random_batch(17, seed=0)
        path = tmp_path / "data_batch_1.bin"
        write_cifar10_batch(path, images, labels)
        assert path.stat().st_size == 17 * RECORD_BYTES
        back_im, back_lb = parse_cifar10_file(path)
        assert np.array_equal(back_im, images)
        assert np.array_equal(back_lb, labels)

    def test_normalization_of_saturated_pixel(self):
        u8 = np.zeros((1, 3, 32, 32), dtype=np.uint8)
        u8[0, 0, 5, 5] = 255
        x = normalize_images(u8)
        want = (np.float32(1.0) - np.float32(CIFAR10_MEAN[0])) / np.float32(CIFAR10_STD[0])
        assert x[0, 0, 5, 5] == pytest.approx(want, rel=1e-6)
        want0 = (np.float32(0.0) - np.float32(CIFAR10_MEAN[2])) / np.float32(CIFAR10_STD[2])
        assert x[0, 2, 0, 0] == pytest.approx(want0, rel=1e-6)
        assert x.dtype == np.float32

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        images, labels = random_batch(3, seed=1)
        path = tmp_path / "bad.bin"
        write_cifar10_batch(path, images, labels)
        with open(path, "ab") as f:
            f.write(b"\x01" * 10)
        with pytest.raises(DataFormatError, match=rf"byte offset {3 * RECORD_BYTES}"):
            parse_cifar10_file(path)

    def test_out_of_range_label_reports_record_index(self, tmp_path):
        images, labels = random_batch(5, seed=2)
        path = tmp_path / "bad_label.bin"
        write_cifar10_batch(path, images, labels)
        raw = bytearray(path.read_bytes())
        raw[3 * RECORD_BYTES] = 11
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"record 3 has label byte 11"):
            parse_cifar10_file(path)

    def test_loader_concatenates_batches_in_sorted_order(self, tmp_path):
        im1, lb1 = random_batch(4, seed=3)
        im2, lb2 = random_batch(6, seed=4)
        imt, lbt = random_batch(2, seed=5)
        write_cifar10_batch(tmp_path / "data_batch_1.bin", im1, lb1)
        write_cifar10_batch(tmp_path / "data_batch_2.bin", im2, lb2)
        write_cifar10_batch(tmp_path / "test_batch.bin", imt, lbt)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 10 and len(test) == 2
        assert np.array_equal(train.labels, np.concatenate([lb1, lb2]))
        assert np.array_equal(train.images[:4], normalize_images(im1))
        # loading twice yields bitwise identical arrays
        train2, _ = load_cifar10(tmp_path)
        assert np.array_equal(train.images, train2.images)

    def test_split_loader_reads_only_its_split(self, tmp_path):
        imt, lbt = random_batch(2, seed=5)
        write_cifar10_batch(tmp_path / "test_batch.bin", imt, lbt)
        test = load_cifar10_split(tmp_path, "test")
        assert np.array_equal(test.labels, lbt)
        assert np.array_equal(test.images, normalize_images(imt))
        with pytest.raises(DataFormatError, match="data_batch"):
            load_cifar10_split(tmp_path, "train")
        with pytest.raises(InvalidArgument, match="split"):
            load_cifar10_split(tmp_path, "val")

    def test_missing_batches_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="data_batch"):
            load_cifar10(tmp_path)
        im, lb = random_batch(2, seed=6)
        write_cifar10_batch(tmp_path / "data_batch_1.bin", im, lb)
        with pytest.raises(DataFormatError, match="test_batch"):
            load_cifar10(tmp_path)


class TestSynth:
    def test_seed_determinism(self):
        a = synth_dataset("smooth_vs_textured", 32, 7)
        b = synth_dataset("smooth_vs_textured", 32, 7)
        c = synth_dataset("smooth_vs_textured", 32, 8)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_smooth_class_has_lower_gradient_energy(self):
        for seed in range(5):
            ds = synth_dataset("smooth_vs_textured", 64, seed)
            g = sobel_gradient(channel_mean(ds.images))
            per_sample = g.reshape(len(ds), -1).mean(axis=1)
            smooth = per_sample[ds.labels == 0].mean()
            textured = per_sample[ds.labels == 1].mean()
            assert smooth < 0.25 * textured, f"seed {seed}"

    def test_two_gaussians_classes_differ_in_mean_only(self):
        ds = synth_dataset("two_gaussians", 128, 9)
        m0 = ds.images[ds.labels == 0].mean()
        m1 = ds.images[ds.labels == 1].mean()
        assert m0 < -0.3 and m1 > 0.3

    def test_classes_balanced_and_shuffled(self):
        ds = synth_dataset("smooth_vs_textured", 40, 10)
        assert int(ds.labels.sum()) == 20
        assert ds.labels[:20].sum() not in (0, 20)

    def test_odd_count_rejected(self):
        with pytest.raises(InvalidArgument):
            synth_dataset("smooth_vs_textured", 7, 0)
        with pytest.raises(InvalidArgument):
            synth_dataset("nope", 8, 0)

    def test_one_layer_classifier_separates_holdout(self, tmp_path):
        from cacconv.cli import RunConfig

        cfg = RunConfig.from_dict({
            "seed": 0,
            "model": "cac_tiny_synth",
            "lambda": 0.0,
            "epochs": 3,
            "batch_size": 64,
            "output_dir": str(tmp_path / "run"),
            "dataset": {"kind": "synthetic", "synth_n": 512},
            "optimizer": {"lr": 0.05},
        })
        train = synth_dataset("smooth_vs_textured", 512, 0)
        held_out = synth_dataset("smooth_vs_textured", 2000, 123)
        result = train_model(cfg, train.images, train.labels,
                             held_out.images, held_out.labels)
        res = evaluate(result.net, held_out.images, held_out.labels)
        assert res.top1_error <= 0.05


class TestSubsetAndAugment:
    def test_subset_seeded_and_bounded(self):
        ds = synth_dataset("two_gaussians", 64, 11)
        s1 = ds.subset(16, seed=3)
        s2 = ds.subset(16, seed=3)
        s3 = ds.subset(16, seed=4)
        assert len(s1) == 16
        assert np.array_equal(s1.images, s2.images)
        assert not np.array_equal(s1.labels, s3.labels) or \
            not np.array_equal(s1.images, s3.images)
        with pytest.raises(InvalidArgument):
            ds.subset(65, seed=0)

    def test_augment_shapes_and_determinism(self):
        ds = synth_dataset("two_gaussians", 8, 12)
        out1 = augment_batch(ds.images, np.random.default_rng(5))
        out2 = augment_batch(ds.images, np.random.default_rng(5))
        assert out1.shape == ds.images.shape
        assert np.array_equal(out1, out2)
        assert not np.array_equal(out1, ds.images)

    def test_augment_only_moves_pixels(self):
        ds = synth_dataset("two_gaussians", 16, 13)
        out = augment_batch(ds.images, np.random.default_rng(6))
        for i in range(len(ds)):
            allowed = set(ds.images[i].ravel().tolist()) | {0.0}
            got = set(out[i].ravel().tolist())
            assert got <= allowed
