import gzip
import struct

import numpy as np
import pytest

from oxcim.data import (DatasetStore, check_labels, load_dataset_dir,
                        load_idx, pad_to_32,
                        synthetic_dataset, synthetic_images)
from oxcim.errors import ConfigError, DomainError, ParseError, ShapeError
from conftest import save_idx, write_dataset_dir


class TestIdx:
    def test_roundtrip_single_pixel(self, tmp_path):
        path = tmp_path / "one.idx"
        save_idx(path, np.array([[[137]]], dtype=np.uint8))
        out = load_idx(path)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 137

    def test_roundtrip_images(self, tmp_path):
        gen = np.random.default_rng(0)
        imgs = gen.integers(0, 256, size=(12, 28, 28)).astype(np.uint8)
        path = tmp_path / "imgs.idx"
        save_idx(path, imgs)
        np.testing.assert_array_equal(load_idx(path), imgs)

    def test_standard_magics(self, tmp_path):
        imgs, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(imgs, np.zeros((2, 28, 28), dtype=np.uint8))
        save_idx(labels, np.zeros(2, dtype=np.uint8))
        assert int.from_bytes(imgs.read_bytes()[:4], "big") == 0x00000803
        assert int.from_bytes(labels.read_bytes()[:4], "big") == 0x00000801

    def test_gzip_transparent(self, tmp_path):
        imgs = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
        raw = tmp_path / "x.idx"
        save_idx(raw, imgs)
        gz = tmp_path / "x.idx.gz"
        gz.write_bytes(gzip.compress(raw.read_bytes()))
        np.testing.assert_array_equal(load_idx(gz), imgs)

    def test_bad_magic_at_offset_zero(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 16)
        with pytest.raises(ParseError) as err:
            load_idx(path)
        assert "offset 0" in str(err.value)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 8, 3) +
                         struct.pack(">III", 2, 4, 4) + b"\x00" * 10)
        with pytest.raises(ParseError):
            load_idx(path)

    def test_dim_overflow(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 8, 3) +
                         struct.pack(">III", 2 ** 31, 2 ** 31, 4))
        with pytest.raises(ParseError):
            load_idx(path)

    def test_big_endian_dims_honored(self, tmp_path):
        # 2x3 ubyte matrix written by hand
        payload = bytes(range(6))
        path = tmp_path / "m.idx"
        path.write_bytes(struct.pack(">BBBB", 0, 0, 8, 2) +
                         struct.pack(">II", 2, 3) + payload)
        out = load_idx(path)
        assert out.shape == (2, 3)
        assert out[1, 2] == 5


class TestDatasetStore:
    def test_ragged_labels_rejected(self):
        # used to end in numpy's ValueError ("inhomogeneous shape")
        with pytest.raises(DomainError, match="labels must be one array"):
            check_labels([[1], [1, 2]], 2)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            DatasetStore(np.zeros((3, 28, 28), dtype=np.uint8),
                         np.zeros(2, dtype=np.uint8),
                         np.zeros((1, 28, 28), dtype=np.uint8),
                         np.zeros(1, dtype=np.uint8))

    def test_label_range(self):
        with pytest.raises(DomainError):
            DatasetStore(np.zeros((1, 28, 28), dtype=np.uint8),
                         np.array([11], dtype=np.uint8),
                         np.zeros((1, 28, 28), dtype=np.uint8),
                         np.zeros(1, dtype=np.uint8))

    @pytest.mark.parametrize("labels", [[2.5, 0.0, 9.0], [1.0, float("nan"),
                                                          3.0]])
    def test_non_integer_labels_rejected(self, labels):
        imgs = np.zeros((3, 28, 28), dtype=np.uint8)
        with pytest.raises(DomainError, match="integers"):
            DatasetStore(imgs, np.array(labels), imgs,
                         np.zeros(3, dtype=np.uint8))

    @pytest.mark.parametrize("code, dtype", [(0x0D, ">f4"), (0x0E, ">f8")])
    def test_float_label_file_rejected(self, tmp_path, code, dtype):
        write_dataset_dir(synthetic_dataset(n_train=3, n_test=3, seed=1),
                          tmp_path)
        labels = np.array([1.7, 3.2, 0.5], dtype=dtype)
        with open(tmp_path / "t10k-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">BBBBI", 0, 0, code, 1, labels.size))
            fh.write(labels.tobytes())
        with pytest.raises(DomainError, match="test labels must be integers"):
            load_dataset_dir(tmp_path)

    def test_checked_arrays_kept(self):
        # a list of images or labels used to be kept as the list
        store = synthetic_dataset(n_train=3, n_test=2, seed=1)
        again = DatasetStore(list(store.train_images), list(store.train_labels),
                             store.test_images, store.test_labels)
        assert again.train_images.shape == (3, 28, 28)
        assert again.train_images.dtype == np.uint8
        np.testing.assert_array_equal(again.train_images, store.train_images)
        np.testing.assert_array_equal(again.train_labels, store.train_labels)
        assert again.train_labels.dtype == store.train_labels.dtype
        assert again.test_images is store.test_images
        assert again.test_labels is store.test_labels

    def test_directory_roundtrip(self, tmp_path):
        store = synthetic_dataset(n_train=20, n_test=10, seed=1)
        write_dataset_dir(store, tmp_path)
        again = load_dataset_dir(tmp_path)
        np.testing.assert_array_equal(again.train_images, store.train_images)
        np.testing.assert_array_equal(again.test_labels, store.test_labels)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            load_dataset_dir(tmp_path)
        assert "train-images" in str(err.value)


class TestPadding:
    def test_pad_28_to_32_centered(self):
        img = np.full((28, 28), 9, dtype=np.uint8)
        out = pad_to_32(img)
        assert out.shape == (32, 32)
        assert out[2, 2] == 9
        assert out[:2].sum() == 0 and out[:, :2].sum() == 0
        assert out[30:].sum() == 0 and out[:, 30:].sum() == 0

    def test_32_passthrough(self):
        img = np.ones((32, 32), dtype=np.uint8)
        np.testing.assert_array_equal(pad_to_32(img), img)

    @pytest.mark.parametrize("images", [
        [[1], [1, 2]], np.zeros((2, 28, 28), dtype=bool),
        np.zeros((28, 28)), np.full((28, 28), 256)],
        ids=["ragged", "bool", "float", "int64"])
    def test_images_checked(self, images):
        # a ragged nest used to end in numpy's ValueError, and the arrays
        # were padded and returned
        with pytest.raises(DomainError):
            pad_to_32(images)

    def test_other_sizes_rejected(self):
        with pytest.raises(ShapeError):
            pad_to_32(np.ones((30, 30), dtype=np.uint8))


class TestSynthetic:
    @pytest.mark.parametrize("make", [
        lambda: synthetic_images(2.5, 1), lambda: synthetic_images(True, 1),
        lambda: synthetic_images(2, 1.5), lambda: synthetic_images(2, -1),
        lambda: synthetic_dataset(n_train=2.5),
        lambda: synthetic_dataset(n_test=-1)],
        ids=["n", "n_bool", "seed", "negative_seed", "n_train", "n_test"])
    def test_bad_counts_and_seeds_rejected(self, make):
        # n = 2.5 used to end in a TypeError, seed -1 in numpy's ValueError
        with pytest.raises(ConfigError):
            make()

    def test_deterministic(self):
        a = synthetic_dataset(n_train=30, n_test=10, seed=3)
        b = synthetic_dataset(n_train=30, n_test=10, seed=3)
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_all_classes_present(self):
        store = synthetic_dataset(n_train=300, n_test=100, seed=4)
        assert set(np.unique(store.train_labels)) == set(range(10))

    def test_fmnist_like_statistics(self):
        store = synthetic_dataset(n_train=100, n_test=10, seed=5)
        imgs = store.train_images.astype(np.float64)
        # dark background, bright object
        assert imgs.mean() > 10
        assert (imgs > 100).mean() > 0.05
        assert (imgs < 30).mean() > 0.4
