"""Dataset ingestion: IDX file parsing, directory loading, synthetic data.

The IDX layout is the standard one used by the MNIST-family distributions:
a 4-byte magic (two zero bytes, a dtype code, the dimension count) followed
by big-endian uint32 dimension sizes and the raw payload.  Image files use
magic 0x00000803 (ubyte, 3 dims), label files 0x00000801.

Real Fashion-MNIST files are loaded from a directory using their standard
names (gzipped or plain).  When no real dataset is available the synthetic
generator below produces a deterministic 10-class grayscale shape corpus
with FMNIST-like statistics (bright textured object on a dark background,
28x28 uint8), which keeps every pipeline stage exercisable offline.
"""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ShapeError, check_integer, \
    check_integers

_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}

N_CLASSES = 10  # label values 0..9
STANDARD_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _read_file(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def load_idx(path):
    """Decode one IDX file into an ndarray, honoring the header bit-exactly.

    Parse failures raise ParseError naming the byte offset of the defect.
    """
    raw = _read_file(path)
    if len(raw) < 4:
        raise ParseError("file shorter than the 4-byte magic", path=path, offset=0)
    zero, dtype_code, ndim = raw[0] << 8 | raw[1], raw[2], raw[3]
    if zero != 0 or dtype_code not in _IDX_DTYPES:
        raise ParseError(
            f"bad magic 0x{int.from_bytes(raw[:4], 'big'):08X}", path=path, offset=0)
    if ndim < 1:
        raise ParseError("zero-dimensional IDX payload", path=path, offset=3)
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise ParseError("truncated dimension table", path=path, offset=len(raw))
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    count = 1
    for d in dims:
        count *= d
        if count > 1 << 40:
            raise ParseError(f"dimension overflow: {dims}", path=path, offset=4)
    dtype = _IDX_DTYPES[dtype_code]
    expect = header_len + count * dtype.itemsize
    if len(raw) != expect:
        raise ParseError(
            f"payload size {len(raw) - header_len} != expected "
            f"{count * dtype.itemsize}", path=path, offset=min(len(raw), expect))
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=header_len)
    return data.reshape(dims).astype(dtype.newbyteorder("="))


def check_labels(labels, n, classes=N_CLASSES, what="labels"):
    """labels as an int64 array, one integer in 0..classes-1 for each of n
    images; a ShapeError for a wrong count."""
    y = check_integers(labels, what, 0, classes)
    if y.shape != (n,):
        raise ShapeError(f"{what} of shape {y.shape} for {n} images; "
                         "give one label per image")
    return y.astype(np.int64)


def check_images(images, what="images"):
    """images as a uint8 (n, H, W) array, else a DomainError or ShapeError."""
    arr = check_integers(images, what, 0, 256)
    if arr.dtype != np.uint8:
        raise DomainError(f"{what} must be uint8 (0..255), got {arr.dtype}")
    if arr.ndim != 3:
        raise ShapeError(f"{what} must be (n, H, W), got shape {arr.shape}")
    return arr


@dataclass
class DatasetStore:
    """Train/test images and labels with the usual validity checks."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        for split in ("train", "test"):
            imgs = check_images(getattr(self, f"{split}_images"),
                                f"{split} images")
            labels = getattr(self, f"{split}_labels")
            check_labels(labels, imgs.shape[0], what=f"{split} labels")
            setattr(self, f"{split}_images", imgs)
            setattr(self, f"{split}_labels", np.asarray(labels))


def load_dataset_dir(path):
    """Load the four standard IDX files (optionally .gz) from a directory."""
    parts = {}
    for key, base in STANDARD_FILES.items():
        candidates = [os.path.join(path, base), os.path.join(path, base + ".gz")]
        found = next((c for c in candidates if os.path.exists(c)), None)
        if found is None:
            raise FileNotFoundError(
                f"missing dataset file {base}[.gz] under {path}")
        parts[key] = load_idx(found)
    return DatasetStore(**parts)


def pad_to_32(images):
    """Zero-pad 28x28 images to 32x32 (2 background pixels on every side).

    images is one (H, W) image or a batch that check_images takes.
    """
    arr = check_integers(images, "images", 0, 256)
    single = arr.ndim == 2
    arr = check_images(arr[None] if single else arr)
    if arr.shape[1:] == (32, 32):
        return arr[0] if single else arr
    if arr.shape[1:] != (28, 28):
        raise ShapeError(f"expected 28x28 or 32x32 images, got {arr.shape[1:]}")
    out = np.zeros((arr.shape[0], 32, 32), dtype=arr.dtype)
    out[:, 2:30, 2:30] = arr
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Synthetic fallback corpus
# ---------------------------------------------------------------------------

# Row and column index of every pixel, shared (read-only) by every mask.
_YY, _XX = np.mgrid[0:28, 0:28]
_YY.flags.writeable = _XX.flags.writeable = False


def _shape_mask(cls, rng):
    """One 28x28 boolean mask for class `cls` with jittered geometry."""
    m = np.zeros((28, 28), dtype=bool)
    cy, cx = 14 + rng.integers(-2, 3), 14 + rng.integers(-2, 3)
    size = int(rng.integers(8, 12))
    dy, dx = _YY - cy, _XX - cx
    t = int(rng.integers(2, 4))  # stroke thickness
    if cls == 0:      # solid square
        m = (np.abs(dy) <= size) & (np.abs(dx) <= size)
    elif cls == 1:    # hollow square
        outer = (np.abs(dy) <= size) & (np.abs(dx) <= size)
        inner = (np.abs(dy) <= size - t - 1) & (np.abs(dx) <= size - t - 1)
        m = outer & ~inner
    elif cls == 2:    # disc
        m = dy * dy + dx * dx <= size * size
    elif cls == 3:    # ring
        r2 = dy * dy + dx * dx
        m = (r2 <= size * size) & (r2 >= (size - t - 1) ** 2)
    elif cls == 4:    # triangle (upward)
        m = (dy >= -size) & (dy <= size) & (np.abs(dx) <= (dy + size) * 0.6)
    elif cls == 5:    # plus
        m = ((np.abs(dy) <= t) & (np.abs(dx) <= size)) | \
            ((np.abs(dx) <= t) & (np.abs(dy) <= size))
    elif cls == 6:    # X
        m = (np.abs(dy - dx) <= t) | (np.abs(dy + dx) <= t)
        m &= (np.abs(dy) <= size) & (np.abs(dx) <= size)
    elif cls == 7:    # horizontal bars
        m = (np.abs(dx) <= size) & (np.abs(dy) <= size) & ((_YY // (t + 2)) % 2 == 0)
    elif cls == 8:    # vertical bars
        m = (np.abs(dx) <= size) & (np.abs(dy) <= size) & ((_XX // (t + 2)) % 2 == 0)
    else:             # diamond
        m = np.abs(dy) + np.abs(dx) <= size + 2
    return m


def synthetic_images(n, seed, start_index=0):
    """n labeled images with FMNIST-like pixel statistics.

    Bright textured object (roughly 90..230) on a dark noisy background
    (0..25); per-image brightness and geometry jitter keep the task
    non-trivial for a small quantized net.  n, seed and start_index are
    integers >= 0 (numpy's generator takes no negative seed).
    """
    check_integer(n, "image count", lo=0)
    check_integer(seed, "synthetic seed", lo=0)
    check_integer(start_index, "start index", lo=0)
    images = np.empty((n, 28, 28), dtype=np.uint8)
    labels = np.empty(n, dtype=np.uint8)
    for i in range(n):
        rng = np.random.default_rng((seed, start_index + i))
        cls = int(rng.integers(0, 10))
        mask = _shape_mask(cls, rng)
        base = float(rng.uniform(120, 210))
        img = rng.uniform(0.0, 25.0, size=(28, 28))
        texture = rng.normal(0.0, 22.0, size=(28, 28))
        img[mask] = np.clip(base + texture[mask], 60.0, 255.0)
        # occasional dropout holes inside the object
        holes = rng.random((28, 28)) < 0.03
        img[mask & holes] = rng.uniform(0.0, 40.0)
        images[i] = np.clip(img, 0, 255).astype(np.uint8)
        labels[i] = cls
    return images, labels


def synthetic_dataset(n_train=8000, n_test=2000, seed=7):
    """Deterministic DatasetStore substitute for offline runs."""
    tr_i, tr_l = synthetic_images(n_train, seed, start_index=0)
    te_i, te_l = synthetic_images(n_test, seed, start_index=10_000_000)
    return DatasetStore(tr_i, tr_l, te_i, te_l)

