"""Dataset ingestion: CIFAR-10 binary batches and synthetic generators.

CIFAR-10 binary format: concatenated 3073-byte records, one label byte
then 3072 pixel bytes laid out as three 1024-byte row-major planes
(R, G, B) of a 32 x 32 image.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .tensor import require

RECORD_BYTES = 3073

# Fixed normalization constants (documented defaults, not recomputed).
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)


@dataclass
class Dataset:
    images: np.ndarray   # (N, C, H, W) float32
    labels: np.ndarray   # (N,) int64

    def __post_init__(self):
        require(self.images.ndim == 4, "images must be (N, C, H, W)")
        require(len(self.images) == len(self.labels), "image/label count mismatch")

    def __len__(self):
        return len(self.labels)

    def subset(self, size: int, seed: int) -> "Dataset":
        """First ``size`` samples after a seeded shuffle."""
        require(0 < size <= len(self),
                f"subset size must lie in [1, {len(self)}], got {size}")
        require(seed >= 0, f"subset seed must be non-negative, got {seed}")
        order = np.random.default_rng(seed).permutation(len(self))[:size]
        return Dataset(self.images[order], self.labels[order])


def parse_cifar10_file(path) -> tuple:
    """One binary batch -> (uint8 images (N, 3, 32, 32), int64 labels)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % RECORD_BYTES != 0:
        good = len(raw) - len(raw) % RECORD_BYTES
        raise DataFormatError(
            f"{path}: file length {len(raw)} is not a multiple of {RECORD_BYTES}; "
            f"partial record starts at byte offset {good}"
        )
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = rec[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise DataFormatError(
            f"{path}: record {int(bad[0])} has label byte {int(labels[bad[0]])}, "
            f"valid range is 0..9"
        )
    images = rec[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def normalize_images(u8: np.ndarray) -> np.ndarray:
    """uint8 planes -> [0,1] -> per-channel standardized float32."""
    x = u8.astype(np.float32) / np.float32(255.0)
    mean = np.asarray(CIFAR10_MEAN, dtype=np.float32)[None, :, None, None]
    std = np.asarray(CIFAR10_STD, dtype=np.float32)[None, :, None, None]
    return (x - mean) / std


def load_cifar10(dir_path) -> tuple:
    """Load (train, test) Datasets from a directory of binary batches.

    Training data is the concatenation of data_batch_*.bin in sorted
    order; test data is test_batch.bin.  Ordering is byte-stable.  A
    split with no records is an error."""
    train_files = sorted(glob.glob(os.path.join(dir_path, "data_batch_*.bin")))
    test_file = os.path.join(dir_path, "test_batch.bin")
    if not train_files:
        raise DataFormatError(f"{dir_path}: no data_batch_*.bin files found")
    if not os.path.exists(test_file):
        raise DataFormatError(f"{test_file}: missing test batch")

    def build(files, where):
        images, labels = [], []
        for p in files:
            im, lb = parse_cifar10_file(p)
            images.append(im)
            labels.append(lb)
        labels = np.concatenate(labels)
        if not labels.size:
            raise DataFormatError(f"{where}: no records")
        return Dataset(normalize_images(np.concatenate(images)), labels)

    return (build(train_files, os.path.join(dir_path, "data_batch_*.bin")),
            build([test_file], test_file))


def write_cifar10_batch(path, images_u8: np.ndarray, labels: np.ndarray) -> None:
    """Inverse of parse_cifar10_file, for fabricating format-exact batches."""
    require(images_u8.dtype == np.uint8, "images must be uint8")
    require(images_u8.ndim == 4 and images_u8.shape[1:] == (3, 32, 32),
            "images must be (N, 3, 32, 32)")
    n = len(labels)
    rec = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = np.asarray(labels, dtype=np.uint8)
    rec[:, 1:] = images_u8.reshape(n, 3072)
    with open(path, "wb") as f:
        f.write(rec.tobytes())


def _bilinear_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Interpolation weights mapping n_in control points to n_out samples."""
    a = np.zeros((n_out, n_in))
    pos = np.linspace(0, n_in - 1, n_out)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    t = pos - lo
    a[np.arange(n_out), lo] += 1 - t
    a[np.arange(n_out), hi] += t
    return a


def synth_dataset(kind: str, n: int, seed: int, size: int = 32) -> Dataset:
    """Two-class synthetic sets, reproducible from the seed.

    smooth_vs_textured: class 0 is a low-frequency blob (bilinear upsample
    of a 4 x 4 field, near-zero gradient energy), class 1 is iid noise
    (high gradient energy).  two_gaussians: iid pixels with class-shifted
    means, spatially featureless either way.
    """
    require(n >= 2 and n % 2 == 0, f"need an even sample count >= 2, got {n}")
    require(kind in ("smooth_vs_textured", "two_gaussians"), f"unknown kind {kind!r}")
    require(seed >= 0, f"synthetic seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    half = n // 2
    if kind == "smooth_vs_textured":
        a = _bilinear_matrix(size, 4)
        coarse = rng.normal(0.0, 1.0, (half, 3, 4, 4))
        smooth = np.einsum("ij,ncjk,lk->ncil", a, coarse, a)
        textured = rng.normal(0.0, 1.0, (half, 3, size, size))
        images = np.concatenate([smooth, textured]).astype(np.float32)
    else:
        base = rng.normal(0.0, 1.0, (n, 3, size, size))
        shift = np.concatenate([np.full(half, -0.5), np.full(half, 0.5)])
        images = (base + shift[:, None, None, None]).astype(np.float32)
    labels = np.concatenate([
        np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64),
    ])
    order = rng.permutation(n)
    return Dataset(images[order], labels[order])


def augment_batch(images: np.ndarray, rng) -> np.ndarray:
    """Horizontal flip (p = 0.5 per sample) plus pad-4 random crop."""
    n, c, h, w = images.shape
    out = images.copy()
    flips = rng.random(n) < 0.5
    out[flips] = out[flips, :, :, ::-1]
    padded = np.pad(out, ((0, 0), (0, 0), (4, 4), (4, 4)))
    offs = rng.integers(0, 9, size=(n, 2))
    for i in range(n):
        oy, ox = offs[i]
        out[i] = padded[i, :, oy:oy + h, ox:ox + w]
    return out
