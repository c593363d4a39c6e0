"""Dataset loading and procedural generation.

Sources accepted by make_dataset:

  * a directory containing IDX image/label files (train-images-idx3-ubyte,
    train-labels-idx1-ubyte, t10k-... for the validation split; dotted
    variants of the names are also accepted),
  * "glyphs:train=N,test=M"  procedural 28x28 digit images, 10 classes,
    each a jittered stroke skeleton blurred by its distance field plus
    pixel noise,
  * "gauss2:n=N"             two 2D Gaussian blobs, 2 classes,
  * "linreg:n=N,slope=A,intercept=B,noise=S"  scalar regression pairs.

Sample counts N and M must be positive integers, and neither IDX split may
be empty; a ValueError names the source and the parameter or file.

Images are scaled to [0, 1] and then standardized with the training
split's scalar mean/std; the same normalization constants are applied to
the validation split and are recorded on the handle, so every precision
mode sees bit-identical inputs for a given source and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from typing import Dict, Tuple, Union

import numpy as np

from .fileio import read_idx_images, read_idx_labels

# === handle ===


@dataclasses.dataclass
class DatasetHandle:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    mean: float
    std: float
    checksum: str

    @property
    def in_shape(self) -> Tuple[int, ...]:
        return self.train_x.shape[1:]


def _finish(source: str, train_x, train_y, val_x, val_y,
            normalize: bool = True) -> DatasetHandle:
    train_x = np.asarray(train_x, np.float32)
    val_x = np.asarray(val_x, np.float32)
    digest = hashlib.sha256()
    for arr in (train_x, train_y, val_x, val_y):
        digest.update(np.ascontiguousarray(arr).tobytes())
    if normalize:
        mean = float(train_x.mean())
        std = float(train_x.std())
        if std < 1e-8:
            raise ValueError(f"{source}: degenerate data, std={std}")
        train_x = ((train_x - np.float32(mean)) / np.float32(std)).astype(np.float32)
        val_x = ((val_x - np.float32(mean)) / np.float32(std)).astype(np.float32)
    else:
        mean, std = 0.0, 1.0
    return DatasetHandle(train_x, train_y, val_x, val_y, mean, std, digest.hexdigest())


def _parse_kv(source: str, body: str, defaults: Dict[str, Union[int, float]]) -> Dict:
    """The comma-separated key=value parameters of source, over defaults.

    Each key may be given once and must be a key of defaults.  A key whose
    default is an int is a sample count and takes a positive integer;
    every other key takes a finite number.  A ValueError names the source
    and the key.
    """
    out = dict(defaults)
    seen = set()
    for item in body.split(",") if body else ():
        k, eq, v = item.partition("=")
        if not eq:
            raise ValueError(f"{source}: bad dataset parameter {item!r}; expected key=value")
        if k not in defaults:
            raise ValueError(f"{source}: unknown dataset parameter {k!r}; "
                             f"expected one of {', '.join(defaults)}")
        if k in seen:
            raise ValueError(f"{source}: {k} given more than once")
        seen.add(k)
        try:
            value = float(v)
        except ValueError:
            raise ValueError(f"{source}: {k} must be a number, have {v!r}") from None
        if isinstance(defaults[k], int):
            if not (value.is_integer() and value >= 1):
                raise ValueError(f"{source}: {k} must be a positive integer, have {value:g}")
            value = int(value)
        elif not math.isfinite(value):
            raise ValueError(f"{source}: {k} must be finite, have {value:g}")
        out[k] = value
    return out


# === procedural glyph images ===

# Stroke skeletons for the ten digit classes, unit square coordinates
# (x right, y down).  Each class is a list of polylines.
_GLYPH_STROKES = {
    0: [[(0.5 + 0.30 * np.sin(a), 0.5 - 0.40 * np.cos(a))
         for a in np.linspace(0, 2 * np.pi, 13)]],
    1: [[(0.35, 0.25), (0.52, 0.08), (0.52, 0.92)]],
    2: [[(0.22, 0.30), (0.30, 0.12), (0.50, 0.08), (0.70, 0.12), (0.78, 0.30),
         (0.68, 0.50), (0.30, 0.75), (0.22, 0.92), (0.80, 0.92)]],
    3: [[(0.25, 0.12), (0.50, 0.08), (0.74, 0.22), (0.58, 0.44), (0.45, 0.50),
         (0.60, 0.55), (0.78, 0.70), (0.60, 0.90), (0.30, 0.92), (0.22, 0.80)]],
    4: [[(0.58, 0.08), (0.18, 0.58), (0.85, 0.58)], [(0.62, 0.30), (0.62, 0.92)]],
    5: [[(0.75, 0.10), (0.30, 0.10), (0.27, 0.45), (0.55, 0.42), (0.74, 0.55),
         (0.72, 0.78), (0.50, 0.90), (0.25, 0.82)]],
    6: [[(0.65, 0.10), (0.40, 0.30), (0.28, 0.55), (0.30, 0.78), (0.50, 0.90),
         (0.70, 0.80), (0.72, 0.60), (0.50, 0.50), (0.32, 0.62)]],
    7: [[(0.20, 0.10), (0.80, 0.10), (0.45, 0.92)], [(0.35, 0.50), (0.65, 0.50)]],
    8: [[(0.5 + 0.20 * np.sin(a), 0.30 - 0.20 * np.cos(a))
         for a in np.linspace(0, 2 * np.pi, 11)],
        [(0.5 + 0.23 * np.sin(a), 0.72 - 0.22 * np.cos(a))
         for a in np.linspace(0, 2 * np.pi, 11)]],
    9: [[(0.5 + 0.22 * np.sin(a), 0.32 - 0.22 * np.cos(a))
         for a in np.linspace(0, 2 * np.pi, 11)],
        [(0.72, 0.36), (0.66, 0.92)]],
}

_GLYPH_SIZE = 28

# Pixel centres in raster order, x = column and y = row.
_PIX_Y, _PIX_X = (v.ravel().astype(np.float64)
                  for v in np.mgrid[0:_GLYPH_SIZE, 0:_GLYPH_SIZE])


def _glyph_segments(label: int, rng: np.random.Generator):
    """One jittered copy of a digit's strokes as (s, 2) segment starts and
    ends in pixel coordinates; draws 6 uniforms."""
    theta = rng.uniform(-0.21, 0.21)
    sx, sy = rng.uniform(0.85, 1.15, size=2)
    shear = rng.uniform(-0.12, 0.12)
    tx, ty = rng.uniform(-1.8, 1.8, size=2)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    aff = rot @ np.array([[sx, shear * sx], [0.0, sy]])
    segs_a, segs_b = [], []
    for stroke in _GLYPH_STROKES[label]:
        pts = np.asarray(stroke, np.float64) - 0.5
        pts = pts @ aff.T * 20.0 + (_GLYPH_SIZE - 1) / 2.0 + np.array([tx, ty])
        segs_a.append(pts[:-1])
        segs_b.append(pts[1:])
    return np.concatenate(segs_a), np.concatenate(segs_b)


def _distance2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each pixel centre, in raster order, to the
    nearest of the segments a[i] -> b[i].

    Segment-major: x and y live in separate (segments, 784) arrays, so each
    dot product and squared distance is a two-term sum, the same IEEE
    operations as a sum over a length-2 coordinate axis."""
    ax, ay = a[:, :1], a[:, 1:]         # (s, 1) columns
    abx, aby = b[:, :1] - ax, b[:, 1:] - ay
    denom = np.maximum(abx * abx + aby * aby, 1e-12)
    dx = _PIX_X - ax                    # (s, 784): pixel minus segment start
    dy = _PIX_Y - ay
    t = dx * abx
    t += dy * aby
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)         # closest point is t*ab + a
    np.multiply(t, abx, out=dx)
    dx += ax
    np.subtract(_PIX_X, dx, out=dx)
    np.multiply(t, aby, out=dy)
    dy += ay
    np.subtract(_PIX_Y, dy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx.min(axis=0)


def _render_glyph(label: int, rng: np.random.Generator) -> np.ndarray:
    """Rasterize one jittered digit as a float32 image in [0, 1]; draws 6
    uniforms (the jitter), then 784 normals (pixel noise)."""
    d2 = _distance2(*_glyph_segments(label, rng))
    img = np.exp(-d2 / (0.9 ** 2)).reshape(_GLYPH_SIZE, _GLYPH_SIZE)
    img += rng.normal(0.0, 0.03, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def make_glyphs(n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """n procedural digit images, balanced labels in shuffled order."""
    labels = rng.permutation(np.arange(n) % 10).astype(np.int64)
    images = np.empty((n, 1, _GLYPH_SIZE, _GLYPH_SIZE), np.float32)
    for i, label in enumerate(labels):
        images[i, 0] = _render_glyph(int(label), rng)
    return images, labels


# === synthetic numeric datasets ===


def _make_gauss2(n_train: int, n_val: int, rng: np.random.Generator):
    def split(n):
        y = rng.permutation(np.arange(n) % 2).astype(np.int64)
        centers = np.where(y[:, None] == 0, -1.2, 1.2).astype(np.float64)
        x = centers + rng.normal(0.0, 0.45, (n, 2))
        return x.astype(np.float32), y
    tx, ty = split(n_train)
    vx, vy = split(n_val)
    return tx, ty, vx, vy


def _make_linreg(n: int, slope: float, intercept: float, noise: float,
                 rng: np.random.Generator):
    def split(count):
        x = rng.uniform(-1.0, 1.0, (count, 1))
        y = slope * x + intercept + noise * rng.normal(0.0, 1.0, (count, 1))
        return x.astype(np.float32), y.astype(np.float32)
    tx, ty = split(n)
    vx, vy = split(max(16, n // 4))
    return tx, ty, vx, vy


# === IDX directory loading ===


def _find_idx(directory: str, stem: str) -> str:
    for name in (f"{stem.replace('.', '-')}", stem,
                 f"{stem.replace('-idx', '.idx')}"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"no {stem} (or dotted variant) in {directory}")


def _load_idx_dir(directory: str):
    splits = []
    for prefix in ("train", "t10k"):
        images_path = _find_idx(directory, f"{prefix}-images-idx3-ubyte")
        x = read_idx_images(images_path)
        y = read_idx_labels(_find_idx(directory, f"{prefix}-labels-idx1-ubyte"))
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{directory}: image/label counts disagree")
        if x.shape[0] == 0:
            raise ValueError(f"{images_path}: no images; a split must not be empty")
        splits += [x[:, None].astype(np.float32) * np.float32(1.0 / 255.0),
                   y.astype(np.int64)]
    return tuple(splits)


# === dispatch ===


def make_dataset(source: str, seed: int) -> DatasetHandle:
    if os.path.isdir(source):
        tx, ty, vx, vy = _load_idx_dir(source)
        return _finish(source, tx, ty, vx, vy)

    kind, _, body = source.partition(":")
    if kind == "glyphs":
        p = _parse_kv(source, body, {"train": 4096, "test": 1024})
        rng_t = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        rng_v = np.random.default_rng(np.random.SeedSequence([seed, 102]))
        tx, ty = make_glyphs(p["train"], rng_t)
        vx, vy = make_glyphs(p["test"], rng_v)
        return _finish(source, tx, ty, vx, vy)
    if kind == "gauss2":
        n = _parse_kv(source, body, {"n": 1024})["n"]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 103]))
        tx, ty, vx, vy = _make_gauss2(n, max(64, n // 4), rng)
        return _finish(source, tx, ty, vx, vy, normalize=False)
    if kind == "linreg":
        p = _parse_kv(source, body, {"n": 256, "slope": 3.0, "intercept": 1.0, "noise": 0.0})
        rng = np.random.default_rng(np.random.SeedSequence([seed, 104]))
        tx, ty, vx, vy = _make_linreg(p["n"], p["slope"],
                                      p["intercept"], p["noise"], rng)
        return _finish(source, tx, ty, vx, vy, normalize=False)
    raise ValueError(f"unknown dataset source {source!r}")


def export_idx(source: str, directory: str, seed: int = 0) -> None:
    """Materialize a generated image dataset as IDX files in a directory."""
    from .fileio import write_idx_images, write_idx_labels
    handle = make_dataset(source, seed)
    if handle.train_x.ndim != 4:
        raise ValueError("only image datasets can be exported as IDX")
    os.makedirs(directory, exist_ok=True)

    def as_u8(x):
        # undo normalization back to [0, 1] before byte quantization
        raw = x * np.float32(handle.std) + np.float32(handle.mean)
        return np.clip(np.rint(raw * 255.0), 0, 255).astype(np.uint8)[:, 0]

    write_idx_images(os.path.join(directory, "train-images-idx3-ubyte"),
                     as_u8(handle.train_x))
    write_idx_labels(os.path.join(directory, "train-labels-idx1-ubyte"),
                     handle.train_y)
    write_idx_images(os.path.join(directory, "t10k-images-idx3-ubyte"),
                     as_u8(handle.val_x))
    write_idx_labels(os.path.join(directory, "t10k-labels-idx1-ubyte"),
                     handle.val_y)
