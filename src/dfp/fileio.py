"""On-disk formats: DFT tensor container, IDX image/label files, metrics CSV.

DFT layout (header fields little-endian):

    offset  size  field
    0       4     magic "DFT1"
    4       1     dtype tag: 0 = FP32, 1 = quantized INT16
    5       1     bit width (32 for FP32; 2..16 for quantized)
    6       1     shared exponent, signed  (quantized tensors only)
    then    4     rank (u32)
    then    4*r   dims (u32 each)
    then    payload, little-endian: float32 or int16 elements in C order

IDX files use the classic big-endian layout: u32 magic (0x00000803 for
uint8 rank-3 images, 0x00000801 for uint8 rank-1 labels) followed by
big-endian u32 dims and raw bytes.
"""

from __future__ import annotations

import math
import struct
from typing import Union

import numpy as np

from .tensor import DfpTensor, max_abs

MAGIC = b"DFT1"
_DTYPE_FP32 = 0
_DTYPE_DFP = 1

TensorLike = Union[np.ndarray, DfpTensor]


# === DFT tensor container ===


def write_dft(path: str, tensor: TensorLike) -> None:
    """Serialize one FP32 array or one quantized tensor."""
    if isinstance(tensor, DfpTensor):
        head = MAGIC + struct.pack("<BBb", _DTYPE_DFP, tensor.bit_width,
                                   tensor.shared_exponent)
        dims = tensor.elements.shape
        payload = tensor.elements.astype("<i2").tobytes()
    else:
        arr = np.asarray(tensor)
        if arr.dtype != np.float32:
            raise ValueError(f"FP32 tensor file requires float32 data, got {arr.dtype}")
        head = MAGIC + struct.pack("<BB", _DTYPE_FP32, 32)
        dims = arr.shape
        payload = arr.astype("<f4").tobytes()
    body = struct.pack("<I", len(dims)) + b"".join(struct.pack("<I", d) for d in dims)
    with open(path, "wb") as fh:
        fh.write(head + body + payload)


def read_dft(path: str) -> TensorLike:
    """Parse a tensor file; errors cite the byte offset of the defect."""
    with open(path, "rb") as fh:
        buf = fh.read()

    if _need(path, buf, 0, 4, "magic") != MAGIC:
        raise ValueError(f"{path}: bad magic at byte 0: "
                         f"expected {MAGIC!r}, got {buf[:4]!r}")
    dtype_tag = _need(path, buf, 4, 1, "dtype tag")[0]
    bit_width = _need(path, buf, 5, 1, "bit width")[0]
    off = 6
    shared_exponent = 0
    if dtype_tag == _DTYPE_DFP:
        shared_exponent = struct.unpack("<b", _need(path, buf, 6, 1, "shared exponent"))[0]
        off = 7
        if not 2 <= bit_width <= 16:
            raise ValueError(f"{path}: bad bit width {bit_width} at byte 5")
    elif dtype_tag == _DTYPE_FP32:
        if bit_width != 32:
            raise ValueError(f"{path}: bad bit width {bit_width} at byte 5 "
                             f"(FP32 tensors use 32)")
    else:
        raise ValueError(f"{path}: unknown dtype tag {dtype_tag} at byte 4")
    rank = struct.unpack("<I", _need(path, buf, off, 4, "rank"))[0]
    off += 4
    if rank > 32:
        raise ValueError(f"{path}: implausible rank {rank} at byte {off - 4}")
    dims = []
    for i in range(rank):
        dims.append(struct.unpack("<I", _need(path, buf, off, 4, f"dim {i}"))[0])
        off += 4
    count = math.prod(dims)                     # exact: no int64 wraparound
    esize = 2 if dtype_tag == _DTYPE_DFP else 4
    raw = _need(path, buf, off, count * esize, "payload")
    if len(buf) != off + count * esize:
        raise ValueError(f"{path}: {len(buf) - off - count * esize} trailing "
                         f"bytes after payload at byte {off + count * esize}")
    if dtype_tag == _DTYPE_DFP:
        elements = np.frombuffer(raw, dtype="<i2").astype(np.int16)
        lim = 1 << (bit_width - 1)
        if elements.size and max_abs(elements) >= lim:
            i = int(np.argmax((elements > lim - 1) | (elements < 1 - lim)))
            raise ValueError(f"{path}: element {elements[i]} at byte {off + 2 * i} "
                             f"exceeds {lim - 1} for bit width {bit_width}")
        tensor = DfpTensor(elements.reshape(dims), shared_exponent, bit_width)
        if not tensor.fits_fp32():
            raise ValueError(f"{path}: shared exponent {shared_exponent} at byte 6 "
                             f"scales element magnitude {max_abs(elements)} "
                             f"beyond the FP32 range")
        return tensor
    return np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)


def _need(path: str, buf: bytes, offset: int, count: int, what: str) -> bytes:
    # The `count` bytes of field `what` at `offset`, or an error naming it.
    if offset + count > len(buf):
        raise ValueError(f"{path}: truncated {what} at byte {offset}: "
                         f"need {count} bytes, have {len(buf) - offset}")
    return buf[offset: offset + count]


# === IDX image and label files ===

_IDX_IMAGES = 0x00000803
_IDX_LABELS = 0x00000801


def write_idx_images(path: str, images: np.ndarray) -> None:
    arr = np.asarray(images)
    if arr.dtype != np.uint8 or arr.ndim != 3:
        raise ValueError(f"images must be uint8 with shape (n, rows, cols), "
                         f"got {arr.dtype} rank {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IDX_IMAGES, *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    arr = np.asarray(labels).astype(np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"labels must be rank 1, got rank {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", _IDX_LABELS, arr.shape[0]))
        fh.write(arr.tobytes())


def _read_idx(path: str, magic: int, rank: int) -> np.ndarray:
    # Errors cite the byte offset of the defect, as read_dft's do.
    with open(path, "rb") as fh:
        buf = fh.read()
    got = struct.unpack(">I", _need(path, buf, 0, 4, "magic"))[0]
    if got != magic:
        raise ValueError(f"{path}: bad magic at byte 0: 0x{got:08x}, "
                         f"expected 0x{magic:08x}")
    dims = tuple(struct.unpack(">I", _need(path, buf, 4 + 4 * i, 4, f"dim {i}"))[0]
                 for i in range(rank))
    head = 4 * (1 + rank)
    count = math.prod(dims)
    if len(buf) != head + count:
        where = (f"truncated payload at byte {head}" if len(buf) < head + count else
                 f"{len(buf) - head - count} trailing bytes after payload at byte "
                 f"{head + count}")
        raise ValueError(f"{path}: {where}: expected {head + count} bytes for dims "
                         f"{dims}, file has {len(buf)}")
    return np.frombuffer(buf, dtype=np.uint8, offset=head).reshape(dims)


def read_idx_images(path: str) -> np.ndarray:
    return _read_idx(path, _IDX_IMAGES, 3)


def read_idx_labels(path: str) -> np.ndarray:
    return _read_idx(path, _IDX_LABELS, 1)


# === metrics CSV ===

METRICS_HEADER = ("iteration", "epoch", "train_loss", "val_acc",
                  "overflow_count", "wall_ms")
_METRICS_TYPES = (int, int, float, float, int, float)


def write_metrics(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_HEADER) + "\n")
        for row in rows:
            val = row["val_acc"]
            fh.write("{},{},{:.8g},{},{},{:.3f}\n".format(
                row["iteration"], row["epoch"], row["train_loss"],
                "" if val == "" else f"{val:.6g}",
                row["overflow_count"], row["wall_ms"]))


def read_metrics(path: str):
    """Rows of a metrics CSV as write_metrics writes them.  A defect (a
    foreign header, bytes that are not UTF-8, a wrong field count, an
    unparsable field, a non-finite loss or an iteration that does not
    increase) is a ValueError naming the path and the line."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: line 1: no metrics header")
    rows = []
    for no, raw in enumerate(lines, 1):
        where = f"{path}: line {no}"
        try:
            fields = raw.decode("utf-8").rstrip("\r").split(",")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: byte {exc.start} of the line is not UTF-8") from None
        if no == 1:
            if tuple(fields) != METRICS_HEADER:
                raise ValueError(f"{where}: unexpected metrics header {fields}")
            continue
        if len(fields) != len(METRICS_HEADER):
            raise ValueError(f"{where}: {len(fields)} fields, expected {len(METRICS_HEADER)}")
        row = {}
        for name, text, kind in zip(METRICS_HEADER, fields, _METRICS_TYPES):
            try:
                row[name] = "" if name == "val_acc" and text == "" else kind(text)
            except ValueError:
                raise ValueError(f"{where}: {name} {text!r} is not {kind.__name__}") from None
        if not math.isfinite(row["train_loss"]):
            raise ValueError(f"{where}: train_loss {row['train_loss']} is not finite")
        if rows and row["iteration"] <= rows[-1]["iteration"]:
            raise ValueError(f"{where}: iteration {row['iteration']} does not increase "
                             f"(previous {rows[-1]['iteration']})")
        rows.append(row)
    return rows
