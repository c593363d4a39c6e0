"""Tensor files, IDX data, lowered weights, metrics CSV, and the CLI."""

import dataclasses
import json
import os
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from dfp import cli, experiments
from dfp.datasets import (_GLYPH_STROKES, _distance2, _glyph_segments, _render_glyph,
                          export_idx, make_dataset)
from dfp.fileio import (METRICS_HEADER, read_dft, read_idx_images, read_idx_labels,
                        read_metrics, write_dft, write_idx_images, write_idx_labels,
                        write_metrics)
from dfp.kernels import pack_weights
from dfp.layers import Conv, RunContext
from dfp.tensor import (DfpTensor, QuantConfig, dequantize, quantize,
                        rounding_from_name)
from dfp.training import build_model, make_quantizers, parse_config, sgd_step

# === tensor container ===


def test_dft_roundtrip_dfp(tmp_path):
    rng = np.random.default_rng(41)
    t = DfpTensor(rng.integers(-2047, 2048, (3, 4, 5)).astype(np.int16),
                  -9, 12)
    path = str(tmp_path / "t.dft")
    write_dft(path, t)
    back = read_dft(path)
    assert isinstance(back, DfpTensor)
    npt.assert_array_equal(back.elements, t.elements)
    assert back.shared_exponent == -9
    assert back.bit_width == 12


def test_dft_roundtrip_fp32(tmp_path):
    x = np.random.default_rng(42).standard_normal((6, 2)).astype(np.float32)
    path = str(tmp_path / "x.dft")
    write_dft(path, x)
    back = read_dft(path)
    assert isinstance(back, np.ndarray) and back.dtype == np.float32
    npt.assert_array_equal(back, x)


def test_dft_golden_bytes(tmp_path):
    # container layout frozen: magic, dtype u8, width u8, exponent i8 (DFP
    # only), rank u32 LE, dims u32 LE, little-endian payload
    path = str(tmp_path / "g.dft")
    write_dft(path, DfpTensor(np.array([[1, -2], [3, 4]], np.int16), -7, 16))
    want = bytes.fromhex(
        "44465431" "01" "10" "f9" "02000000" "0200000002000000"
        "0100feff03000400")
    assert open(path, "rb").read() == want
    write_dft(path, np.array([1.5, -2.0], np.float32))
    want = bytes.fromhex(
        "44465431" "00" "20" "01000000" "02000000" "0000c03f000000c0")
    assert open(path, "rb").read() == want


def test_dft_errors_cite_byte_offsets(tmp_path):
    good = bytes.fromhex("444654310110f90200000002000000020000000100feff03000400")
    cases = [
        (b"XXXX" + good[4:], r"bad magic at byte 0"),
        (good[:4] + b"\x07" + good[5:], r"dtype tag 7 at byte 4"),
        (good[:5] + b"\x30" + good[6:], r"bad bit width 48 at byte 5"),
        (good[:9], r"truncated rank at byte 7"),
        (good[:-4], r"truncated payload at byte 19"),
        (good + b"\x00\x00", r"2 trailing bytes after payload at byte 27"),
        # bit width 8, rank 1, 3 elements: 1, 200, -3
        (bytes.fromhex("44465431 01 08 00 01000000 03000000 0100 c800 fdff"),
         r"bad\.dft: element 200 at byte 17 exceeds 127 for bit width 8"),
        # E_s = 114: 2**14 * 2**114 = 2**128 is past FP32's largest value
        (bytes.fromhex("44465431 01 10 72 01000000 02000000 ff3f 0040"),
         r"shared exponent 114 at byte 6 scales element magnitude 16384 beyond"),
    ]
    path = str(tmp_path / "bad.dft")
    for blob, pattern in cases:
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match=pattern):
            read_dft(path)
    # (2**14 - 1) * 2**114 = 2**128 - 2**114 still fits in FP32
    with open(path, "wb") as fh:
        fh.write(bytes.fromhex("44465431 01 10 72 01000000 01000000 ff3f"))
    assert dequantize(read_dft(path))[0] == np.float32(2.0 ** 128 - 2.0 ** 114)


def test_readers_size_payload_from_exact_dims(tmp_path):
    # dims 2**31 x 2**31 x 4 have 2**64 elements, which wraps to 0 in int64
    path = str(tmp_path / "huge")
    with open(path, "wb") as fh:
        fh.write(b"DFT1\x00\x20" + struct.pack("<4I", 3, 2**31, 2**31, 4))
    with pytest.raises(ValueError, match=r"truncated payload at byte 22"):
        read_dft(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", 0x803, 2**31, 2**31, 4))
    with pytest.raises(ValueError, match=r"truncated payload at byte 16"):
        read_idx_images(path)


def test_dft_rejects_other_dtypes(tmp_path):
    with pytest.raises(ValueError):
        write_dft(str(tmp_path / "x.dft"), np.zeros(3, np.float64))


# === idx ===


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(43)
    images = rng.integers(0, 256, (5, 7, 9)).astype(np.uint8)
    labels = rng.integers(0, 10, 5).astype(np.uint8)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    npt.assert_array_equal(read_idx_images(ip), images)
    npt.assert_array_equal(read_idx_labels(lp), labels)


@pytest.mark.parametrize("labels, message", [
    ([300, -1, 5], "label 0 is 300"),
    ([5, -1], "label 1 is -1"),
    ([1.7, 2.2], "label 0 is 1.7"),
    ([3.0, float("nan")], "label 1 is nan"),
])
def test_idx_labels_are_not_wrapped(tmp_path, labels, message):
    # uint8 would wrap 300 to 44 and -1 to 255, and truncate 1.7 to 1
    path = str(tmp_path / "lb.idx")
    with pytest.raises(ValueError, match=rf"labels must be integers in \[0, 255\]; {message}$"):
        write_idx_labels(path, np.array(labels))
    assert not os.path.exists(path)


def test_idx_errors(tmp_path):
    path = str(tmp_path / "bad.idx")
    with open(path, "wb") as fh:
        fh.write(b"\x00\x00\x09\x99" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        read_idx_images(path)
    ok = str(tmp_path / "ok.idx")
    write_idx_images(ok, np.zeros((4, 3, 3), np.uint8))
    with open(path, "wb") as fh:
        fh.write(open(ok, "rb").read()[:-5])
    with pytest.raises(ValueError, match=r"expected 52 bytes .* has 47"):
        read_idx_images(path)
    good = open(ok, "rb").read()
    cases = [
        (b"\x00\x00\x09\x99" + good[4:], r"bad magic at byte 0: 0x00000999"),
        (good[:2], r"truncated magic at byte 0: need 4 bytes, have 2"),
        (good[:10], r"truncated dim 1 at byte 8: need 4 bytes, have 2"),
        (good[:-5], r"truncated payload at byte 16: expected 52 bytes"),
        (good + b"\x00" * 3, r"3 trailing bytes after payload at byte 52"),
    ]
    for blob, pattern in cases:
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match=pattern):
            read_idx_images(path)


# === lowered weights ===


def test_conv_weight_matrices_follow_every_update():
    # a DFP conv's lowered weights are pack_weights of its quantized master
    # weights after the build and after an update: forward, and flipped and
    # channel-transposed for the input gradient
    cfg = parse_config({"layers": [
        {"type": "conv", "out_ch": 8, "kernel": 3, "pad": 1},
        {"type": "relu"},
        {"type": "conv", "out_ch": 20, "kernel": 3, "stride": 2, "pad": 1},
        {"type": "flatten"},
        {"type": "fc", "out_features": 3}], "loss": "mse"})

    def build(seed):
        return build_model(cfg, (4, 7, 7), RunContext(q=make_quantizers(cfg, seed)),
                           np.random.default_rng(seed))

    def assert_lowered(conv):
        w = quantize(conv.W, conv.ctx.q.cfg)     # nearest rounding ignores tensor ids
        flipped = DfpTensor(w.elements[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
                            w.shared_exponent, w.bit_width)
        for got, want in ((conv.w_fwd, pack_weights(w)), (conv.w_bwd, pack_weights(flipped))):
            npt.assert_array_equal(got.data, want.data)
            assert (got.shape, got.shared_exponent) == (want.shape, want.shared_exponent)

    model = build(17)
    conv = [l for l in model.iter_layers() if isinstance(l, Conv)][1]
    assert_lowered(conv)

    x = np.random.default_rng(18).standard_normal((2, 4, 7, 7)).astype(np.float32)
    out = model.forward(x)
    model.backward(np.ones_like(out))
    before = conv.w_fwd.data.copy()
    sgd_step(model, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert not np.array_equal(conv.w_fwd.data, before)
    assert_lowered(conv)


# === metrics csv ===


def test_metrics_roundtrip(tmp_path):
    rows = [
        {"iteration": 1, "epoch": 0, "train_loss": 0.6931471805599453,
         "val_acc": "", "overflow_count": 0, "wall_ms": 12.5},
        {"iteration": 2, "epoch": 0, "train_loss": 0.25,
         "val_acc": 0.98125, "overflow_count": 3, "wall_ms": 11.0},
    ]
    path = str(tmp_path / "m.csv")
    write_metrics(path, rows)
    first = open(path).readline().strip()
    assert first == ",".join(METRICS_HEADER)
    back = read_metrics(path)
    assert len(back) == 2
    assert back[0]["iteration"] == 1 and back[0]["val_acc"] == ""
    npt.assert_allclose(back[0]["train_loss"], rows[0]["train_loss"], rtol=1e-6)
    npt.assert_allclose(back[1]["val_acc"], 0.98125, rtol=1e-6)
    assert back[1]["overflow_count"] == 3


def test_metrics_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "m.csv")
    with open(path, "w") as fh:
        fh.write("iteration,epoch,loss\n1,0,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_metrics(path)


_METRICS_OK = (b"iteration,epoch,train_loss,val_acc,overflow_count,wall_ms\n"
               b"1,0,0.5,,0,1.000\n2,0,0.25,0.9,0,1.000\n")


@pytest.mark.parametrize("row, message", [
    (b"3,0,0.5\n", "3 fields, expected 6"),
    (b"3,0,0.5,,0,1.000,7\n", "7 fields, expected 6"),
    (b"x,0,0.5,,0,1.000\n", "iteration 'x' is not int"),
    (b"3,0,0.5,high,0,1.000\n", "val_acc 'high' is not float"),
    (b"3,0,0.5,,1.5,1.000\n", "overflow_count '1.5' is not int"),
    (b"3,0,nan,,0,1.000\n", "train_loss nan is not finite"),
    (b"3,0,-inf,,0,1.000\n", "train_loss -inf is not finite"),
    (b"2,0,0.5,,0,1.000\n", "iteration 2 does not increase (previous 2)"),
    (b"1,0,0.5,,0,1.000\n", "iteration 1 does not increase (previous 2)"),
    (b"3,0,0.5,\xff,0,1.000\n", "byte 8 of the line is not UTF-8"),
], ids=["short", "long", "bad-int", "bad-float", "float-count", "nan-loss", "inf-loss",
        "repeated-iteration", "earlier-iteration", "not-utf8"])
def test_read_metrics_names_path_and_line(tmp_path, row, message):
    path = tmp_path / "m.csv"
    path.write_bytes(_METRICS_OK + b"4,1,0.5,,0,1.000\n")
    assert [r["iteration"] for r in read_metrics(str(path))] == [1, 2, 4]
    path.write_bytes(_METRICS_OK + row + b"4,1,0.5,,0,1.000\n")
    with pytest.raises(ValueError) as err:
        read_metrics(str(path))
    assert str(err.value) == f"{path}: line 4: {message}"


# === datasets ===


def test_gauss2_and_linreg_handles():
    h = make_dataset("gauss2:n=64", seed=11)
    assert h.train_x.shape == (64, 2) and h.val_x.shape == (64, 2)
    assert h.in_shape == (2,)
    assert set(np.unique(h.train_y)) <= {0, 1}
    again = make_dataset("gauss2:n=64", seed=11)
    npt.assert_array_equal(h.train_x, again.train_x)
    assert h.checksum == again.checksum
    other = make_dataset("gauss2:n=64", seed=12)
    assert h.checksum != other.checksum

    r = make_dataset("linreg:n=32,slope=2.0,intercept=-1.0,noise=0.0", seed=4)
    assert r.train_y.shape == (32, 1)             # regression targets


def test_glyphs_are_deterministic_and_balanced():
    h = make_dataset("glyphs:train=40,test=20", seed=3)
    assert h.train_x.shape == (40, 1, 28, 28)
    assert h.train_x.dtype == np.float32
    counts = np.bincount(h.train_y, minlength=10)
    assert counts.min() == 4 and counts.max() == 4
    again = make_dataset("glyphs:train=40,test=20", seed=3)
    npt.assert_array_equal(h.train_x, again.train_x)
    assert h.checksum == "0991266af86e00fba50790bc65e7656e4c6f516f9cc64b2c98c31c5cce6bf892"
    # normalized to zero mean, unit variance over the train split
    assert abs(float(h.train_x.mean())) < 1e-5
    npt.assert_allclose(float(h.train_x.std()), 1.0, atol=1e-4)


def _pixel_major_distance2(a, b):
    """The distance field's reference form: (784, segments, 2) arrays
    reduced over the coordinate axis."""
    yy, xx = np.mgrid[0:28, 0:28]
    pix = np.stack([xx.ravel(), yy.ravel()], axis=1).astype(np.float64)
    ab = b - a
    denom = np.maximum((ab * ab).sum(axis=1), 1e-12)
    ap = pix[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * ab[None, :, :]
    return ((pix[:, None, :] - closest) ** 2).sum(axis=2).min(axis=1)


def _render_glyph_pixel_major(label, rng):
    """The renderer's reference form; _render_glyph must give its bits and
    take the same draws."""
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
        pts = pts @ aff.T * 20.0 + (28 - 1) / 2.0 + np.array([tx, ty])
        segs_a.append(pts[:-1])
        segs_b.append(pts[1:])
    d2 = _pixel_major_distance2(np.concatenate(segs_a), np.concatenate(segs_b))
    img = np.exp(-d2 / (0.9 ** 2)).reshape(28, 28)
    img += rng.normal(0.0, 0.03, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_render_glyph_matches_pixel_major_reference(seed):
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    for _ in range(3):
        for label in range(10):
            got = _render_glyph(label, got_rng)
            want = _render_glyph_pixel_major(label, want_rng)
            assert got.dtype == np.float32 and got.shape == (28, 28)
            assert got.tobytes() == want.tobytes(), f"label {label}"
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_distance_field_matches_pixel_major_reference(seed):
    # float64 bits: an error in the closest point's t moves the float32
    # image only to second order, the distances themselves at the last bit
    rng = np.random.default_rng(seed)
    for label in range(10):
        a, b = _glyph_segments(label, rng)
        assert _distance2(a, b).tobytes() == _pixel_major_distance2(a, b).tobytes()
    a = rng.uniform(-3.0, 30.0, (12, 2))
    b = rng.uniform(-3.0, 30.0, (12, 2))
    b[:3] = a[:3]                           # points
    a[3:6] = np.round(a[3:6])               # on pixel centres
    b[6] = a[6] + [0.0, 5.0]                # axis-aligned
    assert _distance2(a, b).tobytes() == _pixel_major_distance2(a, b).tobytes()


@pytest.mark.parametrize("source, key, value", [
    ("glyphs:train=40.5,test=20", "train", "40.5"),
    ("glyphs:train=-5,test=20", "train", "-5"),
    ("glyphs:train=40,test=0", "test", "0"),
    ("glyphs:train=nan", "train", "nan"),
    ("gauss2:n=0", "n", "0"),
    ("gauss2:n=inf", "n", "inf"),
    ("linreg:n=2.5,slope=1", "n", "2.5"),
])
def test_make_dataset_rejects_bad_counts(source, key, value):
    with pytest.raises(ValueError) as err:
        make_dataset(source, seed=0)
    assert str(err.value) == f"{source}: {key} must be a positive integer, have {value}"


@pytest.mark.parametrize("source, message", [
    ("glyphs:train=20,train=30,test=10", "train given more than once"),
    ("linreg:slope=2,n=8,slope=2", "slope given more than once"),
    ("linreg:n=32,slope=nan", "slope must be finite, have nan"),
    ("linreg:n=32,intercept=inf", "intercept must be finite, have inf"),
    ("linreg:n=32,noise=-inf", "noise must be finite, have -inf"),
    ("linreg:n=32,slope=two", "slope must be a number, have 'two'"),
    ("linreg:n=,slope=1", "n must be a number, have ''"),
    ("gauss2:n=1e3x", "n must be a number, have '1e3x'"),
    ("gauss2:n", "bad dataset parameter 'n'; expected key=value"),
    ("gauss2:n=8,m=3", "unknown dataset parameter 'm'; expected one of n"),
])
def test_make_dataset_rejects_bad_parameters(source, message):
    # each defect is named with the source and the key
    with pytest.raises(ValueError) as err:
        make_dataset(source, seed=0)
    assert str(err.value) == f"{source}: {message}"


@pytest.mark.parametrize("prefix", ["train", "t10k"])
def test_make_dataset_rejects_an_empty_idx_split(tmp_path, prefix):
    d = str(tmp_path / "idx")
    export_idx("glyphs:train=20,test=10", d, seed=3)
    write_idx_images(os.path.join(d, f"{prefix}-images-idx3-ubyte"),
                     np.zeros((0, 28, 28), np.uint8))
    write_idx_labels(os.path.join(d, f"{prefix}-labels-idx1-ubyte"),
                     np.zeros(0, np.uint8))
    with pytest.raises(ValueError) as err:
        make_dataset(d, seed=0)
    assert str(err.value) == (f"{os.path.join(d, f'{prefix}-images-idx3-ubyte')}: "
                              "no images; a split must not be empty")


def test_export_idx_reload(tmp_path):
    h = make_dataset("glyphs:train=32,test=16", seed=3)
    d = str(tmp_path / "idx")
    export_idx("glyphs:train=32,test=16", d, seed=3)
    assert sorted(os.listdir(d)) == [
        "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte"]
    back = make_dataset(d, seed=99)
    npt.assert_array_equal(back.train_y, h.train_y)
    npt.assert_array_equal(back.val_y, h.val_y)
    # pixel values pass through uint8, so equality holds to 1/255 resolution
    npt.assert_allclose(back.train_x, h.train_x, atol=0.02)
    twice = make_dataset(d, seed=1)
    assert twice.checksum == back.checksum


def test_make_dataset_rejects_unknown_source():
    with pytest.raises(ValueError):
        make_dataset("imagenet:n=10", seed=0)


# === cli ===


def test_cli_quantize_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(51)
    x = rng.standard_normal((4, 6)).astype(np.float32)
    src = str(tmp_path / "in.dft")
    dst = str(tmp_path / "out.dft")
    write_dft(src, x)
    rc = cli.main(["quantize", "--in", src, "--out", dst, "--bits", "12",
                   "--round", "nearest", "--pre-shift", "1"])
    assert rc == 0
    assert "shared_exponent" in capsys.readouterr().out
    got = read_dft(dst)
    want = quantize(x, QuantConfig(12, rounding_from_name("nearest"), 1))
    npt.assert_array_equal(got.elements, want.elements)
    assert got.shared_exponent == want.shared_exponent
    assert got.bit_width == 12


def test_cli_quantize_stochastic_seeded(tmp_path):
    rng = np.random.default_rng(52)
    x = rng.standard_normal(100).astype(np.float32)
    src = str(tmp_path / "in.dft")
    write_dft(src, x)
    outs = []
    for run in range(2):
        dst = str(tmp_path / f"o{run}.dft")
        assert cli.main(["quantize", "--in", src, "--out", dst,
                         "--round", "stochastic", "--seed", "9"]) == 0
        outs.append(read_dft(dst))
    npt.assert_array_equal(outs[0].elements, outs[1].elements)
    want = quantize(x, QuantConfig(16, rounding_from_name("stochastic", seed=9), 0))
    npt.assert_array_equal(outs[0].elements, want.elements)


def test_cli_quantize_rejects_quantized_input(tmp_path, capsys):
    src = str(tmp_path / "in.dft")
    write_dft(src, DfpTensor(np.array([1], np.int16), 0, 16))
    rc = cli.main(["quantize", "--in", src, "--out", str(tmp_path / "o.dft")])
    assert rc == 2
    assert "already quantized" in capsys.readouterr().err


def test_cli_quantize_missing_file(tmp_path, capsys):
    rc = cli.main(["quantize", "--in", str(tmp_path / "nope.dft"),
                   "--out", str(tmp_path / "o.dft")])
    assert rc == 2


def test_cli_bench_gemm(tmp_path, capsys):
    csv = str(tmp_path / "b.csv")
    rc = cli.main(["bench-gemm", "--m", "8", "--n", "16", "--k", "64",
                   "--trials", "2", "--out", csv])
    assert rc == 0
    lines = open(csv).read().strip().splitlines()
    header = lines[0].split(",")
    assert lines[0] == capsys.readouterr().out.strip().splitlines()[0]
    assert len(lines) == 3
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["analytic_ratio"]) == float(row["measured_ratio"])
    assert float(row["rel_err"]) < 1e-3
    assert int(row["overflow_count"]) == 0


def test_cli_bench_conv(tmp_path, capsys):
    rc = cli.main(["bench-conv", "--spec", "16,16,8,8,3,3,1,1", "--batch", "2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["rel_err"]) < 1e-3
    assert int(row["k"]) == 16 * 9


def _bench_table(argv, capsys):
    # the CSV rows a bench command prints, without wall_ms
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    return [{k: v for k, v in zip(header, line.split(",")) if k != "wall_ms"}
            for line in lines[1:]]


@pytest.mark.parametrize("extra", [
    ["--trials", "2"],
    ["--icblk", "32", "--dist", "adversarial", "--pre-shift", "0"],
])
def test_cli_bench_gemm_is_the_1x1_bench_conv(extra, capsys):
    # an M x K by K x N GEMM is M 1x1 images of K channels into N
    gemm = _bench_table(["bench-gemm", "--m", "13", "--n", "20", "--k", "40"] + extra,
                        capsys)
    conv = _bench_table(["bench-conv", "--spec", "40,20,1,1,1,1,1,0", "--batch", "13"]
                        + extra, capsys)
    assert gemm == conv
    assert [(r["m"], r["n"], r["k"]) for r in gemm] == [("13", "20", "40")] * len(gemm)


@pytest.mark.parametrize("argv", [
    ["bench-gemm", "--m", "8", "--n", "16", "--k", "64"],
    ["bench-conv", "--spec", "16,16,6,6,3,3,1,1"],
])
def test_cli_bench_has_no_engine_option(argv, capsys):
    # the benchmarks run the one kernel; the instruction emulator is the
    # tests' reference (reference.py)
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--engine", "instructions"])
    assert err.value.code == 2
    assert "unrecognized arguments: --engine instructions" in capsys.readouterr().err


def test_cli_bench_conv_bad_spec(capsys):
    rc = cli.main(["bench-conv", "--spec", "16,16,8,8,3"])
    assert rc == 2
    assert "--spec" in capsys.readouterr().err


@pytest.mark.parametrize("dist", ["gaussian", "adversarial"])
@pytest.mark.parametrize("pre_shift", ["-1", "15", "16", "20"])
def test_cli_bench_checks_pre_shift_on_both_dists(dist, pre_shift, capsys):
    # a 16-bit operand keeps at least one magnitude bit: pre_shift <= 14
    with pytest.raises(SystemExit) as err:
        cli.main(["bench-gemm", "--m", "4", "--n", "4", "--k", "4", "--dist", dist,
                  "--pre-shift", pre_shift])
    out, text = capsys.readouterr()
    assert (err.value.code, out) == (2, "")
    assert f"argument --pre-shift: must be an integer in [0, 14], got '{pre_shift}'" in text


@pytest.mark.parametrize("argv, option", [
    (["bench-gemm", "--m", "0", "--n", "4", "--k", "4"], "--m"),
    (["bench-gemm", "--m", "4", "--n", "-1", "--k", "4"], "--n"),
    (["bench-gemm", "--m", "4", "--n", "4", "--k", "x"], "--k"),
    (["bench-gemm", "--m", "4", "--n", "4", "--k", "4", "--trials", "0"], "--trials"),
    (["bench-conv", "--spec", "4,4,4,4,1,1,1,0", "--batch", "0"], "--batch"),
    (["bench-conv", "--spec", "4,4,4,4,1,1,1,0", "--trials", "-2"], "--trials"),
    (["bench-gemm", "--m", "4", "--n", "4", "--k", "4", "--rb", "0"], "--rb"),
    (["bench-conv", "--spec", "4,4,4,4,1,1,1,0", "--rb", "-2"], "--rb"),
])
def test_cli_bench_sizes_must_be_positive(argv, option, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    value = argv[argv.index(option) + 1]
    assert (f"argument {option}: must be a positive integer, got '{value}'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("spec, message", [
    ("4,4,a,4,1,1,1,0", "--spec field 3 (H) must be an integer, got 'a'"),
    ("4,4,4,4,1,1,1,", "--spec field 8 (pad) must be an integer, got ''"),
    ("1.5,4,4,4,1,1,1,0", "--spec field 1 (C) must be an integer, got '1.5'"),
    ("0,4,4,4,1,1,1,0", "--spec field 1 (C) must be >= 1, got '0'"),
    ("4,4,4,4,1,1,0,0", "--spec field 7 (stride) must be >= 1, got '0'"),
    ("4,4,4,-4,1,1,1,0", "--spec field 4 (W) must be >= 1, got '-4'"),
    ("4,4,4,4,1,1,1,-1", "--spec field 8 (pad) must be >= 0, got '-1'"),
    # every field in range, the geometry not
    ("4,4,2,2,3,3,1,0", "--spec: kernel 3 is larger than the padded input: dim 2 + 2*pad 0 = 2"),
    ("4,4,4,4,3,3,2,0", "--spec: output size for dim 4, kernel 3, stride 2, pad 0 is not integral"),
])
def test_cli_bench_conv_names_the_bad_spec_field(spec, message, capsys):
    assert cli.main(["bench-conv", "--spec", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, option, message", [
    (["bench-gemm", "--m", "4", "--n", "4", "--k", "4", "--icblk", "12"], "--icblk",
     "must be a positive multiple of 8"),
    (["bench-conv", "--spec", "4,4,4,4,1,1,1,0", "--icblk", "0"], "--icblk",
     "must be a positive multiple of 8"),
    (["quantize", "--in", "a.dft", "--out", "b.dft", "--bits", "1"], "--bits",
     "must be an integer in [2, 16]"),
    (["quantize", "--in", "a.dft", "--out", "b.dft", "--bits", "17"], "--bits",
     "must be an integer in [2, 16]"),
    (["quantize", "--in", "a.dft", "--out", "b.dft", "--pre-shift", "15"], "--pre-shift",
     "must be an integer in [0, 14]"),
], ids=["gemm-icblk", "conv-icblk", "bits-1", "bits-17", "quantize-pre-shift"])
def test_cli_numeric_options_name_themselves(argv, option, message, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    value = argv[argv.index(option) + 1]
    assert f"argument {option}: {message}, got '{value}'" in capsys.readouterr().err


def test_cli_quantize_pre_shift_is_checked_against_bits(tmp_path, capsys):
    # --bits 8 keeps one magnitude bit up to --pre-shift 6; checked before
    # the input file is read
    rc = cli.main(["quantize", "--in", str(tmp_path / "nope.dft"),
                   "--out", str(tmp_path / "o.dft"), "--bits", "8", "--pre-shift", "7"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --pre-shift must be in [0, 6] for --bits 8, got 7\n"


@pytest.mark.parametrize("argv", [
    ["train", "--config", "c.json", "--data", "glyphs:train=16,test=16", "--seed", "-1",
     "--out", "m.csv"],
    ["bench-gemm", "--m", "4", "--n", "4", "--k", "4", "--seed", "-3"],
    # the adversarial operands draw nothing, but the option is checked all the same
    ["bench-gemm", "--m", "4", "--n", "4", "--k", "4", "--seed", "-3", "--dist", "adversarial"],
    ["bench-conv", "--spec", "4,4,4,4,1,1,1,0", "--seed", "x"],
    ["quantize", "--in", "a.dft", "--out", "b.dft", "--round", "stochastic", "--seed", "-1"],
])
def test_cli_seeds_must_be_non_negative(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    value = argv[argv.index("--seed") + 1]
    assert (f"argument --seed: must be a non-negative integer, got '{value}'"
            in capsys.readouterr().err)


MLP_JSON = {
    "layers": [{"type": "fc", "out_features": 16, "precision": "fp32"},
               {"type": "relu"},
               {"type": "fc", "out_features": 2, "precision": "fp32"}],
    "loss": "softmax_xent", "epochs": 2, "batch_size": 16, "base_lr": 0.1,
}


def test_cli_train_and_resolved_replay(tmp_path, capsys):
    cfg_path = str(tmp_path / "mlp.json")
    with open(cfg_path, "w") as fh:
        json.dump(MLP_JSON, fh)
    out1 = str(tmp_path / "run1.csv")
    rc = cli.main(["train", "--config", cfg_path, "--data", "gauss2:n=256",
                   "--precision", "fp32", "--seed", "5", "--out", out1])
    assert rc == 0
    assert "final val acc" in capsys.readouterr().out
    rows1 = read_metrics(out1)
    assert len(rows1) == 32                     # 16 batches x 2 epochs
    assert rows1[-1]["val_acc"] >= 0.9          # separable blobs

    resolved = out1 + ".resolved.json"
    assert os.path.exists(resolved)
    meta = json.load(open(resolved))
    assert meta["resolved_run"] and meta["seed"] == 5
    assert meta["precision"] == "fp32"
    assert sorted(meta) == ["config", "data", "data_checksum", "precision", "resolved_run",
                            "seed"]

    # replaying the resolved file reproduces every column except wall time
    out2 = str(tmp_path / "run2.csv")
    rc = cli.main(["train", "--config", resolved, "--data", "ignored",
                   "--seed", "99", "--out", out2])
    assert rc == 0
    rows2 = read_metrics(out2)
    strip = lambda r: {k: v for k, v in r.items() if k != "wall_ms"}
    assert [strip(r) for r in rows1] == [strip(r) for r in rows2]


def test_cli_train_has_no_engine_option(tmp_path, capsys):
    # training always runs the fast engine, as the benchmarks do
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--config", "c.json", "--data", "gauss2:n=64",
                  "--out", str(tmp_path / "m.csv"), "--engine", "fast"])
    assert err.value.code == 2
    assert "unrecognized arguments: --engine fast" in capsys.readouterr().err


def test_cli_replay_ignores_an_engine_key(tmp_path):
    # a resolved run written with an "engine" field replays on the fast engine
    resolved = {"resolved_run": True, "config": MLP_JSON, "data": "gauss2:n=64",
                "precision": "fp32", "seed": 5, "engine": "instructions"}
    cfg_path = str(tmp_path / "old.json")
    with open(cfg_path, "w") as fh:
        json.dump(resolved, fh)
    out1, out2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    assert cli.main(["train", "--config", cfg_path, "--data", "x", "--out", out1]) == 0
    experiments.run_training(MLP_JSON, "gauss2:n=64", "fp32", 5, out_csv=out2)
    assert _without_wall_ms(read_metrics(out1)) == _without_wall_ms(read_metrics(out2))


def _without_wall_ms(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_cli_train_that_diverges_keeps_its_rows(tmp_path, capsys):
    # the loss goes non-finite at iteration 7: exit 2, and the metrics file
    # holds the 7 rows completed before it
    cfg_path = str(tmp_path / "mlp.json")
    with open(cfg_path, "w") as fh:
        json.dump(dict(MLP_JSON, base_lr=1000.0), fh)
    out = str(tmp_path / "m.csv")
    rc = cli.main(["train", "--config", cfg_path, "--data", "gauss2:n=256",
                   "--precision", "dfp16", "--seed", "5", "--out", out])
    assert rc == 2
    assert "non-finite loss nan at iteration 7" in capsys.readouterr().err
    assert [r["iteration"] for r in read_metrics(out)] == list(range(1, 8))


def test_training_stopped_by_quantize_keeps_its_rows(tmp_path):
    # a NaN training image stops the run at Q_a of the batch that holds it;
    # the rows written before are those of the same run on clean data
    clean = make_dataset("gauss2:n=256", 5)
    x = clean.train_x.copy()
    x[100] = np.nan
    bad = dataclasses.replace(clean, train_x=x)
    config = dict(MLP_JSON, layers=[dict(MLP_JSON["layers"][0], precision="dfp")]
                  + MLP_JSON["layers"][1:])
    ok_csv, bad_csv = str(tmp_path / "ok.csv"), str(tmp_path / "bad.csv")
    experiments.run_training(config, "gauss2:n=256", "dfp16", 5, out_csv=ok_csv, data=clean)
    with pytest.raises(ValueError, match=r"fc1 q_a, train phase, iteration (\d+): "
                                         r"tensor contains NaN or Inf") as info:
        experiments.run_training(config, "gauss2:n=256", "dfp16", 5, out_csv=bad_csv,
                                 data=bad)
    kept = read_metrics(bad_csv)
    assert len(kept) == int(re.search(r"iteration (\d+)", str(info.value)).group(1)) > 0
    assert _without_wall_ms(kept) == _without_wall_ms(read_metrics(ok_csv))[: len(kept)]


def test_cli_train_bad_config(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump(dict(MLP_JSON, loss="hinge"), fh)
    rc = cli.main(["train", "--config", cfg_path, "--data", "gauss2:n=64",
                   "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "hinge" in capsys.readouterr().err


_CONV_NET = [{"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1},
             {"type": "maxpool", "kernel": 2},
             {"type": "flatten"},
             {"type": "fc", "out_features": 10}]


@pytest.mark.parametrize("patch, message", [
    ({"layers": [dict(_CONV_NET[0], kernal=3)] + _CONV_NET[1:]},
     "layers[0] (conv): unknown keys ['kernal']"),
    ({"layers": [dict(_CONV_NET[0], precision="fp16")] + _CONV_NET[1:]},
     "layers[0] (conv): precision must be 'dfp' or 'fp32', got 'fp16'"),
    ({"layers": [{"type": "conv", "kernel": 3}] + _CONV_NET[1:]},
     "layers[0] (conv): missing required key 'out_ch'"),
    ({"layers": [_CONV_NET[0], {"type": "maxpool"}] + _CONV_NET[2:]},
     "layers[1] (maxpool): missing required key 'kernel'"),
    ({"epochs": "1"}, "epochs must be int, got str"),
    ({"layers": [_CONV_NET[0], {"type": "maxpool", "kernel": 0}] + _CONV_NET[2:]},
     "layers[1] (maxpool): kernel must be >= 1, got 0"),
    ({"layers": [_CONV_NET[0], {"type": "maxpool", "kernel": -2}] + _CONV_NET[2:]},
     "layers[1] (maxpool): kernel must be >= 1, got -2"),
    ({"layers": _CONV_NET[:3] + [{"type": "fc", "out_features": 0}]},
     "layers[3] (fc): out_features must be >= 1, got 0"),
    # a resolved run's fields replace the command line's, so each is checked
    ({"resolved_run": True}, "resolved run is missing key 'config'"),
    ({"resolved_run": True, "config": 5}, "resolved run key 'config' must be dict, got int"),
    ({"resolved_run": True, "config": MLP_JSON, "data": 7},
     "resolved run key 'data' must be str, got int"),
    ({"resolved_run": True, "config": MLP_JSON, "precision": ["fp32"]},
     "resolved run key 'precision' must be str, got list"),
    # a resolved run written with per-role rounding overrides no longer parses
    ({"resolved_run": True, "config": dict(MLP_JSON, rounding_w=None, rounding_e=None)},
     "unknown config keys: ['rounding_e', 'rounding_w']"),
    ({"resolved_run": True, "config": MLP_JSON, "seed": "x"},
     "resolved run key 'seed' must be int, got str"),
    ({"resolved_run": True, "config": MLP_JSON, "seed": True},
     "resolved run key 'seed' must be int, got bool"),
    ({"resolved_run": True, "config": MLP_JSON, "seed": -2},
     "resolved run key 'seed' must be >= 0, got -2"),
    # json.load reads Infinity and NaN, so the solver's numbers are checked
    ({"base_lr": float("inf")}, "base_lr must be finite in float32, got inf"),
    ({"lr_gamma": float("nan"), "step_epochs": [0]},
     "lr_gamma must be finite in float32, got nan"),
])
def test_cli_train_rejects_malformed_config(tmp_path, capsys, patch, message):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({**MLP_JSON, "layers": _CONV_NET, **patch}, fh)
    rc = cli.main(["train", "--config", cfg_path, "--data", "glyphs:train=16,test=16",
                   "--precision", "dfp16", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_cli_train_rejects_a_fractional_glyph_count(tmp_path, capsys):
    cfg_path = str(tmp_path / "net.json")
    with open(cfg_path, "w") as fh:
        json.dump({**MLP_JSON, "layers": _CONV_NET}, fh)
    out = tmp_path / "m.csv"
    rc = cli.main(["train", "--config", cfg_path, "--data", "glyphs:train=40.5,test=20",
                   "--out", str(out)])
    assert rc == 2
    assert ("glyphs:train=40.5,test=20: train must be a positive integer, have 40.5"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_train_blames_a_non_finite_data_parameter(tmp_path, capsys):
    # the data source is rejected before training, not as a diverged run
    cfg_path = str(tmp_path / "lin.json")
    with open(cfg_path, "w") as fh:
        json.dump({"layers": [{"type": "fc", "out_features": 1, "precision": "fp32"}],
                   "loss": "mse", "epochs": 1, "batch_size": 8}, fh)
    out = tmp_path / "m.csv"
    rc = cli.main(["train", "--config", cfg_path, "--data", "linreg:n=32,slope=nan",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "linreg:n=32,slope=nan: slope must be finite, have nan" in err
    assert "loss" not in err
    assert not out.exists()


# One FP32 conv, one DFP 3x3 conv and a DFP fc on 28x28 glyphs.
_PROBE_NET = [{"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1, "precision": "fp32"},
              {"type": "relu"},
              {"type": "conv", "out_ch": 4, "kernel": 3, "pad": 1},
              {"type": "relu"},
              {"type": "maxpool", "kernel": 4},
              {"type": "flatten"},
              {"type": "fc", "out_features": 10}]


@pytest.mark.parametrize("patch, message", [
    ({"icblk": 12}, "icblk must be a positive multiple of 8, got 12"),
    ({"icblk": 0}, "icblk must be a positive multiple of 8, got 0"),
    # no config key picks an overflow policy or caps a chain
    ({"policy": "empirical"}, "unknown config keys: ['policy']"),
    ({"policy": "strict", "max_chain": 72}, "unknown config keys: ['max_chain', 'policy']"),
    ({"chain_block": 0}, "chain_block must be >= 1, got 0"),
])
@pytest.mark.parametrize("precision", ["fp32", "dfp16"])
def test_cli_train_rejects_kernel_config_before_training(tmp_path, capsys, patch, message,
                                                         precision):
    # rejected when the run is set up, in either precision, before any metrics row
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({**MLP_JSON, "layers": _PROBE_NET, **patch}, fh)
    out = tmp_path / "m.csv"
    rc = cli.main(["train", "--config", cfg_path, "--data", "glyphs:train=16,test=16",
                   "--precision", precision, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prefix, split", [("train", "training"), ("t10k", "validation")])
def test_cli_train_rejects_a_label_the_classifier_cannot_score(tmp_path, capsys, prefix,
                                                               split):
    # labels 0..11 against 10 outputs, in either split, before any metrics row
    d = str(tmp_path / "idx")
    export_idx("glyphs:train=24,test=12", d, seed=3)
    path = os.path.join(d, f"{prefix}-labels-idx1-ubyte")
    write_idx_labels(path, np.arange(read_idx_labels(path).size, dtype=np.uint8) % 12)
    cfg_path = str(tmp_path / "fc.json")
    with open(cfg_path, "w") as fh:
        json.dump({"layers": [{"type": "flatten"}, {"type": "fc", "out_features": 10}],
                   "loss": "softmax_xent", "batch_size": 4}, fh)
    out = tmp_path / "m.csv"
    rc = cli.main(["train", "--config", cfg_path, "--data", d, "--out", str(out)])
    assert rc == 2
    assert (f"error: {split} split has label 10, outside the classifier's 10 outputs"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_train_rejects_a_softmax_output_that_is_not_flat(tmp_path, capsys):
    # a conv's per-pixel scores have no one class to compare a label with
    cfg_path = str(tmp_path / "conv.json")
    with open(cfg_path, "w") as fh:
        json.dump({"layers": [{"type": "conv", "out_ch": 10, "kernel": 3, "pad": 1,
                               "precision": "fp32"}], "batch_size": 8}, fh)
    out = tmp_path / "m.csv"
    rc = cli.main(["train", "--config", cfg_path, "--data", "glyphs:train=16,test=8",
                   "--out", str(out)])
    assert rc == 2
    assert ("error: softmax_xent needs a flat output per sample, got shape (10, 28, 28)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("split", ["training", "validation"])
def test_train_rejects_mse_targets_of_another_width(tmp_path, split):
    # gauss2's targets are its class labels, one per sample, against 2 outputs
    data = make_dataset("gauss2:n=32", 5)
    if split == "validation":
        data = dataclasses.replace(data, train_y=np.zeros((data.train_y.size, 2), np.float32))
    config = {"layers": [{"type": "fc", "out_features": 2, "precision": "fp32"}],
              "loss": "mse", "batch_size": 8}
    out = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=f"^{split} split's targets are 1 wide, "
                                         f"but the mse output is 2 wide$"):
        experiments.run_training(config, "gauss2:n=32", "fp32", 5, out_csv=str(out),
                                 data=data)
    assert not out.exists()


def test_cli_train_rejects_non_object_config(tmp_path, capsys):
    cfg_path = str(tmp_path / "list.json")
    with open(cfg_path, "w") as fh:
        json.dump([1, 2], fh)
    rc = cli.main(["train", "--config", cfg_path, "--data", "glyphs:train=16,test=16",
                   "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert f"{cfg_path}: top level must be a JSON object, got list" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{"layers": [', "line 1 column 13 (char 12): not JSON (Expecting value)"),
    (b'\xff\xfe{"layers": []}', "byte 0: not UTF-8 (invalid start byte)"),
    (b'{"loss": "mse"}\n\xe9', "byte 16: not UTF-8 (unexpected end of data)"),
], ids=["truncated", "utf16-bom", "latin1-tail"])
def test_cli_train_names_a_config_that_is_not_json(tmp_path, capsys, content, message):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_bytes(content)
    rc = cli.main(["train", "--config", str(cfg_path), "--data", "glyphs:train=16,test=16",
                   "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"


def test_cli_compare_exit_codes(tmp_path, capsys):
    rows = [
        {"iteration": i + 1, "epoch": i // 4, "train_loss": 1.0 / (i + 1),
         "val_acc": "" if (i + 1) % 4 else 0.9 + 0.01 * (i // 4),
         "overflow_count": 0, "wall_ms": 1.0}
        for i in range(8)
    ]
    a = str(tmp_path / "a.csv")
    write_metrics(a, rows)
    b = str(tmp_path / "b.csv")
    write_metrics(b, rows)
    assert cli.main(["compare", "--a", a, "--b", b]) == 0
    assert "PASS" in capsys.readouterr().out

    drift = [dict(r) for r in rows]
    for r in drift:
        r["train_loss"] *= 3.0
        if r["val_acc"] != "":
            r["val_acc"] -= 0.2
    write_metrics(b, drift)
    assert cli.main(["compare", "--a", a, "--b", b]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("option, value", [("--tol-acc", "nan"), ("--tol-acc", "-1"),
                                           ("--tol-loss", "inf"), ("--tol-loss", "-0.5"),
                                           ("--tol-acc", "x")])
def test_cli_compare_tolerances_are_finite_and_non_negative(tmp_path, capsys, option, value):
    # a bad tolerance is a usage error (exit 2), not a failed comparison
    a = str(tmp_path / "a.csv")
    write_metrics(a, _three_epoch_rows())
    assert cli.main(["compare", "--a", a, "--b", a]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["compare", "--a", a, "--b", a, option, value])
    out, text = capsys.readouterr()
    assert (err.value.code, out) == (2, "")
    assert f"argument {option}: must be a finite number >= 0, got '{value}'" in text


def _three_epoch_rows():
    return [{"iteration": i + 1, "epoch": i // 4, "train_loss": 1.0 / (i + 1),
             "val_acc": "" if (i + 1) % 4 else 0.9, "overflow_count": 0, "wall_ms": 1.0}
            for i in range(12)]


@pytest.mark.parametrize("index", [3, 7], ids=["epoch0", "epoch1"])
@pytest.mark.parametrize("key, value", [("train_loss", float("nan")), ("train_loss", float("inf")),
                                        ("val_acc", float("nan")), ("val_acc", float("-inf"))],
                         ids=["nan-loss", "inf-loss", "nan-acc", "inf-acc"])
@pytest.mark.parametrize("run", ["reference", "candidate"])
def test_compare_fails_on_non_finite_values(run, key, value, index):
    # A NaN gap compares false against any bound, so without its own check
    # a candidate whose loss is NaN in one epoch of three would pass.
    rows = {"reference": _three_epoch_rows(), "candidate": _three_epoch_rows()}
    assert experiments.compare_metrics(rows["reference"], rows["candidate"], 0.01, 0.1)[0]
    rows[run][index][key] = value
    ok, lines = experiments.compare_metrics(rows["reference"], rows["candidate"], 0.01, 0.1)
    assert not ok
    assert lines == [f"{run} run: {key} {value} at epoch {index // 4}, "
                     f"iteration {index + 1}", "FAIL"]


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
