import numpy as np
import numpy.testing as npt
import pytest

from facemark.errors import ConfigError
from facemark.io import (
    load_dataset,
    read_bbox,
    read_landmarks,
    read_ppm,
    write_bbox,
    write_dataset,
    write_landmarks,
    write_overlay,
    write_ppm,
)
from facemark.training import gen_synthetic

from conftest import TINY_SPEC


# ---------------------------------------------------------------------------
# pixmaps
# ---------------------------------------------------------------------------

def _gradient_image(h=8, w=10):
    ramp = np.linspace(0.0, 1.0, h * w).reshape(h, w)
    return np.stack([ramp, ramp[::-1], 0.5 * ramp])


def test_ppm_round_trip_is_exact_on_the_8bit_grid(tmp_path):
    img = np.round(_gradient_image() * 255.0) / 255.0
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    npt.assert_allclose(back, img, atol=1e-12)


def test_ppm_rounds_half_to_even_then_clips(tmp_path):
    # x * 255 rounds half to even, then clips to [0, 255]; the scaled ties
    # 0.5, 2.5, 254.5 and the non-ties 0.7, 254.7 are exact in float64
    values = [0.0, -0.0, 1.0, -1e-9, -0.001, 1.0 + 1e-9, 1.001, -5.0, 7.0,
              0.5 / 255, 2.5 / 255, 254.5 / 255, 0.7 / 255, 254.7 / 255]
    want = [0, 0, 255, 0, 0, 255, 255, 0, 255, 0, 2, 254, 1, 255]
    img = np.array(values).reshape(1, 1, -1).repeat(3, axis=0)
    img[1] *= -1.0
    path = tmp_path / "v.ppm"
    write_ppm(path, img)
    data = path.read_bytes()
    header = f"P6\n{len(values)} 1\n255\n".encode()
    assert data[:len(header)] == header
    pixels = np.frombuffer(data[len(header):], np.uint8).reshape(-1, 3)
    assert pixels[:, 0].tolist() == want
    assert pixels[:, 2].tolist() == want
    # the negated values: only -(-5.0) lies above 0.5 / 255
    assert pixels[:, 1].tolist() == [0] * 7 + [255] + [0] * 6


def test_ppm_bytes_deterministic(tmp_path):
    img = _gradient_image()
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(a, img, comment="cfg cafe")
    write_ppm(b, img, comment="cfg cafe")
    assert a.read_bytes() == b.read_bytes()


def test_ppm_comment_survives_reading(tmp_path):
    img = _gradient_image()
    path = tmp_path / "img.ppm"
    write_ppm(path, img, comment="config deadbeef0123")
    raw = path.read_bytes()
    assert b"# config deadbeef0123\n" in raw
    back = read_ppm(path)
    assert back.shape == img.shape


def test_ppm_values_clip_to_byte_range(tmp_path):
    img = np.stack([
        np.full((4, 4), -0.5), np.full((4, 4), 1.5), np.full((4, 4), 0.5)
    ])
    path = tmp_path / "c.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back[0].max() == 0.0
    assert back[1].min() == 1.0


def test_read_ppm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n....")
    with pytest.raises(ConfigError):
        read_ppm(path)


def test_read_ppm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "trunc.ppm"
    path.write_bytes(b"P6\n4 4\n255\nshort")
    with pytest.raises(ConfigError):
        read_ppm(path)


def test_read_ppm_rejects_wrong_depth(tmp_path):
    path = tmp_path / "depth.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(ConfigError):
        read_ppm(path)


# ---------------------------------------------------------------------------
# landmark and box files
# ---------------------------------------------------------------------------

def test_landmark_file_round_trip(tmp_path):
    pts = np.array([[12.25, 3.5], [0.0, 31.875], [15.125, 15.0]])
    path = tmp_path / "lm.txt"
    write_landmarks(path, pts)
    npt.assert_allclose(read_landmarks(path), pts, atol=1e-6)


def test_landmark_file_layout(tmp_path):
    path = tmp_path / "lm.txt"
    write_landmarks(path, np.array([[1.0, 2.0]]))
    assert path.read_text() == "version 1\nn_points 1\n1.000000 2.000000\n"


def test_landmark_reader_rejects_bad_files(tmp_path):
    bad_version = tmp_path / "v.txt"
    bad_version.write_text("version 9\nn_points 1\n1 2\n")
    with pytest.raises(ConfigError):
        read_landmarks(bad_version)
    short = tmp_path / "s.txt"
    short.write_text("version 1\nn_points 3\n1 2\n")
    with pytest.raises(ConfigError):
        read_landmarks(short)
    no_count = tmp_path / "n.txt"
    no_count.write_text("version 1\n1 2\n")
    with pytest.raises(ConfigError):
        read_landmarks(no_count)


@pytest.mark.parametrize("text", [
    "version 1\nn_points \n1 2\n",          # count missing after the key
    "version 1\nn_points x\n1 2\n",         # non-numeric count
    "version 1\nn_points -1\n",              # negative count
    "version 1\nn_points 2\n1 2\n3\n",      # ragged row
    "version 1\nn_points 1\n1 y\n",         # non-numeric coordinate
    "version 1\nn_points 1\n1 nan\n",       # non-finite coordinate
])
def test_landmark_reader_names_the_file(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match="bad.txt"):
        read_landmarks(path)


@pytest.mark.parametrize("blob", [
    b"P6\n4 x\n255\n" + bytes(48),           # non-numeric height
    b"P6\n0 4\n255\n",                       # no pixels
    b"P6\n\xff 4\n255\n" + bytes(48),        # not a digit at all
])
def test_ppm_reader_names_the_file(tmp_path, blob):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(ConfigError, match="bad.ppm"):
        read_ppm(path)


@pytest.mark.parametrize("blob", [b"1 2 3 x\n", b"1 2 3 inf\n", b"\xff\xfe 1 2 3\n"])
def test_bbox_reader_names_the_file(tmp_path, blob):
    path = tmp_path / "bad.bbox"
    path.write_bytes(blob)
    with pytest.raises(ConfigError, match="bad.bbox"):
        read_bbox(path)


def test_bbox_round_trip(tmp_path):
    path = tmp_path / "b.bbox"
    write_bbox(path, (1.5, 2.0, 30.25, 28.0))
    npt.assert_allclose(read_bbox(path), [1.5, 2.0, 30.25, 28.0], atol=1e-6)
    short = tmp_path / "short.bbox"
    short.write_text("1 2 3\n")
    with pytest.raises(ConfigError):
        read_bbox(short)


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    samples = gen_synthetic(TINY_SPEC, 3, 5)
    out = tmp_path / "ds"
    write_dataset(out, samples, "beefcafe0123", seed=5)
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 3
    info = (out / "dataset.info").read_text()
    assert "config beefcafe0123" in info and "count 3" in info and "seed 5" in info
    back = load_dataset(out)
    assert len(back) == 3
    for orig, got in zip(samples, back):
        # images survive 8-bit quantization, labels six decimals of a pixel
        assert np.abs(orig.image - got.image).max() <= 0.5 / 255.0 + 1e-12
        side = TINY_SPEC.image_side
        npt.assert_allclose(got.landmarks, orig.landmarks, atol=1e-6 / side)
        npt.assert_allclose(got.bbox, orig.bbox, atol=1e-6)


def test_dataset_write_is_byte_deterministic(tmp_path):
    samples = gen_synthetic(TINY_SPEC, 2, 9)
    a, b = tmp_path / "a", tmp_path / "b"
    write_dataset(a, samples, "hash00000000", seed=9)
    write_dataset(b, samples, "hash00000000", seed=9)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_load_dataset_missing_path_message(tmp_path):
    missing = tmp_path / "nope"
    with pytest.raises(ConfigError, match="dataset not found"):
        load_dataset(missing)


def test_load_dataset_rejects_empty_manifest(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    (out / "manifest.txt").write_text("\n")
    with pytest.raises(ConfigError):
        load_dataset(out)


# ---------------------------------------------------------------------------
# overlays
# ---------------------------------------------------------------------------

def test_overlay_stamps_markers_without_resizing(tmp_path):
    img = np.zeros((3, 16, 16))
    pred = np.array([[0.5, 0.5]])
    gt = np.array([[0.25, 0.25]])
    path = tmp_path / "o.ppm"
    write_overlay(path, img, pred, gt, comment="config abc")
    out = read_ppm(path)
    assert out.shape == img.shape
    # prediction marker is green-dominant, truth marker red-dominant
    assert out[1, 8, 8] > 0.9 and out[0, 8, 8] < 0.3
    assert out[0, 4, 4] > 0.9 and out[1, 4, 4] < 0.3


def test_overlay_leaves_input_untouched(tmp_path):
    img = np.zeros((3, 16, 16))
    before = img.copy()
    write_overlay(tmp_path / "o.ppm", img, np.array([[0.5, 0.5]]))
    npt.assert_array_equal(img, before)


def test_overlay_markers_clamp_at_borders(tmp_path):
    img = np.zeros((3, 16, 16))
    pts = np.array([[0.0, 0.0], [0.999, 0.999]])
    path = tmp_path / "edge.ppm"
    write_overlay(path, img, pts)
    out = read_ppm(path)
    assert out[1, 0, 0] > 0.9
    assert out[1, 15, 15] > 0.9
