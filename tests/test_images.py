"""Binary netpbm reading: samples are scaled by the header's maxval."""

import json

import numpy as np
import pytest

from vigil.cli import main
from vigil.errors import DataError
from vigil.images import read_image, write_image


def _netpbm(path, magic, width, maxval, samples):
    path.write_bytes(b"%s\n%d 1\n%d\n" % (magic, width, maxval) + bytes(samples))
    return path


def test_samples_scale_by_maxval(tmp_path):
    # a maxval-15 image was once read unscaled: [15, 7] stayed [15, 7], and
    # its whole signature mass fell in the darkest bin
    img = read_image(_netpbm(tmp_path / "a.pgm", b"P5", 3, 15, [15, 7, 0]))
    assert img.dtype == np.uint8 and img.tolist() == [[255, 119, 0]]
    rgb = read_image(_netpbm(tmp_path / "b.ppm", b"P6", 1, 1, [1, 0, 1]))
    assert rgb.tolist() == [[[255, 0, 255]]]
    # round to nearest, half up: 1 * 255 / 2 = 127.5
    assert read_image(_netpbm(tmp_path / "c.pgm", b"P5", 3, 2, [0, 1, 2])).tolist() == [
        [0, 128, 255]]


def test_maxval_255_reads_samples_unchanged(tmp_path):
    every = np.arange(256, dtype=np.uint8).reshape(1, 256)
    write_image(tmp_path / "all.pgm", every)
    assert np.array_equal(read_image(tmp_path / "all.pgm"), every)


def test_sample_above_maxval_is_a_data_error(tmp_path, capsys):
    (tmp_path / "images").mkdir()
    bad = _netpbm(tmp_path / "images" / "b.pgm", b"P5", 2, 15, [200, 7])
    with pytest.raises(DataError, match="sample 200 above maxval 15"):
        read_image(bad)
    write_image(tmp_path / "images" / "a.pgm", np.zeros((1, 2), dtype=np.uint8))
    (tmp_path / "job.json").write_text(json.dumps({"images_dir": "images", "budget": 1}))
    assert main(["summarize", "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "above maxval 15" in err, err


def test_a_header_number_past_the_digit_limit_is_a_data_error(tmp_path, capsys):
    # int() of 5,000 digits once raised ValueError (exit 4)
    (tmp_path / "images").mkdir()
    (tmp_path / "images" / "a.ppm").write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n\0\0\0")
    (tmp_path / "job.json").write_text(json.dumps({"images_dir": "images", "budget": 1}))
    assert main(["summarize", "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'images' / 'a.ppm'}: netpbm header number of 5000 digits\n")


def _summarize_images(tmp_path):
    (tmp_path / "job.json").write_text(json.dumps({"images_dir": "images", "budget": 1}))
    return main(["summarize", "--config", str(tmp_path / "job.json"),
                 "--out", str(tmp_path / "out"), "--quiet"])


# (file name, bytes, what the error says after the path)
UNREADABLE = [
    ("notes.txt", b"no image here", "no .ppm/.pgm images found"),
    ("a.ppm", b"P6\n0 1\n255\n", "non-positive image dimensions"),
    ("a.ppm", b"P6\n1 1\n256\n\0\0\0", "unsupported maxval 256"),
    ("a.ppm", b"P6\n2 1\n255\n\0\0\0", "truncated raster (3 of 6 bytes)"),
]


@pytest.mark.parametrize("name, data, message", UNREADABLE,
                         ids=["no-images", "width-0", "maxval-256", "truncated"])
def test_an_images_dir_summarize_cannot_read_exits_3(tmp_path, capsys, name, data, message):
    (tmp_path / "images").mkdir()
    (tmp_path / "images" / name).write_bytes(data)
    assert _summarize_images(tmp_path) == 3
    where = tmp_path / "images" / name if name.endswith(".ppm") else tmp_path / "images"
    assert capsys.readouterr().err == f"data error: {where}: {message}\n"


def test_a_header_comment_is_skipped(tmp_path):
    (tmp_path / "images").mkdir()
    pixels = bytes([10, 20, 30, 40, 50, 60])
    plain = tmp_path / "images" / "a.ppm"
    plain.write_bytes(b"P6\n2 1\n255\n" + pixels)
    commented = tmp_path / "images" / "b.ppm"
    commented.write_bytes(b"P6 # made by hand\n2 # wide\n1\n#\n255\n" + pixels)
    assert read_image(commented).tolist() == read_image(plain).tolist() == [
        [[10, 20, 30], [40, 50, 60]]]
    assert _summarize_images(tmp_path) == 0
