"""Binary netpbm image I/O: PGM (P5, grayscale) and PPM (P6, RGB).

Images are numpy uint8 arrays, shape (h, w) for grayscale and (h, w, 3)
for RGB.  Only the binary variants with maxval <= 255 are supported; a
sample s of an image with a smaller maxval is read as the nearest integer
to s * 255 / maxval, and a sample above maxval is a DataError.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, open_input

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_int(data: bytes, pos: int, path) -> tuple[int, int]:
    """Parse the next header integer, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos:pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise DataError(f"{path}: malformed netpbm header")
    try:
        return int(data[start:pos]), pos
    except ValueError:  # past int()'s digit limit
        raise DataError(f"{path}: netpbm header number of {pos - start} digits") from None


def read_image(path) -> np.ndarray:
    with open_input(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise DataError(f"{path}: not a binary PGM/PPM file")
    width, pos = _next_int(data, 2, path)
    height, pos = _next_int(data, pos, path)
    maxval, pos = _next_int(data, pos, path)
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: non-positive image dimensions")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise DataError(f"{path}: malformed netpbm header")
    pos += 1  # single whitespace byte separates header from raster
    need = width * height * channels
    raster = data[pos:pos + need]
    if len(raster) < need:
        raise DataError(f"{path}: truncated raster "
                        f"({len(raster)} of {need} bytes)")
    if data[pos + need:].strip(_WHITESPACE):
        raise DataError(f"{path}: trailing bytes after raster")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if maxval != 255:
        if arr.max() > maxval:
            raise DataError(f"{path}: sample {arr.max()} above maxval {maxval}")
        # the nearest integer to s * 255 / maxval, halves up
        arr = ((arr.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, 3).copy()


def write_image(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("image data must be uint8")
    if img.ndim == 2:
        magic = b"P5"
        h, w = img.shape
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
        h, w = img.shape[:2]
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
