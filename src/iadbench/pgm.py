"""Minimal binary PGM (P5) reader/writer.

Images are single-channel with maxval 255; a raw pixel value v maps to
the intensity v/255 in [0, 1]. The raw bytes are what ``ImageGrid``
holds as its codes, so reading and writing an image copies no float.
Masks use the convention that any value greater than zero marks an
anomalous pixel.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def read_pgm(path: str) -> np.ndarray:
    """Read a P5 PGM file into a uint8 array of shape (height, width)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise FormatError("malformed-pgm", f"{path}: missing P5 magic")
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comment lines between header fields
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            if end == -1:
                raise FormatError("malformed-pgm", f"{path}: unterminated comment")
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError("malformed-pgm", f"{path}: bad header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError("malformed-pgm", f"{path}: non-positive dimensions")
    if maxval != 255:
        raise FormatError("malformed-pgm", f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise FormatError(
            "malformed-pgm",
            f"{path}: expected {width * height} raster bytes, got {len(raster)}",
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path: str, pixels: np.ndarray) -> None:
    """Write a uint8 array of shape (height, width) as binary P5."""
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("pixels must be a 2-D array")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(arr.tobytes())
