"""Exception taxonomy and the JSON input boundary shared across the package.

Every error carries a stable machine-readable ``code`` (kebab-case) so
callers and the CLI can branch on the failure kind without parsing
message text.

``read_json`` is the one way a JSON input (a config, a synth spec, a
``saturations.json``, a ``results.json``) enters the program: whatever
stops it from being read or decoded becomes the caller's error class
and code. ``expect_keys`` and ``expect_type`` are the shape checks
that configs and specs share.
"""

from __future__ import annotations

import json
import sys


class BenchError(Exception):
    """Base class for all package errors."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class DataError(BenchError):
    """Dataset content or on-disk layout problems (missing masks, bad dims)."""


class FormatError(DataError):
    """Malformed binary files: PGM images, bank snapshots."""


class ConfigError(BenchError):
    """Invalid specs, parameters, or experiment configuration."""


class ProtocolError(BenchError):
    """Split construction failures (insufficient samples, bad categories)."""


class MetricError(BenchError):
    """Metric preconditions violated (degenerate labels, empty regions)."""


class DetectorError(BenchError):
    """Memory-bank detector misuse (empty bank, dim mismatch, bad params)."""


class ReportError(BenchError):
    """Result serialization and report generation failures."""


def read_json(path: str, error_class: type[BenchError], code: str, text: str | None = None):
    """The JSON document in the UTF-8 file ``path``, or in ``text`` if given
    (``path`` then only names it in messages).

    A file that cannot be read, or text that is not UTF-8, not JSON or
    nested too deeply to decode, raises ``error_class(code, ...)``.
    """
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise error_class(code, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON or nesting
        raise error_class(code, f"{path} is not valid JSON: {exc}") from exc


def expect_keys(
    obj: dict, path: str, required: set[str], optional: set[str], code: str = "invalid-config"
) -> None:
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(code, f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(code, f"{path}: missing keys {sorted(missing)}")


def expect_type(value, path: str, kind, label: str, code: str = "invalid-config"):
    if kind is float:  # finite, and an integer must fit a float64
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and abs(value) <= sys.float_info.max
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(code, f"{path}: must be {label}")
    return value
