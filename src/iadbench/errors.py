"""Exception taxonomy shared across the package.

Every error carries a stable machine-readable ``code`` (kebab-case) so
callers and the CLI can branch on the failure kind without parsing
message text.
"""

from __future__ import annotations


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
