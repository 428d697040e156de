"""README's config table agrees with ``runner.parse_config``.

Every key in the first column of the table under ``## Config`` is one
the parser accepts, and a key set to the default the table gives as a
JSON literal parses to the config that leaving the key out gives.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields
from pathlib import Path

from iadbench.runner import ExperimentConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"

# the required keys only, so every optional key takes its default
_BASE = {
    "dataset": {
        "synthetic": {
            "categories": 2,
            "normals_train": 2,
            "normals_test": 1,
            "abnormals_test": 1,
            "image_size": 16,
        }
    },
    "setting": {"type": "unsupervised"},
    "seed": 1,
}
# a legal value for each optional key whose default is not a JSON literal
_SAMPLES = {
    "categories": ["cat00"],
    "detector.coreset.l": 4,
    "detector.coreset.projection_dim": 16,
    "metrics": ["image_auroc"],
    "output_dir": "out",
}
_NOT_LITERAL = object()


def _config_rows() -> list[tuple[str, str]]:
    """(key, default) of each row of the first table under ``## Config``."""
    section = README.read_text(encoding="utf-8").split("\n## Config\n", 1)[1]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default = (cell.strip() for cell in line.split("|")[1:3])
            rows.append((key.strip("`"), default))
        elif rows and not line.startswith("|"):
            break
    return rows


def _literal(default: str):
    """The JSON value of a backticked literal default, else ``_NOT_LITERAL``."""
    if len(default) > 2 and default[0] == default[-1] == "`":
        try:
            return json.loads(default[1:-1])
        except ValueError:
            pass
    return _NOT_LITERAL


def _with(config: dict, key: str, value) -> dict:
    """A copy of ``config`` with the dotted ``key`` set to ``value``."""
    out = copy.deepcopy(config)
    *parents, leaf = key.split(".")
    node = out
    for name in parents:
        node = node.setdefault(name, {})
    node[leaf] = value
    return out


def _parsed(config: ExperimentConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config) if f.name != "canonical"}


def test_every_documented_key_is_accepted():
    rows = _config_rows()
    assert "detector.feature.descriptor" in dict(rows)
    for key, default in rows:
        value = _literal(default)
        if value is _NOT_LITERAL and key in _BASE:
            value = _BASE[key]
        elif value is _NOT_LITERAL:
            value = _SAMPLES[key]  # a new row without a literal default needs a sample
        parse_config(_with(_BASE, key, value))


def test_documented_defaults_are_the_parser_defaults():
    literal = [(key, _literal(d)) for key, d in _config_rows() if _literal(d) is not _NOT_LITERAL]
    assert ("detector.feature.descriptor", "raw-patch") in literal
    want = _parsed(parse_config(_BASE))
    for key, value in literal:
        assert _parsed(parse_config(_with(_BASE, key, value))) == want, key
