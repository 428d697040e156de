"""README's config table agrees with ``runner.parse_config``, and its
CLI section with ``cli.build_parser``.

Every key in the first column of the table under ``## Config`` is one
the parser accepts, and a key set to the default the table gives as a
JSON literal parses to the config that leaving the key out gives. Every
long option of the command line appears under ``## CLI``, and every
``--flag`` named there is one.
"""

from __future__ import annotations

import copy
import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

from iadbench.cli import build_parser
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


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _options(sub)
    return options


def test_cli_section_names_every_option():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    defined = _options(build_parser())
    assert {"--version", "--help", "--pro-limit", "--in"} <= defined
    assert sorted(defined - named) == []  # defined but not documented
    assert sorted(named - defined) == []  # documented but not defined
