"""The package metadata in pyproject.toml, read without installing the
package: the console script and the version every output header carries."""

import importlib
import json
import tomllib
from pathlib import Path

import magicbarrier
from magicbarrier import cli

PROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
)["project"]


def test_script_entry_resolves_to_cli_main():
    module, _, name = PROJECT["scripts"]["magicbarrier"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_version_is_the_output_header_version(capsys):
    assert PROJECT["version"] == magicbarrier.__version__
    assert cli.main(["transfer", "--count", "10"]) == 0
    header = json.loads(capsys.readouterr().out)["tool"]
    assert header == {"name": "magicbarrier", "version": PROJECT["version"]}
