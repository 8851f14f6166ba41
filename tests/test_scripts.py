"""The scripts under ``scripts/`` run end to end against the package."""

import os
import subprocess
import sys
from pathlib import Path

from magicbarrier import ingest
from magicbarrier.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )


def test_synthetic_tensor_feeds_ingest(tmp_path):
    tensor = tmp_path / "tensor.csv"
    run_script("make_synthetic_tensor.py", "--users", "5", "--out", str(tensor))
    assert main(["ingest", str(tensor), "--out", str(tmp_path / "pairs.json")]) == 0


def test_synthetic_tensor_takes_the_fast_parse_path(tmp_path, monkeypatch):
    # a gate that stops matching plain tensors would fall back silently
    tensor = tmp_path / "tensor.csv"
    run_script("make_synthetic_tensor.py", "--users", "200", "--out", str(tensor))

    def refuse(source, scale):
        raise AssertionError("plain tensor text fell back to the per-line parser")

    monkeypatch.setattr(ingest, "_parse_lines", refuse)
    assert main(["ingest", str(tensor), "--out", str(tmp_path / "pairs.json")]) == 0


def test_agreement_study_runs(tmp_path):
    result = run_script(
        "agreement_study.py", "--configs-per-count", "1", "--tau", "200", "--workers", "1",
        "--out", str(tmp_path / "study.csv"),
    )
    assert result.stdout.startswith("6 configurations, tau=200")
    assert len((tmp_path / "study.csv").read_text().splitlines()) == 2 + 6
