"""The scripts under ``scripts/`` and README's library example run end to end
against the package."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from magicbarrier import ingest
from magicbarrier.cli import main

from conftest import synthetic_tensor

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300, check=check,
    )


def test_synthetic_tensor_feeds_ingest(tmp_path):
    tensor = tmp_path / "tensor.csv"
    run_script("make_synthetic_tensor.py", "--users", "5", "--out", str(tensor))
    assert main(["ingest", str(tensor), "--out", str(tmp_path / "pairs.json")]) == 0


def test_synthetic_tensor_bytes():
    # the study-size baseline README's Quick start writes (--seed 7): 1,675
    # records, 279 of whose 335 pairs are nonvanishing; the tests' tensors
    # come from the same generator
    text = synthetic_tensor(seed=7).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "b37aa9841d6d02f8391da2f1ca916deaa338c8db1bd522a600549107e1eb77a7"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--users", "1", "--trials", "-1"], "argument --trials: must be >= 1, got -1"),
        (["--scale-min", "5", "--scale-max", "1"], "--scale-min 5 must be below --scale-max 1"),
        (["--rate", "0"], "argument --rate: must be finite and > 0, got 0"),
        (["--users", "-1"], "argument --users: must be >= 1, got -1"),
        (["--items", "0"], "argument --items: must be >= 1, got 0"),
        (["--rate", "nan", "--users", "1"], "argument --rate: must be finite and > 0, got nan"),
    ],
    ids=["trials-neg", "scale-reversed", "rate-0", "users-neg", "items-0", "rate-nan"],
)
def test_synthetic_tensor_refuses_bad_arguments(tmp_path, args, message):
    out = tmp_path / "tensor.csv"
    done = run_script("make_synthetic_tensor.py", *args, "--out", str(out), check=False)
    assert done.returncode == 2
    assert done.stderr.endswith(f"make_synthetic_tensor.py: error: {message}\n")
    assert "Traceback" not in done.stderr and not out.exists()


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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # README's one python block, run as written on the Quick start tensor
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    run_script("make_synthetic_tensor.py", "--seed", "7", "--out", str(tmp_path / "tensor.csv"))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("GaussianSummary(mean=")
