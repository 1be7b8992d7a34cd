"""Every JSON example in README.md is read by the reader it documents, and
every Python example runs."""

import json
import re
from pathlib import Path

import pytest

from robustvar.cli import cli_main, dgp_from_dict
from robustvar.experiments import spec_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```json\n(.*?)```", TEXT, re.S)
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)


def test_readme_has_examples():
    assert len(BLOCKS) >= 3 and PYTHON_BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_is_accepted(block, tmp_path):
    doc = json.loads(block)
    if "kind" in doc:
        dgp_from_dict(doc)
    elif "case" in doc:
        spec_from_dict(doc)
    else:
        spec_path = tmp_path / "diag.json"
        spec_path.write_text(block)
        argv = ["diagnose", "--spec", str(spec_path), "--out", str(tmp_path / "diag.csv")]
        assert cli_main(argv) == 0


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"python{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_example_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an example that writes a file writes it here
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
