"""What importing the package loads beyond numpy: the standard library's
lighter modules, never an import chain that a run does not use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# XML and its urllib/http/ssl/email chain, and the process pool with its
# multiprocessing/socket/subprocess chain, which only a run of more than one
# worker starts.  What numpy loads itself is not the package's: pathlib loads
# urllib, and Python 3.10's platform imports subprocess.
UNUSED = ("xml", "urllib", "http", "ssl", "email", "multiprocessing", "socket",
          "subprocess", "concurrent.futures.process")


def test_cli_import_leaves_unused_chains_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, numpy; before = set(sys.modules); import robustvar.cli; "
            f"print(*(m for m in {UNUSED!r} if m in sys.modules and m not in before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []
