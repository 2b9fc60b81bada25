"""README's library examples run as written."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    """README's `python` blocks run in order, in one namespace, from a directory holding a
    copy of `scenarios/`: a block that names a deleted API or stops running fails here, with
    its README line numbers in the traceback."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) == 4
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        padding = "\n" * text.count("\n", 0, block.start(1))  # so line numbers are README's
        exec(compile(padding + block[1], str(ROOT / "README.md"), "exec"), namespace)
    assert (tmp_path / "journal.bin").exists() and namespace["amount"].as_of == 10
