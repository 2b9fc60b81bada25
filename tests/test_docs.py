"""README's library and command-line examples run as written."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from sdcsim.cli import main

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


def test_the_readme_cli_examples_exit_as_commented(tmp_path, monkeypatch):
    """README's "Try the bundled scenarios" commands run in order through `cli.main` from the
    repository root, each `/tmp/demo*` path mapped under `tmp_path`: each exits with the code
    its `# exits N` comment gives, else 0."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^Try the bundled scenarios:\n\n```\n(.*?)^```$", text, re.M | re.S)[1]
    lines = block.splitlines()
    assert len(lines) == 4
    monkeypatch.chdir(ROOT)
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = (str(tmp_path / arg[len("/tmp/"):]) if arg.startswith("/tmp/demo")
                          else arg for arg in command.split())
        assert program == "sdcsim"
        expected = int(re.fullmatch(r" exits (\d+)", comment)[1]) if comment else 0
        assert main(argv) == expected, line
    assert (tmp_path / "demo" / "journal.bin").exists()
