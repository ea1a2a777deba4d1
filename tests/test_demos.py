"""Every demo and the README's library quickstart run to completion, and every name a demo
imports from latentsteer exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latentsteer":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name} is gone"
                imported += 1
    assert imported, f"{demo.name} imports nothing from latentsteer"


def _run_python(args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    """A demo that calls a removed keyword or option fails here, not only at import."""
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quickstart_runs(tmp_path):
    """The first python block under the README's "Library quickstart" heading runs as written."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert block, "README has no python block under 'Library quickstart'"
    proc = _run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
