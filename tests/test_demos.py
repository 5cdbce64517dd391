"""Every demo prints exactly its pinned output, and so does README's
library quick start."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_pinned(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, check=True)
    expected = (ROOT / "tests" / "fixtures" / "demos" / f"{demo.stem}.out").read_text()
    assert done.stdout == expected


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    printed = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert printed == ["-1 inner(1,(2,(3,4)),)", "AbelianGroupStructure(Z/2)", "0", "True"]
    done = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, check=True)
    assert done.stdout == "".join(f"{value}\n" for value in printed)
