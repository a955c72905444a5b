"""Run each demo script and README's library example end to end, so a
public name or parameter they use cannot disappear unnoticed, and the
example's quoted output cannot go stale."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_readme_example_prints_what_it_quotes():
    # A `#` comment after a print whose output is one line quotes that line;
    # a trailing "..." quotes its start. The narrative's comment describes
    # many lines and is not checked.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    printed = []
    exec(block, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    comments = [
        line.partition("#")[2].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(comments) == len(printed)
    quoted = [(c, line) for c, line in zip(comments, printed) if "\n" not in line]
    assert len(quoted) == 3
    for comment, line in quoted:
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (comment, line)
        else:
            assert line == comment
