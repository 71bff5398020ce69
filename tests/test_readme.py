"""Every python snippet in README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
SNIPPETS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_has_python_snippets():
    assert len(SNIPPETS) >= 2


@pytest.mark.parametrize("snippet", SNIPPETS, ids=[f"snippet_{i}" for i in range(len(SNIPPETS))])
def test_readme_snippet_runs(snippet, capsys):
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
