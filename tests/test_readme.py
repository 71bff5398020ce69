"""Every python snippet in README.md runs as written, and its scenario key table matches the factories."""

import inspect
import itertools
import re
from pathlib import Path

import pytest

from supgauss.scenarios import SCENARIO_TYPES

README = Path(__file__).resolve().parents[1] / "README.md"
SNIPPETS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_has_python_snippets():
    assert len(SNIPPETS) >= 2


@pytest.mark.parametrize("snippet", SNIPPETS, ids=[f"snippet_{i}" for i in range(len(SNIPPETS))])
def test_readme_snippet_runs(snippet, capsys):
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_scenario_key_table_matches_the_factories():
    """The README's scenario key table lists exactly each factory's keywords, with their defaults."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key") and "`kernel_density`" in line)
    table = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
             for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    header, rows = table[0], table[2:]
    assert header[1:4] == list(SCENARIO_TYPES)
    for column, stype in enumerate(header[1:4], start=1):
        documented = {row[0]: eval(row[column], {}) for row in rows if row[column]}
        defaults = {name: p.default for name, p in inspect.signature(SCENARIO_TYPES[stype]).parameters.items()}
        # JSON spelling of the defaults: an absent law_params is {}, a tuple a list
        assert documented == {key: {} if v is None else list(v) if isinstance(v, tuple) else v
                              for key, v in defaults.items()}
