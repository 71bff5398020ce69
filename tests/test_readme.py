"""Every python snippet in README.md runs as written, every JSON config in it validates, and its key tables
match the schemas they document: RunConfig, the scenario factories, the subcommand runners and the moments
builder."""

import dataclasses
import inspect
import itertools
import json
import re
from pathlib import Path

import pytest

from supgauss.cli import RUNNERS, RunConfig, _keyword_defaults, _moment_inputs, validate
from supgauss.scenarios import SCENARIO_TYPES

README = Path(__file__).resolve().parents[1] / "README.md"
SNIPPETS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
CONFIGS = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_has_python_snippets():
    assert len(SNIPPETS) >= 2


@pytest.mark.parametrize("snippet", SNIPPETS, ids=[f"snippet_{i}" for i in range(len(SNIPPETS))])
def test_readme_snippet_runs(snippet, capsys):
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def json_spelling(default):
    """A signature default as a README table spells it in JSON: an absent law_params is {}, a tuple a list."""
    return {} if default is None else list(default) if isinstance(default, tuple) else default


def table_at(header_start: str, marker: str) -> list[list[str]]:
    """The cells of the README table whose header line starts with header_start and holds marker."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header_start) and marker in line)
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]


def test_scenario_key_table_matches_the_factories():
    """The README's scenario key table lists exactly each factory's keywords, with their defaults."""
    table = table_at("| key", "`kernel_density`")
    header, rows = table[0], table[2:]
    assert header[1:4] == list(SCENARIO_TYPES)
    for column, stype in enumerate(header[1:4], start=1):
        documented = {row[0]: eval(row[column], {}) for row in rows if row[column]}
        defaults = {name: p.default for name, p in inspect.signature(SCENARIO_TYPES[stype]).parameters.items()}
        assert documented == {key: json_spelling(v) for key, v in defaults.items()}


def test_params_table_matches_the_runners():
    """The README's params table lists exactly each runner's keywords, with their defaults ("required": none)."""
    table = table_at("| subcommand", "| key")
    assert table[0][:3] == ["subcommand", "key", "default"]
    documented, sub = {}, None
    for row in table[2:]:
        sub = row[0] or sub  # an empty subcommand cell continues the one above
        documented[sub, row[1]] = row[2] if row[2] == "required" else eval(row[2], {})
    expected = {(sub, name): "required" if default is inspect.Parameter.empty else json_spelling(default)
                for sub, runner in RUNNERS.items() for name, default in _keyword_defaults(runner).items()}
    assert documented == expected


def json_table(header_start: str) -> dict:
    """key -> default of a README key / default / value table, each default read as JSON ("required": none)."""
    table = table_at(header_start, "| default")
    return {row[0]: row[1] if row[1] == "required" else json.loads(row[1]) for row in table[2:]}


def test_top_level_table_matches_run_config():
    """The README's top-level key table lists exactly RunConfig's fields, with their defaults."""
    def default(f):
        if f.default_factory is not dataclasses.MISSING:
            return f.default_factory()
        return "required" if f.default is dataclasses.MISSING else f.default

    assert json_table("| top-level key") == {f.name: default(f) for f in dataclasses.fields(RunConfig)}


def test_moments_table_matches_the_builder():
    """The README's moments table lists exactly _moment_inputs's keywords, with their defaults."""
    expected = {name: "required" if default is inspect.Parameter.empty else default
                for name, default in _keyword_defaults(_moment_inputs).items()}
    assert json_table("| `moments` key") == expected


def test_readme_has_json_configs():
    assert len(CONFIGS) >= 2


@pytest.mark.parametrize("text", CONFIGS, ids=[f"config_{i}" for i in range(len(CONFIGS))])
def test_readme_json_configs_validate(text):
    assert validate(text)[1] == []
