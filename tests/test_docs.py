"""README and code agree on the config fields, the synth keys, the analyses
and the one runtime dependency."""
import ast
import glob
import json
import os
import re
import sys

import pytest

from growcast import analysis, engine
from growcast.cli import _parse_synth_spec, build_parser
from growcast.data_pipeline import Normalizer

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = open(os.path.join(ROOT, "README.md")).read()


def table(header):
    """{first cell: second cell} of the README table under `header`, names unquoted."""
    lines = README.splitlines()
    start = lines.index(header) + 2  # past the header and its |---| line
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1]
    return rows


def as_json(value):
    return list(value) if isinstance(value, tuple) else value


def test_config_fields_and_defaults():
    rows = table("| field | default | meaning |")
    fields = engine.ExperimentConfig.__dataclass_fields__
    assert list(rows) == list(fields)
    assert rows.pop("scheme") == "required"
    for name, default in rows.items():
        want = as_json(fields[name].default)
        assert json.loads(default) == want and type(json.loads(default)) is type(want), name


def test_synth_keys_and_defaults():
    rows = table("| key | default | meaning |")
    fields = _parse_synth_spec("seed=0")
    assert list(rows) == list(fields)
    for key, default in rows.items():
        assert json.loads(default) == fields[key], key
        assert type(json.loads(default)) is type(fields[key]), key


def test_analyze_choices():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    what = next(a for a in sub.choices["analyze"]._actions if a.dest == "what")
    assert re.findall(r"growcast analyze --what (\w+)", README) == list(what.choices)


@pytest.mark.parametrize("text, value", [
    ("`engine.MIN_DELTA` = 1e-6", engine.MIN_DELTA),
    ("`analysis.MAPE_MASK_THRESHOLD` = 1e-4", analysis.MAPE_MASK_THRESHOLD),
    ("`Normalizer`'s std floor, 1e-8", Normalizer.fit([[5.0]] * 3, 1).std)])
def test_absolute_thresholds(text, value):
    assert text in README and float(text.split()[-1]) == value


def imported_modules(path):
    """The top-level name of each module a source file imports; "." for relative ones."""
    for node in ast.walk(ast.parse(open(path).read(), path)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." if node.level else node.module.split(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    assert "numpy (the only runtime dependency)" in README
    allowed = set(sys.stdlib_module_names) | {"numpy", "growcast", "."}
    sources = sorted(glob.glob(os.path.join(ROOT, "src", "growcast", "*.py")))
    assert len(sources) > 5
    foreign = {(os.path.basename(path), name) for path in sources
               for name in imported_modules(path) if name not in allowed}
    assert foreign == set()
