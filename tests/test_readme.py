"""README.md says what the code does: its library example runs, its results
table matches the golden reports, and its module table, command lines,
config example, calls and private names name what the code defines."""

import dataclasses
import importlib
import json
import pkgutil
import re
import shlex
from decimal import Decimal
from pathlib import Path

import pytest

import icmor
from icmor import cli
from icmor.experiment import ExperimentConfig

from conftest import _verbs

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _section(title):
    """The text of the README section headed ``## title``."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _block(text, lang):
    """The first fenced ``lang`` block in ``text``."""
    block = re.search(rf"```{lang}\n(.*?)```", text, re.S)
    assert block, f"no {lang} block"
    return block.group(1)


def _table(text, header):
    """The body rows of the markdown table in ``text`` whose header row
    starts with ``header``, each a list of stripped cells."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[i + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _matches(cell, value):
    """Whether the printed number ``cell`` is ``value`` rounded to the
    digits it shows."""
    half_ulp = Decimal(1).scaleb(Decimal(cell).as_tuple().exponent) / 2
    return abs(float(cell) - value) <= float(half_ulp) * (1.0 + 1e-9)


def test_library_example_runs():
    namespace = {}
    exec(compile(_block(README.read_text(), "python"), f"{README}:library example", "exec"),
         namespace)
    assert namespace["err"] >= 0.0


def test_results_table_matches_golden_reports():
    rows = _table(_section("Results"), "| config | method |")
    golden = {path.stem: json.loads(path.read_text())["report"]["methods"]
              for path in GOLDEN.glob("*.json")}
    assert {(c.strip("`"), m.strip("`")) for c, m, *_ in rows} \
        == {(name, method) for name, methods in golden.items() for method in methods}
    for config, method, orders, rel_l2, l2_error, bound, holds in rows:
        want = golden[config.strip("`")][method.strip("`")]
        where = f"{config} {method}"
        assert {k: int(v) for k, v in re.findall(r"(r_\w+) = (\d+)", orders)} \
            == want["orders"], where
        assert _matches(rel_l2, want["rel_l2"]), f"{where} rel L2"
        assert _matches(l2_error, want["abs_l2_error"]), f"{where} L2 error"
        assert _matches(bound, want["bound"]), f"{where} bound"
        assert holds == ("yes" if want["bound_ok"] else "no"), f"{where} bound holds"


@pytest.mark.parametrize("cell, value, ok", [
    ("0.008960", 0.00896015, True), ("0.008960", 0.0089606, False),
    ("179.4", 179.4395, True), ("179.4", 179.46, False)])
def test_printed_precision(cell, value, ok):
    assert _matches(cell, value) is ok


def test_module_table_names_every_module():
    rows = _table(_section("Design"), "| module | contents |")
    named = {re.fullmatch(r"`icmor\.(\w+)`", module).group(1): text for module, text in rows}
    modules = {p.stem for p in (ROOT / "src" / "icmor").glob("*.py") if p.stem != "__init__"}
    private = {m for m in modules if m.startswith("_")}
    assert set(named) == modules - private
    # a private module is named in the row of the public one that uses it
    assert "`icmor._mmio`" in named["model"]
    assert all(any(f"`icmor.{m}`" in text for text in named.values()) for m in private)


def _defined_names():
    """Every attribute of the package and its modules, and of each class
    one of them defines."""
    modules = [icmor] + [importlib.import_module(f"icmor.{info.name}")
                         for info in pkgutil.iter_modules(icmor.__path__)]
    names = set()
    for mod in modules:
        names |= set(dir(mod))
        names.update(*(dir(value) for value in vars(mod).values()
                       if isinstance(value, type) and value.__module__ == mod.__name__))
    return names


def test_calls_and_private_names_exist():
    # each name written as a call, `name(` or `obj.name(`, and each private
    # name, `_name` or `module._name`, is one the code defines
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    calls = {name for span in spans for name in re.findall(r"(\w+)\(", span)}
    private = {span.rpartition(".")[2] for span in spans
               if re.fullmatch(r"(\w+\.)*_\w+", span)}
    assert calls and private
    assert (calls | private) - _defined_names() == set()


def test_command_line_block_uses_every_verb():
    commands = [shlex.split(line)[1:] for line in _block(_section("Command line"), "sh").splitlines()
                if line.startswith("icmor ")]
    verbs = _verbs(cli.build_parser())
    for verb in verbs:
        assert any(tuple(cmd[:len(verb)]) == verb for cmd in commands), verb
    for cmd in commands:
        cli.build_parser().parse_args(cmd)
        flags = next(f for verb, f in verbs.items() if tuple(cmd[:len(verb)]) == verb)
        # each flag spelled out in full, not as a prefix argparse accepts
        assert {arg for arg in cmd if arg.startswith("--")} <= flags, cmd


def test_config_example_keys_are_fields():
    section = _section("Command line")
    example = json.loads(_block(section, "json"))
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(example) <= fields
    ExperimentConfig.from_dict(example)
    # the example and the list of the other fields name every field
    others = re.search(r"The other fields are (.*?)\. ", section, re.S).group(1)
    assert set(example) | set(re.findall(r"`(\w+)`", others)) == fields
