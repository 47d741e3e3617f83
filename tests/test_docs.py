"""The public names and the README's commands and examples match the code."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import repfn
from repfn import verify
from repfn.cli import GRAMMAR, _read_plain, build_parser
from repfn.core import STRATEGIES
from repfn.sets import parse_set_spec
from repfn.verify import SUITE_NAMES

PACKAGE_DIR = Path(repfn.__file__).parent
README = Path(__file__).parents[1] / "README.md"
NUMBER_WORDS = dict(enumerate("zero one two three four five six seven eight nine ten".split()))
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"repfn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_package_import_resolves():
    # the package resolves its exports lazily, from one name -> module map
    assert repfn.__all__ == list(repfn._EXPORTS)
    listed = dir(repfn)
    for name, modname in repfn._EXPORTS.items():
        module = importlib.import_module(f"repfn.{modname}")
        # the package re-exports only what its modules declare public
        assert name in module.__all__, (modname, name)
        assert getattr(repfn, name) is getattr(module, name)
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        repfn.no_such_name


def test_parser_lists_exactly_the_suites():
    # the grammar takes its choices from constants, which imports no numpy
    suite = dict(GRAMMAR["verify"][2])["suite"]
    assert tuple(suite["choices"]) == SUITE_NAMES + ("all",)
    assert tuple(verify._SUITES) == SUITE_NAMES
    for name in suite["choices"]:
        assert build_parser().parse_args(["verify", name]).suite == name


def _readme_section(title):
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    section = _readme_section("Command line")
    examples = set(re.findall(r"^repfn (\S+)", section, flags=re.MULTILINE))
    described = set(re.findall(r"^\* `([a-z0-9-]+)`", section, flags=re.MULTILINE))
    count = re.search(r"has (\w+) subcommands", section).group(1)
    return examples, described, count


def test_readme_lists_exactly_the_subcommands():
    choices = set(GRAMMAR)
    examples, described, count = _readme_commands()
    assert examples == choices
    assert described == choices
    assert count == NUMBER_WORDS[len(choices)]


def test_readme_lists_exactly_the_suites():
    section = _readme_section("Verification suites")
    listed = re.findall(r"^\| `([a-z0-9-]+)`", section, flags=re.MULTILINE)
    assert listed == list(SUITE_NAMES)


def test_readme_lists_exactly_the_strategies():
    listed = re.findall(r"^\* `(\w+)`", _readme_section("Library use"), flags=re.MULTILINE)
    assert listed == list(STRATEGIES)


def test_readme_command_examples_parse():
    examples = re.findall(r"^repfn .*$", _readme_section("Command line"), flags=re.MULTILINE)
    assert examples
    for line in examples:
        argv = shlex.split(line)[1:]
        parsed = build_parser().parse_args(argv)
        # main reads every plain line itself; verify's positional goes to argparse
        assert _read_plain(argv) == (None if argv[0] == "verify" else parsed), line


def test_readme_library_block_prints_what_it_shows():
    block = _readme_section("Library use").split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    got = out.getvalue().splitlines()
    assert len(got) == len(prints)
    # a comment after a print shows that print's output
    expected = {i: line.split("#", 1)[1].strip() for i, line in enumerate(prints) if "#" in line}
    assert expected
    for i, text in expected.items():
        assert got[i] == text


def test_readme_set_table_matches_the_parser():
    rows = re.findall(r"^\| `([^`]+)` +\| (.*?) *\|$", _readme_section("Describing sets"), flags=re.MULTILINE)
    assert len(rows) == 7
    named = 0
    for spec, description in rows:
        a = parse_set_spec(spec)
        listed = re.search(r"\{([\d, ]+)\}", description)
        if listed:
            named += 1
            assert a.members(1000) == [int(v) for v in listed.group(1).split(",")], spec
    assert named == 2
