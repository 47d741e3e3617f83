"""The public names and the README's command list match the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repfn
from repfn.cli import build_parser

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
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"repfn.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(repfn, alias.asname or alias.name)
            # the package re-exports only what its modules declare public
            assert public is None or alias.name in public, (node.module, alias.name)


def _readme_commands():
    text = README.read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = set(re.findall(r"^repfn (\S+)", section, flags=re.MULTILINE))
    described = set(re.findall(r"^\* `([a-z0-9-]+)`", section, flags=re.MULTILINE))
    count = re.search(r"has (\w+) subcommands", section).group(1)
    return examples, described, count


def test_readme_lists_exactly_the_subcommands():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    choices = set(sub.choices)
    examples, described, count = _readme_commands()
    assert examples == choices
    assert described == choices
    assert count == NUMBER_WORDS[len(choices)]
