"""Every name the docs give resolves to something that exists.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md are read for three
kinds of name, and each must resolve in this checkout:

- a backticked path under ``src/``, ``tests/``, ``benchmarks/`` or
  ``docs/`` (a ``::test`` or ``:line`` suffix is dropped, ``{a,b}`` is
  expanded and ``*`` must match at least one file);
- a ``repro.<module>`` dotted name: the longest importable module
  prefix, then attributes;
- an ``llm265 <subcommand>``.
"""

import glob
import importlib
import itertools
import os
import re

import pytest

from repro import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = sorted(
    [os.path.join(ROOT, name) for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + glob.glob(os.path.join(ROOT, "docs", "*.md"))
)

PATH_RE = re.compile(r"`((?:src|tests|benchmarks|docs)/[^`\s]*)`")
MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
COMMAND_RE = re.compile(r"\bllm265 ([a-z][a-z_-]*)")


def _expand(path):
    """``a/{b,c}.py`` -> ``a/b.py``, ``a/c.py`` (every group)."""
    parts = re.split(r"\{([^{}]*)\}", path)
    choices = [
        part.split(",") if index % 2 else [part]
        for index, part in enumerate(parts)
    ]
    return ["".join(combo) for combo in itertools.product(*choices)]


def _path_exists(path):
    path = re.sub(r"(::.*|:\d+(-\d+)?)$", "", path).rstrip("/.,;:")
    for candidate in _expand(path):
        full = os.path.join(ROOT, candidate)
        found = glob.glob(full) if "*" in candidate else os.path.exists(full)
        if not found:
            return False
    return True


def _name_resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _names(pattern):
    for doc in DOCS:
        with open(doc, encoding="utf-8") as handle:
            text = handle.read()
        for match in pattern.finditer(text):
            name = match.group(1) if pattern.groups else match.group(0)
            yield os.path.relpath(doc, ROOT), name


def test_the_docs_exist():
    assert len(DOCS) >= 4, DOCS


def test_backticked_paths_exist():
    missing = {(doc, p) for doc, p in _names(PATH_RE) if not _path_exists(p)}
    assert not missing, sorted(missing)


def test_repro_names_resolve():
    missing = {(doc, n) for doc, n in _names(MODULE_RE) if not _name_resolves(n)}
    assert not missing, sorted(missing)


def test_llm265_subcommands_exist():
    commands = set(cli._COMMANDS)
    missing = {(doc, c) for doc, c in _names(COMMAND_RE) if c not in commands}
    assert not missing, sorted(missing)


@pytest.mark.parametrize("path, exists", [
    ("src/repro/cli.py", True),
    ("tests/test_doc_names.py::test_the_docs_exist", True),
    ("src/repro/cluster/{router,shard}.py", True),
    ("src/repro/cluster/{router,gone}.py", False),
    ("tests/test_*.py", True),
    ("src/repro/serving/supervisor.py", False),
])
def test_path_rules(path, exists):
    assert _path_exists(path) is exists


@pytest.mark.parametrize("name, exists", [
    ("repro.cluster.shard", True),
    ("repro.cluster.shard.SHARD_MAX_QUEUE", True),
    ("repro.serving.service.CodecService.encode", True),
    ("repro.serving.supervisor", False),
    ("repro.serving.ladder.DegradationLadder", False),
])
def test_name_rules(name, exists):
    assert _name_resolves(name) is exists
