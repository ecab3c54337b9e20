"""Every name the docs give resolves to something that exists.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md are read for three
kinds of name, and each must resolve in this checkout:

- a backticked path under ``src/``, ``tests/``, ``benchmarks/`` or
  ``docs/`` (a ``::test`` or ``:line`` suffix is dropped, ``{a,b}`` is
  expanded and ``*`` must match at least one file);
- a ``repro.<module>`` dotted name: the longest importable module
  prefix, then attributes;
- an ``llm265 <subcommand>``.

The counter and histogram tables of docs/OBSERVABILITY.md are held to
the emit sites in ``src/`` in both directions: every name a row gives
is emitted, every name ``src/`` emits has a row, and every row names
its reader.
"""

import ast
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


OBSERVABILITY = os.path.join(ROOT, "docs", "OBSERVABILITY.md")
METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_<>]+)+)`")
PLACEHOLDER_RE = re.compile(r"<[a-z_]*>")
#: Calls that emit a metric: ``telemetry.count`` / ``observe`` and a
#: registry's (the fault injector's ``record`` counts ``faults.<kind>``
#: through an f-string, filled by the kinds its callers pass).
EMITTERS = {"count", "observe"}


def _metric_rows():
    """``{name: reader}`` from every table whose first header cell is
    ``counter`` or ``histogram``."""
    rows, header = {}, None
    with open(OBSERVABILITY, encoding="utf-8") as handle:
        for line in handle:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not line.startswith("|"):
                header = None
            elif header is None:
                header = [cell.lower() for cell in cells]
            elif header[0] in ("counter", "histogram") and set(cells[0]) != {"-"}:
                reader = cells[header.index("reader")]
                for name in METRIC_RE.findall(cells[0]):
                    rows[name] = reader
    return rows


def _template(name):
    """``encode.bits.<class>`` -> ``encode.bits.<>``."""
    return PLACEHOLDER_RE.sub("<>", name)


def _pattern(template):
    parts = template.split("<>")
    return re.compile("".join(
        re.escape(part) + ("([a-z0-9_.]+)" if i < len(parts) - 1 else "")
        for i, part in enumerate(parts)
    ) + "$")


def _emit_sites():
    """(literal names, f-string templates, every string constant) in src/."""
    literals, templates, constants = set(), set(), set()
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                constants.add(node.value)
            if not (
                isinstance(node, ast.Call) and node.args
                and getattr(node.func, "attr", None) in EMITTERS
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if "." in first.value:
                    literals.add(first.value)
            elif isinstance(first, ast.JoinedStr):
                templates.add("".join(
                    part.value if isinstance(part, ast.Constant) else "<>"
                    for part in first.values
                ))
    return literals, templates, constants


def _emitted(name, literals, templates, constants):
    """Whether a documented name (maybe with ``<…>``) is emitted."""
    if "<" in name:
        pattern = _pattern(_template(name))
        return _template(name) in templates or any(
            pattern.match(literal) for literal in literals
        )
    if name in literals:
        return True
    for template in templates:
        match = _pattern(template).match(name)
        if match and all(fill in constants for fill in match.groups()):
            return True
    return False


def _documented(emitted, rows):
    """Whether a literal name or f-string template has a row."""
    if "<>" in emitted:
        pattern = _pattern(emitted)
        return any(
            _template(row) == emitted or pattern.match(row) for row in rows
        )
    return emitted in rows or any(
        "<" in row and _pattern(_template(row)).match(emitted) for row in rows
    )


def test_every_documented_metric_is_emitted():
    literals, templates, constants = _emit_sites()
    rows = _metric_rows()
    assert len(rows) > 40, sorted(rows)
    missing = sorted(
        name for name in rows
        if not _emitted(name, literals, templates, constants)
    )
    assert not missing, missing


def test_every_emitted_metric_has_a_row_with_a_reader():
    literals, templates, _ = _emit_sites()
    rows = _metric_rows()
    missing = sorted(
        name for name in literals | templates if not _documented(name, rows)
    )
    assert not missing, missing
    unread = sorted(name for name, reader in rows.items() if reader in ("", "—"))
    assert not unread, unread


@pytest.mark.parametrize("name, emitted", [
    ("decode.kernel_refusals", True),  # a literal
    ("encode.bits.<class>", True),  # an f-string template
    ("encode.cu.leaf", True),  # a template filled by a src constant
    ("faults.<kind>", True),  # the injector's f-string template
    ("faults.hangs", True),  # ... filled by a kind its callers pass
    ("faults.shard_kills", False),  # counted in faults.injected alone
    ("encode.no_such_count", False),
    ("serving.requests", False),
    ("parallel.single_item", False),
])
def test_metric_rules(name, emitted):
    assert _emitted(name, *_emit_sites()) is emitted


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
