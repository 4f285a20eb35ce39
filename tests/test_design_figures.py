"""The three figures ROADMAP aim 2 tracks: the ``src/`` line count, the
newlines over ``src/cbfctl/*.py`` (``cat src/cbfctl/*.py | wc -l``), and, by
an AST pass, the defaulted parameters over every ``def`` in ``src/`` and the
names ``cbfctl/__init__.py`` exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cbfctl"

SRC_LINES = 3460
DEFAULTED_PARAMETERS = 24
EXPORTS = 49


def _src_lines() -> int:
    return sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))


def _defaulted_parameters() -> int:
    count = 0
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def _exports() -> int:
    names = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return len(names)


def test_aim_2_figures():
    found = {"src lines": _src_lines(), "defaulted parameters": _defaulted_parameters(), "exports": _exports()}
    recorded = {"src lines": SRC_LINES, "defaulted parameters": DEFAULTED_PARAMETERS, "exports": EXPORTS}
    assert found == recorded, (
        f"aim 2's figures moved: {found}, recorded {recorded}. A change that raises one must say why "
        "in CHANGES.md and in ROADMAP aim 2; any change to them records the new figures there and here."
    )
