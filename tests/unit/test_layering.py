"""The layer map in docs/architecture.md is a checked DAG.

The map's code block is the one statement of the order: every line
that starts a tier names its packages (``kernel/``) and modules
(``cluster.py``), top tier first.  This walks ``src/repro`` with
:mod:`ast` and fails naming every import that reaches a tier drawn at or
above the importer's own — imports under ``if TYPE_CHECKING:`` are
annotations, not dependencies, and are exempt — and every package the
map forgot to place.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: The one standing upward import, with its reason.
EXCEPTIONS = {
    ("phys/switch.py", "rostering"):
        "slide 16's 'rostering rules' live in the switch: it floods "
        "ROSTERING cells and dedups them by rostering.wire.flood_key",
}


def _tiers():
    """``{package or module name: tier}`` from the doc, bottom tier 0."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    block = text.split("## Layer map", 1)[1].split("```")[1]
    rows = [
        re.findall(r"(\w+)(?:/|\.py)", line.split("  ")[0])
        for line in block.splitlines()
        if re.match(r" \w+(/|\.py)", line)
    ]
    return {name: tier for tier, row in enumerate(reversed(rows)) for name in row}


def _unit(path):
    """The package (or top-level module) a source file belongs to."""
    rel = path.relative_to(SRC)
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def _imports(path):
    """Units under ``repro`` that ``path`` imports at run time."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test):
                for stmt in child.orelse:
                    visit(stmt)
                continue
            if isinstance(child, ast.ImportFrom):
                module = child.module.split(".") if child.module else []
                if child.level:
                    here = path.relative_to(SRC).parts[:-1]
                    module = list(here[: len(here) - child.level + 1]) + module
                elif module[:1] == ["repro"]:
                    module = module[1:]
                else:
                    continue
                # ``from . import x`` names the units themselves
                found.update([module[0]] if module else
                             [alias.name for alias in child.names])
            elif isinstance(child, ast.Import):
                found.update(
                    alias.name.split(".")[1] for alias in child.names
                    if alias.name.startswith("repro.")
                )
            visit(child)

    visit(ast.parse(path.read_text()))
    return found - {_unit(path)}


def test_no_import_reaches_a_layer_drawn_above():
    tiers = _tiers()
    assert len(tiers) >= 20, "the walk lost the layer map"
    upward, unplaced = [], set()
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "__init__.py":
            continue  # the package facade re-exports from every layer
        unit = _unit(path)
        rel = path.relative_to(SRC).as_posix()
        imported = sorted(_imports(path))
        unplaced |= {u for u in (unit, *imported) if u not in tiers}
        upward += [
            f"{rel} -> {target}"
            for target in imported
            if unit in tiers and target in tiers
            and tiers[target] >= tiers[unit]
            and (rel, target) not in EXCEPTIONS
        ]
    assert not unplaced, f"not in the docs/architecture.md layer map: {sorted(unplaced)}"
    assert not upward, (
        "imports reaching a layer drawn at or above the importer's own:\n  "
        + "\n  ".join(upward)
    )
