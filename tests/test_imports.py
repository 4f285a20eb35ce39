"""One import route per name.

Inside the package a name is imported from the module that defines it, never
through another module's re-export, so each name has one spelling and
``grep "from .fields import norms"`` finds every user of ``fields.norms``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cbfctl"


def _defined(tree: ast.Module) -> set[str]:
    """Top-level def, class and assignment targets of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_relative_imports_name_the_defining_module():
    defined = {p.stem: _defined(ast.parse(p.read_text())) for p in SRC.glob("*.py")}
    routed = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                routed += [
                    f"{path.name}: {a.name} from .{node.module}"
                    for a in node.names if a.name not in defined[node.module]
                ]
    assert not routed, routed


def test_space_integrals_live_in_fields():
    # every spatial integral is a fields reduction: outside fields.py no module
    # weights a sum by the grid's volume or quadrature weight; harness.py
    # reads .volume once, to normalize the dense basis
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        reads += [
            (path.name, node.attr)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("volume", "quad_weight")
        ]
    assert reads == [("harness.py", "volume")], reads


def _half_layout_uses(tree: ast.Module) -> list[str]:
    """Slices bounded by kmax, the Hermitian weights and np.where(..., 2, 1)
    weight arrays: the places that know coefficients are stored on a half."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Slice):
            bounds = [b for b in (node.lower, node.upper, node.step) if b is not None]
            names = {getattr(x, "id", None) or getattr(x, "attr", None) for b in bounds for x in ast.walk(b)}
            if "kmax" in names:
                found.append(f"line {node.lineno}: kmax slice")
        elif isinstance(node, ast.Attribute) and node.attr == "_hermitian_weights":
            found.append(f"line {node.lineno}: _hermitian_weights")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "where" and len(node.args) == 3:
            if {getattr(a, "value", None) for a in node.args[1:]} == {1, 2}:
                found.append(f"line {node.lineno}: weight array")
    return found


def test_half_layout_lives_in_fields():
    # coefficients live on the half cube k_last >= 0, and only fields.py knows it: no other module
    # slices at kmax or weights a sum for the missing k_last < 0 half
    assert _half_layout_uses(ast.parse("c[..., g.kmax:]; w = np.where(k > 0, 2.0, 1.0); g._hermitian_weights"))
    others = [p for p in sorted(SRC.glob("*.py")) if p.name != "fields.py"]
    uses = {p.name: _half_layout_uses(ast.parse(p.read_text())) for p in others}
    assert not any(uses.values()), uses
    assert _half_layout_uses(ast.parse((SRC / "fields.py").read_text()))


def test_drivers_build_no_fields():
    # the checks, the experiments and the dense oracle work on coefficient arrays:
    # none of them wraps an array in a SpectralField
    def calls(tree: ast.Module) -> list[int]:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "SpectralField":
                    found.append(node.lineno)
        return found

    assert calls(ast.parse("u = SpectralField(g, c); w = fields.SpectralField(g, c)")) == [1, 1]
    found = {name: calls(ast.parse((SRC / name).read_text())) for name in ("harness.py", "checks.py", "experiments.py")}
    assert not any(found.values()), found


def _field_sites(tree: ast.Module) -> set[str]:
    """The qualified names of the defs and classes that name SpectralField:
    in an annotation, a call or any other expression of their own, not of a
    nested def; the class itself counts."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if child.name == "SpectralField":
                    found.add(".".join(inner))
                visit(child, inner)
                continue
            if scope and "SpectralField" in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


# Every SpectralField left in src/ is one that perfbench's entry points take
# or return: the fields' own record, constructors and pairings, the one-step
# wrappers, the state solve and what carries its inputs, and the check helpers
# that feed solve_state.
FIELD_SITES = {
    "fields": {
        "SpectralField", "zero_field", "random_field", "Trajectory.__getitem__", "inner_product", "norms",
        "_check_same_grid",
    },
    "state_solver": {"step_state", "StateRun", "solve_state"},
    "adjoint_solver": {"step_adjoint"},
    "optimizer": {"ControlProblem"},
    "checks": {"_m0", "_inputs", "_solve", "reference_errors"},
}


def test_field_record_stays_at_the_entry_points():
    sample = "class SpectralField: ...\ndef f(u: SpectralField):\n    def g(): return fields.SpectralField\n"
    sample += "class C: m: SpectralField"
    assert _field_sites(ast.parse(sample)) == {"SpectralField", "f", "f.g", "C"}
    found = {p.stem: _field_sites(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == FIELD_SITES
