"""Each slow scipy subpackage is imported in one place of ``src/normgp`` only.

``scipy.linalg`` belongs to ``_lapack``, ``scipy.optimize`` to ``gpr.fit``
and ``scipy.stats`` to ``stats.fit_fixed_effects``. The runtime checks in
``test_cli`` see only the stages they run; this walks every module's
syntax tree, so an import on a path no stage test runs fails too.
"""

import ast
from pathlib import Path

import pytest

import normgp

PACKAGE = Path(normgp.__file__).parent
# Each guarded package and the one place allowed to import it: a module, or
# a module's function by qualified name.
ALLOWED = {
    "scipy.linalg": "_lapack",
    "scipy.optimize": "gpr.fit",
    "scipy.stats": "stats.fit_fixed_effects",
}


def _guarded_imports(source: str, module: str) -> list[tuple[str, str]]:
    """``(package, place)`` for each import of a guarded package in ``source``.

    ``place`` is the module name followed by the qualified name of the
    enclosing function or class, if any. Both ``import a.b`` and ``from a
    import b`` count as importing ``a.b``.
    """
    found = []

    def visit(node: ast.AST, place: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{place}.{child.name}")
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module] + [f"{child.module}.{alias.name}" for alias in child.names]
            for package in ALLOWED:
                if any(name == package or name.startswith(package + ".") for name in names):
                    found.append((package, place))
            visit(child, place)

    visit(ast.parse(source), module)
    return found


def _in_allowed_place(package: str, place: str) -> bool:
    allowed = ALLOWED[package]
    return place == allowed or place.startswith(allowed + ".")


@pytest.mark.parametrize("source, expected", [
    ("import scipy.optimize", [("scipy.optimize", "m")]),
    ("import scipy.linalg.lapack as lp", [("scipy.linalg", "m")]),
    ("from scipy import stats, special", [("scipy.stats", "m")]),
    ("from scipy.optimize import minimize", [("scipy.optimize", "m")]),
    ("def f():\n    if True:\n        from scipy import linalg", [("scipy.linalg", "m.f")]),
    ("class C:\n    def g(self):\n        import scipy.stats", [("scipy.stats", "m.C.g")]),
    ("import scipy\nfrom . import stats\nfrom scipy import special", []),
])
def test_both_import_forms_are_seen_with_their_place(source, expected):
    assert _guarded_imports(source, "m") == expected


def test_guarded_scipy_packages_are_imported_only_in_their_place():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        found += _guarded_imports(path.read_text(encoding="utf-8"), path.stem)
    stray = [(package, place) for package, place in found if not _in_allowed_place(package, place)]
    assert stray == []
    # the walk reaches the imports that exist today
    assert ("scipy.optimize", "gpr.fit") in found
    assert ("scipy.stats", "stats.fit_fixed_effects") in found
