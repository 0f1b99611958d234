"""Import layering, checked offline: ``repro`` modules import each other
at module level (a function-level import hides a cycle or a layer
violation until the call runs), and the provisioning service stays below
the protocols and the planner that consume it."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

#: Function-level ``repro`` imports that guard something real.
ALLOWED_LAZY = {
    # Commented at the import ("local to keep import cheap").
    ("repro/nmp/rank.py", "repro.sim.cache"),
}


def repro_imports(tree) -> list:
    """``(module, lineno, nested)`` of every ``repro`` import in a module;
    ``nested`` is true inside a function body."""
    found = []

    def walk(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.extend(
                (name, child.lineno, nested)
                for name in names
                if name == "repro" or name.startswith("repro.")
            )
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            walk(child, nested or is_function)

    walk(tree, False)
    return found


def lazy_imports(source: str, rel: str) -> list:
    return [
        f"{rel}:{lineno} imports {module} inside a function"
        for module, lineno, nested in repro_imports(ast.parse(source))
        if nested and (rel, module) not in ALLOWED_LAZY
    ]


def upward_imports(source: str, rel: str) -> list:
    return [
        f"{rel}:{lineno} imports {module}"
        for module, lineno, _ in repro_imports(ast.parse(source))
        if module.startswith(("repro.mpc", "repro.ppml"))
    ]


def test_no_function_level_repro_imports():
    problems = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        problems += lazy_imports(path.read_text(), rel)
    assert not problems, "\n".join(problems)


def test_service_imports_no_protocol_or_planner_layer():
    rel = "repro/runtime/service.py"
    assert not upward_imports((SRC / rel).read_text(), rel)


def test_the_checks_catch_what_they_forbid():
    """Put back the two imports this file exists to keep out."""
    hoisted = "from repro.mpc.triples import BitTriples\n"
    lazy = "def take(self):\n    " + hoisted
    assert lazy_imports(lazy, "repro/runtime/pool.py")
    assert not lazy_imports(hoisted, "repro/runtime/pool.py")
    assert not lazy_imports("def f():\n    from repro.sim.cache import X\n", "repro/nmp/rank.py")
    assert upward_imports(lazy, "repro/runtime/service.py")
    assert upward_imports("import repro.ppml.plan\n", "repro/runtime/service.py")
    assert not upward_imports("from repro.runtime.recipes import BY_KIND\n", "x.py")
