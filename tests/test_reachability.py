"""The package holds only what the program runs. Every top-level function
and class under `src/ldpshuffle` must be reached from the CLI or from a
name the benchmark under `perfbench/` imports or patches; test-only code
belongs under `tests/reference/`, and code nothing reaches is deleted.

Reachability is read from the source with `ast`: a top-level definition
reaches every top-level name of its module it mentions, and every name it
mentions that its module imports with `from .x import y`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ldpshuffle"
PERFBENCH = ROOT / "perfbench"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(node):
    """Top-level names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _graph(modules):
    """(module, name) -> the (module, name) pairs its statement mentions."""
    edges = {}
    for mod, tree in modules.items():
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
        for local, target in imported.items():
            edges[(mod, local)] = {target}
        defined = {name for node in tree.body for name in _defined(node)}
        for node in tree.body:
            mentioned = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            targets = ({(mod, n) for n in mentioned & defined}
                       | {imported[n] for n in mentioned if n in imported})
            for name in _defined(node):
                edges.setdefault((mod, name), set()).update(targets)
    return edges


def _benchmark_roots():
    """(module, name) for every package name a perfbench script imports,
    reads off an imported module, or names as a string attribute of one (the
    tracer's patch table)."""
    roots = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ldpshuffle":
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "ldpshuffle."):
                mod = node.module.split(".", 1)[1]
                roots.update((mod, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                roots.add((modules[node.value.id], node.attr))
            elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                  and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
                  and isinstance(node.elts[1], ast.Constant)
                  and isinstance(node.elts[1].value, str)):
                roots.add((modules[node.elts[0].id], node.elts[1].value))
    return roots


MODULES = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
EDGES = _graph(MODULES)
BENCHMARK_ROOTS = _benchmark_roots()


def _reached():
    roots = {("cli", name) for node in MODULES["cli"].body for name in _defined(node)}
    seen = set()
    todo = list(roots | BENCHMARK_ROOTS)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(EDGES.get(key, ()))
    return seen


def test_benchmark_names_exist():
    # a root that names nothing would hide a renamed or deleted function
    assert BENCHMARK_ROOTS, "no ldpshuffle names found under perfbench/"
    missing = sorted(f"{m}.{n}" for m, n in BENCHMARK_ROOTS if (m, n) not in EDGES)
    assert not missing, f"perfbench/ names what the package lacks: {', '.join(missing)}"


def test_every_function_and_class_is_reached():
    reached = _reached()
    unreached = [f"{mod}.{node.name}" for mod, tree in MODULES.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and (mod, node.name) not in reached]
    assert not unreached, (f"{len(unreached)} top-level names reached from neither the CLI "
                           f"nor perfbench/: {', '.join(unreached)}")
