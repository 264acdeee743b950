"""What the library holds: only code that a command, the benchmark's tracer
or the paper's definitions reach, and mpmath imported by the few modules
whose float layers escalate to it. A test-only oracle belongs in tests/.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chebdyn"

#: the paper's definitions and the documented schema loader, kept though no
#: command calls them
DEFINITIONS = ("chordal_distance", "local_lambda", "root_of_unity_valuation", "load_schema", "INFINITY")
#: the modules whose float layers escalate to mpmath
MPMATH_MODULES = {"algebraic", "integrality", "numerics", "roots"}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _top_level(tree):
    """(name, node, is a def or class) for each top-level def, class and
    assignment to a plain name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, False


def test_every_definition_is_reachable_from_a_root():
    modules = _modules()
    refs, defs = {}, set()
    for tree in modules.values():
        for name, node, is_def in _top_level(tree):
            walked = list(ast.walk(node))
            used = {n.id for n in walked if isinstance(n, ast.Name)}
            used |= {n.attr for n in walked if isinstance(n, ast.Attribute)}
            refs.setdefault(name, set()).update(used)
            if is_def:
                defs.add(name)
    tracer = _tracer()
    roots = {"main", *(name for name, _, _ in _top_level(modules["cli"]) if name.startswith("cmd_"))}
    for table in (tracer.TIMED, tracer.SELF_ONLY, tracer.MINPOLY_CHECKS):
        roots.update(dotted.split(".")[0] for names in table.values() for dotted in names)  # a method's class
    roots.update(DEFINITIONS)
    assert not roots - set(refs), "a root names nothing in the library"
    seen, stack = set(), sorted(roots)
    while stack:
        name = stack.pop()
        if name in seen or name not in refs:
            continue
        seen.add(name)
        stack.extend(refs[name])
    assert sorted(defs - seen) == []


def test_only_the_escalating_modules_import_mpmath():
    importers = set()
    for stem, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(stem)
    assert importers == MPMATH_MODULES
