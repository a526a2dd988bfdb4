import ast
from pathlib import Path

import scarf_spectra

PACKAGE = Path(scarf_spectra.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    # __init__.py only re-exports, so its imports are its API
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), str(p))) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _private_definitions(tree: ast.Module) -> list:
    # module-level functions, classes and assignments whose names start with _
    # (dunders such as __all__ are not private)
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in names
            if name.startswith("_") and not name.endswith("__")]


def _references(tree: ast.Module) -> set:
    # a name read, an attribute of that name, or a name imported from elsewhere
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_private_helper_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in modules}
    assert _private_definitions(ast.parse("_A = 1\ndef _f(): pass\nB = __c__ = 2")) == [
        (1, "_A"), (2, "_f")]
    used = set().union(*map(_references, trees.values()))
    dead = {name: [d for d in _private_definitions(tree) if d[1] not in used]
            for name, tree in trees.items()}
    assert {name: found for name, found in dead.items() if found} == {}


def test_public_names_are_the_imported_names():
    # __all__ lists each name __init__.py imports, once, and nothing else; a
    # name its __getattr__ imports on first use counts too
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = scarf_spectra.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(scarf_spectra, name) for name in exported)
    assert set(exported) == imported


# the analytic modules, whose closed forms the oracle in verify.py checks
ANALYTIC = {"spectrum", "wavefunctions", "partner"}


def _analytic_imports(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if ANALYTIC & set(name.split("."))]
    return found


def test_verify_imports_no_analytic_module():
    # verify.py treats V as an opaque callable and shares no algebra with the
    # closed forms it checks; every import counts, also one inside a function
    assert _analytic_imports(ast.parse("from .spectrum import spectrum")) != []
    assert _analytic_imports(ast.parse("def f():\n    from . import partner")) != []
    assert _analytic_imports(ast.parse("import scarf_spectra.wavefunctions")) != []
    verify = PACKAGE / "verify.py"
    assert _analytic_imports(ast.parse(verify.read_text(), str(verify))) == []
