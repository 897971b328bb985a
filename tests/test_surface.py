"""The package's public surface: every name it defines is used, and `import
agentrec` imports nothing but the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the program is: the library and the benchmark that drives it
PROGRAM = sorted((ROOT / "src" / "agentrec").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))
# README pins the memory snapshot format as what store_to_jsonl writes
UNREFERENCED_ALLOWED = {"store_to_jsonl"}


def definitions(tree):
    """(name, node) for each top-level function, class and assigned name, and
    for each public method as "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def references(tree):
    """(line, name) for each name the module reads or spells as a whole string
    (the benchmark's tracer wraps names given as strings). Importing a name is
    not using it, so a package re-export keeps nothing alive."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def unreferenced_names(files) -> list:
    """Each "module.name" defined in src/agentrec that no line of
    `files` outside that definition refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    refs = [(path, line, name) for path, tree in trees.items() for line, name in references(tree)]
    found = []
    for path, tree in trees.items():
        if path.parent.name != "agentrec":
            continue
        for qualified, node in definitions(tree):
            name = qualified.rpartition(".")[2]
            if not any(ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, line, ref in refs):
                found.append(f"{path.stem}.{qualified}")
    return found


def test_every_defined_name_is_used_by_the_program():
    unused = [name for name in unreferenced_names(PROGRAM)
              if name.rpartition(".")[2] not in UNREFERENCED_ALLOWED]
    assert unused == []


def test_the_scan_finds_a_name_only_its_own_definition_uses(tmp_path):
    package = tmp_path / "agentrec"
    package.mkdir()
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
        "class Box:\n    def read(self):\n        return self.read\n"
        "    def named(self):\n        return 0\n"
        "    def _private(self):\n        return 0\n")
    (tmp_path / "caller.py").write_text("TOOL = 'named'\n")
    assert unreferenced_names([package / "mod.py", tmp_path / "caller.py"]) == [
        "mod.recursive", "mod.Box", "mod.Box.read"]


def test_importing_the_package_imports_no_submodule():
    code = ("import sys, agentrec; "
            "print(agentrec.__version__); "
            "print(sorted(name for name in sys.modules if name.startswith('agentrec.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert result.stdout.splitlines() == ["0.1.0", "[]"]
