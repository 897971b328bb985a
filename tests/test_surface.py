"""The package's public surface: every name it defines is used, every option
it offers is set by some caller, every dataclass field is read, no module
reads another's private names, and `import agentrec` imports nothing but the
package."""

import ast
import re
from pathlib import Path

from agentrec import cli, memory, reliability, runtime

ROOT = Path(__file__).resolve().parent.parent
# what the program is: the library and the benchmark that drives it
PROGRAM = sorted((ROOT / "src" / "agentrec").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))
# README pins the memory snapshot format as what store_to_jsonl writes
UNREFERENCED_ALLOWED = {"store_to_jsonl"}
# README's context window flags it; ROADMAP item 8's events.jsonl is to be its reader
UNREAD_ALLOWED = {"memory.ContextSelection.approximate"}


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


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _function_options(node, callee, qualified, first):
    """(qualified parameter, callee, position or None) for each defaulted
    parameter of one def; `first` is 1 for a method (self counted), else 0."""
    args = node.args
    positional = args.posonlyargs + args.args
    for position, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                   start=len(positional) - len(args.defaults)):
        yield f"{qualified}.{arg.arg}", callee, position - first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualified}.{arg.arg}", callee, None


def _field_options(node, qualified):
    """The same for each dataclass field with a plain default: its position is
    its index among the fields __init__ takes."""
    position = 0
    for member in node.body:
        if not (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)):
            continue
        value = member.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if "init" in keywords and getattr(keywords["init"], "value", True) is False:
                continue
            if "default" not in keywords:  # a default_factory, or no default at all
                position += 1
                continue
        if value is not None:
            yield f"{qualified}.{member.target.id}", node.name, position
        position += 1


def options(path, tree):
    """(qualified parameter, callee name, call position or None) for each
    defaulted parameter of a top-level function or a method (``__init__``'s
    callee is its class), and each dataclass field with a plain default. The
    call position is the index of the positional argument of a call that
    passes it; None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _function_options(node, node.name, f"{path.stem}.{node.name}", 0)
        elif isinstance(node, ast.ClassDef):
            qualified = f"{path.stem}.{node.name}"
            if _is_dataclass(node):
                yield from _field_options(node, qualified)
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    callee = node.name if member.name == "__init__" else member.name
                    name = qualified if member.name == "__init__" else f"{qualified}.{member.name}"
                    yield from _function_options(member, callee, name, 1)


def _passes(call, position, parameter) -> bool:
    if any(k.arg is None or k.arg == parameter for k in call.keywords):  # **mapping or name=
        return True
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or position is not None and index == position:
            return True
    return False


def unset_options(files) -> list:
    """Each option of src/agentrec (see ``options``) that no call in `files`
    to a callee of that name passes, by keyword, by ``**`` or by position."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [qualified for path, tree in trees.items() if path.parent.name == "agentrec"
            for qualified, callee, position in options(path, tree)
            if not any(_passes(call, position, qualified.rpartition(".")[2])
                       for call in calls.get(callee, ()))]


def test_every_option_is_set_by_the_program():
    assert unset_options(PROGRAM) == []


def test_the_scan_finds_an_option_no_call_sets(tmp_path):
    package = tmp_path / "agentrec"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour=None):\n        self.size = size\n"
        "    def fill(self, amount=0, spill=False):\n        return amount\n"
        "@dataclass\n"
        "class Spec:\n"
        "    name: str\n"
        "    tags: list = field(default_factory=list)\n"
        "    cache: dict = field(default=None, init=False)\n"
        "    label: str = 'x'\n"
        "    depth: int = 0\n")
    (tmp_path / "caller.py").write_text(
        "f(0, 1, d=2)\n"
        "box = mod.Box(3)\n"
        "box.fill(**{'amount': 1})\n"
        "Spec('n', [], 'y')\n")
    assert unset_options([package / "mod.py", tmp_path / "caller.py"]) == [
        "mod.f.c", "mod.f.e", "mod.Box.colour", "mod.Spec.depth"]


def unread_fields(files) -> list:
    """Each "module.Class.field" of a src/agentrec dataclass that no attribute
    read in `files` names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    return [f"{path.stem}.{node.name}.{member.target.id}"
            for path, tree in trees.items() if path.parent.name == "agentrec"
            for node in tree.body if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for member in node.body
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            and member.target.id not in read]


def test_every_dataclass_field_is_read_by_the_program():
    assert [name for name in unread_fields(PROGRAM) if name not in UNREAD_ALLOWED] == []


def test_the_scan_finds_a_field_nothing_reads(tmp_path):
    package = tmp_path / "agentrec"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Spec:\n"
        "    name: str\n"
        "    seed: int\n"
        "    label: str = 'x'\n"
        "    def show(self):\n        return self.name\n"
        "class Plain:\n"
        "    size: int\n")
    (tmp_path / "caller.py").write_text(
        "spec = mod.Spec('n', 1)\n"
        "spec.seed = 2\n"
        "print(getattr(spec, 'label'), spec.label)\n")
    assert unread_fields([package / "mod.py", tmp_path / "caller.py"]) == ["mod.Spec.seed"]


def _private(name) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def private_reads(files) -> list:
    """"file:line: name" for each single-underscore name a module of `files`
    reads (as a name, an attribute or an import) that it does not bind itself
    and that another src/agentrec module binds (as a def, a class, an
    argument, a name or an attribute store). Dunders are public."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    bound = {}
    for path, tree in trees.items():
        names = bound[path] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(getattr(node, "id", None) or node.attr)
    found = []
    for path, tree in trees.items():
        others = set().union(*(names for where, names in bound.items()
                               if where != path and where.parent.name == "agentrec"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
                read = [getattr(node, "id", None) or node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in read
                      if _private(name) and name in others and name not in bound[path]]
    return found


def test_no_module_reads_another_modules_private_names():
    # the catalog index's layout, among others, is read only by runtime.py
    assert private_reads(PROGRAM) == []


def test_the_scan_finds_a_private_name_another_module_defines(tmp_path):
    package = tmp_path / "agentrec"
    package.mkdir()
    (package / "mod.py").write_text(
        "_LIMIT = 3\n"
        "def _helper():\n    return _LIMIT\n"
        "class Box:\n"
        "    def __init__(self):\n        self._slot = []\n"
        "    def size(self):\n        return len(self._slot)\n")
    (package / "user.py").write_text(
        "from .mod import Box, _helper\n"
        "def _own(box):\n    return box._slot, box.__class__, box.size()\n"
        "_own(Box())\n")
    (tmp_path / "bench.py").write_text(
        "import mod\n"
        "class Probe:\n"
        "    def _helper(self):\n        return mod._LIMIT\n"
        "    def run(self):\n        return self._helper()\n")
    assert private_reads([package / "mod.py", package / "user.py", tmp_path / "bench.py"]) == [
        "user.py:1: _helper", "user.py:3: _slot", "bench.py:4: _LIMIT"]


def test_importing_the_package_imports_no_submodule(fresh_python):
    code = ("import sys, agentrec; "
            "print(agentrec.__version__); "
            "print(sorted(name for name in sys.modules if name.startswith('agentrec.')))")
    out, err = fresh_python("-c", code).communicate(timeout=120)
    assert (out.splitlines(), err) == (["0.1.0", "[]"], "")


# each fixed bound README states, as README's words with {} for the number
# (whitespace folded), and the code's value
INTERACTIVE_BUDGETS = cli.CONFIG_SPEC({"kind": "interactive", "seed": 1, "catalog": "c.json",
                                       "query": "q", "agents": [{"id": "a"}]}, "", [])["budgets"]
README_BOUNDS = [
    ("the finished results of its {} most recently used requests", runtime._RESULT_MEMO_SIZE),
    ("the values of their {} most recently used texts", memory._TEXT_MEMO_SIZE),
    ("Token hashes are cached for the {} most recently seen tokens",
     memory._bucket_sign.cache_parameters()["maxsize"]),
    ("in blocks of `reliability.CASCADE_BLOCK` ({})", reliability.CASCADE_BLOCK),
    ("compares the file with the kept bytes, {} KiB at a time", cli._COMPARE_CHUNK / 1024),
    ("exact 0/1-knapsack dynamic program up to {} items", memory.EXACT_KNAPSACK_LIMIT),
    ("**Embedding**: dimension {};", memory.EMBED_DIM),
    ("`budgets`: `B` {} (context tokens)", INTERACTIVE_BUDGETS["B"]),
    ("`L_stm` {} (short-term window)", INTERACTIVE_BUDGETS["L_stm"]),
    ("`L` {} (ranked-list length)", INTERACTIVE_BUDGETS["L"]),
]


def test_readme_states_each_fixed_bound_the_code_holds():
    text = " ".join((ROOT / "README.md").read_text().split())
    found = {}
    for phrase, _ in README_BOUNDS:
        pattern = re.escape(phrase).replace(re.escape("{}"), "([0-9,]+)")
        found[phrase] = [int(number.replace(",", "")) for number in re.findall(pattern, text)]
    assert found == {phrase: [value] for phrase, value in README_BOUNDS}
