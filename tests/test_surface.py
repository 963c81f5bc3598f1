"""The package's public surface is what the package and its benchmark call.

Every public top-level function or class of `src/grounddial`, and every
public method, must be named somewhere in `src/grounddial` or in
`perfbench/*.py`: as a name, an attribute, a `from ... import` name, or the
last part of a "module.function" string such as the benchmark's tracer
patches. A definition does not name itself. A private top-level function or
class must be named there too, so a helper that a merge leaves behind is
caught.

The layering is pinned: `autodiff` and `data` import no module of the
package, so the engine and the dataset stand below the model.

A model is built from its TrainConfig in one place: `model.init_params_for`
is the package's only caller of `init_model_params`.

Named float arrays have one on-disk format: `data.write_arrays` and
`data.read_arrays` are the package's only code that turns arrays into bytes
or reads them back, and no module imports `struct`.

Every defaulted parameter of a function in `src/grounddial` must be passed,
by keyword or by position, by some call in `src/grounddial` or in the
benchmark's non-test files; a parameter that no such call passes is a
constant. Calls match functions by bare name, and a call to a class counts
for its `__init__`.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grounddial"

# the CLI entry point, whose argv only tests pass
EXEMPT_DEFAULTS = {"cli.main"}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def defined_names(trees_by_module):
    """(module, qualified name, bare name) of every public top-level function
    or class and every public method of a top-level class."""
    out = []
    for module, tree in trees_by_module.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((module, f"{node.name}.{item.name}", item.name) for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def used_names(trees, modules):
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.partition(".")
                if module in modules and name.isidentifier():
                    used.add(name)
    return used


def package_trees_and_used_names():
    """The package's trees by module, and every name the package and the
    benchmark's files use."""
    sources = sorted(PACKAGE.glob("*.py"))
    trees = dict(zip((p.stem for p in sources), _trees(sources)))
    used = used_names([*trees.values(), *_trees(sorted((ROOT / "perfbench").glob("*.py")))],
                      set(trees))
    return trees, used


def test_every_public_name_is_called_by_the_package_or_the_benchmark():
    trees, used = package_trees_and_used_names()
    unused = [f"{module}.{qualified}" for module, qualified, name in defined_names(trees)
              if name not in used]
    assert not unused, f"public names nothing calls: {unused}"


def test_every_private_helper_is_named_by_the_package_or_the_benchmark():
    trees, used = package_trees_and_used_names()
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and node.name not in used]
    assert not unused, f"private helpers nothing names: {unused}"


def defaulted_parameters(trees_by_module):
    """(module, function, position, parameter) of every parameter with a
    default, nested functions included; an `__init__` is named by its
    class, a method's positions do not count self or cls, and a keyword-only
    parameter has position None."""
    out = []

    def visit(module, node):
        for child in ast.iter_child_nodes(node):
            visit(module, child)
            if not isinstance(child, ast.FunctionDef):
                continue
            name = node.name if child.name == "__init__" else child.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            skip = 1 if isinstance(node, ast.ClassDef) and not static else 0
            args = child.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            out.extend((module, name, k - skip, a.arg)
                       for k, a in enumerate(positional) if k >= first)
            out.extend((module, name, None, a.arg)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    for module, tree in trees_by_module.items():
        visit(module, tree)
    return out


def passed_arguments(trees):
    """Bare callee name -> (the keywords its calls pass, how many leading
    positions they pass); "**" stands for every keyword, and a *args call
    passes every position."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords, positions = passed.get(name, (set(), 0))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords |= {kw.arg or "**" for kw in node.keywords}
            passed[name] = keywords, max(positions, math.inf if starred else len(node.args))
    return passed


def test_every_defaulted_parameter_is_passed_by_the_package_or_the_benchmark():
    sources = sorted(PACKAGE.glob("*.py"))
    trees = dict(zip((p.stem for p in sources), _trees(sources)))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    passed = passed_arguments([*trees.values(), *_trees(bench)])
    never = []
    for module, name, position, param in defaulted_parameters(trees):
        keywords, positions = passed.get(name, (set(), 0))
        if f"{module}.{name}" in EXEMPT_DEFAULTS or {param, "**"} & keywords:
            continue
        if position is None or position >= positions:
            never.append(f"{module}.{name}({param}=)")
    assert not never, f"defaulted parameters no call passes: {never}"


def test_only_init_params_for_calls_init_model_params():
    trees, _ = package_trees_and_used_names()
    callers = [f"{module}.{getattr(top, 'name', '<module>')}"
               for module, tree in trees.items() for top in tree.body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
               == "init_model_params"]
    assert callers == ["model.init_params_for"], callers


def _imports_the_package(node) -> bool:
    """Whether an import statement names a module of the package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "grounddial"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "grounddial" for alias in node.names)


def test_autodiff_and_data_import_no_package_module():
    trees, _ = package_trees_and_used_names()
    found = [f"{module}: {ast.unparse(node)}" for module in ("autodiff", "data")
             for node in ast.walk(trees[module]) if _imports_the_package(node)]
    assert not found, found


def test_only_the_array_file_functions_turn_arrays_into_bytes():
    trees, _ = package_trees_and_used_names()
    found = sorted(
        f"{module}.{getattr(top, 'name', '<module>')}: {ast.unparse(node)}"
        for module, tree in trees.items() for top in tree.body for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr in ("tobytes", "frombuffer")
            and (module, getattr(top, "name", None)) not in {("data", "write_arrays"),
                                                             ("data", "read_arrays")})
        or (isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "struct"))
    assert not found, found
