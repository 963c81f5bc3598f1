"""The package's public surface is what the package and its benchmark call.

Every public top-level function or class of `src/grounddial`, and every
public method, must be named somewhere in `src/grounddial` or in
`perfbench/*.py`: as a name, an attribute, a `from ... import` name, or the
last part of a "module.function" string such as the benchmark's tracer
patches. A definition does not name itself. The exempt names serve only the
test harness and the test oracles.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grounddial"

EXEMPT = {"grad_check", "sub", "add_const", "power", "slice_cols"}


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


def test_every_public_name_is_called_by_the_package_or_the_benchmark():
    sources = sorted(PACKAGE.glob("*.py"))
    trees = dict(zip((p.stem for p in sources), _trees(sources)))
    used = used_names([*trees.values(), *_trees(sorted((ROOT / "perfbench").glob("*.py")))],
                      set(trees))
    unused = [f"{module}.{qualified}" for module, qualified, name in defined_names(trees)
              if name not in used and name not in EXEMPT]
    assert not unused, f"public names nothing calls: {unused}"
