"""The package's public surface is code the package runs: every public
top-level function and class in src/dsekit, and every public method of
such a class, is referenced somewhere else in the package, or written as
code in README.md as part of the documented interface.  A method is
matched by its name alone, so a reference to a same-named method of
another class counts for it too."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(node) -> Counter:
    """Every name node refers to: names, attribute names and imported names."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def unreferenced_public_definitions(package: Path, readme: Path) -> list[str]:
    """module.name (module.Class.name for a method) of each public
    top-level function or class, and public method of such a class, in the
    package's modules that no code outside its own definition refers to
    and that the README does not write as code (`name` or `name(`)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    everywhere = Counter()
    definitions = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        everywhere += _references(tree)
        for node in _public(tree.body, (*functions, ast.ClassDef)):
            definitions.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body, functions):
                    definitions.append((f"{path.stem}.{node.name}.{method.name}", method))
    text = readme.read_text()
    return [
        qualified
        for qualified, node in definitions
        if everywhere[node.name] == _references(node)[node.name]
        and not re.search(rf"`{re.escape(node.name)}[`(]", text)
    ]


def test_every_public_definition_is_used_or_documented():
    unused = unreferenced_public_definitions(ROOT / "src" / "dsekit", ROOT / "README.md")
    assert not unused, f"public but neither used in src/dsekit nor written as code in README.md: {unused}"
