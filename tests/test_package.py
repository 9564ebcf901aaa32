"""Checks on the package as a whole rather than on one module."""

import ast
import pathlib

from plcurv import cli


def test_no_module_imports_a_private_name():
    # every module of the package, not flows alone: none imports a _name
    # or reads one off a name it imported, as module._name
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert not [a.name for a in node.names
                            if a.name.rsplit(".", 1)[-1].startswith("_")], path.name
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in imported and node.attr.startswith("_")
                   and not node.attr.endswith("__")]
        assert not private, (path.name, private)
