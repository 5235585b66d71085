"""Every name a dirkit module imports is used in that module.

`__init__.py` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import dirkit

MODULES = sorted(
    path for path in Path(dirkit.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                yield alias.asname or alias.name.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []
