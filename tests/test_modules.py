import ast
from pathlib import Path

import nodalseries


def test_no_module_imports_a_private_name_from_another():
    package = Path(nodalseries.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            within = node.level > 0 or (node.module or "").split(".")[0] == "nodalseries"
            if not within:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []
