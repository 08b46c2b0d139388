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


# Derived invariants are kept on the value they come from (a Subspace's
# instance dictionary), never in a cache that outlives it.
_CACHES = {
    "functools": {"cache", "lru_cache", "cached_property"},
    "weakref": {"WeakKeyDictionary", "WeakValueDictionary"},
}


def test_no_module_keeps_a_cache():
    package = Path(nodalseries.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        aliases = {}  # local name -> module, for `import functools [as f]`
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _CACHES:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in _CACHES:
                names = [alias.name for alias in node.names]
                module = node.module
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr]
                module = aliases.get(node.value.id)
            else:
                continue
            for name in names:
                if name in _CACHES.get(module, ()):
                    offenders.append(f"{path.name}:{node.lineno} uses {module}.{name}")
    assert offenders == []
