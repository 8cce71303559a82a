"""The package surface: what the root exports and what the package reads.

The root exports exactly what its documented users import (the README's
Python examples and the benchmark workloads); a root name that neither
imports belongs in its own module only.  Options come from arguments alone:
no module reads the environment.
"""

import ast
import re
import types
from pathlib import Path

import regar

ROOT = Path(__file__).resolve().parents[1]


def _root_imports(source: str) -> set[str]:
    """Every name bound by a ``from regar import ...`` in the source."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "regar"
            and node.level == 0 for alias in node.names}


def _user_imports() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    names = set().union(*(_root_imports(block) for block in blocks))
    return names | _root_imports((ROOT / "bench" / "workloads.py").read_text())


def test_root_exports_exactly_what_readme_and_bench_import():
    used = _user_imports()
    assert used, "no `from regar import` found in the README or the bench"
    missing = {name for name in used if not hasattr(regar, name)}
    assert not missing, f"imported but not exported: {sorted(missing)}"
    exported = {name for name, value in vars(regar).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == used, f"exported only for tests: {sorted(exported - used)}"


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted((ROOT / "src" / "regar").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os") or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and ENV_READERS & {alias.name for alias in node.names}):
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"environment read at {readers}"
