"""numpy is a declared dependency: imported plainly, named in ``setup.py``."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_numpy_is_imported_plainly_and_declared():
    guarded = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for block in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(block, ast.Try)
        for node in ast.walk(block)
        if _imports_numpy(node)
    ]
    assert guarded == [], f"numpy imported inside a try (it is required, not optional): {guarded}"

    (call,) = [
        node for node in ast.walk(ast.parse((ROOT / "setup.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    ]
    declared = {keyword.arg: ast.literal_eval(keyword.value) for keyword in call.keywords}
    assert "numpy" in declared["install_requires"]
    assert declared["package_dir"] == {"": "src"}
    on_disk = sorted(
        ".".join(init.parent.relative_to(ROOT / "src").parts) for init in PACKAGE.rglob("__init__.py")
    )
    assert sorted(declared["packages"]) == on_disk
