import ast
from pathlib import Path

import wdlearn


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a guarantee the library
    # relies on must be a check that raises (a typed one from
    # wdlearn.errors), which always runs
    modules = sorted(Path(wdlearn.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in wdlearn: {found}"


def test_cli_exits_only_in_main():
    # commands raise ValueError or a WdlearnError; `main` alone turns them
    # into an `error: ...` exit, so every bad input reads the same
    path = Path(wdlearn.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    raisers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "SystemExit" in ast.unparse(node.exc)
    }
    assert raisers == {"main"}
