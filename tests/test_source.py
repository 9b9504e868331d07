import ast
import importlib
import sys
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


def test_cli_splits_kind_arg_specs_in_its_spec_parser_alone():
    # every kind:arg flag goes through cli._spec, so each reads its
    # fields and reports a malformed spec the same way
    path = Path(wdlearn.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    splitters = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name != "_spec"
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr in ("partition", "rpartition", "split", "rsplit")
            and any(isinstance(arg, ast.Constant) and ":" in str(arg.value) for arg in node.args)
            # a hand-written pattern for a colon format
            or ast.unparse(node.func) in ("re.fullmatch", "re.match")
            and isinstance(node.args[0], ast.Constant)
            and ":" in str(node.args[0].value)
        )
    ]
    assert "_spec" in {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)}
    assert not splitters, f"colon splits outside cli._spec: {splitters}"


def test_cli_solves_only_in_ot_and_bank_build():
    # true values come from the targets file ot writes: no other command
    # solves, so a value is never computed twice or two ways
    path = Path(wdlearn.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    solvers = {"exact_ot", "sinkhorn", "wpp_to_reference", "build_bank"}
    naming = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in solvers
        or isinstance(node, ast.Attribute) and node.attr in solvers
    }
    assert naming == {"_cmd_ot", "_cmd_bank_build"}
    outside = [
        node.lineno
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.ImportFrom))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id in solvers
    ]
    assert not outside, f"solvers named outside a command in cli.py, lines {outside}"


def test_private_highs_bindings_are_imported_by_ot_alone():
    # scipy.optimize._highspy is not scipy's public API: it is named in one
    # module, imported once there, inside a try whose ImportError handler
    # sends every solve to scipy's public linprog
    package = Path(wdlearn.__file__).parent
    naming = [path.name for path in sorted(package.rglob("*.py")) if "_highspy" in path.read_text()]
    assert naming == ["ot.py"]
    tree = ast.parse((package / "ot.py").read_text())
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and "_highspy" in (node.module or "")
        or isinstance(node, ast.Import) and any("_highspy" in a.name for a in node.names)
    ]
    assert len(imports) == 1
    fences = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        and imports[0] in node.body
        and any("ImportError" in ast.unparse(h.type) for h in node.handlers if h.type is not None)
    ]
    assert len(fences) == 1


def test_highs_instances_are_built_by_the_per_thread_getter_alone():
    # every direct solve runs on its thread's kept instance: a second
    # place that builds one would bypass the options key and the drop on
    # failure
    tree = ast.parse((Path(wdlearn.__file__).parent / "ot.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_Highs"
    ]
    builders = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if node in calls
    ]
    assert builders == ["_take_highs"] and len(calls) == 1


def test_the_names_the_benchmark_rebinds_resolve(monkeypatch):
    # bench/ lies outside the test paths and wraps these names by module and
    # attribute path, a dotted one in its class's own __dict__: a renamed
    # name would fail only a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    added = [name for name in ("harness", "workloads") if name not in sys.modules]
    try:
        harness = importlib.import_module("harness")
        workloads = importlib.import_module("workloads")
    finally:
        for name in added:
            sys.modules.pop(name, None)
    targets = [(module, path) for _, module, path, _ in harness.SPAN_TARGETS]
    targets += [(module, path) for _, module, path in harness.COUNT_TARGETS]
    targets += [point for w in workloads.WORKLOADS.values() for point in w.clock_points]
    targets.append(("wdlearn.ot", "exact_ot"))
    assert ("wdlearn.nets", "Adam.step") in targets
    missing = []
    for module, path in targets:
        owner_path, _, attr = path.rpartition(".")
        owner = importlib.import_module(module)
        for part in owner_path.split(".") if owner_path else []:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}:{path}")
    assert not missing, f"names the benchmark rebinds do not resolve: {missing}"


def test_every_attribute_the_benchmark_reads_resolves():
    # bench/workloads.py calls wdlearn through module attributes
    # (`ot.sinkhorn`), re-exports among them: a name dropped from a module
    # would fail only a benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name: f"wdlearn.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "wdlearn"
        for alias in node.names
    }
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("wdlearn.experiments", "relative_errors") in reads and len(reads) >= 30
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"names the benchmark reads do not resolve: {missing}"
