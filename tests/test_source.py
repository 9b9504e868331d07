import ast
import importlib
import re
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


def test_experiments_read_config_keys_only_through_signatures():
    # each experiment's keys and defaults are the keyword parameters of its
    # function, so run_experiment reads no key of the config but "experiment"
    path = Path(wdlearn.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "config.get"
        or isinstance(node, ast.Subscript) and ast.unparse(node.value) == "config"
    ]
    assert reads and set(reads) == {"config['experiment']"}, f"config reads in experiments.py: {reads}"


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


def test_cli_imports_no_sinkhorn_solver():
    # ot writes exact values only: Sinkhorn's accuracy is the speed table's
    tree = ast.parse((Path(wdlearn.__file__).parent / "cli.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "exact_ot" in imported and not {name for name in imported | named if "sinkhorn" in name}


def test_experiments_solve_for_true_values_only_in_wpp_to_reference():
    # experiments read true values from ot's targets file; the speed table
    # solves on its timed measures alone, and reads those values only to
    # score the forward pass and Sinkhorn against the exact ones
    path = Path(wdlearn.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    solvers = {"exact_ot", "sinkhorn", "solve_transport_lp", "wpp_to_reference"}
    naming = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in solvers
        or isinstance(node, ast.Attribute) and node.attr in solvers
    }
    assert naming == {"wpp_to_reference", "run_speed_table"}
    outside = [
        node.lineno
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.ImportFrom))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id in solvers
    ]
    assert not outside, f"solvers named outside a function in experiments.py, lines {outside}"


def test_private_highs_bindings_are_imported_by_ot_alone():
    # scipy.optimize._highspy is not scipy's public API: the solves reach
    # HiGHS only through scipy's public linprog, and any module that takes
    # the private bindings again must be ot, inside a try whose ImportError
    # handler sends every solve back to linprog
    package = Path(wdlearn.__file__).parent
    naming = [path.name for path in sorted(package.rglob("*.py")) if "_highspy" in path.read_text()]
    assert set(naming) <= {"ot.py"}
    tree = ast.parse((package / "ot.py").read_text())
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "_highspy" in " ".join([getattr(node, "module", None) or ""] + [a.name for a in node.names])
    ]
    fenced = [
        node
        for node in imports
        if any(
            isinstance(fence, ast.Try)
            and node in fence.body
            and any("ImportError" in ast.unparse(h.type) for h in fence.handlers if h.type is not None)
            for fence in ast.walk(tree)
        )
    ]
    assert fenced == imports
    assert any(
        isinstance(node, ast.ImportFrom)
        and node.module == "scipy.optimize"
        and any(a.name == "linprog" for a in node.names)
        for node in ast.walk(tree)
    )


def test_only_ot_loads_the_compiled_kernel():
    # the network simplex is compiled and loaded in one place, once, at
    # ot's import: a second loader would bypass the cache's checks or put
    # a compile inside a solve
    package = Path(wdlearn.__file__).parent
    naming = [
        path.name
        for path in sorted(package.rglob("*.py"))
        if re.search(r"\bctypes\b|_network_simplex", path.read_text())
    ]
    assert naming == ["ot.py"]
    tree = ast.parse((package / "ot.py").read_text())
    loads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "CDLL" in ast.unparse(node.func)
        or isinstance(node, ast.Attribute) and node.attr in ("cdll", "LoadLibrary")
    ]
    loaders = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if node in loads
    ]
    assert loaders == ["_load_kernel"] and len(loads) == 1
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_load_kernel"
    ]
    # one call, at module level: inside no function
    assert len(calls) == 1 and not any(
        calls[0] in ast.walk(func) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
    )


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


def test_ot_writes_its_debug_records_in_record_alone():
    # each solve's record is built once, as one dict, by ot._record: its
    # message and its attributes cannot name or format a value two ways
    tree = ast.parse((Path(wdlearn.__file__).parent / "ot.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_log.debug"
    ]
    writers = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if node in calls
    ]
    assert len(calls) == 1 and writers == ["_record"]
