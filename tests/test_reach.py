"""Which functions of src/fleetopt no CLI path enters.

Every subcommand runs in-process under sys.settrace (call events only): each
benchmark workload at its toy size through train-predictors, optimize
--skip-training and report, each also under an energy bound, then gen-fleet,
cost-table and selftest. The functions never entered must be exactly the ones
pinned below, each with the reason it is kept. A function no path reaches and
nothing below names is dead code: delete it, or pin it with its reason.
"""

import ast
import json
import re
import runpy
import sys
from pathlib import Path

import fleetopt
from fleetopt.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(fleetopt.__file__).resolve().parent

TRACER = "looked up by name in bench/tracer.py"
CHECKS = "read by bench/checks.py or tools/quality.py"
UNREACHED = {
    "design_space.sample_uniform": TRACER,
    "design_space.encode": TRACER,
    "design_space.DesignSpace.indices_of": TRACER,
    "design_space.DesignSpace.contains": "the input check of indices_of, pinned for TRACER",
    "device_world.Oracle.accuracy": TRACER,
    "surrogate.iterative_fit": TRACER,
    "device_world.accuracy_value": CHECKS,
    "device_world.DeviceFeatures.from_dict": CHECKS,
    "device_world.Fleet.from_dict": CHECKS,
    "learn_to_optimize.infer_design": "reference for acceptance criterion 8",
    "surrogate.MlpRegressor.predict": "reference for acceptance criterion 6",
    "nn.DenseNet.input_gradient": "reference for acceptance criterion 7",
    "nn.DenseNet.parameter_vector": "reference for acceptance criterion 7",
    "nn.DenseNet.set_parameter_vector": "reference for acceptance criterion 7",
    "nn.DenseNet.copy": "reference for acceptance criterion 7",
    "search.brute_force_argmin": "exact reference optimum of the tests' solvers",
}


def defined_functions() -> set[str]:
    """module.qualname of every def in src/fleetopt."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return names


def entered_functions(argvs: list[list[str]]) -> set[str]:
    """module.qualname of every src/fleetopt function main(argv) calls into."""
    codes = set()

    def on_call(frame, event, arg):
        codes.add(frame.f_code)

    # a memoized function that an earlier test filled would be answered from
    # its cache, never entered
    for module in [m for name, m in sys.modules.items() if name.startswith("fleetopt.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sys.settrace(on_call)
    try:
        exits = [main(argv) for argv in argvs]
    finally:
        sys.settrace(None)
    assert all(code in (0, 3) for code in exits), exits
    paths = {c: Path(c.co_filename).resolve() for c in codes}
    return {f"{path.stem}.{c.co_qualname}" for c, path in paths.items() if path.parent == SRC}


def test_every_function_no_cli_path_enters_is_pinned(tmp_path):
    # runpy compiles the file itself, so no bytecode is written under bench/
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    argvs = []
    for name in workloads["WORKLOADS"]:
        for energy in (False, True):
            doc = workloads["scenario_doc"](name, 23, toy=True)
            if energy:
                doc.setdefault("optimize", {})["energy_percentile"] = 40.0
            run = tmp_path / f"{name}-{energy}"
            run.mkdir()
            cfg = run / "scenario.json"
            cfg.write_text(json.dumps(doc))
            common = ["--config", str(cfg), "--out", str(run)]
            argvs += [["train-predictors", *common], ["optimize", *common, "--skip-training"],
                      ["report", "--out", str(run)]]
    argvs += [["gen-fleet", "--seed", "23"], ["cost-table"], ["selftest"]]
    never = defined_functions() - entered_functions(argvs)
    assert {name: UNREACHED.get(name, "?") for name in never} == UNREACHED


def tracer_quotes() -> set[str]:
    """The quoted names of bench/tracer.py, read as text, never imported: it
    looks its targets up by quoted attribute names."""
    return set(re.findall(r"[\"'](\w+)[\"']", (ROOT / "bench" / "tracer.py").read_text()))


def test_every_tracer_pin_is_a_name_bench_tracer_quotes():
    # a pin kept for the tracer must be one of the names it looks up
    pins = [name for name, reason in UNREACHED.items() if reason == TRACER]
    assert [name for name in pins if name.rsplit(".", 1)[-1] not in tracer_quotes()] == []


def test_every_name_pipeline_imports_and_never_uses_is_one_bench_tracer_quotes():
    # pipeline keeps some bindings only for the tracer to wrap by name; once
    # the tracer stops quoting one, nothing needs it
    tree = ast.parse((SRC / "pipeline.py").read_text())
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert unused and [name for name in unused if name not in tracer_quotes()] == []
