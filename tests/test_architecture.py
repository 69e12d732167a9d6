"""Import-graph guards: the oracle routes and the normative routes stay separate code,
and the public API holds only what a caller needs.

The verify suites only prove something while each law is checked against
an independent route. These tests read the sources (AST, not text search):
the normative modules never reach the closed-form transcriptions, and
neither the transcriptions nor the inner-product oracle reach the
amplitude kernel they are compared with. Every name in ``polamp.__all__``
is used by the CLI, the benchmark or the README library example, or is on
an allow-list that says why it is public.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polamp
from polamp import verify
from polamp.directions import DEFAULT_TOLERANCE

SRC = Path(polamp.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

#: Modules on the normative path: they compute each quantity one way.
NORMATIVE = ("amplitudes", "operators", "limits", "simulate", "scenario", "cli")

#: The verify functions that form the inner-product amplitude oracle.
ORACLE_FUNCTIONS = ("_reference_state", "_oracle_amplitude")


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of every module (and module attribute) ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "polamp" if node.level else ""
            module = ".".join(part for part in (base, node.module or "") if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def referenced_names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name used under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
    return names


def names_from(tree: ast.Module, *modules: str) -> set[str]:
    """Names that ``tree`` imports from the given relative modules."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module in modules
        for alias in node.names
    }


@pytest.mark.parametrize("module", NORMATIVE)
def test_normative_modules_import_nothing_from_closedforms(module):
    imported = imported_modules(parse(module))
    closed = {name for name in imported if name.startswith("polamp.closedforms")}
    assert not closed, f"{module} imports {sorted(closed)}"


def test_closedforms_stays_independent_of_the_kernel():
    tree = parse("closedforms")
    assert not {m for m in imported_modules(tree) if m.startswith("polamp")}
    assert "amp_matrix" not in referenced_names(tree)


#: The two amplitude routes: the batched kernel, the scalar label block, and
#: the combine step both feed.
AMPLITUDE_ROUTES = {"amp_matrix", "_block", "_combine"}


def test_amplitude_oracle_stays_independent_of_the_kernel():
    tree = parse("verify")
    normative = names_from(tree, "amplitudes", "operators")
    # the suites compare against the batched kernel, and only against it
    assert names_from(tree, "amplitudes") == {"amp_matrix"}
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_FUNCTIONS
    }
    assert set(functions) == set(ORACLE_FUNCTIONS)
    for name, node in functions.items():
        used = referenced_names(node) & (normative | AMPLITUDE_ROUTES)
        assert not used, f"verify.{name} uses {sorted(used)}"


def trig_sites(tree: ast.Module) -> set[tuple[str, str]]:
    """(``module.function`` call, enclosing top-level name) of every cos, sin and
    exp read from ``math``, ``cmath`` or numpy under ``tree``."""
    return {
        (f"{node.value.id}.{node.attr}", getattr(top, "name", "<module>"))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("math", "cmath", "np", "numpy")
        and node.attr in ("cos", "sin", "exp")
    }


def test_each_amplitude_route_reads_one_trig_source_at_one_site():
    # the label block takes math/cmath on Python floats and the batched kernel
    # numpy; a second site of either would fork what the combine step is fed
    sites = {(module, *site) for module in NORMATIVE for site in trig_sites(parse(module))}
    scalar = {("amplitudes", f, "_block") for f in ("math.cos", "math.sin", "cmath.exp")}
    batched = {("amplitudes", f, "amp_matrix") for f in ("np.cos", "np.sin", "np.exp")}
    assert sites == scalar | batched
    for module in NORMATIVE:  # and none is imported bare, out of the guard's sight
        bare = {
            alias.name
            for node in ast.walk(parse(module))
            if isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath", "numpy")
            for alias in node.names
        }
        assert not bare & {"cos", "sin", "exp"}, module


def test_guard_sees_relative_imports():
    tree = ast.parse("from . import closedforms\nfrom .closedforms import observable_elements\n")
    expected = {"polamp.closedforms", "polamp.closedforms.observable_elements"}
    assert expected <= imported_modules(tree)


def radians_calls(tree: ast.AST) -> list[ast.Call]:
    """Every call of ``math.radians`` (or a bare ``radians``) under ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "radians")
            or (isinstance(node.func, ast.Name) and node.func.id == "radians")
        )
    ]


def top_level_function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_cli_converts_degrees_at_one_site():
    # README: degree input is converted to radians at a single point
    assert len(radians_calls(parse("cli"))) == 1


def test_scenario_converts_degrees_only_in_its_direction_parser():
    tree = parse("scenario")
    inside = radians_calls(top_level_function(tree, "_direction"))
    assert inside and len(radians_calls(tree)) == len(inside)


def draw_calls(tree: ast.AST) -> list[ast.Call]:
    """Every call of a ``uniform`` or ``random`` method under ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("uniform", "random")
    ]


def test_verify_draws_only_in_its_block_draw_helper():
    # a suite that drew its own arrays would hold all of its draws at once
    tree = parse("verify")
    inside = draw_calls(top_level_function(tree, "_draws"))
    assert len(inside) == 2 and len(draw_calls(tree)) == len(inside)


#: The verify suites, in report order.
SUITE_NAMES = (
    "amplitude_oracle",
    "hermiticity",
    "orthonormality",
    "chaining",
    "probability_forms",
    "periodicity",
    "observable_closed_forms",
    "operator_oracle_triangle",
    "eigen_residual",
    "expectation_consistency",
    "standard_limits",
)


def bare_names(nodes: list[ast.stmt]) -> set[str]:
    """Every bare name used in ``nodes`` (attribute names excluded)."""
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_verify_suites_are_their_residual_functions():
    # drawing, reducing and reporting live in the block runner (``_suite``);
    # a suite body that did any of it would fork verify's plumbing again
    tree = parse("verify")
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    suites = [n for n in functions if n.name.startswith("suite_")]
    assert [n.name for n in suites] == [f"suite_{name}" for name in SUITE_NAMES]
    plumbing = {"_draws", "_map_blocks", "_worst", "SuiteResult", "max"}
    for node in suites:
        assert not bare_names(node.body) & plumbing, node.name
        assert "argmax" not in referenced_names(ast.Module(node.body, [])), node.name


def test_verify_reduces_blocks_in_one_function():
    # suites and errata share ``_worst``: no other function maps blocks or
    # takes an argmax of its own, ``_errata_for`` included
    tree = parse("verify")
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for name in ("_map_blocks", "argmax"):
        users = {f.name for f in functions if name in referenced_names(ast.Module(f.body, []))}
        assert users == {"_worst"}, name


def test_verify_suites_keep_their_signature():
    # the block runner must not leak the residual function's lane parameters
    expected = [("n", inspect.Parameter.empty), ("rng", inspect.Parameter.empty)]
    expected.append(("tol", DEFAULT_TOLERANCE))
    assert [s.__name__ for s in verify.ALL_SUITES] == [f"suite_{n}" for n in SUITE_NAMES]
    for suite, name in zip(verify.ALL_SUITES, SUITE_NAMES):
        assert getattr(verify, suite.__name__) is suite
        params = inspect.signature(suite).parameters.values()
        assert [(p.name, p.default) for p in params] == expected
        assert suite(0, np.random.default_rng(0)).name == name


def test_chain_steps_take_one_route():
    # every stage, the first included, is a row of the stage-transition matrix
    imported = imported_modules(parse("simulate"))
    assert "polamp.amplitudes.state_vector" not in imported
    assert "state_vector" not in referenced_names(parse("simulate"))


def test_simulate_streams_its_rows():
    # a loop or a ``tolist()`` column would hold or branch per sequence: the
    # records go through ``_write_rows``, one template per mode
    command = top_level_function(parse("cli"), "cmd_simulate")
    loops = [n for n in ast.walk(command) if isinstance(n, (ast.For, ast.comprehension))]
    assert not loops
    assert "tolist" not in referenced_names(command)


def test_sequence_labels_are_built_only_in_simulate():
    # the label format belongs to the module that defines the index convention
    tree = parse("cli")
    assert "itertools" not in imported_modules(tree)
    assert "product" not in referenced_names(tree)
    literals = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert "+-" not in literals


def cli_functions() -> dict[str, ast.FunctionDef]:
    return {n.name: n for n in parse("cli").body if isinstance(n, ast.FunctionDef)}


def machine_reads(node: ast.AST) -> list[ast.Attribute]:
    """Every ``<x>.machine`` under ``node``."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "machine"]


def is_print(statement: ast.stmt) -> bool:
    call = getattr(statement, "value", None)
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"


def test_machine_mode_is_read_by_the_record_writer_and_simulate_rows_only():
    # the --machine layout has one definition, ``_record``; simulate reads
    # the mode once, to pick its row templates and to skip its human headers
    functions = cli_functions()
    readers = {name for name, node in functions.items() if machine_reads(node)}
    assert readers == {"_record", "cmd_simulate"}
    assert len(machine_reads(parse("cli"))) == 2
    command = functions["cmd_simulate"]
    uses = [
        n for n in ast.walk(command)
        if isinstance(n, ast.Name) and n.id == "machine" and isinstance(n.ctx, ast.Load)
    ]
    templates = ("_DISTRIBUTION_ROW", "_SAMPLE_ROW")
    picks = [
        n.slice for n in ast.walk(command)
        if isinstance(n, ast.Subscript) and getattr(n.value, "id", None) in templates
    ]
    headers = [
        n.test.operand for n in ast.walk(command)
        if isinstance(n, ast.If) and isinstance(n.test, ast.UnaryOp)
        and isinstance(n.test.op, ast.Not) and not n.orelse and all(map(is_print, n.body))
    ]
    assert len(picks) == 2 and len(headers) == 2
    assert sorted(map(id, uses)) == sorted(map(id, picks + headers))


def test_machine_number_format_is_written_once():
    # a handler that formats its own ``.17g`` field forks the --machine layout
    functions = cli_functions()
    formats = {
        name for name, node in functions.items()
        if any(isinstance(c, ast.Constant) and ".17g" in str(c.value) for c in ast.walk(node))
    }
    assert formats == {"_field"}


def test_only_build_parser_declares_arguments():
    # the whole command-line interface reads top to bottom in one function;
    # a flag that several subcommands share is declared there once
    declaring = {"add_argument", "add_parser", "add_mutually_exclusive_group"}
    calls = {
        getattr(top, "name", "<module>"): [
            node for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in declaring
        ]
        for top in parse("cli").body
    }
    assert {name for name, found in calls.items() if found} == {"build_parser"}
    flags = [
        call.args[0].value for call in calls["build_parser"]
        if call.args and isinstance(call.args[0], ast.Constant)
    ]
    for flag in ("--machine", "--deg", "--rad", "--tolerance"):
        assert flags.count(flag) == 1, flag


def test_import_leaves_the_thread_pool_unloaded():
    # the block pool that verify and sample share (``polamp._pool``) imports
    # concurrent.futures on its first call, so that ``import polamp`` and the
    # commands that run no blocks start no slower
    code = "import sys, polamp, polamp.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


#: What the parser and the label commands leave unloaded, so that they start
#: without numpy's import (README, CLI).
HEAVY_MODULES = ("numpy", "ctypes", "polamp.simulate", "polamp.scenario", "polamp.verify")

#: Runs each argument list of ``sys.argv[1]`` (JSON) through ``polamp.cli.run``
#: in order, printing one JSON line per run: its exit code and the modules of
#: ``sys.argv[2]`` loaded after it. The first line is for the parser alone.
START_PROBE = """
import contextlib, io, json, sys
import polamp, polamp.cli

def loaded():
    return [m for m in json.loads(sys.argv[2]) if m in sys.modules]

polamp.cli.build_parser()
print(json.dumps([None, 0, loaded()]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = polamp.cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([argv, code, loaded()]))
"""


def test_parser_and_label_commands_start_without_numpy():
    labels = [
        [command, *units, *machine, "--", *angles]
        for command, angles in (
            ("amp", ["30", "0", "+", "-20", "10", "-"]),
            ("prob", ["45", "90", "+", "0", "0", "-"]),
            ("expect", ["0", "0", "+", "45", "0"]),
        )
        for units in ([], ["--deg"], ["--rad"])
        for machine in ([], ["--machine"])
    ]
    numpy_free = [["--help"], ["amp", "--help"], *labels]
    scenario = str(ROOT / "tests" / "data" / "simulate_two_stage.json")
    heavy = [
        ["operator", "30", "0", "0", "0"],
        ["eigvec", "30", "0", "0", "0", "--machine"],
        ["simulate", scenario, "--trials", "1000"],
        ["verify", "--draws", "200", "--machine"],
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = [sys.executable, "-c", START_PROBE, json.dumps(numpy_free + heavy), json.dumps(HEAVY_MODULES)]
    out = subprocess.run(probe, capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    runs = [json.loads(line) for line in out.stdout.splitlines()]
    assert [run for run, _, _ in runs] == [None, *numpy_free, *heavy]
    for run, code, loaded in runs[: 1 + len(numpy_free)]:
        assert (code, loaded) == (0, []), run
    assert [code for _, code, _ in runs[1 + len(numpy_free):]] == [0] * len(heavy)
    assert runs[-1][2] == list(HEAVY_MODULES)  # the probe sees a module once it is loaded


#: Public names that no CLI, benchmark or README code calls, and why each is public.
PUBLIC_WITHOUT_CALLER = {
    # result types: callers read the values the public functions return
    "ErrataRecord": "element of VerifyReport.errata",
    "OutcomeDistribution": "returned by exact_distribution, taken by sample",
    "SampleReport": "returned by sample",
    "ScenarioFile": "returned by load_scenario_file and parse_scenario",
    "StateVector2": "returned by state_vector and eigenvector_states",
    "SuiteResult": "element of VerifyReport.suites",
    "VerifyReport": "returned by run_all",
    # the paper's standard limits (the CLI and the benchmark use only the operator)
    "standard_amplitudes": "the textbook amplitudes as a boundary value",
    "standard_states": "the textbook state pair as a boundary value",
    # a scenario document already in memory, with no file to name
    "parse_scenario": "validates a decoded scenario document",
}


def init_exports(tree: ast.Module) -> tuple[list[str], list[str]]:
    """(names ``__init__`` imports from its submodules, the literal ``__all__``)."""
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    return imported, exported


def polamp_names_used(tree: ast.Module) -> set[str]:
    """Names ``tree`` imports from polamp or reads as an attribute of the package.

    Relative imports count (``cli`` is inside the package), and so does an
    alias of the package: ``p = polamp`` and then ``p.amplitude``.
    """
    aliases = {"polamp"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "polamp" and a.asname)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "polamp"
        ):
            used.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            used.add(node.attr)
    return used


def readme_library_example() -> ast.Module:
    """The Python block under the README's "Library example" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1))


def public_callers() -> set[str]:
    """Every polamp name that the CLI, a benchmark file or the README example uses."""
    trees = [parse("cli"), readme_library_example()]
    trees += [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    return set().union(*map(polamp_names_used, trees))


def unused_exports(exported, used, allowed) -> list[str]:
    return sorted(set(exported) - set(used) - set(allowed))


def test_init_imports_exactly_the_public_names(monkeypatch):
    # the numpy-free modules' names are imported; the others resolve lazily
    imported, exported = init_exports(parse("__init__"))
    assert len(exported) == len(set(exported)), "__all__ names a name twice"
    assert sorted(imported + list(polamp._LAZY)) == sorted(exported)
    for name, module in polamp._LAZY.items():
        assert getattr(polamp, name) is getattr(importlib.import_module(f"polamp.{module}"), name)
    # and are not cached: a function swapped in its module, as the benchmark
    # tracer swaps them, is what the package returns
    swapped = object()
    monkeypatch.setattr(polamp.simulate, "sample", swapped)
    assert polamp.sample is swapped
    namespace = {}
    exec("from polamp import *", namespace)
    assert set(exported) <= set(namespace)
    with pytest.raises(AttributeError, match="^module 'polamp' has no attribute 'no_such_name'$"):
        polamp.no_such_name


def test_defaults_keep_their_values_on_every_import_path():
    # defined in directions, which the parser reads without numpy
    from polamp import simulate

    assert polamp.DEFAULT_STAGE_CAP == simulate.DEFAULT_STAGE_CAP == 20
    assert verify.DEFAULT_DRAWS == 100_000


def test_every_public_name_has_a_caller():
    _, exported = init_exports(parse("__init__"))
    unused = unused_exports(exported, public_callers(), PUBLIC_WITHOUT_CALLER)
    assert not unused, f"public without a caller (delete, or allow-list with a reason): {unused}"
    stale = sorted(set(PUBLIC_WITHOUT_CALLER) - set(exported))
    assert not stale, f"allow-listed but not public: {stale}"


def test_public_api_guard_sees_every_kind_of_use():
    source = (
        "import polamp\nfrom polamp import plus\nfrom .simulate import sample\n"
        "p = polamp\np.chain(1)\npolamp.amplitude\nother.probability\n"
    )
    used = polamp_names_used(ast.parse(source))
    assert {"plus", "sample", "chain", "amplitude"} <= used
    assert "probability" not in used
    assert unused_exports(["plus", "helper", "Result"], used, {"Result": "why"}) == ["helper"]
