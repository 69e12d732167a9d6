"""Import-graph guards: the oracle routes and the normative routes stay separate code.

The verify suites only prove something while each law is checked against
an independent route. These tests read the sources (AST, not text search):
the normative modules never reach the closed-form transcriptions, and
neither the transcriptions nor the inner-product oracle reach the
amplitude kernel they are compared with.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polamp

SRC = Path(polamp.__file__).parent

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


def test_amplitude_oracle_stays_independent_of_the_kernel():
    tree = parse("verify")
    normative = names_from(tree, "amplitudes", "operators")
    assert "amp_matrix" in normative  # the suites do compare against the kernel
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_FUNCTIONS
    }
    assert set(functions) == set(ORACLE_FUNCTIONS)
    for name, node in functions.items():
        used = referenced_names(node) & normative
        assert not used, f"verify.{name} uses {sorted(used)}"


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


def test_chain_steps_take_one_route():
    # every stage, the first included, is a row of the stage-transition matrix
    imported = imported_modules(parse("simulate"))
    assert "polamp.amplitudes.state_vector" not in imported
    assert "state_vector" not in referenced_names(parse("simulate"))


def test_import_leaves_the_thread_pool_unloaded():
    # verify imports concurrent.futures inside its block helper, so that
    # ``import polamp`` and every non-verify command start no slower
    code = "import sys, polamp, polamp.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
