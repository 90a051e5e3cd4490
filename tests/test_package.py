import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import sinkhornlab
from sinkhornlab import IterationConfig, StartSide

COLUMN_FIRST = "<StartSide.COLUMN_FIRST: 'column'>"
#: the call signature of each entry point, so that adding or removing a
#: keyword shows up as a test diff
SIGNATURES = {
    "sinkhorn": "(A: 'PositiveMatrix', cfg: 'IterationConfig | None' = None, *, "
    "capture_matrices: 'bool' = False) -> 'SinkhornResult'",
    "termination_length_2x2": f"(A: 'PositiveMatrix', start_side: 'StartSide' = {COLUMN_FIRST}, "
    "max_steps: 'int' = 64) -> 'Optional[int]'",
    "finite_termination_search": f"(n: 'int', bound: 'int', *, start_side: 'StartSide' = {COLUMN_FIRST}, "
    "candidate_cap: 'int' = 10000000) -> 'list[SearchHit]'",
    "classify_2x2": f"(A: 'PositiveMatrix', start_side: 'StartSide' = {COLUMN_FIRST}) -> 'TerminationClass'",
}


def test_all_names_every_public_object_and_no_submodule():
    public = {
        name
        for name, value in vars(sinkhornlab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(sinkhornlab.__all__) == len(set(sinkhornlab.__all__))
    assert set(sinkhornlab.__all__) == public
    # the CLI and its renderers load only when asked for
    probe = "import sys, sinkhornlab; print('sinkhornlab.cli' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "False"


def test_runtime_imports_are_stdlib_only():
    src = Path(sinkhornlab.__file__).resolve().parent
    modules = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    assert modules and modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names


def test_no_module_has_an_assert_statement():
    """python -O strips assert statements, so every check in the package
    raises explicitly."""
    src = Path(sinkhornlab.__file__).resolve().parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_readme_library_example_runs():
    """The fenced Python block under README's Library heading runs against
    what the package exports."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    imported = re.search(r"from sinkhornlab import \((.*?)\)", blocks[0], re.DOTALL)[1]
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(sinkhornlab.__all__)
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_entry_point_takes_the_pinned_parameters(name):
    assert str(inspect.signature(getattr(sinkhornlab, name))) == SIGNATURES[name]


def test_iteration_config_has_the_pinned_fields():
    fields = [(f.name, f.default) for f in dataclasses.fields(IterationConfig)]
    assert fields == [
        ("start_side", StartSide.COLUMN_FIRST),
        ("max_steps", None),
        ("tolerance", None),
        ("margin_target", None),
    ]
