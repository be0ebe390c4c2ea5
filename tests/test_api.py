"""The public API: what `urm` exports, and what it no longer has."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

import urm
from urm import certificates, constraints, errors, evaluator, machine, textio

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC = [
    "AbstractVerdict", "Atom", "CONSTRAINTS_UNSATISFIABLE", "CertReport", "Config",
    "ConstraintSet", "Converges", "DivergenceCert", "Diverges", "EXIT_DOES_NOT_HALT",
    "FiniteConfig", "HALTED_DURING_LOOP", "Halted", "INVARIANT_NOT_ESTABLISHED",
    "INVARIANT_NOT_PRESERVED", "Incompatible", "Instruction", "Jump", "LOOP_NOT_CLOSED",
    "MachineState", "NotAbstractProgram", "NotStandardForm", "OutOfFuel", "Outcome",
    "PREFIX_FAILED", "PcOutOfRange", "Program", "RANKING_NOT_DECREASING", "RANKING_NOT_NONNEGATIVE",
    "Reason", "SourceError", "Succ", "SymState", "SymValue", "TerminationCert",
    "Transfer", "UNDECIDED_BRANCH", "URMError", "UnsupportedAtom", "Zero",
    "check_divergence", "check_termination", "compatible", "decide_abstract", "decide_eq",
    "entails", "format_atom", "format_config", "include", "mv", "parse_cert", "parse_config",
    "parse_program", "print_program", "reg_var", "restrict", "run", "run_finite", "sc", "step",
    "sym_step", "trace", "zr",
]

# Removed because nothing in the package called them, because they only
# returned a cached `Program` property, because the one value type
# `SymValue` took their place, because the checker substitutes through
# the register indices a certificate keeps, because both certificate
# kinds share one lasso base and `check_termination` builds its split
# atoms itself, because a halted state is the one at position 0,
# because `sym_step` returns None for an undecided jump, as `decide_eq`
# does, and otherwise the pair (state, rule), or because `_range` reads
# both bounds of a difference itself; (owner, attribute).
REMOVED = [
    (machine, "rho"),
    (machine, "is_standard_form"),
    (machine.Program, "at"),
    (machine.FiniteConfig, "at"),
    (constraints, "eval_atom"),
    (constraints, "satisfies"),
    (constraints.ConstraintSet, "variables"),
    (constraints.Atom, "variables"),
    (constraints, "Const"),
    (constraints, "VarPlus"),
    (constraints, "_parts"),
    (constraints, "substitute"),
    (constraints, "_subst_side"),
    (certificates.TerminationCert, "continue_atom"),
    (certificates.TerminationCert, "exit_atom"),
    (certificates, "_check_common"),
    (certificates, "Cert"),
    (evaluator, "Next"),
    (evaluator, "Halt"),
    (evaluator, "StepResult"),
    (certificates, "SymHalt"),
    (certificates, "Undecided"),
    (certificates, "SymStepResult"),
    (certificates, "SymNext"),
    (constraints, "_bound"),
]

# The modules with public names, each declaring them in its `__all__`:
# those that `import urm` loads, then the checker's, which take theirs from
# `urm._LAZY`.
MODULES = (errors, evaluator, machine, textio, constraints, certificates)


def test_the_public_names_are_exactly_these():
    assert urm.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(urm, name)


def test_removed_names_stay_removed():
    for owner, name in REMOVED:
        assert not hasattr(owner, name), (owner, name)
        assert name not in urm.__all__


def _readme_rows() -> dict[str, list[str]]:
    """Module name -> the names its row of README's Library table lists."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|") for line in section.splitlines() if line.startswith("| `urm.")]
    return {cell[1].strip().strip("`")[len("urm."):]: re.findall(r"`(\w+)`", cell[3]) for cell in cells}


def test_the_readme_library_table_lists_the_public_names():
    assert sorted(name for names in _readme_rows().values() for name in names) == PUBLIC


def test_each_readme_row_lists_its_module_public_names():
    """A module's `__all__` is its row, in order; `urm.cli` has none."""
    rows = _readme_rows()
    assert sorted(rows) == sorted(["cli", *(module.__name__[len("urm."):] for module in MODULES)])
    for module in MODULES:
        assert rows[module.__name__[len("urm."):]] == list(module.__all__), module.__name__
    assert rows["cli"] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_a_star_import_binds_exactly_the_module_public_names(module):
    """And so no private, `typing` or `__future__` name."""
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)


def test_a_star_import_of_the_package_binds_the_public_names():
    """In a fresh interpreter, so that no earlier import has bound a name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "namespace = {}; exec('from urm import *', namespace); print(*sorted(set(namespace) - {'__builtins__'}))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert child.stdout.split() == PUBLIC


def test_readme_python_blocks_run(monkeypatch):
    """Every ```python block of README.md runs as shown, from the root."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
