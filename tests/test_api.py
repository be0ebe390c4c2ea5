"""The public API: what `urm` exports, and what it no longer has."""

from __future__ import annotations

import pathlib
import re

import urm
from urm import constraints, machine

PUBLIC = [
    "AbstractVerdict", "Atom", "CONSTRAINTS_UNSATISFIABLE", "CertReport", "Config",
    "ConstraintSet", "Converges", "DivergenceCert", "Diverges", "EXIT_DOES_NOT_HALT",
    "FiniteConfig", "HALTED_DURING_LOOP", "Halt", "Halted", "INVARIANT_NOT_ESTABLISHED",
    "INVARIANT_NOT_PRESERVED", "Incompatible", "Instruction", "Jump", "LOOP_NOT_CLOSED",
    "MachineState", "Next", "NotAbstractProgram", "NotStandardForm", "OutOfFuel", "Outcome",
    "PREFIX_FAILED", "PcOutOfRange", "Program", "RANKING_NOT_DECREASING", "RANKING_NOT_NONNEGATIVE",
    "Reason", "SourceError", "StepResult", "Succ", "SymState", "SymValue", "TerminationCert",
    "Transfer", "UNDECIDED_BRANCH", "URMError", "Undecided", "UnsupportedAtom", "Zero",
    "check_divergence", "check_termination", "compatible", "decide_abstract", "decide_eq",
    "entails", "format_atom", "format_config", "include", "mv", "parse_cert", "parse_config",
    "parse_program", "print_program", "reg_var", "restrict", "run", "run_finite", "sc", "step",
    "sym_step", "trace", "zr",
]

# Removed because nothing in the package called them, because they only
# returned a cached `Program` property, because the one value type
# `SymValue` took their place, or because the checker substitutes through
# the register indices a certificate keeps; (owner, attribute).
REMOVED = [
    (machine, "rho"),
    (machine, "is_standard_form"),
    (machine.Program, "at"),
    (machine.FiniteConfig, "at"),
    (constraints, "eval_atom"),
    (constraints, "satisfies"),
    (constraints.ConstraintSet, "variables"),
    (constraints, "Const"),
    (constraints, "VarPlus"),
    (constraints, "_parts"),
    (constraints, "substitute"),
    (constraints, "_subst_side"),
]


def test_the_public_names_are_exactly_these():
    assert urm.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(urm, name)


def test_removed_names_stay_removed():
    for owner, name in REMOVED:
        assert not hasattr(owner, name), (owner, name)
        assert name not in urm.__all__


def test_the_readme_library_table_lists_the_public_names():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[3] for line in section.splitlines() if line.startswith("| `urm.")]
    assert sorted(name for row in rows for name in re.findall(r"`(\w+)`", row)) == PUBLIC
