"""Reference implementations the tests compare the package against.

Deliberately written in a different style from the package code: a
dict-based interpreter that halts when the position leaves [1..n], with
no instruction compilation and no sparse-configuration bookkeeping, and
a concrete evaluation of constraint atoms that shares no code with the
package's bound reasoning.  Agreement between the two is then a
meaningful check.
"""

from __future__ import annotations

import operator
import random

from urm.machine import Jump, Program, Succ, Transfer, Zero


def apply_instr(instr, pc: int, regs: dict[int, int]) -> int:
    """Mutates regs, returns the next position (possibly out of range)."""
    if isinstance(instr, Zero):
        regs.pop(instr.i, None)
        return pc + 1
    if isinstance(instr, Succ):
        regs[instr.i] = regs.get(instr.i, 0) + 1
        return pc + 1
    if isinstance(instr, Transfer):
        value = regs.get(instr.i, 0)
        if value:
            regs[instr.j] = value
        else:
            regs.pop(instr.j, None)
        return pc + 1
    if regs.get(instr.i, 0) == regs.get(instr.j, 0):
        return instr.k
    return pc + 1


def naive_run(p: Program, regs: dict[int, int], fuel: int):
    """("halted" | "fuel", final regs as a sparse dict, steps taken)."""
    regs = {i: v for i, v in regs.items() if v}
    n = len(p)
    pc = 1
    steps = 0
    while steps < fuel:
        steps += 1
        pc = apply_instr(p.instructions[pc - 1], pc, regs)
        if not 1 <= pc <= n:
            return ("halted", regs, steps)
    return ("fuel", regs, steps)


def naive_pcs(p: Program, regs: dict[int, int], limit: int) -> list[int]:
    """Positions visited, starting state included, at most limit entries."""
    regs = {i: v for i, v in regs.items() if v}
    n = len(p)
    pc = 1
    out = [pc]
    while len(out) < limit:
        pc = apply_instr(p.instructions[pc - 1], pc, regs)
        if not 1 <= pc <= n:
            break
        out.append(pc)
    return out


def head_visits(p: Program, regs: dict[int, int], head: int, fuel: int):
    """("halted" | "fuel", register snapshots at each visit of head)."""
    regs = {i: v for i, v in regs.items() if v}
    n = len(p)
    pc = 1
    steps = 0
    visits = []
    if pc == head:
        visits.append(dict(regs))
    while steps < fuel:
        steps += 1
        pc = apply_instr(p.instructions[pc - 1], pc, regs)
        if not 1 <= pc <= n:
            return ("halted", visits)
        if pc == head:
            visits.append(dict(regs))
    return ("fuel", visits)


def random_program(rng: random.Random, max_len: int = 5, max_reg: int = 3) -> Program:
    """Standard-form program with small register operands."""
    n = rng.randint(1, max_len)
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(Zero(rng.randint(1, max_reg)))
        elif kind == 1:
            out.append(Succ(rng.randint(1, max_reg)))
        elif kind == 2:
            out.append(Transfer(rng.randint(1, max_reg), rng.randint(1, max_reg)))
        else:
            out.append(Jump(rng.randint(1, max_reg), rng.randint(1, max_reg), rng.randint(0, n)))
    return Program(tuple(out))


def renumbered(p: Program, to: dict[int, int]) -> Program:
    """`p` with each register operand i replaced by `to[i]`."""
    out = []
    for instr in p:
        if isinstance(instr, Jump):
            out.append(Jump(to[instr.i], to[instr.j], instr.k))
        elif isinstance(instr, Transfer):
            out.append(Transfer(to[instr.i], to[instr.j]))
        else:
            out.append(type(instr)(to[instr.i]))
    return Program(tuple(out))


# The relations an `Atom` keeps: construction turns `<` and `>` into
# weak bounds with a shifted constant.
_HOLDS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq, "!=": operator.ne}


def atom_variables(atom) -> frozenset[str]:
    """The variables an atom names, one or two."""
    return frozenset(v for v in (atom.x, atom.y) if v is not None)


def atom_holds(atom, values: dict[str, int]) -> bool:
    """Truth of `x - y rel k` under `values`, an absent side reading 0."""
    diff = sum(sign * values[var] for var, sign in ((atom.x, 1), (atom.y, -1)) if var is not None)
    return _HOLDS[atom.rel](diff, atom.k)


def constraints_hold(cs, values: dict[str, int]) -> bool:
    """Truth of every atom of the constraint set `cs` under `values`."""
    return all(atom_holds(atom, values) for atom in cs.atoms)


def sym_value(sv, assignment: dict[str, int]) -> int:
    """A `SymValue` (`var + offset`, or the constant `offset`) under `assignment`."""
    return sv.offset if sv.var is None else assignment[sv.var] + sv.offset


def sample_parameters(cert, rng: random.Random, high: int = 10) -> dict[str, int]:
    """Rejection-sample a value in [0, high] for each parameter of `cert`,
    drawn in sorted name order, until its parameter constraints hold."""
    names = sorted(
        {v for atom in cert.param_constraints.atoms for v in atom_variables(atom)}
        | {sv.var for sv in cert.init if sv.var is not None}
    )
    while True:
        assignment = {name: rng.randint(0, high) for name in names}
        if constraints_hold(cert.param_constraints, assignment):
            return assignment


def instantiate(cert, assignment: dict[str, int]) -> dict[int, int]:
    """The initial registers of `cert` under `assignment`, r1 first."""
    return {i: sym_value(sv, assignment) for i, sv in enumerate(cert.init, 1)}


def register_values(atom, regs: dict[int, int]) -> dict[str, int]:
    """The values in `regs` of an atom's register operands `rI`, an absent
    register reading 0."""
    return {v: regs.get(int(v[1:]), 0) for v in atom_variables(atom)}


def closure_oracle(cs):
    """(bound, feasible) for the constraint set `cs` by a plain all-pairs
    Floyd-Warshall over every variable and the zero node, each `=` atom
    read as its two bounds and no equality classes formed.

    bound(frm, to) is the tightest k with value(to) - value(frm) <= k,
    None when no bound is derivable; a variable the set does not mention
    reads the zero node's row.  Distances are a list of lists with None
    for infinity, so constants of any size stay exact integers."""
    names = [None] + sorted({v for atom in cs.atoms for v in (atom.x, atom.y) if v is not None})
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    m = [[0 if i == j else None for j in range(n)] for i in range(n)]

    def tighten(i, j, w):
        if m[i][j] is None or w < m[i][j]:
            m[i][j] = w

    for i in range(1, n):
        tighten(i, 0, 0)
    feasible = True
    for atom in cs.atoms:
        x, y = index[atom.x], index[atom.y]
        if atom.rel in ("<=", "="):
            tighten(y, x, atom.k)
        if atom.rel in (">=", "="):
            tighten(x, y, -atom.k)
        if atom.rel == "!=" and x == y == 0 and atom.k == 0:
            feasible = False
    for w in range(n):
        for i in range(n):
            if m[i][w] is not None:
                for j in range(n):
                    if m[w][j] is not None:
                        tighten(i, j, m[i][w] + m[w][j])
    feasible = feasible and all(m[i][i] >= 0 for i in range(n))

    def bound(frm, to):
        if frm == to:
            return 0
        if to not in index:
            return None
        return m[index.get(frm, 0)][index[to]]

    return bound, feasible
