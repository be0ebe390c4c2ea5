"""Certificate checking by symbolic execution."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from urm import (
    Atom,
    Const,
    ConstraintSet,
    DivergenceCert,
    SymState,
    TerminationCert,
    Undecided,
    VarPlus,
    check_divergence,
    check_termination,
    eval_atom,
    parse_cert,
    satisfies,
    sym_step,
)
from urm.certificates import (
    EXIT_DOES_NOT_HALT,
    HALTED_DURING_LOOP,
    INVARIANT_NOT_ESTABLISHED,
    INVARIANT_NOT_PRESERVED,
    LOOP_NOT_CLOSED,
    PREFIX_FAILED,
    RANKING_NOT_DECREASING,
    RANKING_NOT_NONNEGATIVE,
    UNDECIDED_BRANCH,
    SymHalt,
    SymNext,
)
from urm.constraints import _closure, reg_var
from urm.errors import NotStandardForm, PcOutOfRange
from urm.machine import Jump, Program, Succ, Zero
from oracles import head_visits, naive_pcs, naive_run, random_program

FRESH = {i: VarPlus(f"v{i}") for i in (1, 2, 3)}


def _load(samples_dir, name):
    return parse_cert((samples_dir / name).read_text())


def test_sym_step_resolves_a_jump_from_a_strict_bound(u_minus):
    s = SymState(1, dict(FRESH))
    r = sym_step(u_minus, s, ConstraintSet.of(Atom("v1", "v2", "<=", -1)))
    assert isinstance(r, SymNext)
    assert r.state.pc == 2
    assert r.state.regs == s.regs
    assert r.rule == "jf·r"


def test_sym_step_compares_a_register_with_itself(u_minus):
    s = SymState(4, {1: VarPlus("v1"), 2: VarPlus("v2", 1), 3: VarPlus("v3", 1)})
    r = sym_step(u_minus, s, ConstraintSet())
    assert isinstance(r, SymNext)
    assert r.state.pc == 1
    assert r.rule == "jt·r"


def test_sym_step_reports_an_unresolved_jump(u_minus):
    r = sym_step(u_minus, SymState(1, dict(FRESH)), ConstraintSet())
    assert r == Undecided(1, 1, 2)


def test_sym_step_updates_values_like_the_rules():
    p = Program((Zero(2), Succ(1), Succ(3)))
    s = SymState(1, dict(FRESH))
    r = sym_step(p, s, ConstraintSet())
    assert r.state.regs[2] == Const(0) and r.rule == "z·r"
    r = sym_step(p, r.state, ConstraintSet())
    assert r.state.regs[1] == VarPlus("v1", 1) and r.rule == "s·r"
    r = sym_step(p, r.state, ConstraintSet())
    assert isinstance(r, SymHalt) and r.rule == "s·l"
    assert r.state.regs[3] == VarPlus("v3", 1)


def test_sym_step_requires_standard_form():
    with pytest.raises(NotStandardForm):
        sym_step(Program((Jump(1, 1, 9),)), SymState(1, {1: Const(0)}), ConstraintSet())


def test_sym_step_on_constants_mirrors_concrete_execution():
    from urm import Config, MachineState, step
    from urm.evaluator import Halt as ConcreteHalt

    rng = random.Random(31)
    empty = ConstraintSet()
    for _ in range(200):
        p = random_program(rng)
        regs = {i: rng.randint(0, 3) for i in range(1, 4)}
        pc = 1
        concrete = MachineState(p, pc, Config(regs))
        symbolic = SymState(pc, {i: Const(v) for i, v in regs.items()})
        for _ in range(20):
            got_c = step(concrete)
            got_s = sym_step(p, symbolic, empty)
            if isinstance(got_c, ConcreteHalt):
                assert isinstance(got_s, SymHalt)
                final = {i: v.value for i, v in got_s.state.regs.items() if v.value}
                assert final == dict(got_c.config.items())
                break
            assert isinstance(got_s, SymNext)
            assert got_s.state.pc == got_c.state.pc
            concrete, symbolic = got_c.state, got_s.state


def test_divergence_certificate_for_subtraction(u_minus, samples_dir):
    report = check_divergence(u_minus, _load(samples_dir, "minus-div.cert"))
    assert report.accepted
    assert report.trail == ((1, "jf·r"), (2, "s·r"), (3, "s·r"), (4, "jt·r"))


def test_divergence_certificate_for_the_counter(prog_v, samples_dir):
    report = check_divergence(prog_v, _load(samples_dir, "v-div.cert"))
    assert report.accepted
    assert report.trail == ((1, "s·r"), (2, "jt·r"))


def test_divergence_certificate_for_the_self_loop(prog_loop, samples_dir):
    report = check_divergence(prog_loop, _load(samples_dir, "loop.cert"))
    assert report.accepted
    assert report.trail == ((1, "jt·r"),)


def test_accepted_loops_are_guarded(u_minus, prog_v, prog_loop, samples_dir):
    for prog, name in ((u_minus, "minus-div.cert"), (prog_v, "v-div.cert"), (prog_loop, "loop.cert")):
        assert len(check_divergence(prog, _load(samples_dir, name)).trail) >= 1


def test_termination_certificate_for_subtraction(u_minus, samples_dir):
    report = check_termination(u_minus, _load(samples_dir, "minus-term.cert"))
    assert report.accepted
    assert report.trail == (
        (1, "jf·r"),
        (2, "s·r"),
        (3, "s·r"),
        (4, "jt·r"),
        (1, "jt·r"),
        (5, "t·l"),
    )


def test_weak_invariant_leaves_the_branch_undecided(u_minus, samples_dir):
    report = check_divergence(u_minus, _load(samples_dir, "rejected/minus-div-weak.cert"))
    assert not report.accepted
    assert report.reason.code == UNDECIDED_BRANCH
    assert report.reason.pc == 1


def test_straight_line_program_halts_during_the_loop(prog_b, samples_dir):
    report = check_divergence(prog_b, _load(samples_dir, "rejected/b-div.cert"))
    assert not report.accepted
    assert report.reason.code == HALTED_DURING_LOOP
    assert report.reason.pc == 2


def test_reversed_ranking_is_not_nonnegative(u_minus, samples_dir):
    report = check_termination(u_minus, _load(samples_dir, "rejected/minus-term-revrank.cert"))
    assert not report.accepted
    assert report.reason.code == RANKING_NOT_NONNEGATIVE


def _minus_cert(**overrides):
    fields = dict(
        param_constraints=ConstraintSet.of(Atom("m", "n", "<", 0)),
        init={1: VarPlus("m"), 2: VarPlus("n"), 3: VarPlus("z")},
        loop_head=1,
        invariant=(Atom("r1", "r2", "<", 0),),
        step_bound=8,
    )
    fields.update(overrides)
    return DivergenceCert(**fields)


def test_prefix_that_halts_is_rejected():
    p = Program((Jump(1, 1, 0), Zero(1)))
    cert = DivergenceCert(ConstraintSet(), {}, loop_head=2, invariant=(), step_bound=4)
    report = check_divergence(p, cert)
    assert report.reason.code == PREFIX_FAILED


def test_prefix_that_overruns_the_bound_is_rejected():
    p = Program((Succ(1), Succ(1), Succ(1), Jump(1, 1, 4)))
    cert = DivergenceCert(ConstraintSet(), {}, loop_head=4, invariant=(), step_bound=2)
    report = check_divergence(p, cert)
    assert report.reason.code == PREFIX_FAILED


def test_invariant_must_hold_on_arrival(u_minus):
    cert = _minus_cert(invariant=(Atom("r1", "r2", ">", 0),))
    report = check_divergence(u_minus, cert)
    assert report.reason.code == INVARIANT_NOT_ESTABLISHED
    assert report.reason.atom == Atom("r1", "r2", ">=", 1)


def test_invariant_must_survive_one_iteration(u_minus):
    cert = _minus_cert(
        param_constraints=ConstraintSet.of(Atom("m", "n", "<", 0), Atom("z", None, "=", 0)),
        invariant=(Atom("r1", "r2", "<", 0), Atom("r3", None, "=", 0)),
    )
    report = check_divergence(u_minus, cert)
    assert report.reason.code == INVARIANT_NOT_PRESERVED
    assert report.reason.atom == Atom("r3", None, "=", 0)


def test_too_small_a_bound_leaves_the_loop_open(u_minus):
    report = check_divergence(u_minus, _minus_cert(step_bound=3))
    assert report.reason.code == LOOP_NOT_CLOSED


def _term_cert(**overrides):
    fields = dict(
        param_constraints=ConstraintSet.of(Atom("m", "n", ">=", 0)),
        init={1: VarPlus("m"), 2: VarPlus("n"), 3: VarPlus("z")},
        loop_head=1,
        invariant=(Atom("r1", "r2", ">=", 0),),
        split=(1, 2, 0),
        ranking=(1, 2),
        step_bound=8,
    )
    fields.update(overrides)
    return TerminationCert(**fields)


def test_termination_ranking_must_decrease(u_minus):
    cert = _term_cert(
        param_constraints=ConstraintSet.of(Atom("m", "n", ">=", 0), Atom("z", None, "=", 0)),
        invariant=(Atom("r1", "r2", ">=", 0), Atom("r2", "r3", ">=", 0)),
        ranking=(2, 3),
    )
    report = check_termination(u_minus, cert)
    assert report.reason.code == RANKING_NOT_DECREASING


def test_termination_exit_case_must_halt():
    p = Program((Jump(1, 2, 4), Succ(2), Jump(1, 1, 1), Jump(3, 3, 4)))
    cert = TerminationCert(
        param_constraints=ConstraintSet.of(Atom("m", "n", ">=", 0)),
        init={1: VarPlus("m"), 2: VarPlus("n")},
        loop_head=1,
        invariant=(Atom("r1", "r2", ">=", 0),),
        split=(1, 2, 0),
        ranking=(1, 2),
        step_bound=8,
    )
    report = check_termination(p, cert)
    assert report.reason.code == EXIT_DOES_NOT_HALT


def test_degenerate_split_never_returns_to_the_head(prog_b):
    cert = TerminationCert(
        param_constraints=ConstraintSet.of(Atom("a", "b", "!=", 0)),
        init={1: VarPlus("a"), 2: VarPlus("b")},
        loop_head=1,
        invariant=(Atom("r1", "r2", "!=", 0),),
        split=(1, 1, 0),
        ranking=(1, 2),
        step_bound=4,
    )
    report = check_termination(prog_b, cert)
    assert not report.accepted
    assert report.reason.code == LOOP_NOT_CLOSED


def test_certificate_field_validation():
    with pytest.raises(ValueError):
        _minus_cert(step_bound=0)
    with pytest.raises(PcOutOfRange):
        _minus_cert(loop_head=0)
    with pytest.raises(ValueError):
        _minus_cert(init={0: Const(1)})
    with pytest.raises(ValueError):
        _term_cert(ranking=(0, 2))
    with pytest.raises(ValueError):
        _term_cert(split=(1, 2, -1))


def test_loop_head_must_be_a_position(u_minus):
    with pytest.raises(PcOutOfRange):
        check_divergence(u_minus, _minus_cert(loop_head=9))


def test_checkers_require_standard_form():
    with pytest.raises(NotStandardForm):
        check_divergence(Program((Jump(1, 1, 9),)), _minus_cert())


def test_the_closure_memo_stays_bounded(u_minus):
    """A process that checks many certificates keeps a bounded memo."""
    _closure.cache_clear()
    for k in range(1, 101):
        cert = DivergenceCert(
            param_constraints=ConstraintSet.of(Atom("m", "n", "<=", -k)),
            init={1: VarPlus("m"), 2: VarPlus("n")},
            loop_head=1,
            invariant=(Atom("r1", "r2", "<=", -k),),
            step_bound=8,
        )
        assert check_divergence(u_minus, cert).accepted
    info = _closure.cache_info()
    assert info.misses > 100
    assert info.maxsize is not None and info.currsize <= info.maxsize


def _instantiate(cert, assignment):
    regs = {}
    for i, value in cert.init.items():
        if isinstance(value, Const):
            regs[i] = value.value
        else:
            regs[i] = assignment[value.var] + value.offset
    return regs


def _sample_params(cert, rng, high=10):
    names = sorted(
        cert.param_constraints.variables()
        | {v.var for v in cert.init.values() if isinstance(v, VarPlus)}
    )
    while True:
        assignment = {name: rng.randint(0, high) for name in names}
        if satisfies(cert.param_constraints, assignment):
            return assignment


def _atom_values(atom, regs):
    values = {}
    for var in (atom.x, atom.y):
        if var is not None:
            values[var] = regs.get(int(var[1:]), 0)
    return values


def test_accepted_divergence_trail_matches_concrete_traces(u_minus, samples_dir):
    cert = _load(samples_dir, "minus-div.cert")
    report = check_divergence(u_minus, cert)
    rng = random.Random(11)
    for _ in range(5):
        assignment = _sample_params(cert, rng)
        regs = _instantiate(cert, assignment)
        pcs = naive_pcs(u_minus, regs, 3 * len(report.trail))
        expected = [pc for pc, _ in report.trail]
        # the loop segment repeats from the head onwards
        assert pcs[: len(expected)] == expected
        assert pcs[len(expected) : 2 * len(expected)] == expected


def test_accepted_divergence_samples_run_forever(prog_v, samples_dir):
    cert = _load(samples_dir, "v-div.cert")
    assert check_divergence(prog_v, cert).accepted
    rng = random.Random(13)
    for _ in range(5):
        regs = _instantiate(cert, _sample_params(cert, rng))
        verdict, visits = head_visits(prog_v, regs, cert.loop_head, 2000)
        assert verdict == "fuel"
        for snapshot in visits:
            for atom in cert.invariant:
                assert eval_atom(atom, _atom_values(atom, snapshot))


def test_accepted_termination_bounds_head_visits(u_minus, samples_dir):
    cert = _load(samples_dir, "minus-term.cert")
    assert check_termination(u_minus, cert).accepted
    x, y = cert.ranking
    for m, n, z in itertools.product(range(16), range(16), range(3)):
        if not satisfies(cert.param_constraints, {"m": m, "n": n, "z": z}):
            continue
        regs = _instantiate(cert, {"m": m, "n": n, "z": z})
        rank = max(regs.get(x, 0) - regs.get(y, 0), 0)
        verdict, visits = head_visits(u_minus, regs, cert.loop_head, 10000)
        assert verdict == "halted", (m, n, z)
        assert len(visits) <= rank + 1, (m, n, z)


_RELATIONS = ("<", "<=", "=", ">=", ">", "!=")


def _random_atoms(rng, names):
    """0-2 atoms over `names`, None standing for an absent side."""
    return tuple(
        Atom(rng.choice(names), rng.choice(names), rng.choice(_RELATIONS), rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2))
    )


def _accepted_claim_holds(p, cert, params):
    """Check `cert`; if accepted, run `p` on every assignment of `params`
    (name -> range) that the constraints allow and assert the claim.
    Returns whether the certificate was accepted."""
    diverges = isinstance(cert, DivergenceCert)
    report = check_divergence(p, cert) if diverges else check_termination(p, cert)
    if not report.accepted:
        return False
    for values in itertools.product(*params.values()):
        assignment = dict(zip(params, values))
        if satisfies(cert.param_constraints, assignment):
            # 400 steps cover a ranking value up to 15 at bound 8
            verdict, _, _ = naive_run(p, _instantiate(cert, assignment), 400)
            assert verdict == ("fuel" if diverges else "halted"), (p, cert, assignment)
    return True


def test_accepted_random_certificates_are_sound():
    """Every accepted claim must hold on every small input it covers."""
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(20000):
        p = random_program(rng, 5, 3)
        fields = dict(
            param_constraints=ConstraintSet.of(*_random_atoms(rng, (None, "m", "n"))),
            init={1: VarPlus("m", rng.randint(0, 1)), 2: VarPlus("n"), 3: Const(rng.randint(0, 2))},
            loop_head=rng.randint(1, len(p)),
            invariant=_random_atoms(rng, (None, "r1", "r2", "r3")),
            step_bound=rng.randint(1, 8),
        )
        if rng.random() < 0.5:
            cert = DivergenceCert(**fields)
        else:
            split = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2))
            cert = TerminationCert(**fields, split=split, ranking=(rng.randint(1, 3), rng.randint(1, 3)))
        accepted += _accepted_claim_holds(p, cert, {"m": range(7), "n": range(7)})
    assert accepted > 100


def test_accepted_mutations_of_the_minus_certificates_are_sound(u_minus, samples_dir):
    """Random certificates for random programs are almost never accepted
    termination claims, so mutate the subtraction samples too: one field
    of the certificate, and half the time one instruction of the program."""
    rng = random.Random(20261019)
    samples = [_load(samples_dir, "minus-div.cert"), _load(samples_dir, "minus-term.cert")]
    mutations = {
        "param_constraints": lambda cert: ConstraintSet.of(*_random_atoms(rng, (None, "m", "n", "z"))),
        "init": lambda cert: {**cert.init, rng.randint(1, 3): Const(rng.randint(0, 2))},
        "loop_head": lambda cert: rng.randint(1, 5),
        "invariant": lambda cert: _random_atoms(rng, (None, "r1", "r2", "r3")),
        "step_bound": lambda cert: rng.randint(1, 8),
        "split": lambda cert: (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)),
        "ranking": lambda cert: (rng.randint(1, 3), rng.randint(1, 3)),
    }
    params = {"m": range(6), "n": range(6), "z": range(2)}
    accepted = {DivergenceCert: 0, TerminationCert: 0}
    for _ in range(800):
        instructions = list(u_minus.instructions)
        if rng.random() < 0.5:
            instructions[rng.randrange(5)] = random_program(rng, 5, 3).at(1)
        cert = rng.choice(samples)
        field = rng.choice([f for f in mutations if hasattr(cert, f)])
        cert = dataclasses.replace(cert, **{field: mutations[field](cert)})
        accepted[type(cert)] += _accepted_claim_holds(Program(tuple(instructions)), cert, params)
    assert min(accepted.values()) > 40
