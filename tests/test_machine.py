"""Instruction, program, and configuration basics."""

from __future__ import annotations

import random

import pytest

from urm import (
    Config,
    FiniteConfig,
    Jump,
    Program,
    Succ,
    Transfer,
    Zero,
    compatible,
    include,
    is_standard_form,
    mv,
    restrict,
    rho,
    sc,
    zr,
)


def test_register_indices_start_at_one():
    with pytest.raises(ValueError):
        Zero(0)
    with pytest.raises(ValueError):
        Succ(-1)
    with pytest.raises(ValueError):
        Transfer(0, 1)
    with pytest.raises(ValueError):
        Jump(1, 0, 0)


def test_jump_target_zero_is_allowed_but_not_negative():
    assert Jump(1, 2, 0).k == 0
    with pytest.raises(ValueError):
        Jump(1, 2, -1)


def test_booleans_are_not_register_indices():
    with pytest.raises(ValueError):
        Zero(True)


def test_program_is_non_empty_and_one_indexed(u_minus):
    with pytest.raises(ValueError):
        Program(())
    assert len(u_minus) == 5
    assert u_minus.at(1) == Jump(1, 2, 5)
    assert u_minus.at(5) == Transfer(3, 1)
    assert list(u_minus)[1] == Succ(2)
    with pytest.raises(IndexError):
        u_minus.at(0)
    with pytest.raises(IndexError):
        u_minus.at(6)


def test_rho_is_the_largest_register_operand(u_minus, prog_b, prog_v):
    assert rho(u_minus) == 3
    assert rho(prog_b) == 2
    assert rho(prog_v) == 3
    # jump targets are positions, not registers
    assert rho(Program((Jump(1, 2, 0),))) == 2
    assert rho(Program((Zero(1), Jump(2, 3, 0)))) == 3


def test_registers_are_the_operands_in_first_mention_order(u_minus):
    assert u_minus.registers == (1, 2, 3)
    p = Program((Jump(3, 1, 0), Transfer(7, 3), Succ(2), Zero(7), Jump(9, 9, 1)))
    assert p.registers == (3, 1, 7, 2, 9)
    assert rho(p) == max(p.registers) == 9


def test_standard_form_bounds_jump_targets(u_minus, prog_b, prog_v, prog_loop):
    for p in (u_minus, prog_b, prog_v, prog_loop):
        assert is_standard_form(p)
    assert not is_standard_form(Program((Jump(1, 1, 9),)))
    assert is_standard_form(Program((Jump(1, 1, 0),)))


def test_cached_program_facts_leave_equality_and_hashing_alone(u_minus):
    fresh = Program(u_minus.instructions)
    assert (u_minus.registers, rho(u_minus), is_standard_form(u_minus)) == ((1, 2, 3), 3, True)
    assert u_minus == fresh
    assert hash(u_minus) == hash(fresh)
    assert len({u_minus, fresh}) == 1


def test_config_is_canonical_sparse():
    c = Config({1: 5, 2: 0, 3: 7})
    assert dict(c.items()) == {1: 5, 3: 7}
    assert c.get(2) == 0
    assert c.get(99) == 0
    assert c == Config({3: 7, 1: 5})
    assert Config({1: 0}) == Config()
    assert hash(Config({1: 0})) == hash(Config())


def test_config_rejects_bad_entries():
    with pytest.raises(ValueError):
        Config({0: 1})
    with pytest.raises(ValueError) as excinfo:
        Config({1: -1})
    assert str(excinfo.value) == "value of register 1 must be a natural number, got -1"


def test_zr_sc_mv_update_single_registers():
    c = Config({1: 2, 2: 3})
    assert zr(c, 1) == Config({2: 3})
    assert sc(c, 3) == Config({1: 2, 2: 3, 3: 1})
    assert mv(c, 2, 1) == Config({1: 3, 2: 3})
    # transferring a zero clears the target
    assert mv(c, 3, 2) == Config({1: 2})
    assert c == Config({1: 2, 2: 3})


def test_updates_agree_with_a_dict_model():
    rng = random.Random(7)
    for _ in range(200):
        model: dict[int, int] = {}
        c = Config()
        for _ in range(30):
            op = rng.randrange(3)
            i = rng.randint(1, 4)
            j = rng.randint(1, 4)
            if op == 0:
                model.pop(i, None)
                c = zr(c, i)
            elif op == 1:
                model[i] = model.get(i, 0) + 1
                c = sc(c, i)
            else:
                value = model.get(i, 0)
                if value:
                    model[j] = value
                else:
                    model.pop(j, None)
                c = mv(c, i, j)
            assert dict(c.items()) == model
            assert all(v > 0 for _, v in c.items())


def test_finite_config_shape():
    sigma = FiniteConfig((5, 3, 0))
    assert sigma.values == (5, 3, 0)
    assert sigma.at(1) == 5
    assert sigma.at(3) == 0
    with pytest.raises(ValueError):
        FiniteConfig(())
    with pytest.raises(ValueError) as excinfo:
        FiniteConfig((1, -1))
    assert str(excinfo.value) == "value at position 2 must be a natural number, got -1"


def test_include_pads_with_zeros():
    assert include(FiniteConfig((0, 1))) == Config({2: 1})
    assert include(FiniteConfig((0, 0))) == Config()


def test_restrict_keeps_the_first_rho_registers(u_minus):
    c = Config({1: 2, 2: 5, 3: 2, 9: 4})
    assert restrict(c, u_minus) == FiniteConfig((2, 5, 2))
    assert restrict(Config(), u_minus) == FiniteConfig((0, 0, 0))


def test_restrict_then_include_round_trip(u_minus):
    sigma = FiniteConfig((5, 3, 0))
    assert restrict(include(sigma), u_minus) == sigma


def test_compatibility_requires_length_and_standard_form(prog_b):
    assert not compatible(FiniteConfig((0,)), prog_b)
    assert compatible(FiniteConfig((0, 1)), prog_b)
    assert compatible(FiniteConfig((0, 1, 5)), prog_b)
    assert not compatible(FiniteConfig((0, 1)), Program((Jump(1, 1, 9),)))
