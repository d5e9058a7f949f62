"""The bracket tolerance and the member cap are fixed constants of the
certification, not per-call options: no chain, symmetrization sequence or
set builder takes them, and every chain report still records the values it
used."""

import inspect

import pytest

import hadamard_jsr as hj
from hadamard_jsr import (THEOREM_IDS, GeneratorParams, generate_instance,
                          run_theorem)

FIXED = [
    hj.chain_zhan, hj.chain_huang,
    hj.chain_powers, hj.chain_refin, hj.chain_folge, hj.chain_kathyprop_eq,
    hj.chain_kathyprop_mat, hj.chain_finally, hj.chain_finally2,
    hj.chain_kathyth1, hj.chain_equalities_joint, hj.chain_kathyth2,
    hj.chain_geom_sym, hj.chain_sym_mono,
    hj.run_theorem, hj.assess,
    hj.symmetrization_sequence, hj.symmetrization_sequence_ab,
    hj.set_product, hj.set_power, hj.set_sum, hj.set_hadamard_mean,
    hj.cyclic_factor, hj.symmetrize_ab, hj.symmetrize,
]


@pytest.mark.parametrize("fn", FIXED, ids=lambda fn: fn.__name__)
def test_no_tol_or_cap_parameter(fn):
    assert not {"tol", "cap"} & set(inspect.signature(fn).parameters)


@pytest.fixture(scope="module")
def instance():
    return generate_instance(GeneratorParams(3, 2, 2, 1.0, 1.0, 11))


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_context_records_fixed_tol_and_cap(instance, tid):
    ctx = run_theorem(tid, instance, depth=2).context
    assert ctx["tol"] == 1e-9
    if tid != "zhan-chain":
        assert ctx["member_cap"] == 200_000
