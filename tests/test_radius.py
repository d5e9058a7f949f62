"""Radius estimation: certified brackets for joint/generalized spectral
radii of finite matrix sets."""

import numpy as np
import pytest

from hadamard_jsr import (COL_SUM, ROW_SUM, SPECTRAL, CapExceeded,
                          GeneratorParams, gelfand_sequence, gen_radius_lower,
                          generate_instance, joint_radius_upper, matrix_set,
                          radius_bracket_set, symmetrization_sequence,
                          symmetrization_sequence_ab)
from hadamard_jsr.oracle import oracle_gen_radius, oracle_spectral_radius

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def golden_pair():
    return matrix_set([np.array([[1.0, 1.0], [0.0, 1.0]]),
                       np.array([[1.0, 0.0], [1.0, 1.0]])])


def test_golden_pair_lower_bound():
    # [PAPER-adjacent closed form] rho of the pair {upper, lower} bidiagonal
    # ones-matrices equals the golden ratio, attained by the length-2 word.
    s = golden_pair()
    for depth in (2, 3, 4):
        lo, witness = gen_radius_lower(s, depth)
        assert abs(lo - GOLDEN) <= 1e-6
        assert "set[0]" in witness and "set[1]" in witness


def test_golden_pair_bracket_depth_12():
    b = radius_bracket_set(golden_pair(), 12, ROW_SUM)
    assert b.lo <= GOLDEN + 1e-9 <= b.hi + 2e-9
    assert b.hi >= 1.6180339887 >= b.lo - 1e-9
    assert b.width <= 0.2


def test_singleton_bracket_collapses():
    a = np.array([[0.2, 0.7, 0.0], [0.3, 0.1, 0.5], [0.9, 0.0, 0.4]])
    b = radius_bracket_set(matrix_set([a]), 4)
    o = oracle_spectral_radius(a)
    assert b.lo <= o.value <= b.hi
    assert b.width <= 2e-9


def test_upper_bound_monotone_choices():
    # the envelope over depths can only improve
    s = golden_pair()
    u4 = joint_radius_upper(s, 4)
    u8 = joint_radius_upper(s, 8)
    assert u8 <= u4 + 1e-12


def test_upper_bound_norm_choices_all_valid():
    s = golden_pair()
    lo, _ = gen_radius_lower(s, 6)
    for kind in (ROW_SUM, COL_SUM, SPECTRAL):
        assert lo <= joint_radius_upper(s, 6, kind) + 1e-9


def test_gelfand_sequence_envelopes():
    seq = gelfand_sequence(golden_pair(), 8)
    lo_env = seq.lower_envelope()
    hi_env = seq.upper_envelope()
    assert len(lo_env) == len(hi_env) == 8
    assert all(x <= y + 1e-9 for x, y in zip(lo_env, hi_env))
    assert lo_env == sorted(lo_env)
    assert hi_env == sorted(hi_env, reverse=True)


def test_bracket_contains_exhaustive_oracle():
    rng_sets = generate_instance(GeneratorParams(3, 1, 2, 0.9, 1.0, seed=17))
    s = rng_sets[0]
    b = radius_bracket_set(s, 6)
    o = oracle_gen_radius(s, 6)
    # the exhaustive finite-depth value is a lower bound on the sup
    assert o.value <= b.hi + 1e-8 * max(1.0, o.value)
    assert b.lo <= o.value + 1e-8 * max(1.0, o.value)


def test_seeded_5x5_bracket_contains_eigenvalue():
    s = generate_instance(GeneratorParams(5, 1, 1, 1.0, 1.0, seed=123))[0]
    b = radius_bracket_set(s, 3)
    o = oracle_spectral_radius(s.members[0])
    assert b.lo - 1e-8 <= o.value <= b.hi + 1e-8


def test_scale_equivariance():
    s = golden_pair()
    scaled = matrix_set([3.0 * m for m in s])
    lo, _ = gen_radius_lower(s, 5)
    lo3, _ = gen_radius_lower(scaled, 5)
    assert abs(lo3 - 3.0 * lo) <= 1e-7 * max(1.0, lo3)


def test_zero_set():
    s = matrix_set([np.zeros((2, 2))])
    lo, _ = gen_radius_lower(s, 3)
    assert lo == 0.0
    b = radius_bracket_set(s, 3)
    assert b.hi <= 1e-12


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        gen_radius_lower(golden_pair(), 0)


@pytest.mark.parametrize("query", [
    lambda s: gen_radius_lower(s, 0),
    lambda s: joint_radius_upper(s, 0),
    lambda s: radius_bracket_set(s, 0),
    lambda s: gelfand_sequence(s, 0),
    lambda s: symmetrization_sequence(s, 0.5, 1, 0),
    lambda s: symmetrization_sequence_ab(s, 0.7, 0.6, 1, 0),
], ids=["gen_radius_lower", "joint_radius_upper", "radius_bracket_set",
        "gelfand_sequence", "symmetrization_sequence",
        "symmetrization_sequence_ab"])
@pytest.mark.parametrize("members", [1, 2])
def test_depth_must_be_positive_every_query(query, members):
    s = matrix_set(list(golden_pair())[:members])
    with pytest.raises(ValueError):
        query(s)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_word_count_rule(k, d):
    # the scan enumerates sum_{m<=d} k**m words for k distinct members
    rng = np.random.default_rng(100 * k + d)
    s = matrix_set([rng.random((2, 2)) + 0.1 for _ in range(k)])
    words = sum(k ** m for m in range(1, d + 1))
    assert len(gelfand_sequence(s, 10, word_budget=words).entries) == d
    assert len(gelfand_sequence(s, 10, word_budget=words - 1).entries) \
        == max(d - 1, 1)
    with pytest.raises(CapExceeded):
        gen_radius_lower(s, d, cap=words - 1)
    gen_radius_lower(s, d, cap=words)


# --- symmetrization sequences -----------------------------------------------

def test_symmetrization_levels_monotone_and_bounded():
    s = generate_instance(GeneratorParams(3, 1, 2, 0.8, 1.0, seed=9))[0]
    for alpha in (0.0, 0.3, 0.5, 1.0):
        seq = symmetrization_sequence(s, alpha, 3, depth=6)
        los = [b.lo for _, b in seq.levels]
        assert all(x <= y + 1e-9 for x, y in zip(los, los[1:]))
        r_psi = radius_bracket_set(s, 6)
        assert los[-1] <= r_psi.hi + 1e-9


def test_symmetrization_ab_super_regime():
    s = generate_instance(GeneratorParams(2, 1, 2, 1.0, 1.0, seed=4))[0]
    for a, b in ((1.0, 1.0), (0.7, 0.5)):
        seq = symmetrization_sequence_ab(s, a, b, 3, depth=6)
        los = [x.lo for _, x in seq.levels]
        assert all(u <= v + 1e-9 for u, v in zip(los, los[1:]))
        bound = radius_bracket_set(s, 6).powered(a + b)
        assert los[-1] <= bound.hi + 1e-9


def test_symmetrization_square_relation():
    # lower(S_a(psi))^2 <= upper(S_a(psi^2)) for the first two levels
    s = generate_instance(GeneratorParams(3, 1, 2, 1.0, 1.0, seed=21))[0]
    seq = symmetrization_sequence(s, 0.5, 1, depth=6)
    (n0, b0), (n1, b1) = seq.levels
    assert (n0, n1) == (0, 1)
    # levels are reported as 2^-n-th roots; undo to compare raw radii
    assert b0.lo ** 2 <= b1.hi ** 2 + 1e-9
