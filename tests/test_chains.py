"""Inequality/equality chain evaluation and verdict logic."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_jsr import (ROW_SUM, ChainLink, GeneratorParams, RadiusBracket,
                          THEOREM_IDS, WeightVector, assess,
                          chain_equalities_joint, chain_finally,
                          chain_finally2, chain_folge, chain_geom_sym,
                          chain_huang, chain_kathyprop_eq,
                          chain_kathyprop_mat, chain_kathyth1, chain_kathyth2,
                          chain_powers, chain_refin, chain_sym_mono,
                          chain_zhan, generate_instance, matrix_set,
                          run_theorem, scalar_mitr_check, uniform_weights)
from hadamard_jsr import chains, matrices, sets
from hadamard_jsr.oracle import oracle_spectral_radius


def seeded_sets(seed, dim=3, count=2, size=2, density=0.9):
    return generate_instance(
        GeneratorParams(dim, count, size, density, 1.0, seed))


def link(lo, hi, rel):
    return ChainLink("x", RadiusBracket(lo, hi, 1, ROW_SUM), rel)


# --- verdict logic ----------------------------------------------------------

def test_assess_verified_and_margins():
    links = [link(1.0, 1.1, "<="), link(1.2, 1.3, "end")]
    verdict, margins = assess(links)
    assert verdict == "verified"
    assert margins == (pytest.approx(0.3),)


def test_assess_violated_on_crossing():
    links = [link(2.0, 2.1, "<="), link(1.0, 1.1, "end")]
    verdict, _ = assess(links)
    assert verdict == "violated"


def test_assess_transitive_within_segment():
    # first lower beats third upper even though neighbours overlap
    links = [link(1.0, 3.0, "<="), link(0.5, 3.5, "<="),
             link(0.2, 0.9, "end")]
    assert assess(links)[0] == "violated"


def test_assess_segments_are_independent():
    links = [link(2.0, 2.1, "end"), link(1.0, 1.1, "end")]
    assert assess(links)[0] == "verified"


def test_assess_equality_overlap_verified():
    links = [link(1.0, 1.2, "="), link(1.1, 1.3, "end")]
    assert assess(links)[0] == "verified"


def test_assess_equality_loose_gap_indeterminate():
    links = [link(1.0, 1.5, "="), link(1.6, 2.4, "end")]
    assert assess(links)[0] == "indeterminate"


def test_assess_equality_tight_gap_violated():
    links = [link(1.0, 1.0001, "="), link(1.5, 1.5001, "end")]
    assert assess(links)[0] == "violated"


def brute_assess(links, tol=1e-9):
    """The verdict rule restated pair by pair: every ordered pair of a
    segment for ``<=``, and overlap or gap for each ``=`` link."""
    cuts = [i + 1 for i, l in enumerate(links) if l.relation_to_next == "end"]
    segments = [links[a:b] for a, b in zip([0] + cuts, cuts + [len(links)])]
    margins, violated, indeterminate = [], False, False
    for seg in segments:
        for i in range(len(seg) - 1):
            a, b = seg[i].bracket, seg[i + 1].bracket
            if seg[i].relation_to_next == "<=":
                margins.append(min(l.bracket.hi for l in seg[i + 1:]) - a.lo)
            else:
                margins.append(min(a.hi, b.hi) - max(a.lo, b.lo))
            for later in seg[i + 1:]:
                violated |= a.lo > later.bracket.hi + tol
            gap = max(a.lo - b.hi, b.lo - a.hi)
            if seg[i].relation_to_next == "=" and gap > tol:
                if a.width >= gap or b.width >= gap:
                    indeterminate = True
                else:
                    violated = True
    verdict = ("violated" if violated else
               "indeterminate" if indeterminate else "verified")
    return verdict, tuple(margins)


# endpoints collide often, and some sit just inside or outside the tolerance
_ends = st.one_of(st.sampled_from([0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 2.0]),
                  st.floats(0.0, 3.0))
_links = st.lists(
    st.tuples(_ends, _ends, st.sampled_from(["<=", "=", "end"])).map(
        lambda t: link(min(t[0], t[1]), max(t[0], t[1]), t[2])),
    max_size=8)


@settings(max_examples=400, deadline=None)
@given(_links)
def test_assess_matches_pairwise_rule(links):
    assert assess(links) == brute_assess(links)


# --- single-matrix chains ---------------------------------------------------

def test_chain_zhan_seeded_pair():
    rng = np.random.default_rng(100)
    a, b = rng.random((4, 4)), rng.random((4, 4))
    rep = chain_zhan(a, b, 0.3)
    assert rep.verdict == "verified"
    assert all(m >= -1e-9 for m in rep.margins)


def test_chain_zhan_identity_degenerate():
    rep = chain_zhan(np.eye(3), np.eye(3), 0.5)
    assert rep.verdict == "verified"


def test_chain_zhan_rejects_bad_beta():
    with pytest.raises(ValueError):
        chain_zhan(np.eye(2), np.eye(2), 1.5)


def test_chain_huang_seeded_triple():
    rng = np.random.default_rng(7)
    rep = chain_huang([rng.random((3, 3)) for _ in range(3)])
    assert rep.verdict == "verified"
    assert all(m >= -1e-9 for m in rep.margins)


def test_chain_huang_middle_link_strict_generic():
    # the cyclic-mean link sits strictly between the ends generically
    rng = np.random.default_rng(13)
    rep = chain_huang([rng.random((3, 3)) for _ in range(2)])
    assert rep.verdict == "verified"
    assert min(rep.margins) > 1e-6


def test_single_matrix_chains_validate_each_matrix_once(monkeypatch):
    calls = []
    real = matrices.check_matrix

    def spy(a):
        calls.append(a)
        return real(a)

    for module in (matrices, chains, sets):
        monkeypatch.setattr(module, "check_matrix", spy)
    rng = np.random.default_rng(3)
    a, b, c = (rng.random((3, 3)) for _ in range(3))
    chain_zhan(a, b, 0.4)
    assert len(calls) == 8  # the two inputs and the six bracketed matrices
    calls.clear()
    chain_huang([a, b, c])
    assert len(calls) == 6  # the three inputs and the three bracketed ones


def test_single_matrix_chains_name_an_overflow():
    big = np.full((2, 2), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^zhan-chain product "
                                             "overflowed to infinity$"):
            chain_zhan(big, big, 0.5)
        # the cyclic product overflows, and inf times the zeros of the
        # identity is NaN
        with pytest.raises(ValueError, match="^zhan-chain product "
                                             "overflowed to infinity$"):
            chain_huang([big, big, np.eye(2)])


# --- set chains -------------------------------------------------------------

def test_chain_powers_seeded():
    sets = seeded_sets(1)
    rep = chain_powers(sets, uniform_weights(2), n=2, depth=8)
    assert rep.verdict == "verified"


def test_chain_refin_overlapping_brackets():
    sets = seeded_sets(2)
    rep = chain_refin(sets[0], sets[1], 0.25, depth=8)
    assert rep.verdict in ("verified", "indeterminate")
    assert rep.verdict == "verified"


def test_chain_folge_powers():
    s = seeded_sets(3, count=1)[0]
    rep = chain_folge(s, t=2.0, n=2, depth=8)
    assert rep.verdict == "verified"
    with pytest.raises(ValueError):
        chain_folge(s, t=0.5, n=2)


def test_chain_kathyprop_eq_never_violated():
    sets = seeded_sets(4)
    rep = chain_kathyprop_eq(sets[0], sets[1], uniform_weights(2), 0.5,
                             depth=8)
    assert rep.verdict != "violated"


def test_chain_kathyprop_eq_rejects_bad_beta():
    sets = seeded_sets(4)
    for beta in (1.5, -0.5):
        with pytest.raises(ValueError, match="beta"):
            chain_kathyprop_eq(sets[0], sets[1], uniform_weights(2), beta,
                               depth=3)


def test_chain_kathyprop_mat_alpha_branches():
    s = seeded_sets(5, count=1)[0]
    rep = chain_kathyprop_mat(s, m=2, alpha=1.5, n=2, depth=8)
    assert rep.verdict == "verified"
    rep1 = chain_kathyprop_mat(s, m=2, alpha=1.0, n=2, depth=8)
    assert rep1.verdict == "verified"
    assert any("alpha = 1" in note for note in rep1.notes)


def test_chain_finally_grid():
    sets = seeded_sets(6)
    rep = chain_finally([sets, sets[::-1]], uniform_weights(2), n=2,
                        depth=6)
    assert rep.verdict == "verified"


def test_chain_finally_singleton_grid_vs_oracle():
    sets = seeded_sets(8, count=2, size=1, density=1.0)
    rep = chain_finally([sets, sets[::-1]], uniform_weights(2), n=2,
                        depth=6)
    assert rep.verdict == "verified"
    # end links on singletons agree with the dense eigensolver
    first_seg = rep.links[:4]
    prod = sets[0].members[0] @ sets[1].members[0]
    o = oracle_spectral_radius(prod)
    end = first_seg[-1].bracket
    assert end.lo - 1e-6 <= o.value ** 0.5 * o.value ** 0.5  # sanity


def test_chain_kathyth1_seeded():
    rep = chain_kathyth1(seeded_sets(9), n=2, depth=6)
    assert rep.verdict == "verified"


def test_chain_kathyth1_singletons_collapse():
    sets = seeded_sets(10, size=1, density=1.0)
    rep = chain_kathyth1(sets, n=2, depth=8)
    assert rep.verdict == "verified"
    # ends of the chain coincide for singletons (equality collapse)
    assert rep.links[1].bracket.lo <= rep.links[-1].bracket.hi + 1e-9


def test_chain_equalities_joint_all_equal():
    sets = seeded_sets(11, density=1.0)
    rep = chain_equalities_joint(sets, uniform_weights(2), 0.5, depth=8)
    assert rep.verdict != "violated"


def test_chain_kathyth2_alpha_values():
    sets = seeded_sets(12)
    for alpha in (0.5, 1.0, 2.0):
        rep = chain_kathyth2(sets, alpha, n=2, depth=6)
        assert rep.verdict == "verified", alpha
        if alpha < 1.0:
            assert any("skipped" in n for n in rep.notes)
    with pytest.raises(ValueError):
        chain_kathyth2(sets, 0.2, n=2)


def test_chain_finally2_sums():
    sets = seeded_sets(13)
    rep = chain_finally2([sets, sets[::-1]], uniform_weights(2), n=2,
                         depth=6)
    assert rep.verdict == "verified"


def test_chain_geom_sym_kernel_and_matrix_modes():
    sets = seeded_sets(14)
    rep = chain_geom_sym(sets, 0.5, n=2, depth=6)
    assert rep.verdict == "verified"
    rep2 = chain_geom_sym(sets, 0.0, n=2, depth=6, ab=(1.0, 1.0))
    assert rep2.verdict == "verified"
    assert rep2.theorem_id == "geom-sym-mat"


def test_chain_sym_mono_kernel_and_matrix():
    s = seeded_sets(15, count=1)[0]
    rep = chain_sym_mono(s, 0.3, 3, depth=6)
    assert rep.verdict == "verified"
    rep2 = chain_sym_mono(s, 0.0, 3, depth=6, ab=(0.7, 0.5))
    assert rep2.verdict == "verified"
    assert rep2.theorem_id == "sym-mat"


def test_run_theorem_covers_registry():
    sets = seeded_sets(16)
    for tid in THEOREM_IDS:
        rep = run_theorem(tid, sets, depth=4, budget=4000)
        assert rep.verdict != "violated", tid
        assert rep.theorem_id == tid
        assert rep.context  # reproducibility metadata present


def test_run_theorem_unknown_id():
    with pytest.raises(KeyError):
        run_theorem("nope", seeded_sets(0))


def test_report_to_dict_round_trips_fields():
    rep = run_theorem("powers", seeded_sets(17), depth=4, budget=4000)
    d = rep.to_dict()
    assert d["theorem_id"] == "powers"
    assert len(d["links"]) == len(rep.links)
    assert {"lo", "hi", "depth", "norm"} <= set(d["links"][0]["bracket"])


# --- scalar inequality ------------------------------------------------------

def test_scalar_mitr_seeded_grid():
    rng = np.random.default_rng(18)
    grid = rng.random((3, 2, 5))
    assert scalar_mitr_check(grid, [0.5, 0.5])
    assert scalar_mitr_check(grid, [1.0, 1.5])


def test_scalar_mitr_rejects_deficient_exponents():
    with pytest.raises(ValueError):
        scalar_mitr_check(np.ones((2, 2, 3)), [0.3, 0.3])
