"""Set algebra: products, powers, Hadamard means, symmetrizations, and
canonical forms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_jsr import (CONVEX, SUPER, CapExceeded, DimensionMismatch,
                          MatrixSet, RegimeError, WeightVector, canonicalize,
                          cyclic_factor, dedupe, matrix_set, set_adjoint,
                          set_hadamard_mean, set_hadamard_power, set_power,
                          set_product, set_sum, sets_equal, symmetrize,
                          symmetrize_ab, uniform_weights)


def two_sets():
    a = matrix_set([np.array([[1.0, 2.0], [0.5, 1.0]]),
                    np.array([[0.0, 1.0], [1.0, 1.0]])], name="psi")
    b = matrix_set([np.array([[2.0, 0.0], [1.0, 3.0]])], name="sigma")
    return a, b


def test_weight_vector_regimes():
    assert WeightVector((0.5, 0.5)).regime == CONVEX
    assert WeightVector((1.0, 1.0), SUPER).regime == SUPER
    with pytest.raises(RegimeError):
        WeightVector((0.2, 0.2))  # sums below 1
    with pytest.raises(ValueError):
        WeightVector((0.5, -0.1), SUPER)


@pytest.mark.parametrize("bad", [(), (0.0,), (0.5, 0.0), (1.0, -0.5),
                                 (float("nan"), 1.0), (1.0, float("inf")),
                                 (-float("inf"),), [0.1] * 9 + [0.0]])
def test_weight_vector_rejects_nonpositive_or_nonfinite(bad):
    for regime in (CONVEX, SUPER):
        with pytest.raises(ValueError,
                           match="^weights must be positive finite reals$"):
            WeightVector(bad, regime)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 16, 33])
def test_weight_vector_sums_in_numpy_order(m):
    rng = np.random.default_rng(m)
    for _ in range(200):
        w = rng.random(m) * 10.0 ** rng.integers(-3, 3, m)
        w *= 0.9 / w.sum()
        # the message prints the sum, so it shows the order of the adds:
        # numpy's adds eight or more terms pairwise
        with pytest.raises(RegimeError, match="^" + re.escape(
                f"super regime requires sum >= 1, got {w.sum()}") + "$"):
            WeightVector(w, SUPER)
        stored = WeightVector(w / w.sum()).weights
        assert type(stored) is tuple
        assert all(type(x) is float for x in stored)
        assert stored == tuple((w / w.sum()).tolist())


def test_uniform_weights():
    w = uniform_weights(4)
    assert w.regime == CONVEX
    assert np.allclose(w.weights, 0.25)


def test_matrix_set_validation():
    with pytest.raises(ValueError):
        matrix_set([np.array([[-1.0]])])
    with pytest.raises(DimensionMismatch):
        matrix_set([np.ones((2, 2)), np.ones((3, 3))])


@pytest.mark.parametrize("members", [
    np.array([[[2 + 5j]], [[3.0]]]),
    [[[2 + 5j]], [[3.0]]],
])
def test_matrix_set_rejects_complex_members(members):
    # the float cast would keep only the real parts, or raise TypeError
    with pytest.raises(ValueError, match="^matrix entries must be real$"):
        MatrixSet(members)
    with pytest.raises(ValueError, match="^matrix entries must be real$"):
        matrix_set(members)


def test_built_sets_are_not_rescanned(monkeypatch):
    a, b = two_sets()
    scans = []
    scan = MatrixSet.__post_init__

    def spy(self):
        scans.append(len(self.members))
        scan(self)

    monkeypatch.setattr(MatrixSet, "__post_init__", spy)
    built = [set_product(a, b), set_sum(a, b), set_hadamard_power(a, 0.5),
             set_hadamard_mean([a, b], uniform_weights(2)), set_adjoint(a),
             canonicalize(a), dedupe(matrix_set([np.eye(2)] * 3)),
             dedupe(a, tol=0.5)]
    assert scans == [3]  # matrix_set's own check only
    for s in built:
        assert s.members.flags.c_contiguous
        assert not s.members.flags.writeable
    # input from outside is still checked
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError):
            MatrixSet(np.array([[[1.0, bad], [0.0, 1.0]]]))
        with pytest.raises(ValueError):
            matrix_set([np.array([[1.0, bad], [0.0, 1.0]])])


def test_dedupe_returns_a_one_member_set_as_it_is():
    psi = MatrixSet(np.array([[[-0.0, 1.0], [2.0, 3.0]]]), name="psi")
    assert dedupe(psi) is psi
    assert psi.name == "psi"
    assert np.signbit(psi.members[0, 0, 0])


def test_set_product_members():
    a, b = two_sets()
    p = set_product(a, b)
    assert len(p) == 2
    assert np.allclose(p.members[0], a.members[0] @ b.members[0])


def test_set_power_counts():
    a, _ = two_sets()
    assert len(set_power(a, 3)) == 8


def test_set_power_singleton_is_matrix_power():
    _, b = two_sets()
    p = set_power(b, 3)
    want = np.linalg.matrix_power(b.members[0], 3)
    assert len(p) == 1 and np.allclose(p.members[0], want)


def test_set_sum_members():
    a, b = two_sets()
    s = set_sum(a, b)
    assert len(s) == 2
    assert np.allclose(s.members[1], a.members[1] + b.members[0])


def test_hadamard_mean_convex_pair():
    a, b = two_sets()
    m = set_hadamard_mean([a, b], WeightVector((0.5, 0.5)))
    assert len(m) == 2
    want = a.members[0] ** 0.5 * b.members[0] ** 0.5
    assert np.allclose(m.members[0], want)


def test_hadamard_mean_weight_count_mismatch():
    a, b = two_sets()
    with pytest.raises(DimensionMismatch):
        set_hadamard_mean([a, b], uniform_weights(3))


def test_sum_and_mean_name_an_overflow():
    big = matrix_set([np.array([[1e308, 0.0], [0.0, 1.0]])])
    with np.errstate(all="raise"):  # no numpy warning escapes either
        with pytest.raises(ValueError, match="set sum overflowed"):
            set_sum(big, big)
        with pytest.raises(ValueError, match="set product overflowed"):
            set_product(big, big)
        with pytest.raises(ValueError, match="Hadamard power overflowed"):
            set_hadamard_power(big, 2.0)
        with pytest.raises(ValueError, match="Hadamard mean overflowed"):
            set_hadamard_mean([big, big], WeightVector((1.0, 1.0), SUPER))
        # an overflowed power times a zero entry is NaN, not infinity
        zero = matrix_set([np.array([[0.0, 1.0], [1.0, 1.0]])])
        with pytest.raises(ValueError, match="Hadamard mean overflowed"):
            set_hadamard_mean([big, zero], WeightVector((2.0, 1.0), SUPER))


def test_adjoint_is_involution():
    a, _ = two_sets()
    assert sets_equal(set_adjoint(set_adjoint(a)), a)


def test_cyclic_factor_shares_radius_with_full_product():
    # all cyclic rotations of a product have the same spectral radius
    from hadamard_jsr import spectral_radius_bracket
    rng = np.random.default_rng(3)
    sets = [matrix_set([rng.random((3, 3))]) for _ in range(3)]
    radii = []
    for j in (1, 2, 3):
        phi = cyclic_factor(sets, j)
        radii.append(spectral_radius_bracket(phi.members[0]).hi)
    assert max(radii) - min(radii) <= 1e-8 * max(radii)


def test_cyclic_factor_bad_index():
    a, b = two_sets()
    with pytest.raises(ValueError):
        cyclic_factor([a, b], 0)
    with pytest.raises(ValueError):
        cyclic_factor([a, b], 3)


def test_symmetrize_endpoints():
    a, _ = two_sets()
    assert sets_equal(symmetrize(a, 1.0), a)
    assert sets_equal(symmetrize(a, 0.0), set_adjoint(a))


def test_symmetrize_half_is_symmetric_for_singletons():
    _, b = two_sets()
    s = symmetrize(b, 0.5)
    m = s.members[0]
    assert np.allclose(m, m.T)


def test_symmetrize_ab_regime_guard():
    a, _ = two_sets()
    with pytest.raises(RegimeError):
        symmetrize_ab(a, 0.3, 0.3)


def test_symmetrize_ab_super_regime_entries():
    _, b = two_sets()
    s = symmetrize_ab(b, 1.0, 1.0)
    m = b.members[0]
    assert np.allclose(s.members[0], m * m.T)


def test_canonicalize_sorts_and_dedupe_removes():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = matrix_set([y, x, y])
    d = dedupe(s)
    assert len(d) == 2
    assert sets_equal(canonicalize(matrix_set([x, y])), d)


def test_dedupe_with_tolerance():
    x = np.eye(2)
    s = matrix_set([x, x + 1e-12])
    assert len(dedupe(s, tol=1e-9)) == 1
    assert len(dedupe(s)) == 2


def _dedupe_by_unique(psi, tol):
    # the reference: np.unique's rows, then the greedy tolerance pass
    rows = np.unique(psi.members.reshape(len(psi), -1), axis=0)
    kept = []
    for row in rows:
        if not any(np.max(np.abs(row - k)) <= tol for k in kept):
            kept.append(row)
    return np.stack(kept).reshape(-1, psi.dim, psi.dim)


@st.composite
def stacks_with_repeats(draw):
    # few distinct entries, so rows repeat; zero rows and signed zeros too
    n = draw(st.integers(1, 3))
    pool = st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, 1.0 + 1e-12, 3.0])
    rows = draw(st.lists(st.lists(pool, min_size=n * n, max_size=n * n),
                         min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                          max_size=12))
    return MatrixSet(np.array([rows[i] for i in picks]).reshape(-1, n, n))


@settings(max_examples=300, deadline=None)
@given(stacks_with_repeats(), st.sampled_from([0.0, 1e-12, 0.6]))
def test_dedupe_matches_unique(psi, tol):
    got = dedupe(psi, tol)
    ref = _dedupe_by_unique(psi, tol)
    # compared by value: which signed zero a run keeps is not fixed
    assert got.members.shape == ref.shape
    assert np.array_equal(got.members, ref)


def test_cap_enforced():
    a = matrix_set([np.eye(2)] * 20)
    with pytest.raises(CapExceeded):
        set_power(a, 5)


def test_sets_equal_ignores_order_and_duplicates():
    x, y = np.eye(2), np.ones((2, 2))
    assert sets_equal(matrix_set([x, y, x]), matrix_set([y, x]))
    assert not sets_equal(matrix_set([x]), matrix_set([y]))
