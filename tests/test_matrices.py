"""Matrix-core: validation, Hadamard algebra, and certified radius
brackets."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hadamard_jsr import (COL_SUM, ROW_SUM, SPECTRAL, ConvergenceError,
                          DimensionMismatch, RadiusBracket, check_matrix,
                          hadamard_power, hadamard_product, induced_norm,
                          matrix_product, spectral_radius_bracket, transpose,
                          weighted_hadamard_geometric_mean)
from hadamard_jsr import matrices
from hadamard_jsr.oracle import oracle_spectral_radius


def nonneg_matrices(n_max=5, scale=3.0):
    # entries are zero or moderately scaled: double precision cannot
    # represent Perron vectors of matrices whose entries span hundreds of
    # orders of magnitude, and the LAPACK reference solver degrades there
    # too (its residual guard would trip)
    side = st.integers(1, n_max)
    elems = st.one_of(st.just(0.0), st.floats(1e-3, scale))
    return side.flatmap(lambda n: arrays(np.float64, (n, n),
                                         elements=elems))


def test_check_matrix_rejects_negative():
    with pytest.raises(ValueError):
        check_matrix(np.array([[1.0, -0.5], [0.0, 1.0]]))


def test_check_matrix_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        check_matrix(np.ones((2, 3)))


def test_check_matrix_rejects_nan_inf():
    with pytest.raises(ValueError):
        check_matrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        check_matrix(np.array([[np.inf]]))


@pytest.mark.parametrize("a, kind, message", [
    ([[np.nan]], ValueError, "matrix entries must be finite (no NaN/inf)"),
    ([[1.0, np.inf], [0.0, 1.0]], ValueError,
     "matrix entries must be finite (no NaN/inf)"),
    ([[-np.inf]], ValueError, "matrix entries must be finite (no NaN/inf)"),
    ([[1.0, -0.5], [0.0, 1.0]], ValueError,
     "matrix entries must be nonnegative"),
    (np.ones((2, 3)), DimensionMismatch,
     "expected a nonempty square matrix, got shape (2, 3)"),
    (np.ones((0, 0)), DimensionMismatch,
     "expected a nonempty square matrix, got shape (0, 0)"),
    (np.ones(3), DimensionMismatch,
     "expected a nonempty square matrix, got shape (3,)"),
    # the float cast would drop the imaginary parts, or fail with TypeError
    (np.array([[0, 1j], [1j, 0]]), ValueError, "matrix entries must be real"),
    ([[0, 1j], [1j, 0]], ValueError, "matrix entries must be real"),
])
def test_check_matrix_errors_keep_their_types_and_messages(a, kind, message):
    with pytest.raises(ValueError) as exc:
        check_matrix(a)
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_hadamard_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hadamard_product(np.ones((2, 2)), np.ones((3, 3)))


def test_hadamard_power_rejects_nonpositive_exponent():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="t > 0"):
            hadamard_power(np.ones((2, 2)), t)


def test_hadamard_power_values_and_overflow():
    a = np.array([[4.0, 0.0], [9.0, 1.0]])
    assert np.array_equal(hadamard_power(a, 0.5), [[2.0, 0.0], [3.0, 1.0]])
    assert np.array_equal(hadamard_power(a, 2.0), a * a)
    with np.errstate(all="raise"), \
            pytest.raises(ValueError, match="Hadamard power overflowed"):
        hadamard_power(np.array([[1e200]]), 2.0)


def test_matrix_product_values_and_validation():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(matrix_product(a, swap), [[2.0, 1.0], [4.0, 3.0]])
    assert np.array_equal(matrix_product(swap, a), [[3.0, 4.0], [1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        matrix_product(a, np.ones((3, 3)))
    with pytest.raises(ValueError):
        matrix_product(a, -swap)


def test_transpose_values_and_validation():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = transpose(a)
    assert np.array_equal(t, [[1.0, 3.0], [2.0, 4.0]])
    t[0, 0] = 9.0  # a copy, not a view of the input
    assert a[0, 0] == 1.0
    with pytest.raises(DimensionMismatch):
        transpose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        transpose(-a)


def test_weighted_mean_is_entrywise_product_of_powers():
    a = np.array([[1.0, 4.0], [9.0, 16.0]])
    b = np.array([[4.0, 1.0], [1.0, 4.0]])
    m = weighted_hadamard_geometric_mean([a, b], [0.5, 0.5])
    assert np.allclose(m, np.sqrt(a * b))


# --- spectral radius bracket ------------------------------------------------

def test_radius_rank_one():
    # [TRIVIAL] rho(xy^T) = y^T x
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([0.5, 1.0, 1.5])
    b = spectral_radius_bracket(np.outer(x, y))
    v = float(y @ x)
    assert b.lo <= v <= b.hi
    assert b.width <= 1e-9 * max(1.0, v)


def test_radius_permutation_matrix():
    # [TRIVIAL] a cyclic permutation has spectral radius 1
    p = np.roll(np.eye(4), 1, axis=0)
    b = spectral_radius_bracket(p)
    assert b.lo <= 1.0 <= b.hi
    assert b.width <= 1e-9


def test_radius_upper_triangular():
    # [TRIVIAL] triangular: radius = max diagonal entry
    a = np.array([[1.0, 5.0, 2.0], [0.0, 3.0, 7.0], [0.0, 0.0, 2.0]])
    b = spectral_radius_bracket(a)
    assert b.lo <= 3.0 <= b.hi and b.width <= 1e-8


def test_radius_two_by_two_closed_form():
    # [DERIVED] rho([[0,1],[1,1]]) = (1+sqrt(5))/2
    b = spectral_radius_bracket(np.array([[0.0, 1.0], [1.0, 1.0]]))
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    assert b.lo <= phi <= b.hi and b.width <= 1e-9 * phi


def test_radius_zero_matrix():
    b = spectral_radius_bracket(np.zeros((3, 3)))
    assert b.lo == 0.0 and b.hi <= 1e-12


def test_radius_reducible_diagonal():
    # reducible case: the bracket must still find the dominant block
    b = spectral_radius_bracket(np.diag([1.0, 2.0, 0.5]))
    assert b.lo <= 2.0 <= b.hi and b.width <= 1e-9 * 2.0


# --- fallbacks of the irreducible-block bracket ------------------------------

@pytest.fixture
def cw_runs(monkeypatch):
    """Record each Collatz-Wielandt run as (matrix, converged)."""
    runs = []
    real = matrices._collatz_wielandt

    def spy(c, tol):
        try:
            out = real(c, tol)
        except ConvergenceError:
            runs.append((c.copy(), False))
            raise
        runs.append((c.copy(), True))
        return out

    monkeypatch.setattr(matrices, "_collatz_wielandt", spy)
    return runs


def test_radius_transposed_retry(cw_runs):
    # the forward Perron vector (1, 1e-305) is not representable; the
    # transposed block's is
    a = np.array([[1.0, 1.0], [1e-305, 0.5]])
    b = spectral_radius_bracket(a)
    assert [ok for _, ok in cw_runs] == [False, True]
    assert np.array_equal(cw_runs[1][0], a.T)
    assert (b.lo, b.hi) == (1.0, 1.0)
    assert oracle_spectral_radius(a).value == 1.0


def test_radius_pruned_block(cw_runs):
    # both directions fail; dropping the 1e-305 entries leaves the
    # diagonal, whose radius 1 is a lower bound by monotonicity
    a = np.array([[1.0, 1e-305], [1e-305, 0.5]])
    b = spectral_radius_bracket(a)
    assert [ok for _, ok in cw_runs[:2]] == [False, False]
    assert np.array_equal(cw_runs[1][0], a.T)
    assert len(cw_runs) > 2 and all(ok for _, ok in cw_runs[2:])
    assert (b.lo, b.hi) == (1.0, 1.0)


def test_radius_beyond_double_range_stays_sound():
    # a 3-cycle with rho = (1e-250 * 1e-250 * 1e200)^(1/3) = 1e-100, whose
    # Perron vector spans more than double-precision range: a bracket,
    # returned or attached to the error, must still enclose rho
    a = np.zeros((3, 3))
    a[0, 1], a[1, 2], a[2, 0] = 1e-250, 1e-250, 1e200
    try:
        b = spectral_radius_bracket(a)
    except ConvergenceError as exc:
        b = exc.bracket
    assert b.lo <= 1e-100 <= b.hi


def test_underflowed_power_stops_squaring():
    # the same 3-cycle: its normalized powers underflow to zero, and the
    # loop must stop there rather than divide 0/0 and square NaN; the error
    # and its bracket are what the NaN iterations used to end with
    a = np.zeros((3, 3))
    a[0, 1], a[1, 2], a[2, 0] = 1e-250, 1e-250, 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="stuck at width") as exc:
            spectral_radius_bracket(a)
    assert exc.value.bracket == RadiusBracket(0.0, 1.0, 256, ROW_SUM)


@settings(max_examples=150, deadline=None)
@given(nonneg_matrices())
def test_radius_bracket_contains_oracle(a):
    b = spectral_radius_bracket(a)
    o = oracle_spectral_radius(a)
    assert b.lo <= o.value + 1e-8 * max(1.0, o.value)
    assert b.hi >= o.value - 1e-8 * max(1.0, o.value)


@settings(max_examples=100, deadline=None)
@given(nonneg_matrices(n_max=4))
def test_radius_scaling_law(a):
    b1 = spectral_radius_bracket(a)
    b2 = spectral_radius_bracket(2.0 * a)
    assert b2.lo <= 2.0 * b1.hi + 1e-9
    assert 2.0 * b1.lo <= b2.hi + 1e-9


@settings(max_examples=100, deadline=None)
@given(nonneg_matrices(n_max=4))
def test_radius_transpose_invariance(a):
    b1 = spectral_radius_bracket(a)
    b2 = spectral_radius_bracket(a.T)
    assert abs(b1.lo - b2.lo) <= 1e-7 * max(1.0, b1.hi)
    assert abs(b1.hi - b2.hi) <= 1e-7 * max(1.0, b1.hi)


# --- whole-matrix paths of the split -----------------------------------------

def _split_bracket(a):
    """The split as every matrix once went through it: all components from
    the boolean closure, each block gathered with ``np.ix_``."""
    a = check_matrix(a)
    lo, hi, depth = 0.0, 0.0, 1
    for comp in matrices._strongly_connected_components(a > 0):
        c_lo, c_hi, c_depth = matrices._block_bracket(
            a[np.ix_(comp, comp)], matrices.DEFAULT_TOL)
        lo, hi, depth = max(lo, c_lo), max(hi, c_hi), max(depth, c_depth)
    return RadiusBracket(min(lo, hi), hi, depth, ROW_SUM)


def _outcome(bracket, a) -> str:
    try:
        return repr(bracket(a))
    except ConvergenceError as exc:
        return repr((str(exc), exc.bracket))


@st.composite
def patterned_matrices(draw):
    # positive, irreducible with zeros, reducible and nilpotent matrices,
    # their indices permuted so that components interleave
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["positive", "irreducible", "reducible",
                                 "nilpotent"]))
    a = draw(arrays(np.float64, (n, n), elements=st.floats(1e-3, 1.0)))
    mask = draw(arrays(np.bool_, (n, n)))
    if kind == "irreducible":  # a cycle through every index
        mask[np.arange(n), (np.arange(n) + 1) % n] = True
    elif kind == "reducible":  # no edge from the last rows to the first
        k = draw(st.integers(1, max(1, n - 1)))
        mask[k:, :k] = False
    elif kind == "nilpotent":
        mask = np.triu(mask, 1)
    if kind != "positive":
        a = a * mask
    perm = draw(st.permutations(range(n)))
    return a[np.ix_(perm, perm)] * draw(st.sampled_from([1e-6, 1.0, 1e6]))


@settings(max_examples=300, deadline=None)
@given(patterned_matrices())
def test_whole_matrix_paths_match_the_split_bit_for_bit(a):
    assert _outcome(spectral_radius_bracket, a) == _outcome(_split_bracket, a)


def test_split_runs_only_where_a_matrix_has_zeros(monkeypatch):
    splits, blocks = [], []
    real_split, real_block = (matrices._strongly_connected_components,
                              matrices._block_bracket)
    monkeypatch.setattr(matrices, "_strongly_connected_components",
                        lambda adj: splits.append(adj) or real_split(adj))
    monkeypatch.setattr(matrices, "_block_bracket",
                        lambda sub, tol: blocks.append(sub)
                        or real_block(sub, tol))
    positive = np.full((3, 3), 0.5)
    spectral_radius_bracket(positive)
    assert splits == [] and len(blocks) == 1 and blocks[0] is positive
    cycle = np.roll(np.eye(3), 1, axis=1)  # one component, not gathered
    spectral_radius_bracket(cycle)
    assert len(splits) == 1 and len(blocks) == 2 and blocks[1] is cycle
    spectral_radius_bracket(np.triu(positive))  # three 1x1 blocks
    assert len(splits) == 2 and [b.shape for b in blocks[2:]] == [(1, 1)] * 3


# --- induced norms ----------------------------------------------------------

def test_norms_dominate_radius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.random((4, 4))
        r = spectral_radius_bracket(a).lo
        for kind in (ROW_SUM, COL_SUM, SPECTRAL):
            assert r <= induced_norm(a, kind) + 1e-9


def test_row_and_col_norm_values():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert induced_norm(a, ROW_SUM) == 7.0
    assert induced_norm(a, COL_SUM) == 6.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    a = rng.random((5, 5))
    got = induced_norm(a, SPECTRAL)
    want = float(np.linalg.norm(a, 2))
    assert abs(got - want) <= 1e-7 * want
    assert got >= want - 1e-12  # certified from above


@settings(max_examples=100, deadline=None)
@given(nonneg_matrices(n_max=4))
def test_norm_submultiplicative(a):
    for kind in (ROW_SUM, COL_SUM):
        na = induced_norm(a, kind)
        assert induced_norm(a @ a, kind) <= na * na + 1e-9 * max(1.0, na * na)


@pytest.mark.parametrize("n", range(1, 11))
def test_last_axis_matches_numpy_reductions(n):
    # bit for bit, with signed zeros, infinities and NaN, on both sides of
    # the eight-term switch of numpy's pairwise sum
    rng = np.random.default_rng(n)
    a = rng.random((300, n, n)) * 10.0 ** rng.integers(-30, 30, (300, n, n))
    a[rng.random(a.shape) < 0.1] = -0.0
    a[0] = -0.0
    a[rng.random(a.shape) < 0.02] = np.inf
    a[rng.random(a.shape) < 0.02] = np.nan
    for ufunc in (np.add, np.maximum, np.minimum):
        got = matrices._last_axis(ufunc, a)
        want = ufunc.reduce(a, axis=-1)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _wide_stack(n):
    # zeros, entries spanning 1e-300 to 1e300, and slices of entries in
    # [0, 1) whose sums round in the order they are added
    rng = np.random.default_rng(100 + n)
    a = rng.random((400, n, n)) * 10.0 ** rng.integers(-300, 300, (400, n, n))
    a[::2] = rng.random((200, n, n))
    a[rng.random(a.shape) < 0.2] = 0.0
    return a


@pytest.mark.parametrize("n", range(1, 11))
def test_stack_norms_match_numpy_reductions(n):
    a = _wide_stack(n)
    for kind, axis in ((ROW_SUM, 2), (COL_SUM, 1)):
        want = a.sum(axis=axis).max(axis=1)
        assert matrices._stack_norms(a, kind, None, None).tobytes() == \
            want.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_batch_bracket_row_sum_stage_matches_numpy(n, monkeypatch):
    # row-normalized words with their log scales, as the word scan has them
    a = _wide_stack(n)
    norms = a.sum(axis=2).max(axis=1)
    norms[norms == 0] = 1.0
    a /= norms[:, None, None]
    logs = np.log(norms)
    # three word lengths, bracketed in one call
    bounds = np.array([0, 40, 160, 400])
    got = matrices._batch_bracket(a, logs, bounds)
    rows = a.sum(axis=2)
    dominated, stage = matrices._dominated, []

    def numpy_row_sum_stage(lo, hi, *rest):
        if not stage:  # the row-sum stage, with numpy's reductions
            stage.append((lo, hi))
            lo, hi = rows.min(axis=1), rows.max(axis=1)
        return dominated(lo, hi, *rest)

    monkeypatch.setattr(matrices, "_dominated", numpy_row_sum_stage)
    assert matrices._batch_bracket(a, logs, bounds).tobytes() == \
        got.tobytes()
    # the stage itself is bit for bit numpy's, not only its outcome
    (lo, hi), = stage
    assert lo.tobytes() == rows.min(axis=1).tobytes()
    assert hi.tobytes() == rows.max(axis=1).tobytes()


def test_dominated_widens_the_upper_end():
    # the second word's upper bound lies 4e-13 below the first word's lower
    # bound: more than the lower end's 1e-13 n guard (n = 3), less than both
    # guards together, so only the guard on the upper end keeps it
    lo = np.array([1e-5, 0.0])
    hi = np.array([1e-5, 1e-5 * (1.0 - 4e-8)])
    gone, top = matrices._dominated(lo, hi, np.zeros(2), 3, [-np.inf],
                                    [0, 2])
    assert not gone[1]
    assert top == [np.log(1e-5 - 1e-13 * 3)]


def test_dominated_keeps_each_length_to_its_own_top():
    # the first length's best lower bound lies far above every word of the
    # second; each length is pruned against its own best only, and a
    # length with no words left keeps its top
    lo = np.array([1.0, 0.1, 1e-3, 1e-6])
    hi = np.array([1.0, 0.2, 1e-3, 1e-5])
    gone, top = matrices._dominated(lo, hi, np.zeros(4), 2,
                                    [-np.inf, -np.inf], [0, 2, 4])
    assert gone.tolist() == [False, True, False, True]
    assert top == [np.log(1.0 - 2e-13), np.log(1e-3 - 2e-13)]
    gone, kept = matrices._dominated(lo[:2], hi[:2], np.zeros(2), 2, top,
                                     [0, 2, 2])
    assert gone.tolist() == [False, True]
    assert kept == top


@pytest.mark.parametrize("n", [1, 2, 5])
def test_one_component_returns_before_the_per_index_loop(n, monkeypatch):
    # a cycle through every index: the closure is all true, so the one
    # component is returned without reading a row of it
    reads = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: reads.append(a) or flatnonzero(a))
    cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    [comp] = matrices._strongly_connected_components(cycle)
    assert comp.dtype == np.intp and comp.tolist() == list(range(n))
    assert reads == []
    # two such cycles side by side: the loop reads one row per component
    zero = np.zeros((n, n), dtype=bool)
    two = np.block([[cycle, zero], [zero, cycle]])
    comps = matrices._strongly_connected_components(two)
    assert [c.tolist() for c in comps] == [list(range(n)),
                                           list(range(n, 2 * n))]
    assert len(reads) == 2


def _components_by_eye(adj):
    # the closure with np.eye and ceil(log2 n) squarings, as a reference
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(max(1, int(np.ceil(np.log2(n)))) if n > 1 else 1):
        reach = reach | (reach @ reach)
    mutual = reach & reach.T
    return sorted({tuple(np.flatnonzero(row)) for row in mutual})


@pytest.mark.parametrize("n", range(1, 9))
def test_components_match_the_closure_by_eye(n):
    rng = np.random.default_rng(n)
    # a path through every index needs the most squarings
    path = np.eye(n, k=1, dtype=bool)
    cases = [path, path | path.T, np.zeros((n, n), dtype=bool)]
    cases += [rng.random((n, n)) < p for p in (0.1, 0.2, 0.3, 0.5)
              for _ in range(25)]
    for adj in cases:
        before = adj.copy()
        comps = matrices._strongly_connected_components(adj)
        assert sorted(tuple(c) for c in comps) == _components_by_eye(adj)
        assert np.array_equal(adj, before)  # the input is not written


@st.composite
def length_stacks(draw):
    # row-normalized words of several lengths with their log scales, as the
    # word scan stacks them: zero words (log -inf), lengths with no words,
    # single-length stacks, n = 1, and lengths reduced to their best word at
    # the row-sum stage by one word far above the rest
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5)
                 .filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    words, logs = [], []
    for size in sizes:
        a = rng.random((size, n, n)) * (rng.random((size, n, n)) < draw(
            st.sampled_from([0.3, 0.7, 1.0])))
        if draw(st.booleans()):
            a[rng.random(size) < 0.3] = 0.0
        norms = a.sum(axis=2).max(axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        spread = draw(st.sampled_from([0.1, 3.0, 30.0]))
        lg = np.log(safe) + spread * rng.standard_normal(size)
        if size and draw(st.booleans()):
            lg[rng.integers(size)] += 100.0
        words.append(a / safe[:, None, None])
        logs.append(np.where(norms > 0, lg, -np.inf))
    return (np.concatenate(words), np.concatenate(logs),
            np.cumsum([0] + sizes))


@settings(max_examples=150, deadline=None)
@given(length_stacks())
def test_one_call_brackets_each_length_as_its_own_call(stack):
    batch, logs, bounds = stack
    spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    got = matrices._batch_bracket(batch, logs, bounds)
    want = np.concatenate([matrices._batch_bracket(
        batch[a:b], logs[a:b], [0, b - a]) for a, b in spans], axis=1)
    assert got.tobytes() == want.tobytes()
    got = matrices._stack_norms(batch, SPECTRAL, logs, bounds)
    want = np.concatenate([matrices._stack_norms(
        batch[a:b], SPECTRAL, logs[a:b], [0, b - a]) for a, b in spans])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(length_stacks())
def test_words_and_grams_share_a_call_bit_for_bit(stack):
    # one call over the words and their Gram matrices gives the words'
    # brackets and the spectral norms of two calls
    batch, logs, bounds = stack
    k = len(batch)
    got = matrices._batch_bracket(*matrices._with_grams(batch, logs, bounds))
    want = matrices._batch_bracket(batch, logs, bounds)
    assert got[:, :k].tobytes() == want.tobytes()
    norms = matrices._stack_norms(batch, SPECTRAL, logs, bounds)
    assert matrices._gram_norms(got[1, k:]).tobytes() == norms.tobytes()


def _dominated_per_slice(lo, hi, logs, n, top, bounds):
    # the reference: one length at a time
    g = 1e-13 * n
    with np.errstate(divide="ignore"):
        lo_log = np.log(np.maximum(lo - g, 0.0)) + logs
        hi_log = np.log(hi + g) + logs
    gone = np.zeros(len(lo), dtype=bool)
    top = list(top)
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a < b:
            top[i] = max(top[i], float(np.max(lo_log[a:b])))
            gone[a:b] = hi_log[a:b] < top[i] - 1e-9
    return gone, top


@st.composite
def dominated_inputs(draw):
    # empty lengths, single-length stacks, zero words (log -inf), -inf
    # log scales and lengths with a top from an earlier stage
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    k = sum(sizes)
    ends = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    lo = np.array(draw(st.lists(ends, min_size=k, max_size=k)))
    hi = lo * np.array(draw(st.lists(st.floats(1.0, 1.5), min_size=k,
                                     max_size=k)))
    logs = np.array(draw(st.lists(
        st.one_of(st.just(-np.inf), st.floats(-30.0, 30.0)),
        min_size=k, max_size=k)))
    top = draw(st.lists(st.one_of(st.just(-np.inf), st.floats(-30.0, 30.0)),
                        min_size=len(sizes), max_size=len(sizes)))
    return (lo, hi, logs, draw(st.integers(1, 5)), top,
            np.cumsum([0] + sizes).tolist())


@settings(max_examples=300, deadline=None)
@given(dominated_inputs())
def test_dominated_matches_the_per_slice_loop(args):
    gone, top = matrices._dominated(*args)
    want_gone, want_top = _dominated_per_slice(*args)
    assert gone.tolist() == want_gone.tolist()
    assert isinstance(top, list)
    assert np.array(top).tobytes() == np.array(want_top).tobytes()


@pytest.mark.parametrize("k", [1, 4096, 4097, 10_000])
def test_gram_chunks_match_the_whole_product(k, monkeypatch):
    # the Gram matrices _stack_norms brackets, bit for bit the unchunked
    # product of the strided transposed view
    rng = np.random.default_rng(k)
    batch = rng.random((k, 3, 3)) * (rng.random((k, 3, 3)) < 0.7)
    seen = []
    bracket = matrices._batch_bracket

    def spy(gram, *rest, **kw):
        seen.append(gram.copy())
        return bracket(gram, *rest, **kw)

    monkeypatch.setattr(matrices, "_batch_bracket", spy)
    matrices._stack_norms(batch, SPECTRAL, np.zeros(k), [0, k])
    [gram] = seen
    want = np.matmul(batch.transpose(0, 2, 1), batch)
    assert gram.tobytes() == want.tobytes()


# --- each distinct slice bracketed once -------------------------------------

def _no_sharing(batch, bounds):
    # the reference: every slice bracketed as if it were distinct
    return None


def _spy_sharing(monkeypatch):
    found = []
    distinct = matrices._distinct_slices
    monkeypatch.setattr(matrices, "_distinct_slices", lambda *args: found.append(
        distinct(*args)) or found[-1])
    return found


def _tiled_stack(same_words=False):
    # 4,800 row-normalized 3 x 3 slices over two lengths, each length a
    # tiling of four distinct words (one reducible, one with a zero row),
    # every slice with a log scale of its own
    rng = np.random.default_rng(20)
    words = rng.random((8, 3, 3))
    words[[1, 5]] = np.triu(words[[1, 5]])
    words[[2, 6], 2] = 0.0
    if same_words:
        words[4:] = words[:4]
    words /= words.sum(axis=2).max(axis=1)[:, None, None]
    pick = rng.integers(0, 4, 4800) + np.repeat([0, 4], 2400)
    # the first word of each length is its best by far, but a tenth of its
    # copies lie far below every other word: only its largest log scale
    # keeps its best copies
    best = pick % 4 == 0
    logs = rng.normal(0.0, 0.5, 4800) + 3.0 * best
    logs[best & (rng.random(4800) < 0.1)] -= 30.0
    return words[pick], logs, [0, 2400, 4800]


@pytest.mark.parametrize("opts", [(), (np.array([1e-6, 1e-12]),
                                       np.array([10, 60]))],
                         ids=["one-tol", "tol-per-length"])
def test_shared_brackets_are_exact(opts, monkeypatch):
    batch, logs, bounds = _tiled_stack()
    assert len(batch) > matrices._BATCH_WORDS
    found = _spy_sharing(monkeypatch)
    got = matrices._batch_bracket(batch, logs, bounds, *opts)
    [(first, _)] = found
    assert np.searchsorted(first, bounds).tolist() == [0, 4, 8]
    monkeypatch.setattr(matrices, "_distinct_slices", _no_sharing)
    want = matrices._batch_bracket(batch, logs, bounds, *opts)
    # every slice the reference brackets, bit for bit, and every norm
    kept = (want[0] != 0) | (want[1] != 0)
    assert got[:, kept].tobytes() == want[:, kept].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    # the copies only the shared pass brackets are ones the reference
    # drops: below their length's best lower end
    extra = ~kept & (got[1] != 0)
    assert extra.any()
    with np.errstate(divide="ignore"):
        lo_log = np.log(want[0]) + logs
        hi_log = np.log(got[1]) + logs
    for a, b in zip(bounds[:-1], bounds[1:]):
        assert (hi_log[a:b][extra[a:b]] < lo_log[a:b].max()).all()


@pytest.mark.parametrize("collide", [
    lambda flat, lengths: np.zeros(len(flat), dtype=np.uint64),
    lambda flat, lengths: lengths.astype(np.uint64)],
    ids=["one-hash", "one-hash-per-length"])
def test_a_hash_collision_shares_nothing(collide, monkeypatch):
    # with one hash for every slice, or for every slice of a length, the
    # checks refuse every merge, and the stack is bracketed as without
    # sharing
    batch, logs, bounds = _tiled_stack()
    monkeypatch.setattr(matrices, "_distinct_slices", _no_sharing)
    want = matrices._batch_bracket(batch, logs, bounds)
    monkeypatch.undo()
    monkeypatch.setattr(matrices, "_row_hashes", collide)
    found = _spy_sharing(monkeypatch)
    assert matrices._batch_bracket(batch, logs, bounds).tobytes() == \
        want.tobytes()
    assert found == [None]


def test_a_word_in_two_lengths_is_not_merged(monkeypatch):
    batch, logs, bounds = _tiled_stack(same_words=True)
    first, inverse = matrices._distinct_slices(batch, bounds)
    # the same four words in each length, each kept once per length
    assert np.searchsorted(first, bounds).tolist() == [0, 4, 8]
    assert sorted(w.tobytes() for w in batch[first[:4]]) == \
        sorted(w.tobytes() for w in batch[first[4:]])
    assert (inverse[:2400] < 4).all() and (inverse[2400:] >= 4).all()
    # a hash blind to the length proposes the merges across lengths; the
    # length check refuses them
    hashes = matrices._row_hashes
    monkeypatch.setattr(matrices, "_row_hashes", lambda flat, lengths:
                        hashes(flat, np.zeros_like(lengths)))
    assert matrices._distinct_slices(batch, bounds) is None
