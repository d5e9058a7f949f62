"""Radius estimation: certified brackets for joint/generalized spectral
radii of finite matrix sets."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadamard_jsr import (COL_SUM, MEMBER_CAP, ROW_SUM, SPECTRAL,
                          CapExceeded, GeneratorParams, RadiusBracket, dedupe,
                          gelfand_sequence, gen_radius_lower,
                          generate_instance, joint_radius_upper, matrix_set,
                          radius_bracket_set, set_power,
                          spectral_radius_bracket, symmetrization_sequence,
                          symmetrization_sequence_ab, symmetrize_ab)
from hadamard_jsr import chains, matrices, radius
from hadamard_jsr.matrices import _batch_bracket
from hadamard_jsr.oracle import oracle_gen_radius, oracle_spectral_radius
from hadamard_jsr.sets import _pairwise

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


_ENTRY_POINTS = {
    "gen_radius_lower": gen_radius_lower,
    "joint_radius_upper": joint_radius_upper,
    "radius_bracket_set": radius_bracket_set,
    "gelfand_sequence": gelfand_sequence,
    "symmetrization_sequence": lambda s, depth, **kw:
        symmetrization_sequence(s, 0.5, 1, depth, **kw),
    "symmetrization_sequence_ab": lambda s, depth, **kw:
        symmetrization_sequence_ab(s, 0.7, 0.6, 1, depth, **kw),
}
# id suffix -> (the argument at fault, the search)
_BAD_SEARCHES = {
    "": ("depth", {"depth": 0}),
    "-budget0": ("word_budget", {"depth": 3, "word_budget": 0}),
    "-budget-5": ("word_budget", {"depth": 3, "word_budget": -5}),
}


@pytest.mark.parametrize(
    "query, bad", [(q, bad) for q in _ENTRY_POINTS.values()
                   for bad in _BAD_SEARCHES.values()],
    ids=[name + tag for name in _ENTRY_POINTS for tag in _BAD_SEARCHES])
@pytest.mark.parametrize("members", [1, 2])
def test_depth_must_be_positive_every_query(query, bad, members):
    s = matrix_set(list(golden_pair())[:members])
    at_fault, search = bad
    with pytest.raises(ValueError, match=at_fault):
        query(s, **search)


@pytest.mark.parametrize("query", _ENTRY_POINTS.values(),
                         ids=list(_ENTRY_POINTS))
def test_no_word_budget_cuts_no_depth_every_query(query):
    # no budget searches the full depth, as a budget every word fits does,
    # and a depth past WORD_CAP words raises CapExceeded instead of a cut
    s = golden_pair()
    assert query(s, 4, word_budget=None) == query(s, 4, word_budget=10 ** 6)
    with pytest.raises(CapExceeded):
        query(s, 40, word_budget=None)


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


# --- row-sum pruning of the word scan -----------------------------------------

@st.composite
def pruning_sets(draw):
    # small sets with the shapes the skip rule must survive: reducible and
    # nilpotent members, zero rows, duplicates and mixed entry scales
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = []
    for _ in range(k):
        a = rng.random((n, n)) * (rng.random((n, n)) < draw(
            st.sampled_from([0.4, 0.7, 1.0])))
        shape = draw(st.sampled_from(["full", "reducible", "nilpotent",
                                      "zero-row"]))
        if shape == "reducible":
            a = np.triu(a)
        elif shape == "nilpotent":
            a = np.triu(a, 1)
        elif shape == "zero-row":
            a[rng.integers(n)] = 0.0
        members.append(a * 10.0 ** draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        members.append(members[0].copy())
    return matrix_set(members)


@settings(max_examples=60, deadline=None)
@given(pruning_sets(), st.sampled_from([ROW_SUM, COL_SUM, SPECTRAL]),
       st.sampled_from([None, 50, 2000]))
def test_radius_queries_read_one_scan(s, kind, budget):
    # the bracket, the lower and upper bounds and the Gelfand envelope all
    # come from the same scan of the deduped set
    assume(len(dedupe(s)) >= 2)
    lo = gen_radius_lower(s, 4, word_budget=budget)[0]
    hi = joint_radius_upper(s, 4, kind, word_budget=budget)
    assert radius_bracket_set(s, 4, kind, word_budget=budget) == \
        RadiusBracket(min(lo, hi), max(lo, hi), 4, kind)
    seq = gelfand_sequence(s, 4, kind, word_budget=budget)
    assert seq.upper_envelope()[-1] == hi


def _queries(s, kind):
    b = radius_bracket_set(s, 4, kind)
    return ((b.lo, b.hi), gelfand_sequence(s, 4, kind).entries,
            gen_radius_lower(s, 4))


def _dominates_nothing(lo, hi, logs, n, top, bounds):
    # the drop rule of a full pass, which prunes no slice
    return np.zeros(len(lo), dtype=bool), top


def _assert_skip_exact(s, kind):
    levels, lazy = [], []
    lazy_length = radius._lazy_length

    def spy(batch, logs, bounds, *opts):
        out = _batch_bracket(batch, logs, bounds, *opts)
        # one call brackets every length, and under the two norm the Gram
        # matrices of small scans too; each slice is checked alone, with
        # its own tolerance and squaring cap
        per_slice = [np.broadcast_to(x, len(bounds) - 1) for x in opts]
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            levels.append((batch[a:b].copy(), logs[a:b].copy(),
                           out[:2, a:b], [x[i] for x in per_slice]))
        return out

    def spy_lazy(raw, prefix, out, out_logs, kind):
        # the last length normalized in full, and the words the raw row
        # sums and norm bounds keep of it
        words = np.empty_like(raw)
        logs = radius._normalize_batch(raw, words)
        if prefix is not None:
            logs = prefix + logs
        keep = lazy_length(raw, prefix, out, out_logs, kind)
        lazy.append((words, logs, keep, kind))
        return keep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius, "_batch_bracket", spy)
        mp.setattr(radius, "_lazy_length", spy_lazy)
        pruned = _queries(s, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_dominated", _dominates_nothing)
        mp.setattr(radius, "_dominated", _dominates_nothing)
        for words, logs, keep, lazy_kind in lazy:
            # a word the raw row sums drop is below its length's best lower
            # bound in a full pass, and its norm below the length's largest
            if not keep.all():
                lo, hi, rows = _batch_bracket(words, logs, [0, len(words)])
                assert (radius._log0(hi[~keep]) + logs[~keep]).max() < \
                    (radius._log0(lo) + logs).max()
                norms = radius._log0(
                    rows if lazy_kind == ROW_SUM else matrices._stack_norms(
                        words, lazy_kind, logs, [0, len(words)])) + logs
                assert norms[~keep].max() < norms.max()
        for batch, logs, (lo, hi), opts in levels:
            full_lo, full_hi, _ = _batch_bracket(batch, logs,
                                                 [0, len(batch)], *opts)
            # words bracketed to the end match a full pass bit for bit; the
            # skipped and dropped ones get [0, 0]
            exact = (lo == full_lo) & (hi == full_hi)
            assert not lo[~exact].any() and not hi[~exact].any()
            if not exact.all():
                lo_log = radius._log0(full_lo) + logs
                hi_log = radius._log0(full_hi) + logs
                # below the level's best lower bound: neither its argmax
                # nor a refinement candidate of any query
                assert hi_log[~exact].max() < lo_log.max()
        # the two-norm Gram stacks are pruned too, and bracketed in full here;
        # so is every word of the last length
        assert _queries(s, kind) == pruned


@settings(max_examples=80, deadline=None)
@given(pruning_sets(), st.sampled_from([ROW_SUM, COL_SUM, SPECTRAL]))
def test_row_sum_skip_is_exact(s, kind):
    _assert_skip_exact(s, kind)


@pytest.mark.parametrize("t", [1.0, 3.0, 5.0])
def test_row_sum_skip_guards_rounding(t):
    # f's smallest row sum 1e-8 equals its radius, which the coarse pass
    # resolves only to an absolute rounding of about 1e-16 on the
    # normalized word; the scalar word just below it must stay bracketed
    f = np.array([[1e-8, 0.0], [1.0, 0.0]])
    a = 1e-8 * (1.0 - t * 1e-9)
    _assert_skip_exact(matrix_set([f, np.array([[a, 0.0], [0.0, a]])]),
                       ROW_SUM)


def _pruning_stages(monkeypatch, sigma, depth):
    # per level, the mask of every pruning stage in order: the row-sum stage
    # first, then one per squaring of the loop; one call brackets every
    # length, so each stage's mask is split at its bounds, and a length
    # that has left the loop gets no more stages.  The last length's
    # row-sum stage is the one radius._lazy_length runs on its raw row
    # sums over every word, which stands in for the bracket's row-sum stage
    # on the words it keeps.
    levels, raw_stages = [], []
    dominated = matrices._dominated

    def spy_bracket(batch, logs, bounds, *opts):
        levels.extend([] for _ in bounds[1:])
        out = _batch_bracket(batch, logs, bounds, *opts)
        [levels[-1][0]] = raw_stages
        return out

    def spy_raw(*args):
        gone, top = dominated(*args)
        raw_stages.append(gone)
        return gone, top

    def spy_dominated(*args):
        gone, top = dominated(*args)
        bounds = args[-1]
        first = len(levels) - (len(bounds) - 1)
        for stages, a, b in zip(levels[first:], bounds[:-1], bounds[1:]):
            if a < b:
                stages.append(gone[a:b])
        return gone, top

    monkeypatch.setattr(radius, "_batch_bracket", spy_bracket)
    monkeypatch.setattr(radius, "_dominated", spy_raw)
    monkeypatch.setattr(matrices, "_dominated", spy_dominated)
    radius_bracket_set(sigma, depth)
    return levels


def test_row_sum_skip_spares_most_words(monkeypatch):
    sigma = generate_instance(GeneratorParams(3, 1, 3, 1.0, 1.0, seed=3))[0]
    levels = _pruning_stages(monkeypatch, sigma, 6)
    assert len(sigma) == 3
    assert len(levels) == 6
    assert sum(len(stages[0]) for stages in levels) == 1092
    passed = sum(np.count_nonzero(~stages[0]) for stages in levels)
    assert passed < sum(3 ** m for m in range(1, 7)) / 2


def test_coarse_pass_drops_dominated_words(monkeypatch):
    sigma = generate_instance(GeneratorParams(3, 1, 3, 1.0, 1.0, seed=3))[0]
    _assert_skip_exact(sigma, ROW_SUM)
    levels = _pruning_stages(monkeypatch, sigma, 6)
    # most words that pass the row-sum stage still leave the squaring loop
    # once another word's lower bound passes their upper bound
    passed = sum(np.count_nonzero(~stages[0]) for stages in levels)
    dropped = sum(np.count_nonzero(gone) for stages in levels
                  for gone in stages[1:])
    assert passed == 236
    assert dropped > passed / 2


def _criterion5_psi():
    # a pair of 3 x 3 matrices as the symmetrize workload draws them
    return generate_instance(GeneratorParams(3, 1, 2, 0.8, 1.0, seed=1))[0]


def _no_seeds(row_lo, logs, keep, bounds):
    # the seed pass switched off: every survivor goes straight to the loop
    return np.empty(0, dtype=int)


def _huge_level(case):
    """``(psi, level, kind)``: a 65,536-word level that keeps more than
    ``_BATCH_WORDS`` words at the row-sum stage, and the set whose
    symmetrization sequence holds such levels."""
    if case == "upper":
        # every word and every symmetrized member is reducible
        rng = np.random.default_rng(7)
        psi = matrix_set(np.triu(rng.random((2, 3, 3)) + 0.05))
        return psi, set_power(psi, 16), ROW_SUM
    psi = _criterion5_psi()
    level = symmetrize_ab(set_power(psi, 8), 0.7, 0.5)
    return psi, level, SPECTRAL if case == "gram" else ROW_SUM


@pytest.mark.parametrize("case", ["symmetrized", "upper", "gram"])
def test_seed_pass_is_exact(case, monkeypatch):
    psi, level, kind = _huge_level(case)
    assert len(level) == 2 ** 16
    seeds = matrices._seeds
    picked = []

    def spy(*args):
        picked.append(seeds(*args))
        return picked[-1]

    def queries():
        b = radius_bracket_set(level, 1, kind)
        return ((b.lo, b.hi), gelfand_sequence(level, 1, kind).entries,
                symmetrization_sequence_ab(psi, 0.7, 0.5, 3, 6, kind).levels)

    monkeypatch.setattr(matrices, "_seeds", spy)
    seeded = queries()
    # the first stack the bracket sees, the Gram stack under SPECTRAL
    assert len(picked[0]) == matrices._SEED_WORDS
    monkeypatch.setattr(matrices, "_seeds", _no_seeds)
    assert queries() == seeded


def test_seed_pass_spares_most_squarings(monkeypatch):
    # one criterion-5 level of 65,536 words: the rows the squaring loop
    # multiplies, with the seed pass and without
    level = symmetrize_ab(set_power(_criterion5_psi(), 8), 0.5, 0.5)
    einsum = np.einsum
    counts = []
    for seeds in (matrices._seeds, _no_seeds):
        rows = []
        monkeypatch.setattr(matrices, "_seeds", seeds)
        monkeypatch.setattr(np, "einsum", lambda spec, p, x: rows.append(
            len(p)) or einsum(spec, p, x))
        radius_bracket_set(level, 1)
        counts.append(sum(rows))
    assert counts == [24336, 77677]
    assert counts[0] <= 0.7 * counts[1]


def _scan_batch_in_full(batch, kind):
    # radius._scan_batch with every word of every length normalized and
    # bracketed, the last length too: the reference the lazy last length
    # must match bit for bit
    sizes = [len(s) ** m for s, d in batch for m in range(1, d + 1)]
    bounds = np.cumsum([0] + sizes)
    n = batch[0][0].dim
    words, logs = np.empty((bounds[-1], n, n)), np.empty(bounds[-1])
    first = 0
    for s, d in batch:
        k, a = len(s), bounds[first]
        logs[a:a + k] = radius._normalize_batch(s.members, words[a:a + k])
        for i in range(first + 1, first + d):
            prev = slice(bounds[i - 1], bounds[i])
            cur = slice(bounds[i], bounds[i + 1])
            raw = _pairwise(np.matmul, words[prev], words[a:a + k])
            extra = radius._normalize_batch(raw, words[cur])
            logs[cur] = (logs[prev][:, None]
                         + logs[a:a + k][None, :]).reshape(-1) + extra
        first += d
    norms = (None if kind == ROW_SUM
             else matrices._stack_norms(words, kind, logs, bounds))
    lo, hi, row_norms = _batch_bracket(words, logs, bounds)
    norm_logs = np.maximum.reduceat(
        radius._log0(row_norms if norms is None else norms) + logs,
        bounds[:-1])
    lo_log, hi_log = radius._log0(lo) + logs, radius._log0(hi) + logs
    slices = list(zip(bounds, bounds[1:], norm_logs))
    first = 0
    for _, d in batch:
        yield [radius._Level(m, lo_log[a:b], hi_log[a:b], float(top))
               for m, (a, b, top) in enumerate(slices[first:first + d], 1)]
        first += d


def _outcome(query, *args, **kwargs):
    # the result, or the type and message of the error raised
    try:
        return query(*args, **kwargs)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _assert_lazy_matches_full(queries):
    lazy = queries()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius, "_scan_batch", _scan_batch_in_full)
        full = queries()
    # repr tells -0.0 and NaN apart, where == would not
    assert repr(lazy) == repr(full)


@st.composite
def scaled_sets(draw):
    # members at entry scales 1e-150 to 1e150: zero members make zero
    # words, and scalar members words that repeat other words' bits
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["full", "sparse", "reducible", "zero",
                                      "scalar"]))
        a = rng.random((n, n))
        if shape == "sparse":
            a *= rng.random((n, n)) < 0.5
        elif shape == "reducible":
            a = np.triu(a)
        elif shape == "zero":
            a[:] = 0.0
        elif shape == "scalar":
            a = np.eye(n)
        members.append(a * 10.0 ** draw(st.integers(-150, 150)))
    return matrix_set(members)


@settings(max_examples=60, deadline=None)
@given(scaled_sets(), st.sampled_from([ROW_SUM, COL_SUM, SPECTRAL]),
       st.integers(1, 4), st.sampled_from([None, 50, 2000]))
def test_lazy_last_length_is_exact(sigma, kind, depth, budget):
    _assert_lazy_matches_full(lambda: [
        _outcome(radius_bracket_set, sigma, depth, kind, word_budget=budget),
        _outcome(gelfand_sequence, sigma, depth, kind, word_budget=budget),
        _outcome(symmetrization_sequence_ab, sigma, 0.7, 0.5, 1, depth,
                 kind, word_budget=budget)])


def _dense_psi():
    # a dense pair of 3 x 3 matrices, as the symmetrize workload draws them
    return generate_instance(GeneratorParams(3, 1, 2, 1.0, 1.0, seed=0))[0]


@pytest.mark.parametrize("kind", [ROW_SUM, COL_SUM, SPECTRAL])
@pytest.mark.parametrize("psi", [_dense_psi, _criterion5_psi])
def test_lazy_last_length_is_exact_on_a_huge_level(psi, kind):
    psi = psi()
    level = symmetrize_ab(set_power(psi, 8), 0.5, 0.5)
    assert len(level) == 2 ** 16
    _assert_lazy_matches_full(lambda: [
        radius_bracket_set(level, 1, kind),
        gelfand_sequence(level, 1, kind).entries,
        symmetrization_sequence_ab(psi, 0.5, 0.5, 3, 6, kind).levels])


def test_lazy_last_length_is_exact_on_a_reducible_level():
    # more than _BATCH_WORDS words survive the raw stage, so the words and
    # their Gram matrices are bracketed in two calls
    _, level, _ = _huge_level("upper")
    _assert_lazy_matches_full(lambda: [
        radius_bracket_set(level, 1, SPECTRAL),
        gelfand_sequence(level, 1, SPECTRAL).entries])


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lazy_last_length_keeps_a_near_tie(depth):
    # the diagonal member's radius passes the scalar member's, the best
    # row-sum lower bound, by 1e-8 relative; the nilpotent member holds the
    # largest row sum, so only the drop rule keeps the diagonal one
    sigma = matrix_set([np.eye(2), np.diag([1.0, 1.0 + 1e-8]),
                        np.array([[0.0, 1e3], [0.0, 0.0]])])
    _assert_lazy_matches_full(lambda: [
        radius_bracket_set(sigma, depth), gelfand_sequence(sigma, depth)])
    _assert_skip_exact(sigma, ROW_SUM)


def test_lazy_last_length_brackets_only_kept_words(monkeypatch):
    # the row sums of the raw words drop all but a few of 65,536 words
    # before any is normalized
    level = symmetrize_ab(set_power(_dense_psi(), 8), 0.5, 0.5)
    sizes = []
    monkeypatch.setattr(radius, "_batch_bracket", lambda batch, *rest:
                        sizes.append(len(batch))
                        or _batch_bracket(batch, *rest))
    radius_bracket_set(level, 1)
    assert sizes == [16]


def _spy_all_brackets(monkeypatch):
    # every _batch_bracket call, the Gram calls of _stack_norms too
    calls, lazy = [], []
    lazy_length = radius._lazy_length

    def spy(batch, logs, bounds, *opts):
        calls.append((batch.copy(), list(bounds), opts))
        return _batch_bracket(batch, logs, bounds, *opts)

    monkeypatch.setattr(radius, "_batch_bracket", spy)
    monkeypatch.setattr(matrices, "_batch_bracket", spy)
    monkeypatch.setattr(radius, "_lazy_length", lambda *args: lazy.append(
        lazy_length(*args)) or lazy[-1])
    return calls, lazy


def test_two_norm_small_scan_brackets_words_and_grams_in_one_call(
        monkeypatch):
    level = symmetrize_ab(set_power(_dense_psi(), 8), 0.5, 0.5)
    calls, lazy = _spy_all_brackets(monkeypatch)
    radius_bracket_set(level, 1, SPECTRAL)
    [keep] = lazy
    [(batch, bounds, (tol, squarings))] = calls
    # the kept words, then their Gram matrices: one more slice each, with
    # the Gram bracket's tolerance and cap
    k = int(np.count_nonzero(keep))
    assert k < 2 ** 16 // 100
    assert bounds == [0, k, 2 * k]
    assert batch.shape == (2 * k, 3, 3)
    gram = np.matmul(batch[:k].transpose(0, 2, 1), batch[:k])
    assert batch[k:].tobytes() == gram.tobytes()
    assert tol.tolist() == [1e-6, matrices._SPECTRAL_TOL]
    assert squarings.tolist() == [10, 60]


def test_two_norm_large_scan_keeps_two_calls(monkeypatch):
    # the reducible level keeps more than _BATCH_WORDS words
    _, level, _ = _huge_level("upper")
    calls, lazy = _spy_all_brackets(monkeypatch)
    radius_bracket_set(level, 1, SPECTRAL)
    [keep] = lazy
    k = int(np.count_nonzero(keep))
    assert k > matrices._BATCH_WORDS
    assert [(len(batch), bounds, opts) for batch, bounds, opts in calls] == [
        (k, [0, k], (matrices._SPECTRAL_TOL, 60)), (k, [0, k], ())]


def test_symmetrization_dedupes_each_level_set_once(monkeypatch):
    s = matrix_set([np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 1.0],
                              [0.0, 1.0, 3.0]]),
                    np.array([[2.0, 0.0, 1.0], [1.0, 0.5, 0.0],
                              [1.0, 1.0, 1.0]])])
    sizes = []
    dedupe = radius.dedupe

    def spy(psi, *args):
        sizes.append(len(psi))
        return dedupe(psi, *args)

    monkeypatch.setattr(radius, "dedupe", spy)
    symmetrization_sequence(s, 0.5, 3, 6)
    # the level sets of 4, 16 and 256 members; the one of 65,536 members
    # is scanned as it is
    assert sizes == [4, 16, 256]


def _upper_psi():
    # an upper-triangular pair: its 65,536-word symmetrized levels hold
    # 63 and 255 distinct words once normalized
    return matrix_set([np.array([[0.96, 0.21], [0.0, 0.11]]),
                       np.array([[0.58, 0.38], [0.0, 0.8]])])


@pytest.mark.parametrize("kind", [ROW_SUM, SPECTRAL])
def test_shared_brackets_leave_every_query_unchanged(kind, monkeypatch):
    psi = _upper_psi()
    level = symmetrize_ab(set_power(psi, 8), 0.7, 0.5)

    def queries():
        return [radius_bracket_set(level, 1, kind),
                gelfand_sequence(level, 1, kind).entries,
                symmetrization_sequence(psi, 0.5, 3, 6, kind).levels,
                symmetrization_sequence_ab(psi, 0.7, 0.5, 3, 6, kind).levels]

    found = []
    distinct = matrices._distinct_slices
    monkeypatch.setattr(matrices, "_distinct_slices", lambda *args:
                        found.append(distinct(*args)) or found[-1])
    shared = queries()
    # each query's huge level, and under the two norm its Gram stack too
    assert len(found) == (8 if kind == SPECTRAL else 4)
    assert all(f is not None for f in found)
    monkeypatch.setattr(matrices, "_distinct_slices", lambda *args: None)
    assert repr(queries()) == repr(shared)


@pytest.mark.parametrize("kind", [ROW_SUM, SPECTRAL])
@pytest.mark.parametrize("huge", [False, True], ids=["small", "huge"])
def test_duplicated_members_keep_the_bracket(huge, kind):
    # every member twice: dedupe removes the copies of a small set, and the
    # bracket shares those of a huge one
    psi = _upper_psi()
    s, depth = ((symmetrize_ab(set_power(psi, 8), 0.7, 0.5), 1) if huge
                else (psi, 6))
    doubled = matrix_set(np.repeat(s.members, 2, axis=0))
    assert len(doubled) <= MEMBER_CAP
    assert (len(s) > matrices._BATCH_WORDS) == huge
    assert radius_bracket_set(doubled, depth, kind) == \
        radius_bracket_set(s, depth, kind)


def _refine_by_tuple_sort(members, levels, tol):
    # _refine_best with its candidates in a plain list of (hi, m, index)
    # tuples, sorted highest first
    k = members.shape[0]
    best_log = -math.inf
    witness = (levels[0].m, radius._digits(0, k, levels[0].m))
    for lev in levels:
        idx = int(np.argmax(lev.lo_log))
        if lev.lo_log[idx] / lev.m > best_log:
            best_log = lev.lo_log[idx] / lev.m
            witness = (lev.m, radius._digits(idx, k, lev.m))
    candidates = sorted(
        ((lev.hi_log[i] / lev.m, lev.m, int(i)) for lev in levels
         for i in np.flatnonzero(lev.hi_log / lev.m
                                 > best_log + radius._REFINE_SLACK)),
        reverse=True)
    refined = 0
    for hi_val, m, i in candidates:
        if (hi_val <= best_log + radius._REFINE_SLACK
                or refined >= radius._MAX_REFINE):
            break
        word = radius._digits(i, k, m)
        mat, logscale = radius._word_matrix(members, word)
        if logscale == -math.inf:
            continue
        b = spectral_radius_bracket(mat, tol=tol)
        refined += 1
        if b.lo > 0 and (math.log(b.lo) + logscale) / m > best_log:
            best_log = (math.log(b.lo) + logscale) / m
            witness = (m, word)
    return math.exp(best_log), witness


@pytest.mark.parametrize("max_refine", [2, 5, 2000])
def test_refine_reads_candidates_in_tuple_order(monkeypatch, max_refine):
    # coarse upper bounds drawn from a few values, so that many candidates
    # tie in hi, also across lengths, and lower bounds far below, so that
    # refinement decides; the cap makes the order decide which words are
    # refined at all
    monkeypatch.setattr(radius, "_MAX_REFINE", max_refine)
    rng = np.random.default_rng(max_refine)
    for _ in range(60):
        k = int(rng.integers(2, 4))
        members = rng.random((k, 2, 2)) * (rng.random((k, 2, 2)) < 0.8)
        levels = []
        for m in (1, 2, 3):
            hi_log = m * rng.choice([-np.inf, 0.5, 0.75, 1.0], k ** m)
            lo_log = hi_log - rng.choice([3.0, 5.0], k ** m)
            levels.append(radius._Level(m, lo_log, hi_log, 0.0))
        assert (radius._refine_best(members, levels, 1e-9)
                == _refine_by_tuple_sort(members, levels, 1e-9))


# --- batched brackets of many sets -----------------------------------------

@st.composite
def same_dim_sets(draw):
    # 1-6 sets of one dimension: one-member sets, duplicated members, zero
    # and reducible members, up to five distinct members each
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        members = []
        for _ in range(draw(st.integers(1, 5))):
            shape = draw(st.sampled_from(["full", "sparse", "reducible",
                                          "nilpotent", "zero"]))
            a = rng.random((n, n))
            if shape == "sparse":
                a *= rng.random((n, n)) < 0.5
            elif shape == "reducible":
                a = np.triu(a)
            elif shape == "nilpotent":
                a = np.triu(a, 1)
            elif shape == "zero":
                a[:] = 0.0
            members.append(a * 10.0 ** draw(st.integers(-2, 2)))
        if draw(st.booleans()):
            members.append(members[-1].copy())
        out.append(matrix_set(members))
    return out


@settings(max_examples=60, deadline=None)
@given(same_dim_sets(), st.integers(1, 5),
       st.sampled_from([None, 50, 2000]),
       st.sampled_from([ROW_SUM, COL_SUM, SPECTRAL]))
def test_batched_brackets_equal_one_set_brackets(sets, depth, budget, kind):
    # bit for bit: one batched call gives each set the bracket it gets alone
    batched = list(radius._bracket_sets(sets, depth, kind, matrices.DEFAULT_TOL,
                                        radius.WORD_CAP, budget))
    assert batched == [radius_bracket_set(s, depth, kind, word_budget=budget)
                       for s in sets]


def _count_batch_calls(monkeypatch):
    calls = []
    real = radius._batch_bracket
    monkeypatch.setattr(radius, "_batch_bracket",
                        lambda *a: calls.append(a[2]) or real(*a))
    return calls


def test_a_chain_brackets_its_small_sets_in_one_call(monkeypatch):
    sets = generate_instance(GeneratorParams(3, 2, 2, 0.8, 1.0, 5))
    calls = _count_batch_calls(monkeypatch)
    chains.run_theorem("kathyth2", sets, depth=4, budget=4000)
    assert len(calls) == 1


def test_a_symmetrization_sequence_batches_its_small_levels(monkeypatch):
    s = matrix_set([np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 1.0],
                              [0.0, 1.0, 3.0]]),
                    np.array([[2.0, 0.0, 1.0], [1.0, 0.5, 0.0],
                              [1.0, 1.0, 1.0]])])
    calls = _count_batch_calls(monkeypatch)
    seq = symmetrization_sequence(s, 0.5, 3, 6)
    assert len(seq.levels) == 4
    # the levels of 4, 16 and 256 members share a call; the one of 65,536
    # members is bracketed alone
    assert len(calls) <= 2


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
