"""Certified lower/upper estimation of the generalized and joint spectral
radius of a finite matrix set.

Word products are enumerated breadth-first as batched numpy stacks, with
every product renormalized by its row-sum norm and the log-scale accumulated
separately, so deep products never overflow.  Lower bounds come from
per-word spectral-radius brackets (a vectorized coarse pass plus exact
refinement of the maximizing candidates); upper bounds from root-normalized
word norms, which certify the joint radius by submultiplicativity.

A scan stacks the words of every length of several sets, each (set,
length) pair a contiguous slice marked by ``bounds``, and brackets and
norms them in one batched call.  A call has a fixed cost of about half a
millisecond against about 0.1 microseconds per small word, so the small
sets of one chain, or the levels of one symmetrization sequence, share a
call of at most ``_BATCH_WORDS`` words; a larger set is scanned alone.
Within each slice the coarse pass brackets only the words that can matter,
by the exact rule of ``matrices._dominated``.  The rule is per slice,
because the Gelfand sequence refines each length alone; the call enforces
it through ``bounds``, so each set and length keeps its own best lower
bound, and each set gets the bracket a call of its own gives it.  The
pruning is best-first: a slice of more than ``_BATCH_WORDS`` survivors of
the row-sum stage first brackets its few best words, whose lower ends
then prune the rest before they are squared.  The last length of each
set, its largest, is lazy under every norm: the rule runs first on its raw
row sums, and only the words it keeps, with those whose certified norm
bounds can reach the length's largest norm, are normalized and bracketed.
Shorter lengths are the prefixes of longer words, so those are normalized
in full.  The row-sum norms come from the coarse pass's own row-sum stage.
Under the two norm, a scan of at most ``_BATCH_WORDS`` words brackets
their Gram matrices in the same squaring loop, each Gram length one more
slice with its own tolerance and cap; a larger scan brackets them in a
second call.  Sets of more than ``_BATCH_WORDS`` members are not deduped;
in a stack that large, when at most half its words are distinct, the
bracket squares each distinct normalized word of a length once and gives
its copies its bracket, which is exact (see ``matrices._batch_bracket``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import CapExceeded, SoundnessError
from .matrices import (_BATCH_WORDS, DEFAULT_TOL, ROW_SUM, SPECTRAL,
                       RadiusBracket, _batch_bracket, _dominated, _gram_norms,
                       _last_axis, _stack_norms, _with_grams,
                       spectral_radius_bracket)
from .sets import (MatrixSet, _kernel_exponents, _pairwise, dedupe,
                   set_power, symmetrize_ab)

WORD_CAP = 200_000
DEFAULT_WORD_BUDGET = 20_000  # symmetrization levels, set chains and CLI
_MAX_REFINE = 2000
_REFINE_SLACK = 1e-10  # refinement stops within this of the best log radius
_LEVEL_TOL = 1e-12  # bracket tolerance of each symmetrization level


@dataclass(frozen=True)
class GelfandSequence:
    """Per-depth root-normalized best radius (lower) and best norm (upper)."""

    entries: tuple[tuple[int, float, float], ...]  # (m, lower_m, upper_m)
    norm: str

    def lower_envelope(self) -> list[float]:
        return list(accumulate((lo for _, lo, _ in self.entries), max))

    def upper_envelope(self) -> list[float]:
        return list(accumulate((hi for _, _, hi in self.entries), min))


@dataclass(frozen=True)
class SymmetrizationSequence:
    """Levels ``r_n = r(S(psi^(2^n)))^(2^-n)`` of the symmetrization bound."""

    alpha: float
    beta: float | None
    levels: tuple[tuple[int, RadiusBracket], ...]


def _scales(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divisors and log scales of the row-sum norms ``s`` of a stack: a
    zero slice keeps divisor 1 and log scale -inf."""
    safe = np.where(s > 0, s, 1.0)
    return safe, np.where(s > 0, np.log(safe), -np.inf)


def _normalize_batch(batch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each slice divided by its row-sum norm to ``out``; return the
    log scales.

    Zero slices are left as zeros with log scale -inf.
    """
    # row sums read no scales
    safe, logs = _scales(_stack_norms(batch, ROW_SUM, None, None))
    np.divide(batch, safe[:, None, None], out=out)
    return logs


def _lazy_length(raw: np.ndarray, prefix, out: np.ndarray,
                 out_logs: np.ndarray, kind: str) -> np.ndarray:
    """Normalize into ``out``, in order, and their log scales into
    ``out_logs``, only the words of the length ``raw`` that its bracket and
    ``kind`` norm can read; return the mask of those words.

    ``prefix`` holds the words' log scales before their own row-sum norm
    ``s`` (``None`` for a set's members); it is added to in place.  ``s``
    and the log scales are those of :func:`_normalize_batch`, and a kept
    word is divided by the same ``s``, so it reads the bits a full pass
    gives it.  A word is dropped when :func:`matrices._dominated` finds its
    raw ``[min, max]`` row sum over ``s`` dominated; that is within about
    ``n + 1`` ulps of the normalized word's, well inside the rule's guard.
    It is kept, whatever the rule says, when the certified bounds of
    :func:`_norm_bounds` let its norm reach the length's largest, within a
    rounding guard relative to its size; so the largest norm is that of a
    kept word, as in a full pass.
    """
    n = raw.shape[-1]
    rows = _last_axis(np.add, raw)
    lo, hi = _last_axis(np.minimum, rows), _last_axis(np.maximum, rows)
    del rows  # each freed stack-sized array is memory the next one reuses
    safe, logs = _scales(hi)
    if prefix is not None:
        prefix += logs
        logs = prefix
    lo /= safe
    hi /= safe
    gone = _dominated(lo, hi, logs, n, [-np.inf], [0, len(hi)])[0]
    norm_lo, norm_hi = _norm_bounds(raw, kind, hi, safe, logs)
    top = norm_lo.max()
    keep = ~gone
    keep |= norm_hi >= top - 1e-12 * (n + abs(top))
    # gathered straight into the stack and divided there: no second copy
    idx = np.flatnonzero(keep)
    w = np.take(raw, idx, axis=0, out=out[:len(idx)], mode="clip")
    w /= safe[idx, None, None]
    out_logs[:len(idx)] = logs[idx]
    return keep


def _norm_bounds(raw: np.ndarray, kind: str, r: np.ndarray,
                 safe: np.ndarray, logs: np.ndarray):
    """Certified log lower and upper bounds of the ``kind`` norm of each
    normalized word ``raw / safe``, whose largest row sum is ``r``.

    The row-sum norm is ``r``, and the column-sum norm the largest column
    sum ``c`` of ``raw`` over ``safe``; both are exact up to a few ulps.
    The spectral norm lies in ``[max(r, c) / sqrt(n), sqrt(r c)]``.  Its
    computed value never passes the upper end: the Gram matrix's bracket
    has an upper end at most its largest row sum, which is at most
    ``r c``, and a word a length drops cannot hold its printed norm.
    """
    if kind == ROW_SUM:  # a normalized word's r is 1, or 0 with logs -inf
        return logs, logs
    cols = _last_axis(np.add, raw.transpose(0, 2, 1))
    c = _last_axis(np.maximum, cols) / safe
    del cols
    if kind != SPECTRAL:
        c = _log0(c) + logs
        return c, c
    n = raw.shape[-1]
    return (_log0(np.maximum(r, c)) - 0.5 * math.log(n) + logs,
            0.5 * _log0(r * c) + logs)


def _word_count(k: int, depth: int) -> int:
    """Number of words of length 1..depth over k letters, sum_{m<=d} k**m."""
    return depth if k == 1 else (k ** (depth + 1) - k) // (k - 1)


def _feasible_depth(k: int, budget: int) -> int:
    """Largest depth d <= 64 with at most ``budget`` words (at least 1)."""
    if k <= 1:
        return 64
    d = 1
    while d < 64 and _word_count(k, d + 1) <= budget:
        d += 1
    return d


def _digits(idx: int, k: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(idx % k)
        idx //= k
    return tuple(reversed(out))


def _word_matrix(members: np.ndarray, digits) -> tuple[np.ndarray, float]:
    """Renormalized product of the given word; returns (matrix, log scale).

    Only the first product, of two raw members, can overflow on valid
    input; see :func:`_first_product`.
    """
    prod = members[digits[0]].copy()
    logscale = 0.0
    for i, d in enumerate(digits[1:]):
        if i:
            prod = prod @ members[d]
        else:
            prod, logscale = _first_product(prod, members[d])
        s = prod.sum(axis=1).max()
        if s == 0:
            return prod, -math.inf
        prod /= s
        logscale += math.log(s)
    s = prod.sum(axis=1).max()
    if s == 0:
        return prod, -math.inf
    prod /= s
    logscale += math.log(s)
    return prod, logscale


def _first_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``(a @ b, 0.0)``, or where that overflows, ``(2**-e a @ b, e log 2)``
    with ``2**e`` the power of two at ``a``'s row-sum norm.

    Dividing by a power of two is exact, so the second product is the first
    scaled; its row-sum norm is at most ``b``'s, and it normalizes to the
    matrix the exact product would.  A product that does not overflow keeps
    its bits.
    """
    with np.errstate(over="ignore"):
        prod = a @ b
    if np.logical_and.reduce(np.isfinite(prod), axis=None):
        return prod, 0.0
    e = math.frexp(a.sum(axis=1).max())[1]
    return np.ldexp(a, -e) @ b, e * math.log(2.0)


@dataclass
class _Level:
    m: int
    lo_log: np.ndarray    # log certified lower bound of rho per word
    hi_log: np.ndarray    # log certified upper bound of rho per word
    norm_log: float       # log of the largest word norm at this depth


def _log0(x: np.ndarray) -> np.ndarray:
    """Elementwise log with ``log 0 = -inf`` (positive values are clamped to
    1e-300 first)."""
    return np.where(x > 0, np.log(np.maximum(x, 1e-300)), -np.inf)


def _dedupe_fast(sigma: MatrixSet) -> MatrixSet:
    """Dedupe sets of at most ``_BATCH_WORDS`` members; larger ones are
    used as they are, since the sort would cost more than their scan.  The
    copies they hold, and those the normalization makes, are shared by the
    bracket instead where at most half the words are distinct
    (``matrices._batch_bracket``)."""
    return dedupe(sigma) if len(sigma) <= _BATCH_WORDS else sigma


def _check_search(depth: int, word_budget: int | None) -> None:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if word_budget is not None and word_budget < 1:
        raise ValueError("word_budget must be >= 1")


def _scans(sets, depth: int, kind: str, cap: int, word_budget: int | None):
    """The levels of each of ``sets`` in turn: the bracketed words of every
    length ``m <= depth`` over its members, which the caller has deduped
    with :func:`_dedupe_fast`.

    With a ``word_budget`` each set's depth is cut to fit it; without one,
    a depth needing more than ``cap`` words raises ``CapExceeded`` once
    the sets before it are yielded.  Consecutive sets of one dimension
    whose words fit in ``_BATCH_WORDS`` together share one batched call; a
    larger set is scanned alone.
    """
    _check_search(depth, word_budget)
    batch, total = [], 0
    for s in sets:
        k = len(s)
        if word_budget is not None:
            d = min(depth, _feasible_depth(k, word_budget))
        # every level adds a word, so counting past depth cap + 1 is moot
        elif _word_count(k, min(depth, cap + 1)) > cap:
            yield from _scan_batch(batch, kind)
            raise CapExceeded(
                f"enumerating {k} matrices to depth {depth} needs more "
                f"than {cap} words", cap=cap)
        else:
            d = depth
        count = _word_count(k, d)
        if batch and (total + count > _BATCH_WORDS
                      or s.dim != batch[0][0].dim):
            yield from _scan_batch(batch, kind)
            batch, total = [], 0
        batch.append((s, d))
        total += count
    yield from _scan_batch(batch, kind)


def _scan_batch(batch, kind: str):
    """The levels of each ``(set, depth)`` of ``batch``, from one stack of
    all their words: set by set, the words of length ``m`` in one slice
    marked by ``bounds``, so one ``_batch_bracket`` call serves every set
    and length.  Under the column-sum norm one ``_stack_norms`` call adds
    the norms.  Under the two norm the Gram matrices join the words' call
    when the stack holds at most ``_BATCH_WORDS`` words; a larger stack
    brackets them in a ``_stack_norms`` call, so that the joined stack
    does not raise peak memory.

    Each set's last length holds only the words :func:`_lazy_length`
    keeps; its level reads ``-inf`` for the others, as for a word the
    bracket drops.  Shorter lengths are the prefixes of longer words, so
    these are kept in full.
    """
    if not batch:
        return
    n = batch[0][0].dim
    total = sum(_word_count(len(s), d) for s, d in batch)
    # only the part the kept words fill is ever touched
    words, logs = np.empty((total, n, n)), np.empty(total)
    bounds, kept = [0], []
    for s, d in batch:
        a, k = bounds[-1], len(s)
        raw, prefix, keep = s.members, None, None
        for m in range(1, d + 1):
            b = bounds[-1]
            if m > 1:
                prev = slice(bounds[-2], b)
                raw = _pairwise(np.matmul, words[prev], words[a:a + k])
                prefix = (logs[prev][:, None]
                          + logs[a:a + k][None, :]).reshape(-1)
            if m == d:
                keep = _lazy_length(raw, prefix, words[b:], logs[b:], kind)
                bounds.append(b + np.count_nonzero(keep))
            else:
                extra = _normalize_batch(raw, words[b:b + len(raw)])
                logs[b:b + len(raw)] = (extra if prefix is None
                                        else prefix + extra)
                bounds.append(b + len(raw))
        kept.append(keep)  # a mask: an eighth of the indices' memory
    del raw, prefix
    bounds = np.array(bounds)
    k = bounds[-1]
    words, logs = words[:k], logs[:k]
    if kind == SPECTRAL and k <= _BATCH_WORDS:
        # one squaring loop for the words and their Gram matrices
        lo, hi, row_norms = _batch_bracket(*_with_grams(words, logs, bounds))
        norms = _gram_norms(hi[k:])
        lo, hi, row_norms = lo[:k], hi[:k], row_norms[:k]
    else:
        # the row-sum norms are the bracket's own row-sum stage, bit for bit
        norms = None if kind == ROW_SUM else _stack_norms(words, kind, logs,
                                                          bounds)
        lo, hi, row_norms = _batch_bracket(words, logs, bounds)
    norm_logs = np.maximum.reduceat(
        _log0(row_norms if norms is None else norms) + logs, bounds[:-1])
    lo_log, hi_log = _log0(lo) + logs, _log0(hi) + logs
    del words, lo, hi, row_norms, norms  # not held while sets are refined
    slices = list(zip(bounds, bounds[1:], norm_logs))
    first = 0
    for (_, d), keep in zip(batch, kept):
        levels = []
        for m, (a, b, top) in enumerate(slices[first:first + d], 1):
            lo_m, hi_m = lo_log[a:b], hi_log[a:b]
            if m == d and keep is not None:
                lo_m, hi_m = (_spread(v, keep) for v in (lo_m, hi_m))
            levels.append(_Level(m, lo_m, hi_m, float(top)))
        first += d
        yield levels


def _spread(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``values`` where ``keep`` holds, and -inf elsewhere."""
    out = np.full(len(keep), -np.inf)
    out[keep] = values
    return out


def _refine_best(members: np.ndarray, levels, tol: float):
    """Exact-bracket refinement of the maximizing words.

    Returns ``(lower, (m, digits))`` where ``lower`` is the certified
    maximum of ``rho(word)^(1/m)`` over all scanned words, within
    ``_REFINE_SLACK`` of the true maximum in log scale.
    """
    k = members.shape[0]
    best_log = -math.inf
    witness = (levels[0].m, _digits(0, k, levels[0].m))
    for lev in levels:
        idx = int(np.argmax(lev.lo_log))
        val = lev.lo_log[idx] / lev.m
        if val > best_log:
            best_log = val
            witness = (lev.m, _digits(idx, k, lev.m))
    # the loop below stops at the first candidate within the slack of the
    # coarse best, so no other word is ever read; candidates are read in
    # descending (hi, m, index) order
    vals, ms, pos = [], [], []
    for lev in levels:
        v = lev.hi_log / lev.m
        i = np.flatnonzero(v > best_log + _REFINE_SLACK)
        vals.append(v[i])
        ms.append(np.full(len(i), lev.m))
        pos.append(i)
    vals, ms, pos = map(np.concatenate, (vals, ms, pos))
    refined = 0
    for c in np.lexsort((pos, ms, vals))[::-1]:
        hi_val, m, i = vals[c], int(ms[c]), int(pos[c])
        if hi_val <= best_log + _REFINE_SLACK or refined >= _MAX_REFINE:
            break
        word = _digits(i, k, m)
        mat, logscale = _word_matrix(members, word)
        if logscale == -math.inf:
            continue
        b = spectral_radius_bracket(mat, tol=tol)
        refined += 1
        if b.lo > 0:
            val = (math.log(b.lo) + logscale) / m
            if val > best_log:
                best_log = val
                witness = (m, word)
    return math.exp(best_log), witness


def _norm_bound(levels) -> float:
    """Certified upper bound ``min_m (max_{|w| = m} ||w||)^(1/m)``."""
    return math.exp(min(lev.norm_log / lev.m for lev in levels))


def _witness_text(name: str | None, m: int, digits) -> str:
    label = name or "set"
    word = "*".join(f"{label}[{d}]" for d in digits)
    return f"depth {m}: {word}"


def gen_radius_lower(sigma: MatrixSet, depth: int, *,
                     tol: float = DEFAULT_TOL, cap: int = WORD_CAP,
                     word_budget: int | None = None) -> tuple[float, str]:
    """Certified lower bound ``max_{m<=depth} max_{w in sigma^m}
    rho(w)^(1/m)`` for the generalized spectral radius, with a witness
    naming the maximizing word (indices refer to the deduped, canonically
    ordered member list)."""
    sigma = _dedupe_fast(sigma)
    [levels] = _scans([sigma], depth, ROW_SUM, cap, word_budget)
    lower, (m, word) = _refine_best(sigma.members, levels, tol)
    return lower, _witness_text(sigma.name, m, word)


def joint_radius_upper(sigma: MatrixSet, depth: int, kind: str = ROW_SUM, *,
                       cap: int = WORD_CAP,
                       word_budget: int | None = None) -> float:
    """Certified upper bound ``min_{m<=depth} (max_{w in sigma^m}
    ||w||)^(1/m)`` for the joint spectral radius."""
    [levels] = _scans([_dedupe_fast(sigma)], depth, kind, cap, word_budget)
    return _norm_bound(levels)


def radius_bracket_set(sigma: MatrixSet, depth: int, kind: str = ROW_SUM, *,
                       tol: float = DEFAULT_TOL, cap: int = WORD_CAP,
                       word_budget: int | None = None) -> RadiusBracket:
    """Simultaneous bracket for the generalized and joint spectral radius
    (they coincide for finite sets of finite matrices)."""
    return next(_bracket_sets([sigma], depth, kind, tol, cap, word_budget))


def _bracket_sets(sets, depth: int, kind: str, tol: float, cap: int,
                  word_budget: int | None):
    """:func:`radius_bracket_set` of each of ``sets`` in turn."""
    return _deduped_brackets([_dedupe_fast(s) for s in sets], depth, kind,
                             tol, cap, word_budget)


def _deduped_brackets(sets, depth: int, kind: str, tol: float, cap: int,
                      word_budget: int | None):
    """:func:`radius_bracket_set` of each of ``sets``, which
    :func:`_dedupe_fast` gave, in turn.

    The sets share the batched scans of :func:`_scans`; a one-member set
    is bracketed as a matrix.  Each set's refinement runs when its bracket
    is asked for, so the sets before a failing one yield their brackets
    first, as separate calls would.
    """
    _check_search(depth, word_budget)
    scans = _scans([s for s in sets if len(s) > 1], depth, kind, cap,
                   word_budget)
    for s in sets:
        if len(s) == 1:
            b = spectral_radius_bracket(s.members[0], tol=tol)
            yield RadiusBracket(b.lo, b.hi, depth, kind)
            continue
        levels = next(scans)
        lo = _refine_best(s.members, levels, tol)[0]
        hi = _norm_bound(levels)
        if lo > hi + tol * max(1.0, hi):
            raise SoundnessError(
                f"certified lower bound {lo} exceeds certified upper bound "
                f"{hi}")
        yield RadiusBracket(min(lo, hi), max(lo, hi), depth, kind)


def gelfand_sequence(sigma: MatrixSet, depth: int, kind: str = ROW_SUM, *,
                     tol: float = DEFAULT_TOL, cap: int = WORD_CAP,
                     word_budget: int | None = None) -> GelfandSequence:
    """Per-depth lower and upper values (not the running envelopes)."""
    sigma = _dedupe_fast(sigma)
    [levels] = _scans([sigma], depth, kind, cap, word_budget)
    return GelfandSequence(tuple(
        (lev.m, _refine_best(sigma.members, [lev], tol)[0],
         _norm_bound([lev])) for lev in levels), kind)


def symmetrization_sequence(psi: MatrixSet, alpha: float, n_max: int,
                            depth: int, kind: str = ROW_SUM, *,
                            word_budget: int | None = DEFAULT_WORD_BUDGET
                            ) -> SymmetrizationSequence:
    """Monotone bound sequence ``r_n = r(S_alpha(psi^(2^n)))^(2^-n)``."""
    a, b = _kernel_exponents(alpha)
    seq = symmetrization_sequence_ab(psi, a, b, n_max, depth, kind,
                                     word_budget=word_budget)
    return SymmetrizationSequence(alpha, None, seq.levels)


def symmetrization_sequence_ab(psi: MatrixSet, alpha: float, beta: float,
                               n_max: int, depth: int, kind: str = ROW_SUM, *,
                               word_budget: int | None = DEFAULT_WORD_BUDGET
                               ) -> SymmetrizationSequence:
    """Weighted variant ``r_n = r(S_{alpha,beta}(psi^(2^n)))^(2^-n)`` for
    ``alpha + beta >= 1``; the terminal comparison target is
    ``r(psi)^(alpha+beta)``.

    A uniform search depth across levels keeps the finite-depth lower
    maxima provably monotone (each length-2m word over ``S(psi^(2^n))`` is
    entrywise dominated by a length-m word over ``S(psi^(2^(n+1)))``).
    A ``word_budget`` of ``None`` cuts no depth, as in the radius queries:
    a level needing more than ``WORD_CAP`` words raises ``CapExceeded``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    _check_search(depth, word_budget)
    level_sets = [
        _dedupe_fast(symmetrize_ab(set_power(psi, 2 ** n), alpha, beta))
        for n in range(n_max + 1)]
    d = depth if word_budget is None else min(
        [depth] + [_feasible_depth(len(s), word_budget) for s in level_sets])
    brackets = _deduped_brackets(level_sets, d, kind, _LEVEL_TOL, WORD_CAP,
                                 word_budget)
    return SymmetrizationSequence(alpha, beta, tuple(
        (n, b.powered(2.0 ** -n)) for n, b in enumerate(brackets)))
