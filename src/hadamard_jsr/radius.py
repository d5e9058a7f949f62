"""Certified lower/upper estimation of the generalized and joint spectral
radius of a finite matrix set.

Word products are enumerated breadth-first as batched numpy stacks, with
every product renormalized by its row-sum norm and the log-scale accumulated
separately, so deep products never overflow.  Lower bounds come from
per-word spectral-radius brackets (a vectorized coarse pass plus exact
refinement of the maximizing candidates); upper bounds from root-normalized
word norms, which certify the joint radius by submultiplicativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, SoundnessError
from .matrices import (COL_SUM, DEFAULT_TOL, ROW_SUM, SPECTRAL, RadiusBracket,
                       spectral_radius_bracket)
from .sets import MEMBER_CAP, MatrixSet, dedupe, set_power, symmetrize_ab

WORD_CAP = 200_000
_SPECTRAL_TOL = 1e-12
_COARSE_SQUARINGS = 10
_MAX_REFINE = 2000


@dataclass(frozen=True)
class GelfandSequence:
    """Per-depth root-normalized best radius (lower) and best norm (upper)."""

    entries: tuple[tuple[int, float, float], ...]  # (m, lower_m, upper_m)
    norm: str

    def lower_envelope(self) -> list[float]:
        out, best = [], 0.0
        for _, lo, _ in self.entries:
            best = max(best, lo)
            out.append(best)
        return out

    def upper_envelope(self) -> list[float]:
        out, best = [], math.inf
        for _, _, hi in self.entries:
            best = min(best, hi)
            out.append(best)
        return out


@dataclass(frozen=True)
class SymmetrizationSequence:
    """Levels ``r_n = r(S(psi^(2^n)))^(2^-n)`` of the symmetrization bound."""

    alpha: float
    beta: float | None
    levels: tuple[tuple[int, RadiusBracket], ...]


def _normalize_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each slice by its row-sum norm; return (batch, log scales).

    Zero slices are left as zeros with log scale -inf.
    """
    s = batch.sum(axis=2).max(axis=1)
    safe = np.where(s > 0, s, 1.0)
    out = batch / safe[:, None, None]
    with np.errstate(divide="ignore"):
        logs = np.where(s > 0, np.log(safe), -np.inf)
    return out, logs


def _batch_bracket(batch: np.ndarray, tol: float = 1e-6,
                   squarings: int = _COARSE_SQUARINGS):
    """Vectorized Collatz-Wielandt brackets for ``rho`` of every slice.

    Always sound; tight only for slices whose primitive shift converges
    within the squaring budget (reducible slices may stay loose on the
    lower side, which refinement repairs).
    """
    k, n, _ = batch.shape
    if n == 1:
        v = batch[:, 0, 0]
        return v.copy(), v.copy()
    best_lo = np.zeros(k)
    best_hi = np.full(k, np.inf)
    p = batch + np.eye(n)
    q = p / p.reshape(k, -1).max(axis=1)[:, None, None]
    active = np.arange(k)
    for _ in range(squarings):
        # The diagonal of q is mathematically positive but can underflow
        # to zero under repeated squaring; clamping keeps x a valid
        # positive test vector.
        x = np.maximum(q.sum(axis=2), 1e-300)
        ratios = np.einsum("kij,kj->ki", p, x) / x
        lo_a = np.maximum(best_lo[active], ratios.min(axis=1))
        hi_a = np.minimum(best_hi[active], ratios.max(axis=1))
        best_lo[active] = lo_a
        best_hi[active] = hi_a
        # drop converged slices from the squaring loop
        open_mask = hi_a - lo_a > tol * np.maximum(1.0, hi_a - 1.0)
        if not open_mask.any():
            break
        if not open_mask.all():
            active = active[open_mask]
            p = p[open_mask]
            q = q[open_mask]
        q = np.matmul(q, q)
        q /= q.reshape(len(active), -1).max(axis=1)[:, None, None]
    lo = np.maximum(best_lo - 1.0, 0.0)
    hi = np.maximum(best_hi - 1.0, lo)
    return lo, hi


def _feasible_depth(k: int, budget: int) -> int:
    """Largest depth d with sum_{m<=d} k**m <= budget (at least 1)."""
    if k <= 1:
        return 64
    d, total, level = 0, 0, 1
    while d < 64:
        level *= k
        total += level
        if total > budget and d >= 1:
            break
        d += 1
    return max(d, 1)


def _digits(idx: int, k: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(idx % k)
        idx //= k
    return tuple(reversed(out))


def _word_matrix(members: np.ndarray, digits) -> tuple[np.ndarray, float]:
    """Renormalized product of the given word; returns (matrix, log scale)."""
    prod = members[digits[0]].copy()
    logscale = 0.0
    for d in digits[1:]:
        prod = prod @ members[d]
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


@dataclass
class _Level:
    m: int
    lo_log: np.ndarray    # log certified lower bound of rho per word
    hi_log: np.ndarray    # log certified upper bound of rho per word
    norm_log: float       # log of the largest word norm at this depth


def _norm_logs(batch: np.ndarray, logs: np.ndarray, kind: str) -> np.ndarray:
    if kind == ROW_SUM:
        vals = batch.sum(axis=2).max(axis=1)
    elif kind == COL_SUM:
        vals = batch.sum(axis=1).max(axis=1)
    elif kind == SPECTRAL:
        gram = np.matmul(batch.transpose(0, 2, 1), batch)
        _, hi = _batch_bracket(gram, tol=_SPECTRAL_TOL, squarings=60)
        vals = np.sqrt(hi) * (1.0 + _SPECTRAL_TOL)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    with np.errstate(divide="ignore"):
        return np.where(vals > 0, np.log(np.maximum(vals, 1e-300)),
                        -np.inf) + logs


def _dedupe_fast(sigma: MatrixSet) -> MatrixSet:
    """Dedupe small sets; very large sets are used as-is (duplicates are
    rare there and the sort would dominate the whole computation)."""
    return dedupe(sigma) if len(sigma) <= 4096 else sigma


def _scan(members: np.ndarray, depth: int, kind: str, cap: int,
          word_budget: int | None) -> list[_Level]:
    """Enumerate word products level by level and bracket each word."""
    k = members.shape[0]
    if word_budget is not None:
        depth = min(depth, _feasible_depth(k, word_budget))
    else:
        total, level = 0, 1
        for _ in range(depth):
            level *= k
            total += level
            if total > cap:
                raise CapExceeded(
                    f"enumerating {k} matrices to depth {depth} needs more "
                    f"than {cap} words", cap=cap)
    base, base_logs = _normalize_batch(np.array(members))
    batch, logs = base, base_logs
    levels = []
    for m in range(1, depth + 1):
        if m > 1:
            n = batch.shape[1]
            batch = np.matmul(batch[:, None], base[None, :]).reshape(-1, n, n)
            logs = (logs[:, None] + base_logs[None, :]).reshape(-1)
            batch, extra = _normalize_batch(batch)
            logs = logs + extra
        lo, hi = _batch_bracket(batch)
        with np.errstate(divide="ignore"):
            lo_log = np.where(lo > 0, np.log(np.maximum(lo, 1e-300)),
                              -np.inf) + logs
            hi_log = np.where(hi > 0, np.log(np.maximum(hi, 1e-300)),
                              -np.inf) + logs
        levels.append(_Level(m, lo_log, hi_log,
                             float(np.max(_norm_logs(batch, logs, kind)))))
    return levels


def _refine_best(members: np.ndarray, levels, tol: float,
                 slack: float = 1e-10):
    """Exact-bracket refinement of the maximizing words.

    Returns ``(best_log, (m, digits))`` where ``best_log`` is the log of the
    certified maximum of ``rho(word)^(1/m)`` over all scanned words, within
    ``slack`` of the true maximum.
    """
    k = members.shape[0]
    best_log = -math.inf
    witness = (levels[0].m, _digits(0, k, levels[0].m))
    candidates = []
    for lev in levels:
        idx = int(np.argmax(lev.lo_log))
        val = lev.lo_log[idx] / lev.m
        if val > best_log:
            best_log = val
            witness = (lev.m, _digits(idx, k, lev.m))
        for i in np.flatnonzero(lev.hi_log / lev.m >= best_log - 1e-12):
            candidates.append((lev.hi_log[i] / lev.m, lev.m, int(i)))
    candidates.sort(reverse=True)
    refined = 0
    for hi_val, m, i in candidates:
        if hi_val <= best_log + slack or refined >= _MAX_REFINE:
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
    return best_log, witness


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
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ms = _dedupe_fast(sigma)
    levels = _scan(ms.members, depth, ROW_SUM, cap, word_budget)
    best_log, (m, word) = _refine_best(ms.members, levels, tol)
    return math.exp(best_log) if best_log > -math.inf else 0.0, \
        _witness_text(sigma.name, m, word)


def joint_radius_upper(sigma: MatrixSet, depth: int, kind: str = ROW_SUM, *,
                       cap: int = WORD_CAP,
                       word_budget: int | None = None) -> float:
    """Certified upper bound ``min_{m<=depth} (max_{w in sigma^m}
    ||w||)^(1/m)`` for the joint spectral radius."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ms = _dedupe_fast(sigma)
    levels = _scan(ms.members, depth, kind, cap, word_budget)
    best = min(lev.norm_log / lev.m for lev in levels)
    return math.exp(best) if best > -math.inf else 0.0


def radius_bracket_set(sigma: MatrixSet, depth: int, kind: str = ROW_SUM, *,
                       tol: float = DEFAULT_TOL, cap: int = WORD_CAP,
                       word_budget: int | None = None) -> RadiusBracket:
    """Simultaneous bracket for the generalized and joint spectral radius
    (they coincide for finite sets of finite matrices)."""
    ms = _dedupe_fast(sigma)
    if len(ms) == 1:
        b = spectral_radius_bracket(ms.members[0], tol=tol)
        return RadiusBracket(b.lo, b.hi, depth, kind)
    levels = _scan(ms.members, depth, kind, cap, word_budget)
    best_log, _ = _refine_best(ms.members, levels, tol)
    lo = math.exp(best_log) if best_log > -math.inf else 0.0
    up = min(lev.norm_log / lev.m for lev in levels)
    hi = math.exp(up) if up > -math.inf else 0.0
    if lo > hi + tol * max(1.0, hi):
        raise SoundnessError(
            f"certified lower bound {lo} exceeds certified upper bound {hi}")
    return RadiusBracket(min(lo, hi), max(lo, hi), depth, kind)


def gelfand_sequence(sigma: MatrixSet, depth: int, kind: str = ROW_SUM, *,
                     tol: float = DEFAULT_TOL, cap: int = WORD_CAP,
                     word_budget: int | None = None) -> GelfandSequence:
    """Per-depth lower and upper values (not the running envelopes)."""
    ms = _dedupe_fast(sigma)
    levels = _scan(ms.members, depth, kind, cap, word_budget)
    entries = []
    for lev in levels:
        best_log, _ = _refine_best(ms.members, [lev], tol)
        lower = math.exp(best_log) if best_log > -math.inf else 0.0
        upper = math.exp(lev.norm_log / lev.m) \
            if lev.norm_log > -math.inf else 0.0
        entries.append((lev.m, lower, upper))
    return GelfandSequence(tuple(entries), kind)


def symmetrization_sequence(psi: MatrixSet, alpha: float, n_max: int,
                            depth: int, kind: str = ROW_SUM, *,
                            tol: float = 1e-12, cap: int = MEMBER_CAP,
                            word_budget: int = 20_000
                            ) -> SymmetrizationSequence:
    """Monotone bound sequence ``r_n = r(S_alpha(psi^(2^n)))^(2^-n)``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    seq = symmetrization_sequence_ab(psi, alpha, 1.0 - alpha, n_max, depth,
                                     kind, tol=tol, cap=cap,
                                     word_budget=word_budget)
    return SymmetrizationSequence(alpha, None, seq.levels)


def symmetrization_sequence_ab(psi: MatrixSet, alpha: float, beta: float,
                               n_max: int, depth: int, kind: str = ROW_SUM, *,
                               tol: float = 1e-12, cap: int = MEMBER_CAP,
                               word_budget: int = 20_000
                               ) -> SymmetrizationSequence:
    """Weighted variant ``r_n = r(S_{alpha,beta}(psi^(2^n)))^(2^-n)`` for
    ``alpha + beta >= 1``; the terminal comparison target is
    ``r(psi)^(alpha+beta)``.

    A uniform search depth across levels keeps the finite-depth lower
    maxima provably monotone (each length-2m word over ``S(psi^(2^n))`` is
    entrywise dominated by a length-m word over ``S(psi^(2^(n+1)))``).
    """
    level_sets = [
        _dedupe_fast(symmetrize_ab(set_power(psi, 2 ** n, cap=cap), alpha,
                                   beta, cap=cap))
        for n in range(n_max + 1)]
    d = min([depth] + [_feasible_depth(len(s), word_budget)
                       for s in level_sets])
    d = max(d, 1)
    levels = []
    for n, s in enumerate(level_sets):
        b = radius_bracket_set(s, d, kind, tol=tol, cap=cap,
                               word_budget=word_budget)
        levels.append((n, b.powered(2.0 ** -n)))
    return SymmetrizationSequence(alpha, beta, tuple(levels))
