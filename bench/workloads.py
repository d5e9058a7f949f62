"""The benchmark's four workloads; ``bench/WORKLOADS.md`` says why each
exists and how its inputs are chosen.

Op ``j`` uses instance ``j // per_instance`` and variant
``j % per_instance``; instance ``i`` comes from its own splitmix64 stream.
``run`` is the timed call into the library.  ``outcome`` runs for the first
``checked_ops`` ops, outside the timed region and never under the tracer:
it turns what ``run`` returned or raised into an :class:`Outcome` whose
``problems`` make the op count as failed.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

import hadamard_jsr
from hadamard_jsr import chains, cli, instances, radius
from hadamard_jsr.instances import GeneratorParams, SplitMix64
from hadamard_jsr.oracle import oracle_gen_radius, oracle_spectral_radius

SCALES = (1e-6, 1.0, 1e6)
SET_CHAIN_IDS = ("powers", "refin", "kathyprop-mat", "finally", "kathyth1",
                 "equalities-joint", "kathyth2", "finally2", "geom-sym")
# relative slack of an oracle comparison: far above the error of LAPACK's
# eigenvalues of these small matrices, far below the defects it must catch
ORACLE_REL = 1e-7
# slack of the criterion-5 rules, as in the acceptance test
SYM_TOL = 1e-9

TIMED, WARMUP = 0, 1


def _stream(seed: int, tag: int, index: int) -> SplitMix64:
    """Independent splitmix64 stream for instance ``index`` of a run."""
    head = SplitMix64(seed * 2 + tag).next_u64()
    return SplitMix64(head ^ SplitMix64(index).next_u64())


@dataclass
class Outcome:
    text: str                       # canonical text, hashed into the digest
    problems: list = field(default_factory=list)
    reports: int = 0                # chain reports returned
    indeterminate: int = 0          # ... with verdict "indeterminate"
    widths: list = field(default_factory=list)  # (hi - lo) / hi per bracket


def _rel_width(lo: float, hi: float) -> float:
    return (hi - lo) / hi if hi > 0 else 0.0


def _bracket_text(lo: float, hi: float) -> str:
    return f"{lo!r},{hi!r}"


def _add_report(out: Outcome, report) -> None:
    """Canonical text and result checks of one chain report."""
    out.reports += 1
    out.indeterminate += report.verdict == chains.INDETERMINATE
    if report.verdict == chains.VIOLATED:
        out.problems.append(f"{report.theorem_id}: violated")
    parts = []
    for link in report.links:
        lo, hi = link.bracket.lo, link.bracket.hi
        if not lo <= hi:
            out.problems.append(f"{report.theorem_id}: {link.label} "
                                f"has lo > hi")
        out.widths.append(_rel_width(lo, hi))
        parts.append(f"{link.label}={_bracket_text(lo, hi)}")
    out.text += f"{report.theorem_id}|{report.verdict}|{';'.join(parts)}\n"


# ---------------------------------------------------------------------------
# oracle references for the single-matrix chains

def _nilpotent(m: np.ndarray) -> bool:
    """Exact test: a nonnegative matrix is nilpotent iff the digraph of
    its positive entries has no cycle, i.e. the boolean n-th power is 0."""
    p = (m > 0).astype(np.int64)
    r = p
    for _ in range(m.shape[0] - 1):
        r = ((r @ p) > 0).astype(np.int64)
    return not r.any()


def _rho(m: np.ndarray) -> float:
    # LAPACK returns rounding-size eigenvalues for nilpotent matrices
    return 0.0 if _nilpotent(m) else oracle_spectral_radius(m).value


def zhan_references(a, b, beta: float) -> dict:
    """Oracle value of every ``chain_zhan`` link, by label."""
    ab, ba = a @ b, b @ a
    return {
        "r(A∘B)": _rho(a * b),
        "r((A∘A)(B∘B))^(1/2)": _rho((a * a) @ (b * b)) ** 0.5,
        "r(AB∘AB)^(β/2)·r(BA∘BA)^((1-β)/2)":
            _rho(ab * ab) ** (beta / 2) * _rho(ba * ba) ** ((1 - beta) / 2),
        "r(AB)": _rho(ab),
        "r(AB∘BA)^(1/2)": _rho(ab * ba) ** 0.5,
    }


def huang_references(mats) -> dict:
    """Oracle value of every ``chain_huang`` link, by label."""
    m = len(mats)
    cyclic = [reduce(np.matmul, mats[j:] + mats[:j]) for j in range(m)]

    def mean(ms):
        return reduce(np.multiply, [x ** (1.0 / m) for x in ms])

    return {
        "r(A1^(1/m)∘…∘Am^(1/m))": _rho(mean(mats)),
        "r(P1^(1/m)∘…∘Pm^(1/m))^(1/m)": _rho(mean(cyclic)) ** (1.0 / m),
        "r(A1⋯Am)^(1/m)": _rho(cyclic[0]) ** (1.0 / m),
    }


def _oracle_links(out: Outcome, report, refs: dict) -> None:
    for link in report.links:
        ref = refs.get(link.label)
        if ref is None:
            out.problems.append(f"oracle: no reference for {link.label}")
            continue
        lo, hi = link.bracket.lo, link.bracket.hi
        if lo > ref * (1 + ORACLE_REL) or ref > hi * (1 + ORACLE_REL):
            out.problems.append(f"oracle: {report.theorem_id} {link.label} "
                                f"[{lo!r}, {hi!r}] misses {ref!r}")


def _oracle_set(out: Outcome, label: str, lo: float, hi: float,
                sigma, depth: int, power: float = 1.0) -> None:
    """Criterion-6 rule: the exhaustive finite-depth radius lies in the
    bracket, up to the acceptance test's slack."""
    o = oracle_gen_radius(sigma, depth).value ** power
    slack = 1e-8 * max(1.0, o)
    if lo > o + slack or o > hi + slack:
        out.problems.append(f"oracle: {label} [{lo!r}, {hi!r}] misses {o!r}")


# ---------------------------------------------------------------------------

class Workload:
    """Op sequence of one workload; subclasses define the four below."""

    name = ""
    per_instance = 1   # ops per instance
    pool = 1           # instances generated during set-up
    warmup_ops = 1     # ops run on separate warm-up inputs during set-up
    checked_ops = 1    # first ops whose outputs are checked and digested
    replay_ops = 1     # first ops replayed after the timed window
    stride = 1         # a run ends on a multiple of this many ops, so that
                       # every run covers whole rotations of the op mix

    def __init__(self, seed: int):
        self.seed = seed
        self._instances: dict = {}

    def setup(self) -> None:
        """Generate the input pool and warm the library up on inputs that
        the timed ops never see.  Warm-up inputs do not depend on the seed,
        so set-up does the same work in every run."""
        self._instances = {i: self.make_instance(_stream(self.seed, TIMED, i),
                                                 i)
                           for i in range(self.pool)}
        warm = [self.make_instance(_stream(0, WARMUP, i), i)
                for i in range(-(-self.warmup_ops // self.per_instance))]
        for j in range(self.warmup_ops):
            try:
                self.run(warm[j // self.per_instance], j % self.per_instance)
            except Exception:
                pass  # warm-up only; the timed op of the same kind counts it

    def op_input(self, j: int):
        """Inputs of op ``j``.  Instances past the pool are generated on
        demand, outside the timed region, and only the latest is kept, so
        that memory does not grow with the number of ops a run completes."""
        i = j // self.per_instance
        if i not in self._instances:
            if i - 1 >= self.pool:
                self._instances.pop(i - 1, None)
            self._instances[i] = self.make_instance(
                _stream(self.seed, TIMED, i), i)
        return self._instances[i], j % self.per_instance

    def outcome(self, inst, variant: int, j: int, result) -> Outcome:
        """Checked outcome of op ``j``: ``result`` is what ``run`` returned
        or raised.  A failure of the check's own library or oracle calls
        counts against the op."""
        if isinstance(result, Exception):
            name = type(result).__name__
            return Outcome(f"raised {name}\n", [f"raised {name}: {result}"])
        try:
            return self.check(inst, variant, j, result)
        except Exception as exc:
            return Outcome(f"check raised {type(exc).__name__}\n",
                           [f"check raised {exc!r}"])

    def make_instance(self, rng: SplitMix64, i: int):
        raise NotImplementedError

    def run(self, inst, variant: int):
        raise NotImplementedError

    def check(self, inst, variant: int, j: int, result) -> Outcome:
        raise NotImplementedError


class SetChains(Workload):
    name = "set-chains"
    SIZES = (3, 2, 3, 2, 1)
    per_instance = len(SET_CHAIN_IDS)
    pool = 100
    warmup_ops = len(SET_CHAIN_IDS)
    checked_ops = 30 * len(SET_CHAIN_IDS)
    replay_ops = 2 * len(SET_CHAIN_IDS)
    stride = len(SET_CHAIN_IDS)

    def make_instance(self, rng, i):
        size = self.SIZES[i % len(self.SIZES)]
        count = 2 + (i // 5) % 2            # 2..3 sets
        dim = 2 + (i // 10) % 3             # 2..4
        density = 0.5 + 0.5 * rng.next_unit()
        sets = instances.generate_instance(
            GeneratorParams(dim, count, size, density, 1.0,
                            seed=rng.next_u64()))
        alpha = (1.0 / count, 1.0, 2.0)[(i // 10) % 3]
        return sets, alpha

    def run(self, inst, variant):
        sets, alpha = inst
        return chains.run_theorem(SET_CHAIN_IDS[variant], sets, depth=6, n=1,
                                  alpha=alpha, budget=20_000)

    def check(self, inst, variant, j, result):
        out = Outcome("")
        _add_report(out, result)
        if variant == 0:  # once per instance
            for s in inst[0]:
                b = radius.radius_bracket_set(s, 3, word_budget=20_000)
                _oracle_set(out, s.name, b.lo, b.hi, s, 3)
        return out


class Symmetrize(Workload):
    name = "symmetrize"
    VARIANTS = (0.0, 0.3, 0.5, 1.0, (1.0, 1.0), (0.7, 0.5))
    pool = 300
    warmup_ops = 2
    checked_ops = 16 * len(VARIANTS)
    replay_ops = len(VARIANTS)
    stride = 2 * len(VARIANTS)

    def make_instance(self, rng, i):
        dim = 2 + (i // len(self.VARIANTS)) % 2
        sets = instances.generate_instance(
            GeneratorParams(dim, 1, 2, 0.6 + 0.4 * rng.next_unit(), 1.0,
                            seed=rng.next_u64()))
        return sets[0], self.VARIANTS[i % len(self.VARIANTS)]

    def run(self, inst, variant):
        psi, v = inst
        if isinstance(v, tuple):
            return radius.symmetrization_sequence_ab(psi, v[0], v[1], 3,
                                                     depth=6)
        return radius.symmetrization_sequence(psi, v, 3, depth=6)

    def check(self, inst, variant, j, result):
        psi, v = inst
        a, b = v if isinstance(v, tuple) else (v, 1.0 - v)
        out = Outcome(f"{a!r},{b!r}|" + ";".join(
            f"{n}={_bracket_text(x.lo, x.hi)}" for n, x in result.levels)
            + "\n")
        los = []
        for n, x in result.levels:
            if not x.lo <= x.hi:
                out.problems.append(f"level {n} has lo > hi")
            out.widths.append(_rel_width(x.lo, x.hi))
            los.append(x.lo)
        if not all(p <= q + SYM_TOL for p, q in zip(los, los[1:])):
            out.problems.append(f"lower endpoints not monotone: {los}")
        upper = radius.radius_bracket_set(psi, 6, word_budget=20_000).hi
        if los[-1] > upper ** (a + b) + SYM_TOL:
            out.problems.append("terminal level above r(psi)^(a+b)")
        # levels 0 and 1 against the exhaustive radius of S(psi^(2^n))
        words = psi.members
        for n, x in result.levels[:2]:
            if n:
                d = words.shape[1]
                words = np.matmul(words[:, None], words[None, :]).reshape(
                    -1, d, d)
            sym = (words ** a)[:, None] * (
                words.transpose(0, 2, 1) ** b)[None, :]
            members = hadamard_jsr.MatrixSet(sym.reshape(-1, *words.shape[1:]))
            if len(members) ** x.depth <= 2000:
                _oracle_set(out, f"level {n}", x.lo, x.hi, members, x.depth,
                            2.0 ** -n)
        return out


class VerifyAll(Workload):
    name = "verify-all"
    pool = 200
    warmup_ops = 2
    checked_ops = 96
    replay_ops = 6
    ROTATION = ((1e-6, 1, "inf"), (1e6, 1, "two"), (1e-6, 2, "inf"),
                (1.0, 1, "inf"), (1e6, 1, "inf"), (1.0, 2, "two"),
                (1e-6, 1, "two"), (1.0, 1, "two"), (1e6, 2, "inf"),
                (1e-6, 1, "inf"), (1e6, 1, "two"), (1.0, 2, "two"))
    stride = len(ROTATION)
    DIM, SETS, DEPTH, N, BUDGET = 3, 2, 4, 2, 4000
    DENSITY = {1: 0.8, 2: 1.0}          # by set size

    def make_instance(self, rng, i):
        scale, size, norm = self.ROTATION[i % len(self.ROTATION)]
        density = self.DENSITY[size]
        inst_seed = rng.next_u64() >> 1
        argv = ["verify-all", "--seeds", str(inst_seed),
                "--scale", repr(scale), "--norm", norm,
                "--dim", str(self.DIM), "--sets", str(self.SETS),
                "--size", str(size), "--density", repr(density),
                "--depth", str(self.DEPTH), "--n", str(self.N),
                "--budget", str(self.BUDGET)]
        return argv, GeneratorParams(self.DIM, self.SETS, size, density,
                                     scale, inst_seed), norm

    def run(self, inst, variant):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run_command(inst[0])
        return code, buf.getvalue()

    def check(self, inst, variant, j, result):
        _, params, norm = inst
        code, text = result
        out = Outcome(f"exit {code}\n{text}")
        if code not in (cli.EXIT_OK, cli.EXIT_VIOLATED):
            out.problems.append(f"exit code {code}")
        verdicts = {}
        for line in text.splitlines()[1:-1]:
            _, tid, verdict, _ = line.split(",")
            verdicts[tid] = verdict
            out.reports += 1
            out.indeterminate += verdict == chains.INDETERMINATE
            if verdict == chains.VIOLATED:
                out.problems.append(f"{tid}: violated")
        if sorted(verdicts) != sorted(chains.THEOREM_IDS):
            out.problems.append("summary does not list every theorem once")
            return out
        # Recompute two of the op's chains: zhan-chain, whose links the
        # oracle can value, and one rotating set theorem.  Their brackets
        # give the width metric, since the summary prints none.
        sets = instances.generate_instance(params)
        norm_kind = {"inf": hadamard_jsr.ROW_SUM,
                     "two": hadamard_jsr.SPECTRAL}[norm]
        for tid in ("zhan-chain", chains.THEOREM_IDS[1 + j % 14]):
            try:
                rep = chains.run_theorem(tid, sets, depth=self.DEPTH,
                                         norm=norm_kind, n=self.N,
                                         budget=self.BUDGET)
            except Exception as exc:
                out.problems.append(f"recompute {tid} raised {exc!r}")
                continue
            probe = Outcome("")
            _add_report(probe, rep)
            out.widths += probe.widths
            out.problems += probe.problems
            if rep.verdict != verdicts[tid]:
                out.problems.append(f"{tid}: recomputed verdict differs")
            if tid == "zhan-chain":
                mats = [m for s in sets for m in s]
                refs = zhan_references(mats[0], mats[1], 0.5)
                refs.update(huang_references(mats[:3]))
                _oracle_links(out, rep, refs)
        return out


class SingleMatrix(Workload):
    name = "single-matrix"
    per_instance = 2
    pool = 500
    warmup_ops = 60
    checked_ops = 2400
    replay_ops = 600
    stride = 60
    ORACLE_EVERY = 5

    def make_instance(self, rng, i):
        dim = 2 + i % 5                     # 2..6
        count = 2 + i % 2                   # 2..3 matrices
        scale = SCALES[i % 3]
        density = 0.3 + 0.7 * rng.next_unit()
        beta = rng.next_unit()
        sets = instances.generate_instance(
            GeneratorParams(dim, 1, count, density, scale,
                            seed=rng.next_u64()))
        return list(sets[0].members), beta

    def run(self, inst, variant):
        mats, beta = inst
        if variant == 0:
            return chains.chain_zhan(mats[0], mats[1], beta)
        return chains.chain_huang(mats)

    def check(self, inst, variant, j, result):
        out = Outcome("")
        _add_report(out, result)
        if j % self.ORACLE_EVERY == 0:
            mats, beta = inst
            refs = (zhan_references(mats[0], mats[1], beta) if variant == 0
                    else huang_references(mats))
            _oracle_links(out, result, refs)
        return out


WORKLOADS = {w.name: w for w in (SetChains, Symmetrize, VerifyAll,
                                 SingleMatrix)}
