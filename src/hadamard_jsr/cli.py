"""Command-line driver.

Subcommands: ``gen`` (write a seeded instance), ``radius`` (bracket and
per-depth bound table as CSV), ``chain`` (one chain report as JSON),
``symmetrize`` (symmetrization-level table as CSV) and ``verify-all``
(every chain on a seeded batch, summary table).

Exit codes: 0 success (including indeterminate chains, which carry a
note), 2 a chain was violated, 3 an enumeration/member cap was exceeded,
4 invalid input: an instance file or an option value, 5 no bracket could
be certified (``ConvergenceError``).  Identical argv plus identical input
files yield byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .chains import THEOREM_IDS, VIOLATED, run_theorem
from .errors import CapExceeded, ConvergenceError
from .matrices import COL_SUM, ROW_SUM, SPECTRAL
from .instances import GeneratorParams, generate_instance, parse_instance, \
    serialize_instance
from .radius import (DEFAULT_WORD_BUDGET, gelfand_sequence,
                     symmetrization_sequence_ab)
from .sets import _kernel_exponents

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_CAP = 3
EXIT_PARSE = 4
EXIT_UNCERTIFIED = 5

_NORMS = {"inf": ROW_SUM, "one": COL_SUM, "two": SPECTRAL}


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_sets(path: str):
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def _parse_seeds(spec: str):
    """'A..B' for an inclusive range, or a comma list."""
    if ".." in spec:
        a, b = spec.split("..", 1)
        seeds = list(range(int(a), int(b) + 1))
    else:
        seeds = [int(s) for s in spec.split(",")]
    if not seeds:
        raise ValueError(f"seed range {spec!r} is empty")
    return seeds


@functools.cache  # built once per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hadamard-jsr")
    sub = p.add_subparsers(dest="command", required=True)

    def generator(sp, density):
        sp.add_argument("--dim", type=int, default=3)
        sp.add_argument("--sets", type=int, default=2)
        sp.add_argument("--size", type=int, default=2)
        sp.add_argument("--density", type=float, default=density)
        sp.add_argument("--scale", type=float, default=1.0)

    def search(sp, depth, budget):
        sp.add_argument("--depth", type=int, default=depth)
        sp.add_argument("--norm", choices=sorted(_NORMS), default="inf")
        sp.add_argument("--budget", type=int, default=budget)

    def on_instance(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("instance", help="instance file (JSON)")
        search(sp, depth=6, budget=DEFAULT_WORD_BUDGET)
        return sp

    g = sub.add_parser("gen", help="write a seeded random instance")
    generator(g, density=1.0)
    g.add_argument("--seed", type=int, default=0)

    on_instance("radius", "bracket and per-depth bound table")

    c = on_instance("chain", "evaluate one inequality chain")
    c.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    c.add_argument("--weights", default=None,
                   help="comma-separated weights, e.g. 0.5,0.5")
    c.add_argument("--alpha", type=float, default=1.0)
    c.add_argument("--alpha2", type=float, default=1.0)
    c.add_argument("--beta", type=float, default=0.5)
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--levels", type=int, default=3)

    s = on_instance("symmetrize", "symmetrization level table")
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--alpha2", type=float, default=None,
                   help="second exponent; switches to the (alpha, beta) "
                        "variant")
    s.add_argument("--levels", type=int, default=3)

    v = sub.add_parser("verify-all",
                       help="run every chain on a seeded batch")
    v.add_argument("--seeds", default="0..9",
                   help="inclusive range A..B or comma list")
    generator(v, density=0.8)
    search(v, depth=4, budget=4000)
    v.add_argument("--n", type=int, default=2)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None)
    return p


def _cmd_gen(args) -> int:
    params = GeneratorParams(args.dim, args.sets, args.size, args.density,
                             args.scale, args.seed)
    sets = generate_instance(params)
    meta = {"seed": args.seed, "dim": args.dim, "set_count": args.sets,
            "set_size": args.size, "density": args.density,
            "entry_scale": args.scale}
    _emit(serialize_instance(sets, meta), args.out)
    return EXIT_OK


def _cmd_radius(args) -> int:
    sets = _load_sets(args.instance)
    seq = gelfand_sequence(sets[0], args.depth, _NORMS[args.norm],
                           word_budget=args.budget)
    lines = ["m,lower_m,upper_m,lower_envelope,upper_envelope"]
    for (m, lo, hi), lo_env, hi_env in zip(seq.entries, seq.lower_envelope(),
                                           seq.upper_envelope()):
        lines.append(f"{m},{lo!r},{hi!r},{lo_env!r},{hi_env!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    sets = _load_sets(args.instance)
    weights = None
    if args.weights:
        weights = tuple(float(w) for w in args.weights.split(","))
    report = run_theorem(
        args.theorem, sets, depth=args.depth, norm=_NORMS[args.norm],
        alpha=args.alpha, alpha2=args.alpha2, beta=args.beta, n=args.n,
        levels=args.levels, weights=weights, budget=args.budget)
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    return EXIT_VIOLATED if report.verdict == VIOLATED else EXIT_OK


def _cmd_symmetrize(args) -> int:
    sets = _load_sets(args.instance)
    exponents = (_kernel_exponents(args.alpha) if args.alpha2 is None
                 else (args.alpha, args.alpha2))
    seq = symmetrization_sequence_ab(
        sets[0], *exponents, args.levels, args.depth, _NORMS[args.norm],
        word_budget=args.budget)
    lines = ["n,lower,upper"]
    for n, b in seq.levels:
        lines.append(f"{n},{b.lo!r},{b.hi!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    seeds = _parse_seeds(args.seeds)
    lines = ["seed,theorem,verdict,min_margin"]
    violations = 0
    for seed in seeds:
        params = GeneratorParams(args.dim, args.sets, args.size,
                                 args.density, args.scale, seed)
        sets = generate_instance(params)
        for tid in THEOREM_IDS:
            report = run_theorem(tid, sets, depth=args.depth,
                                 norm=_NORMS[args.norm], n=args.n,
                                 budget=args.budget)
            margin = min(report.margins) if report.margins else 0.0
            lines.append(f"{seed},{tid},{report.verdict},{margin!r}")
            if report.verdict == VIOLATED:
                violations += 1
    lines.append(f"# seeds={len(seeds)} chains={len(seeds) * len(THEOREM_IDS)}"
                 f" violated={violations}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VIOLATED if violations else EXIT_OK


def run_command(argv) -> int:
    """Entry point used by tests: parse argv, run, return the exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "radius": _cmd_radius,
        "chain": _cmd_chain,
        "symmetrize": _cmd_symmetrize,
        "verify-all": _cmd_verify_all,
    }[args.command]
    try:
        return handler(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
