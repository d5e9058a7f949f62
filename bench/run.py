"""Benchmark of ``hadamard_jsr``: one workload, one closed-loop caller.

    python3 bench/run.py --workload set-chains --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` next to this directory and timed only
from outside, through its public functions.  BLAS is pinned to one thread
before numpy loads.

Set-up is input generation and warm-up.  A run times the import of the
library in this process, then sets the workload up ``SETUP_ROUNDS_BEFORE``
times, calls ops back to back until their summed time reaches
``--seconds``, at least ``MIN_OPS`` and ``checked_ops`` ops ran, and the op
count is a multiple of ``stride``, and then sets up ``SETUP_ROUNDS_AFTER``
more times.  Each set-up after the first is paired with an import timed in
a fresh interpreter.  ``setup_s`` is the median import time plus the median
set-up time; spreading the samples over the run keeps a short stall of the
host from setting it.
The results of the first ``checked_ops`` ops, which every run completes,
are checked outside the timed region; a failed check counts the op as
failed and the run goes on.  ``attempted`` and ``failed`` count these ops,
so they depend on the sources and the seed only, not on how many ops the
window held.  Ops past them are timed, not checked.  Afterwards the first
``replay_ops`` ops are replayed untraced (and, with ``--trace 1``, traced
again, to measure the tracing overhead).  The digest of the checked ops'
canonical output must match the replay and any digest stored by an earlier
run of the same sources, workload and seed; that agreement is what
``correct`` reports.  Failed ops are reported in ``failed``, not in
``correct``.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of ``bench/spans.py``.  Run records,
digests and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_ROUNDS_BEFORE = 2
SETUP_ROUNDS_AFTER = 3
# leaves at least ten samples above the 90th percentile
MIN_OPS = 100
# the whole run must end well within 180 s
RUN_DEADLINE_S = 150.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import hadamard_jsr
print(time.perf_counter() - t)
"""


def _fresh_import_time() -> float:
    """Import time of ``hadamard_jsr`` in a fresh interpreter with this
    process's environment."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def _setup_time(wl) -> float:
    t = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy wheels, or
    None for other builds."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        fn = getattr(ctypes.CDLL(str(path)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _fingerprint():
    """sha256 of the library and benchmark sources, and src/ line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
    for path in sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest(), lines


def _metadata():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fingerprint, src_lines = _fingerprint()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "src_lines": src_lines,
        "fingerprint": fingerprint,
    }


def _digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _stored_digest_agrees(key: str, digest: str, fingerprint: str) -> bool:
    """Compare with, then record, the digest of this code, workload and
    seed in ``out/digests.json``."""
    path = OUT / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    prior = table.get(key)
    agrees = (prior is None or prior["fingerprint"] != fingerprint
              or prior["digest"] == digest)
    table[key] = {"digest": digest, "fingerprint": fingerprint}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return agrees


def _op(wl, j: int, tracer=None, check=True):
    """Run op ``j``; return its time and, if ``check``, its Outcome.  Only
    the library call is timed and traced."""
    inst, variant = wl.op_input(j)
    if tracer is not None:
        tracer.op = j
    t = time.perf_counter()
    try:
        result = wl.run(inst, variant)
    except Exception as exc:  # the check counts it as a failed op
        result = exc
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.op = None
    return dt, wl.outcome(inst, variant, j, result) if check else None


def _replay(wl, count: int, probe=None):
    """Run ops ``0 .. count-1`` again untraced and, given a ``probe``
    tracer, traced too, alternating which goes first.  Return the untraced
    and traced summed times and the untraced canonical texts."""
    plain_s = traced_s = 0.0
    texts = []
    for j in range(count):
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if not traced:
                dt, out = _op(wl, j)
                plain_s += dt
                texts.append(out.text)
            elif probe is not None:
                probe.install()
                traced_s += _op(wl, j, probe)[0]
                probe.uninstall()
    return plain_s, traced_s, texts


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse_args(argv)
    if not (SRC / "hadamard_jsr" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import hadamard_jsr
    import_s = time.perf_counter() - t
    if Path(hadamard_jsr.__file__).resolve().parent != SRC / "hadamard_jsr":
        print(f"error: imported hadamard_jsr from {hadamard_jsr.__file__}",
              file=sys.stderr)
        return 2

    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None

    make = workloads.WORKLOADS[args.workload]
    import_runs, setups = [import_s], []
    for rep in range(SETUP_ROUNDS_BEFORE):
        if rep:
            import_runs.append(_fresh_import_time())
        wl = make(args.seed)
        if tracer is not None and rep == SETUP_ROUNDS_BEFORE - 1:
            tracer.install()
            tracer.op = spans.SETUP
        setups.append(_setup_time(wl))
    if tracer is not None:
        tracer.op = None

    # timed window
    latencies, texts = [], []
    failed = reports = indeterminate = 0
    width_sum, width_count = 0.0, 0
    first_problems = []
    timed = 0.0
    deadline = start + RUN_DEADLINE_S
    j = 0
    while ((timed < args.seconds or j < max(wl.checked_ops, MIN_OPS)
            or j % wl.stride) and time.perf_counter() < deadline):
        checked = j < wl.checked_ops
        dt, out = _op(wl, j, tracer, checked)
        latencies.append(dt)
        timed += dt
        j += 1
        if not checked:
            continue
        texts.append(out.text)
        if out.problems:
            failed += 1
            if len(first_problems) < 5:
                first_problems.append(f"op {j - 1}: {out.problems[0]}")
        reports += out.reports
        indeterminate += out.indeterminate
        width_sum += sum(out.widths)
        width_count += len(out.widths)
    n, attempted = len(latencies), len(texts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # replay of the first checked ops, after the timed window so that traced
    # and untraced ops see one process state
    if tracer is not None:
        tracer.uninstall()
    replay_s, traced_s, replay_texts = _replay(
        wl, min(wl.replay_ops, attempted), spans.Tracer() if tracer else None)
    for _ in range(SETUP_ROUNDS_AFTER):
        import_runs.append(_fresh_import_time())
        setups.append(_setup_time(make(args.seed)))
    setup_s = statistics.median(import_runs) + statistics.median(setups)

    digest = _digest(texts)
    meta = _metadata()
    same_replay = texts[:len(replay_texts)] == replay_texts
    same_stored = _stored_digest_agrees(
        f"{args.workload}/seed{args.seed}/ops{len(texts)}", digest,
        meta["fingerprint"])
    correct = same_replay and same_stored and attempted == wl.checked_ops

    if tracer is None:
        p50 = statistics.median(latencies)
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / timed, "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "pass_ratio": (1.0 - failed / attempted, "ratio"),
            "decided_ratio": (1.0 - indeterminate / reports if reports
                              else 1.0, "ratio"),
            "width_rel_mean": (width_sum / width_count if width_count
                               else 0.0, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layer = tracer.layer_metrics(n)
        layer["trace.overhead_ratio"] = traced_s / replay_s - 1.0
        metrics = {name: (layer[name], unit)
                   for name, unit in spans.per_layer_metric_specs()}
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    metrics_json = {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}

    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops": n, "samples_above_p90": n - int(0.9 * n),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "chain_reports": reports, "indeterminate": indeterminate,
        "indeterminate_ratio": indeterminate / reports if reports else 0.0,
        "setup_runs_s": setups, "import_runs_s": import_runs,
        "digest": digest, "digest_ops": len(texts),
        "digest_matches_replay": same_replay,
        "digest_matches_stored": same_stored,
        "first_problems": first_problems,
        "metadata": meta,
        "metrics": metrics_json,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1) + "\n")

    for key in ("workload", "seed", "trace", "ops", "samples_above_p90",
                "attempted", "failed", "failed_ratio", "chain_reports",
                "indeterminate_ratio", "digest", "digest_ops",
                "digest_matches_replay", "digest_matches_stored"):
        print(f"{key}: {summary[key]}")
    for key, value in meta.items():
        print(f"meta.{key}: {value}")
    for problem in first_problems:
        print(f"failed {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
