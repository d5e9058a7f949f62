"""The CLI's printed output, frozen byte for byte with its exit codes.

Each case runs one ``hadamard-jsr`` command in-process through
``run_command(argv + ["--out", path])`` and compares the written file with
``tests/data/cli_golden/<case>.txt`` and the exit code with
``tests/data/cli_golden/exit_codes.json``.  The instances come from
``gen``, whose stream ``test_io_cli`` freezes.

A change that is meant to move printed bits regenerates the expected
files from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its description why the outputs moved.
"""

import json
import tempfile
from pathlib import Path

import pytest

from hadamard_jsr.cli import run_command

DATA = Path(__file__).parent / "data" / "cli_golden"

INSTANCES = {
    "seed3": ["--seed", "3"],
    "seed5": ["--seed", "5", "--sets", "1", "--size", "3"],
    # extreme entry scales: deep words' log scales reach thousands
    **{f"seed5x{s}": ["--seed", "5", "--sets", "1", "--size", "3",
                      "--scale", s] for s in ("1e100", "1e-100")},
    **{f"seed3x{s}": ["--seed", "3", "--scale", s] for s in ("1e30", "1e-30")},
}

# listed, not read from THEOREM_IDS, so that a dropped id fails here
THEOREMS = ("zhan-chain", "powers", "refin", "folge", "kathyprop-eq",
            "kathyprop-mat", "finally", "kathyth1", "equalities-joint",
            "kathyth2", "finally2", "sym-mono", "geom-sym", "sym-mat",
            "geom-sym-mat")

CASES = {
    "verify-all-scale-1": ["verify-all", "--seeds", "0..2"],
    "verify-all-scale-1e6": ["verify-all", "--seeds", "0..2",
                             "--scale", "1e6"],
    "verify-all-norm-two": ["verify-all", "--seeds", "0..1",
                            "--norm", "two"],
    **{f"chain-{tid}": ["chain", "{seed3}", "--theorem", tid,
                        "--depth", "4"] for tid in THEOREMS},
    **{f"radius-{norm}{tag}": ["radius", "{seed5}", "--depth", "7",
                               "--norm", norm, *extra]
       for norm in ("inf", "one", "two")
       for tag, extra in (("", []), ("-budget-50", ["--budget", "50"]))},
    **{f"radius-inf-scale-{s}": ["radius", f"{{seed5x{s}}}", "--depth", "7"]
       for s in ("1e100", "1e-100")},
    **{f"radius-two-scale-{s}": ["radius", f"{{seed5x{s}}}", "--depth", "7",
                                 "--norm", "two"]
       for s in ("1e100", "1e-100")},
    **{f"symmetrize-scale-{s}": ["symmetrize", f"{{seed3x{s}}}"]
       for s in ("1e30", "1e-30")},
    "symmetrize": ["symmetrize", "{seed3}"],
    **{f"symmetrize-{norm}": ["symmetrize", "{seed3}", "--norm", norm]
       for norm in ("one", "two")},
    "symmetrize-ab": ["symmetrize", "{seed3}", "--alpha", "0.7",
                      "--alpha2", "0.5"],
}


def _write_instances(folder: Path) -> dict:
    paths = {}
    for name, opts in INSTANCES.items():
        paths[name] = str(folder / f"{name}.json")
        assert run_command(["gen", *opts, "--out", paths[name]]) == 0
    return paths


def _run(case: str, instances: dict, out: Path) -> tuple[int, bytes]:
    argv = [arg.format(**instances) for arg in CASES[case]]
    code = run_command(argv + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    return _write_instances(tmp_path_factory.mktemp("instances"))


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((DATA / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_frozen(case, instances, exit_codes, tmp_path):
    code, out = _run(case, instances, tmp_path / "out")
    assert code == exit_codes[case]
    assert out == (DATA / f"{case}.txt").read_bytes()


def _regenerate() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        instances = _write_instances(Path(tmp))
        for case in sorted(CASES):
            codes[case], out = _run(case, instances, Path(tmp) / "out")
            (DATA / f"{case}.txt").write_bytes(out)
    (DATA / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
