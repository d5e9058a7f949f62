"""Instance files, seeded generation, and the command-line surface."""

import argparse
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_jsr import (GeneratorParams, InstanceFormatError, SplitMix64,
                          chains, generate_instance, parse_instance,
                          serialize_instance, sets_equal)
from hadamard_jsr.cli import _build_parser, run_command

# Sum of all entries for seed 42, dim 3, 2 sets x 2 matrices, density 1.
# Computed once from the splitmix64 stream documented in instances.py and
# frozen; a change here means the generator is no longer reproducible.
FROZEN_FINGERPRINT = 17.82832376822339


def test_splitmix64_first_values():
    # reference values for the documented stream from seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 16294208416658607535
    assert rng.next_u64() == 7960286522194355700


def test_generator_deterministic():
    p = GeneratorParams(3, 2, 2, 0.7, 1.0, 99)
    a = generate_instance(p)
    b = generate_instance(p)
    assert all(sets_equal(x, y) for x, y in zip(a, b))


def test_generator_density_one_has_no_zeros():
    sets = generate_instance(GeneratorParams(4, 1, 3, 1.0, 2.0, 1))
    assert np.all(sets[0].members > 0)
    assert np.all(sets[0].members <= 2.0)


def test_generator_fingerprint_frozen():
    sets = generate_instance(GeneratorParams(3, 2, 2, 1.0, 1.0, 42))
    total = sum(float(s.members.sum()) for s in sets)
    assert total == pytest.approx(FROZEN_FINGERPRINT, abs=1e-12)


def test_generator_param_validation():
    with pytest.raises(ValueError):
        GeneratorParams(0, 1, 1)
    with pytest.raises(ValueError):
        GeneratorParams(2, 1, 1, density=0.0)
    with pytest.raises(ValueError):
        GeneratorParams(2, 1, 1, entry_scale=-1.0)
    # named as a bad scale, not as the non-finite entries it would make
    for scale in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="entry_scale must be positive "
                                             "and finite"):
            GeneratorParams(2, 1, 1, entry_scale=scale)


# --- parsing ----------------------------------------------------------------

def test_parse_minimal_instance():
    sets = parse_instance(b'{"dim": 1, "sets": [{"name": "s", '
                          b'"matrices": [[[2]]]}]}')
    assert len(sets) == 1 and sets[0].members[0][0, 0] == 2.0


def test_parse_rejects_negative_with_location():
    doc = {"dim": 2, "sets": [{"name": "bad",
                               "matrices": [[[1.0, 2.0], [3.0, -1.0]]]}]}
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    msg = str(exc.value)
    assert "bad" in msg and "(1,1)" in msg


def test_parse_rejects_nan_and_shape_errors():
    with pytest.raises(InstanceFormatError):
        parse_instance('{"dim": 2, "sets": [{"matrices": [[[1, 2]]]}]}')
    with pytest.raises(InstanceFormatError):
        parse_instance("not json")
    with pytest.raises(InstanceFormatError):
        parse_instance('{"dim": 2}')


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.integers(1, 4), st.integers(1, 3),
       st.floats(0.1, 1.0))
def test_round_trip_is_identity(seed, dim, size, density):
    sets = generate_instance(GeneratorParams(dim, 2, size, density, 1.0,
                                             seed))
    back = parse_instance(serialize_instance(sets))
    assert all(np.array_equal(x.members, y.members)
               for x, y in zip(sets, back))


# --- CLI --------------------------------------------------------------------

def _gen(tmp_path, seed=0, **kw):
    path = tmp_path / f"inst{seed}.json"
    args = ["gen", "--seed", str(seed), "--out", str(path)]
    for k, v in kw.items():
        args += [f"--{k}", str(v)]
    assert run_command(args) == 0
    return path


def test_cli_gen_and_radius_csv(tmp_path):
    inst = _gen(tmp_path, dim=2, density=1.0)
    out = tmp_path / "radius.csv"
    code = run_command(["radius", str(inst), "--depth", "5",
                        "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,lower_m,upper_m,lower_envelope,upper_envelope"
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert float(last[3]) <= float(last[4]) + 1e-9


def test_cli_radius_golden_pair(tmp_path):
    doc = {"dim": 2, "sets": [{"name": "s", "matrices":
                               [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}]}
    inst = tmp_path / "golden.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "g.csv"
    assert run_command(["radius", str(inst), "--depth", "12",
                        "--out", str(out)]) == 0
    final = out.read_text().strip().splitlines()[-1].split(",")
    assert float(final[3]) == pytest.approx(1.618034, abs=1e-6)


def test_cli_chain_exit_codes_and_json(tmp_path):
    inst = _gen(tmp_path, seed=5)
    out = tmp_path / "report.json"
    code = run_command(["chain", str(inst), "--theorem", "kathyth1",
                        "--depth", "4", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] in ("verified", "indeterminate")
    assert report["links"] and report["context"]["word_budget"] > 0


def test_cli_chain_singletons_kathyth1(tmp_path):
    inst = _gen(tmp_path, seed=6, size=1, density=1.0)
    assert run_command(["chain", str(inst), "--theorem", "kathyth1",
                        "--out", str(tmp_path / "r.json")]) == 0


def test_cli_symmetrize_table(tmp_path):
    inst = _gen(tmp_path, seed=7)
    out = tmp_path / "sym.csv"
    assert run_command(["symmetrize", str(inst), "--alpha", "0.5",
                        "--levels", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,lower,upper"
    lowers = [float(l.split(",")[1]) for l in lines[1:]]
    assert lowers == sorted(lowers) or \
        all(x <= y + 1e-9 for x, y in zip(lowers, lowers[1:]))


_SEARCH = {"depth": 6, "norm": "inf", "budget": 20_000, "out": None}

# every option each subcommand takes, with its default
CLI_DEFAULTS = [
    (["gen"], {"dim": 3, "sets": 2, "size": 2, "density": 1.0,
               "scale": 1.0, "seed": 0, "out": None}),
    (["radius", "i.json"], {"instance": "i.json", **_SEARCH}),
    (["chain", "i.json", "--theorem", "powers"],
     {"instance": "i.json", **_SEARCH, "theorem": "powers", "weights": None,
      "alpha": 1.0, "alpha2": 1.0, "beta": 0.5, "n": 2, "levels": 3}),
    (["symmetrize", "i.json"],
     {"instance": "i.json", **_SEARCH, "alpha": 0.5, "alpha2": None,
      "levels": 3}),
    (["verify-all"], {"seeds": "0..9", "dim": 3, "sets": 2, "size": 2,
                      "density": 0.8, "scale": 1.0, "depth": 4,
                      "norm": "inf", "budget": 4000, "n": 2, "out": None}),
]


@pytest.mark.parametrize("argv, defaults", CLI_DEFAULTS,
                         ids=[argv[0] for argv, _ in CLI_DEFAULTS])
def test_cli_option_defaults(argv, defaults):
    args = vars(_build_parser().parse_args(argv))
    assert args == {"command": argv[0], **defaults}


def test_cli_parse_error_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_command(["radius", str(bad)]) == 4
    assert run_command(["radius", str(tmp_path / "missing.json")]) == 4
    inst = str(_gen(tmp_path, seed=1))
    for argv in (["symmetrize", inst, "--alpha", "1.5"],
                 ["symmetrize", inst, "--alpha", "0.5", "--alpha2", "0.2"],
                 ["chain", inst, "--theorem", "powers", "--weights",
                  "0.3,0.3"],
                 ["chain", inst, "--theorem", "refin", "--beta", "2"],
                 ["chain", inst, "--theorem", "kathyprop-eq", "--beta",
                  "1.5"],
                 ["radius", inst, "--depth", "0"],
                 ["symmetrize", inst, "--depth", "0"],
                 ["symmetrize", inst, "--depth", "0", "--levels", "4"],
                 ["symmetrize", inst, "--budget", "0", "--levels", "4"],
                 ["chain", inst, "--theorem", "refin", "--depth", "0"],
                 ["chain", inst, "--theorem", "zhan-chain", "--depth", "0"],
                 ["chain", inst, "--theorem", "zhan-chain", "--budget", "0"],
                 ["symmetrize", inst, "--levels", "-1"],
                 ["chain", inst, "--theorem", "sym-mono", "--levels", "-1"],
                 ["verify-all", "--seeds", "5..3"],
                 ["radius", inst, "--budget", "0"],
                 ["radius", inst, "--budget", "-5"],
                 ["chain", inst, "--theorem", "powers", "--budget", "-1"],
                 ["verify-all", "--seeds", "0", "--budget", "0"],
                 ["gen", "--scale", "nan"],
                 ["gen", "--scale", "inf"]):
        assert run_command(argv + ["--out", str(tmp_path / "x")]) == 4, argv
    # a directory where a file is read or written
    for argv in (["radius", str(tmp_path)], ["gen", "--out", str(tmp_path)]):
        capsys.readouterr()
        assert run_command(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_cap_exceeded_exit_3(tmp_path):
    inst = _gen(tmp_path, seed=8, size=3)
    # 3 matrices to the 12th power blows past the member cap
    assert run_command(["chain", str(inst), "--theorem", "folge",
                        "--n", "12", "--out",
                        str(tmp_path / "never.json")]) == 3


def test_cli_symmetrize_overflow_names_the_product(tmp_path, capsys):
    # rho ≈ 2.06, so the 2^10-th power of the lone member passes 1e308
    inst = _gen(tmp_path, seed=0, sets=1, size=1)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(["symmetrize", str(inst), "--levels", "10",
                            "--out", str(tmp_path / "never.csv")])
    assert code == 4
    assert capsys.readouterr().err == \
        "error: set product overflowed to infinity\n"
    assert not [w for w in caught if w.category is RuntimeWarning]


def test_cli_symmetrize_overflow_names_the_hadamard_mean(tmp_path, capsys):
    # squaring both factors of entries near 1e100 passes 1e308
    inst = _gen(tmp_path, seed=0, sets=1, size=2, scale=1e100)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(["symmetrize", str(inst), "--alpha", "2",
                            "--alpha2", "2", "--levels", "0",
                            "--out", str(tmp_path / "never.csv")])
    assert code == 4
    assert capsys.readouterr().err == \
        "error: Hadamard mean overflowed to infinity\n"
    assert not [w for w in caught if w.category is RuntimeWarning]


def test_cli_zhan_chain_overflow_names_the_product(tmp_path, capsys):
    # entries near 1e200: A∘B and AB pass 1e308
    inst = _gen(tmp_path, seed=0, sets=1, size=2, scale=1e200)
    for argv in (["chain", str(inst), "--theorem", "zhan-chain"],
                 ["verify-all", "--seeds", "0", "--scale", "1e200",
                  "--size", "1"]):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command(argv + ["--out", str(tmp_path / "never")])
        assert code == 4, argv
        assert capsys.readouterr().err == \
            "error: zhan-chain product overflowed to infinity\n"
        assert not [w for w in caught if w.category is RuntimeWarning]


def test_cli_radius_rebuilds_huge_words_without_overflow(tmp_path, capsys):
    # entries near 1e200: the refined word's first product passes 1e308
    inst = _gen(tmp_path, seed=0, sets=1, size=2, scale=1e200)
    rows = {}
    for depth in (1, 2):
        out = tmp_path / f"depth{depth}.csv"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command(["radius", str(inst), "--depth", str(depth),
                                "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert not [w for w in caught if w.category is RuntimeWarning]
        rows[depth] = out.read_text().splitlines()
    assert len(rows[2]) == 3
    assert rows[2][1] == rows[1][1]


def test_cli_unresolvable_bracket_exits_5(tmp_path, capsys):
    # entry ratio 1e16: the Perron vector is beyond double precision
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps(
        {"dim": 2, "sets": [{"matrices": [[[0, 1], [1e16, 1]]]}]}))
    capsys.readouterr()
    code = run_command(["chain", str(inst), "--theorem", "zhan-chain",
                        "--out", str(tmp_path / "never.json")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: spectral radius bracket stuck")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_chain_raises_the_first_links_error(tmp_path, capsys):
    # link 1's bracket is stuck, and link 2 builds Ψ^40, which overflows:
    # the chain reports link 1's error, the one it meets first
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps(
        {"dim": 2, "sets": [{"matrices": [[[0, 1], [1e16, 1]]]}]}))
    capsys.readouterr()
    code = run_command(["chain", str(inst), "--theorem", "folge", "--n",
                        "40", "--out", str(tmp_path / "never.json")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: spectral radius bracket stuck")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_verify_all_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_command(["verify-all", "--seeds", "0..2", "--out",
                        str(a)]) == 0
    assert run_command(["verify-all", "--seeds", "0..2", "--out",
                        str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "violated=0" in a.read_text().splitlines()[-1]


def test_cli_verify_all_cold_runs_agree(tmp_path):
    # two runs on an empty bracket cache, then one on the cache they filled
    outs, codes = [], []
    for run, cold in enumerate((True, True, False)):
        if cold:
            chains._brackets.clear()
        out = tmp_path / f"{run}.txt"
        codes.append(run_command(["verify-all", "--seeds", "0..2", "--out",
                                  str(out)]))
        outs.append(out.read_bytes())
    assert codes[0] == codes[1] == codes[2]
    assert outs[0] == outs[1] == outs[2]


def test_cli_builds_one_parser_and_keeps_no_state(tmp_path, capsys,
                                                   monkeypatch):
    parsers = []
    parse = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kw):
        parsers.append(self)
        return parse(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    out = tmp_path / "i.json"
    assert run_command(["gen", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_command(["gen", "--seed", "3"]) == 0
    # the second call writes to stdout, not to the first call's file
    assert capsys.readouterr().out == out.read_text()
    assert len(parsers) == 2 and parsers[0] is parsers[1]
