"""The process-wide set-bracket cache of ``chains``: a cached bracket is the
bracket a fresh call returns, each key is bracketed once, a failed call
stores nothing, and the cache keeps to its bound."""

import hashlib

import numpy as np
import pytest

from hadamard_jsr import (ROW_SUM, SPECTRAL, THEOREM_IDS, GeneratorParams,
                          MatrixSet, chains, generate_instance, matrix_set,
                          radius_bracket_set, run_theorem)

SET_CHAIN_IDS = ("powers", "refin", "kathyprop-mat", "finally", "kathyth1",
                 "equalities-joint", "kathyth2", "finally2", "geom-sym")

GOLDEN = matrix_set([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])


def _spy(monkeypatch):
    """Keys of the sets the chains bracket through ``_bracket_sets``."""
    keys = []
    real = chains._bracket_sets

    def spy(sets, depth, kind, tol, cap, word_budget):
        keys.extend((ms.members.shape, ms.members.tobytes(), depth, kind,
                     word_budget) for ms in sets)
        return real(sets, depth, kind, tol, cap, word_budget)

    monkeypatch.setattr(chains, "_bracket_sets", spy)
    return keys


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("norm", [ROW_SUM, SPECTRAL])
def test_warm_reports_equal_cold_ones(monkeypatch, size, norm):
    sets = generate_instance(GeneratorParams(3, 2, size, 0.9, 1.0, 40 + size))

    def run(tid):
        return run_theorem(tid, sets, depth=3, norm=norm, levels=2,
                           budget=2000).to_dict()

    cold = {}
    for tid in THEOREM_IDS:
        chains._brackets.clear()
        cold[tid] = run(tid)
    chains._brackets.clear()
    for tid in THEOREM_IDS:
        assert run(tid) == cold[tid], tid
    keys = _spy(monkeypatch)
    for tid in THEOREM_IDS[::-1]:
        assert run(tid) == cold[tid], tid
    assert keys == []  # the reverse pass read every set bracket cached


def test_shape_depth_norm_and_budget_key_their_own_brackets(monkeypatch):
    keys = _spy(monkeypatch)
    # one byte string, two shapes: {1, 2, 3, 4} and [[1, 2], [3, 4]]
    flat = MatrixSet(np.arange(1.0, 5.0).reshape(4, 1, 1))
    square = MatrixSet(np.arange(1.0, 5.0).reshape(1, 2, 2))
    asks = [(flat, 3, ROW_SUM, 2000), (square, 3, ROW_SUM, 2000),
            (GOLDEN, 3, ROW_SUM, 2000), (GOLDEN, 4, ROW_SUM, 2000),
            (GOLDEN, 3, SPECTRAL, 2000), (GOLDEN, 3, ROW_SUM, 5)]
    got = [chains._Evaluator(d, norm, budget).set_bracket(ms)
           for ms, d, norm, budget in asks]
    assert got == [radius_bracket_set(ms, d, norm, word_budget=budget)
                   for ms, d, norm, budget in asks]
    assert got[0] != got[1]
    assert len(keys) == len(chains._brackets) == len(asks)


def test_set_chains_bracket_each_key_once(monkeypatch):
    keys = _spy(monkeypatch)
    asked = []
    real = chains._Evaluator.set_bracket
    monkeypatch.setattr(chains._Evaluator, "set_bracket",
                        lambda self, ms: asked.append(ms) or real(self, ms))
    sets = generate_instance(GeneratorParams(3, 2, 2, 0.9, 1.0, 11))
    for tid in SET_CHAIN_IDS:
        run_theorem(tid, sets, depth=4, n=1, budget=4000)
    assert len(set(keys)) == len(keys)
    assert len(asked) > len(keys)  # the chains did share sets
    assert len(chains._brackets) == len(keys) <= chains._CACHE_SIZE


def test_each_set_is_hashed_once_per_chain(monkeypatch):
    hashed, asked = [], []
    blake2b, key = hashlib.blake2b, chains._Evaluator._key
    monkeypatch.setattr(hashlib, "blake2b",
                        lambda data: hashed.append(data) or blake2b(data))
    monkeypatch.setattr(chains._Evaluator, "_key",
                        lambda self, ms: asked.append(ms) or key(self, ms))
    sets = generate_instance(GeneratorParams(3, 2, 2, 0.9, 1.0, 11))
    for tid in SET_CHAIN_IDS:
        first_hash, first_ask = len(hashed), len(asked)
        run_theorem(tid, sets, depth=4, n=1, budget=4000)
        # ``asked`` holds every set, so no two of them share an id; a set
        # of more than _BATCH_WORDS members, which the chain does not hold,
        # is hashed each time
        recorded = [ms for ms in asked[first_ask:]
                    if len(ms) <= chains._BATCH_WORDS]
        hashes = len({id(ms) for ms in recorded}) + len(asked) - first_ask \
            - len(recorded)
        assert len(hashed) - first_hash == hashes
    assert len(asked) > len(hashed)  # a chain asks for a set's key again


def test_a_set_changed_between_chains_is_bracketed_again(monkeypatch):
    keys = _spy(monkeypatch)
    ms = matrix_set([[[1.0, 2.0], [0.5, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    first = chains._Evaluator(3, ROW_SUM, 2000).set_bracket(ms)
    ms.members.flags.writeable = True
    ms.members[0, 0, 1] = 4.0
    ms.members.flags.writeable = False
    second = chains._Evaluator(3, ROW_SUM, 2000).set_bracket(ms)
    assert len(keys) == 2
    assert second == radius_bracket_set(ms, 3, ROW_SUM, word_budget=2000)
    assert second != first


def test_a_raising_bracket_is_not_cached(monkeypatch):
    keys = _spy(monkeypatch)
    ev = chains._Evaluator(3, ROW_SUM, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="word_budget"):
            ev.set_bracket(GOLDEN)
    assert len(keys) == 2
    assert not chains._brackets


def test_cache_keeps_its_bound_evicting_the_oldest(monkeypatch):
    monkeypatch.setattr(chains, "_CACHE_SIZE", 3)
    keys = _spy(monkeypatch)
    ev = chains._Evaluator(2, ROW_SUM, 100)
    sets = [matrix_set([[[float(v)]]]) for v in range(1, 6)]
    for s in sets:
        ev.set_bracket(s)
        assert len(chains._brackets) <= 3
    ev.set_bracket(sets[-1])  # newest: still cached
    assert len(keys) == 5
    ev.set_bracket(sets[0])  # oldest: evicted, so bracketed again
    assert len(keys) == 6
