"""Golden structure of every registered chain.

``tests/data/chain_structure.json`` pins, for every theorem id and a few
parameter sets on one seeded instance, the report's theorem id, each link's
``(label, relation_to_next, depth, norm)``, the notes and the context keys.
Link labels are part of the public surface: callers look reference values
up by label.  Regenerate the file only for an intended change of structure:

    PYTHONPATH=src python tests/test_chain_structure.py > \
        tests/data/chain_structure.json
"""

import json
import pathlib

import pytest

from hadamard_jsr import THEOREM_IDS, GeneratorParams, RadiusBracket, \
    generate_instance, run_theorem

DATA = pathlib.Path(__file__).parent / "data" / "chain_structure.json"

CONFIGS = {
    "default": {},
    "alpha-half": {"alpha": 0.5, "beta": 0.25},
    "alpha-two": {"alpha": 2.0, "alpha2": 0.5},
}


def structure(tid: str, config: str) -> dict:
    sets = generate_instance(GeneratorParams(3, 2, 2, 0.9, 1.0, 16))
    rep = run_theorem(tid, sets, depth=3, budget=2000, **CONFIGS[config])
    return {
        "theorem_id": rep.theorem_id,
        "links": [[link.label, link.relation_to_next, link.bracket.depth,
                   link.bracket.norm] for link in rep.links],
        "notes": list(rep.notes),
        "context_keys": list(rep.context),
    }


def _golden() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_registry():
    assert sorted(_golden()) == sorted(f"{c}/{t}" for c in CONFIGS
                                       for t in THEOREM_IDS)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_chain_structure_matches_golden(tid, config):
    assert structure(tid, config) == _golden()[f"{config}/{tid}"]


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_every_link_holds_a_bracket(tid):
    # a chain brackets its links when it reports; no placeholder is left
    sets = generate_instance(GeneratorParams(3, 2, 2, 0.9, 1.0, 16))
    rep = run_theorem(tid, sets, depth=3, budget=2000)
    assert all(isinstance(link.bracket, RadiusBracket) for link in rep.links)


if __name__ == "__main__":
    print("{\n" + ",\n".join(
        f"{json.dumps(f'{c}/{t}')}: "
        f"{json.dumps(structure(t, c), ensure_ascii=False)}"
        for c in CONFIGS for t in THEOREM_IDS) + "\n}")
