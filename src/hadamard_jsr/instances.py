"""Instance files: JSON parsing/serialization and seeded random generation.

The generator uses a splitmix64 stream so that instances reproduce exactly
across implementations: starting from the seed, each call advances the
state by 0x9E3779B97F4A7C15 and mixes with the standard two-round
multiply-xorshift.  For every matrix entry (sets in file order, matrices
in order, entries row-major) one draw ``u`` in [0, 1) decides sparsity:
the entry is 0 when ``u >= density``; otherwise a second draw ``v``
produces the value ``(v + 1) / 2^64 * entry_scale``, uniform on
(0, entry_scale].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InstanceFormatError
from .sets import MatrixSet, matrix_set

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Minimal splitmix64 stream (documented above) for reproducible
    instance generation."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform draw in [0, 1)."""
        return self.next_u64() / 2.0 ** 64


@dataclass(frozen=True)
class GeneratorParams:
    dim: int
    set_count: int
    set_size: int
    density: float = 1.0
    entry_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.set_count < 1 or self.set_size < 1:
            raise ValueError("dim, set_count and set_size must be positive")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if not 0.0 < self.entry_scale < float("inf"):
            raise ValueError("entry_scale must be positive and finite")


def generate_instance(p: GeneratorParams) -> list[MatrixSet]:
    """Seeded random instance: ``set_count`` sets of ``set_size`` matrices
    of dimension ``dim``, entries zero with probability ``1 - density``
    and otherwise uniform on ``(0, entry_scale]``."""
    rng = SplitMix64(p.seed)
    sets = []
    for s in range(p.set_count):
        mats = np.zeros((p.set_size, p.dim, p.dim))
        for t in range(p.set_size):
            for i in range(p.dim):
                for j in range(p.dim):
                    if rng.next_unit() < p.density:
                        mats[t, i, j] = ((rng.next_u64() + 1) / 2.0 ** 64
                                         * p.entry_scale)
        sets.append(matrix_set(mats, name=f"set{s + 1}"))
    return sets


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise InstanceFormatError(f"{where}: {msg}")


def parse_instance(text) -> list[MatrixSet]:
    """Parse an instance document into its matrix sets, in file order.

    Rejects negative, NaN and infinite entries with a diagnostic naming
    the set, matrix and entry position.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed instance file: {exc}") from exc
    _require(isinstance(doc, dict), "top level", "expected an object")
    _require("dim" in doc and "sets" in doc, "top level",
             "missing required keys 'dim' and 'sets'")
    dim = doc["dim"]
    _require(isinstance(dim, int) and dim >= 1, "dim",
             f"expected a positive integer, got {dim!r}")
    _require(isinstance(doc["sets"], list) and doc["sets"], "sets",
             "expected a non-empty list")
    out = []
    for si, entry in enumerate(doc["sets"]):
        where = f"sets[{si}]"
        _require(isinstance(entry, dict), where, "expected an object")
        name = entry.get("name", f"set{si + 1}")
        _require(isinstance(name, str), f"{where}.name",
                 "expected a string")
        mats = entry.get("matrices")
        _require(isinstance(mats, list) and mats, f"{where}.matrices",
                 "expected a non-empty list of matrices")
        arr = np.zeros((len(mats), dim, dim))
        for mi, mat in enumerate(mats):
            mwhere = f"set '{name}' matrix {mi}"
            _require(isinstance(mat, list) and len(mat) == dim, mwhere,
                     f"expected {dim} rows")
            for i, row in enumerate(mat):
                _require(isinstance(row, list) and len(row) == dim, mwhere,
                         f"row {i}: expected {dim} entries")
                for j, v in enumerate(row):
                    _require(isinstance(v, (int, float))
                             and not isinstance(v, bool), mwhere,
                             f"entry ({i},{j}): expected a number, "
                             f"got {v!r}")
                    v = float(v)
                    _require(np.isfinite(v), mwhere,
                             f"entry ({i},{j}) is not finite: {v!r}")
                    _require(v >= 0, mwhere,
                             f"entry ({i},{j}) is negative: {v!r}")
                    arr[mi, i, j] = v
        out.append(matrix_set(arr, name=name))
    return out


def serialize_instance(sets, metadata: dict | None = None) -> str:
    """Render matrix sets as an instance document.  Entries use repr's
    shortest round-trip decimal form, so parse(serialize(x)) == x
    bit-exactly."""
    sets = list(sets)
    if not sets:
        raise InstanceFormatError("cannot serialize an empty instance")
    dim = sets[0].dim
    doc = {
        "dim": dim,
        "sets": [
            {"name": s.name or f"set{i + 1}",
             "matrices": [[[float(v) for v in row] for row in mat]
                          for mat in s.members]}
            for i, s in enumerate(sets)
        ],
        "metadata": metadata or {},
    }
    return json.dumps(doc, indent=2) + "\n"
