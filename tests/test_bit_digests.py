"""SHA-256 digests of the bits of ``sample`` and of the array ``quantile``
and ``tail_quantile``, against stored copies in tests/data/bit_digests.json.

The samples are long enough that their levels cross several of the chunks
in which the quantile runs, as one row and as a block of three seeds.  The
level grids add log-spaced levels through both tails, down to 1e-300, so
that the normal's three AS241 branches all run.  The stored copies are
rewritten with ``PYTHONPATH=src python tests/test_bit_digests.py``, which
prints the name of each digest that changed; a change that alters them must
say why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pelve import quantile, sample, tail_quantile
from test_distributions import ALL_FAMILIES, SAMPLED_FAMILIES

DIGESTS = Path(__file__).parent / "data" / "bit_digests.json"
COUNTS = (32767, 32769, 70001)
SEED, BLOCK_SEEDS = 5, [5, 6, 123456789]


def _levels(low: float, high: float) -> np.ndarray:
    # 70,001 uniform levels and 1,000 through the tails, mapped into
    # (low, high) and kept strictly inside it.
    rng = np.random.Generator(np.random.PCG64(3))
    grid = np.concatenate([rng.random(70001), 10.0 ** -rng.uniform(1.0, 300.0, 500),
                           1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 500)])
    grid = low + (high - low) * grid
    return grid[(grid > low) & (grid < high)]


def _cases() -> dict:
    # {name: function returning the array whose bits are digested}
    cases = {}
    for dist in SAMPLED_FAMILIES:
        for count in COUNTS:
            cases[f"sample {dist!r} seed {SEED} count {count}"] = (
                lambda dist=dist, count=count: sample(dist, SEED, count))
            cases[f"sample {dist!r} seeds {BLOCK_SEEDS} count {count}"] = (
                lambda dist=dist, count=count: sample(dist, BLOCK_SEEDS, count))
    for dist in ALL_FAMILIES:
        cases[f"quantile {dist!r}"] = (
            lambda dist=dist: quantile(dist, _levels(dist.level_floor, 1.0)))
        cases[f"tail_quantile {dist!r}"] = (
            lambda dist=dist: tail_quantile(dist, _levels(0.0, 1.0 - dist.level_floor)))
    return cases


CASES = _cases()


def _digest(values: np.ndarray) -> str:
    assert values.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_bits_match_the_stored_digest(name):
    with np.errstate(over="ignore"):
        values = CASES[name]()
    assert _digest(values) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with np.errstate(over="ignore"):
        new = {name: _digest(make()) for name, make in CASES.items()}
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"changed: {name}")
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
