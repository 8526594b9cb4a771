"""The block sampler against the standard library.

world.draw_candidates marks each candidate's true atoms straight into one
bool array per domain size, through world._mark_range, and counts the
32-bit words each candidate takes from the rng.  A reference that draws
the same worlds with nothing but Random.choice, Random.uniform and
Random.sample(range(total), k) must give the same atoms per candidate, the
same layout (rows in draw order within each domain size), word counts that
carry the state from before a candidate to the state after it, and the
same final rng state.
"""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abduce.formula import PREDICATES
from abduce.world import DENSITY_RANGES, DOMAIN_SIZES, OBSERVABLE_PREDICATES, draw_candidates


def reference(n_range, densities, rng, count):
    """Per candidate: its n, its true atoms per predicate as row-major
    index sets, and the rng states before and after its draws."""
    out = []
    for _ in range(count):
        before = rng.getstate()
        n = rng.choice(n_range)
        atoms = {}
        for p in OBSERVABLE_PREDICATES:
            lo, hi = densities.ranges[p]
            rho = rng.uniform(lo, hi)
            total = n ** PREDICATES[p].arity
            atoms[p] = set(rng.sample(range(total), min(total, max(1, int(total * rho)))))
        out.append((n, atoms, before, rng.getstate()))
    return out


@pytest.mark.parametrize("count", [1, 7, 24])
@pytest.mark.parametrize("scenario", sorted(DOMAIN_SIZES))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_draw_candidates_matches_the_standard_library(scenario, count, seed, data):
    sizes = DOMAIN_SIZES[scenario]
    # a scenario's sizes, or the one size a skeptical instance shares
    n_range = data.draw(st.sampled_from([sizes, *((n,) for n in sizes)]), label="n_range")
    densities = DENSITY_RANGES[scenario]
    rng = Random(seed)
    # start anywhere in the generator's 624-word cycle
    rng.getrandbits(32 * data.draw(st.integers(0, 700), label="offset"))
    ref = Random()
    ref.setstate(rng.getstate())

    blocks, drawn = draw_candidates(n_range, densities, rng, count)
    expected = reference(n_range, densities, ref, count)
    assert rng.getstate() == ref.getstate()
    assert [n for n, _, _ in drawn] == [n for n, *_ in expected]
    for n, cells in blocks.items():
        m = [size for size, _, _ in drawn].count(n)
        assert {p: a.shape for p, a in cells.items()} == {
            p: (m,) + (n,) * PREDICATES[p].arity for p in OBSERVABLE_PREDICATES
        }
    rows = {}
    for (n, row, words), (_, atoms, before, after) in zip(drawn, expected):
        assert row == rows.get(n, 0)
        rows[n] = row + 1
        assert {p: set(np.flatnonzero(a[row]).tolist()) for p, a in blocks[n].items()} == atoms
        skipped = Random()
        skipped.setstate(before)
        skipped.getrandbits(32 * words)
        assert skipped.getstate() == after
