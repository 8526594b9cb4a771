"""Skipping drawn words instead of drawing again.

draw_candidates counts the 32-bit words its draws take from the rng,
and the generator's candidate stream moves the rng past examined
candidates with getrandbits(32 * words) instead of redrawing them.  Both
rest on how CPython's random consumes Mersenne Twister words, so the count
must bring a copy of the state from before a draw to exactly the state
after it, and the stream must leave the rng where drawing and checking one
candidate at a time does, at any block size.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abduce import generator
from abduce.generator import GenParams, _WorldAcceptor, generate_batch
from abduce.theory import THEORY_IDS, builtin_theory
from abduce.world import DOMAIN_SIZES, draw_candidates

from test_candidate_blocks import CASES, _accepted, _drain, _one_at_a_time

PAIRS = [(s, t) for t in THEORY_IDS for s in builtin_theory(t).scenarios]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_skipping_the_counted_words_reaches_the_state_after_a_draw(seed, data):
    scenario, theory_id = data.draw(st.sampled_from(PAIRS), label="pair")
    densities = GenParams(scenario=scenario, theory_id=theory_id).densities
    sizes = DOMAIN_SIZES[scenario]
    # a scenario's sizes, or the one size a skeptical instance shares
    n_range = data.draw(st.sampled_from([sizes, *((n,) for n in sizes)]), label="n_range")
    rng = Random(seed)
    # start anywhere in the generator's 624-word cycle
    rng.getrandbits(32 * data.draw(st.integers(0, 700), label="offset"))
    for _ in range(3):
        before = rng.getstate()
        _, ((n, _, words),) = draw_candidates(n_range, densities, rng, 1)
        skipped, chosen = Random(), Random()
        skipped.setstate(before)
        skipped.getrandbits(32 * words)
        assert skipped.getstate() == rng.getstate()
        chosen.setstate(before)
        assert chosen.choice(n_range) == n


@pytest.mark.parametrize("scenario,theory_id,seed", CASES)
def test_candidates_match_one_at_a_time_in_large_blocks(monkeypatch, scenario, theory_id, seed):
    """At 1203 the whole attempt budget is one block, so every survivor of
    a full-scenario stream comes from the same block."""
    params = GenParams(scenario=scenario, theory_id=theory_id, global_seed=seed, world_attempts=1500,
                       holdout_count=0)
    rec = generate_batch(params, 1)[0]
    acceptor = _WorldAcceptor(params, rec.gold, rec.provenance["shared_domain_size"])
    reference = _drain(lambda rng: _one_at_a_time(acceptor, rng, 1203), seed)
    assert len(reference[0]) >= (2 if scenario == "full" else 1)
    for block in (32, 64, 1203):
        monkeypatch.setattr(generator, "_BLOCK", block)
        assert _drain(_accepted(acceptor, 1203), seed) == reference, f"block size {block}"
