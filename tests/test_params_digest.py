"""Golden test of the dataset header's params_digest.

The digest hashes every generation setting of each GenParams, fixed and
derived ones included, so a dataset header records how it was made.  The
values below pin that payload for every scenario x theory, once with the
default settings and once with every caller-set setting changed, and the
header `abduce generate` writes for each pair that command accepts.
"""

import json

import pytest

from abduce.cli import main
from abduce.dataset import params_digest
from abduce.generator import GenParams
from abduce.theory import SCENARIOS, THEORY_IDS, builtin_theory

SET = {"world_budget": 6, "margin": 3, "holdout_count": 0, "global_seed": 1774141687, "refine": True,
       "world_attempts": 1500}
SET_FLAGS = ["--world-budget", "6", "--margin", "3", "--holdouts", "0", "--seed", "1774141687", "--refine",
             "--world-attempts", "1500"]
# (scenario, theory) -> (digest with defaults, digest with SET)
DIGESTS = {
    ("full", "T1"): ("3a3f4753766713a8", "23afea87505ac7d2"),
    ("full", "T2"): ("6986559140e38a20", "149a9df4142f180a"),
    ("full", "T3"): ("172969f10cf3eec6", "d9ecbbe193081907"),
    ("full", "T4"): ("3c8cbe3f7f03a89c", "19460e0c99e78563"),
    ("full", "T5"): ("3fc0f829fb04f3ec", "6eb55e74a89049d2"),
    ("full", "T6"): ("f4b35aec455a7390", "4691e19b4bd209ae"),
    ("full", "T7"): ("755d4138e8068f69", "22b5ce7190d06817"),
    ("partial", "T1"): ("36ec3c8ccdb2bd41", "ba3edee3b71e2cd0"),
    ("partial", "T2"): ("552c4e19a296327f", "884c9cc6da35d9cb"),
    ("partial", "T3"): ("ecb98532aa988bed", "abf7290e8861833f"),
    ("partial", "T4"): ("62801197a0b833dd", "0527995031628d62"),
    ("partial", "T5"): ("9cbf3cfe8da36d9c", "0108498165861133"),
    ("partial", "T6"): ("cfb9bff4e4c73c89", "366b9d694b503889"),
    ("partial", "T7"): ("a1240f931f6e51c3", "2632fac0e982c71f"),
    ("skeptical", "T1"): ("3575dfcd6a440a1b", "48ade953bb8a1952"),
    ("skeptical", "T2"): ("a77ae193293e4518", "74f579457424180e"),
    ("skeptical", "T3"): ("9e123d6bbe5c0bd0", "45f3101b7fa3da87"),
    ("skeptical", "T4"): ("033143452061cefb", "56cb062852ece569"),
    ("skeptical", "T5"): ("4d49f4382c51542e", "e552879dd9374524"),
    ("skeptical", "T6"): ("e4fca08c3b5b6d60", "626bed099c942b34"),
    ("skeptical", "T7"): ("4b43b5b33168a351", "acd0ee0f0693e924"),
}
PAIRS = [(s, t) for s in SCENARIOS for t in THEORY_IDS]
ALLOWED = [(s, t) for s, t in PAIRS if s in builtin_theory(t).scenarios]


@pytest.mark.parametrize("scenario, theory", PAIRS)
def test_params_digest(scenario, theory):
    default, changed = DIGESTS[scenario, theory]
    assert params_digest([GenParams(scenario=scenario, theory_id=theory)]) == default
    assert params_digest([GenParams(scenario=scenario, theory_id=theory, **SET)]) == changed


@pytest.mark.parametrize("flags", [[], SET_FLAGS], ids=["defaults", "set"])
@pytest.mark.parametrize("scenario, theory", ALLOWED)
def test_generate_header_digest(tmp_path, capsys, scenario, theory, flags):
    out = tmp_path / "ds.jsonl"
    assert main(["generate", "--scenario", scenario, "--theory", theory, "--count", "0", *flags,
                 "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["params_digest"] == DIGESTS[scenario, theory][bool(flags)]
    assert header["global_seed"] == (SET["global_seed"] if flags else 0)
