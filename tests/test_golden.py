"""Golden logs: the per-step log of fixed episodes, pinned by hash.

A change meant to keep behaviour must leave both hashes as they are. A
change that alters behaviour on purpose updates the hash and says why.
"""

import hashlib

import pytest

from obsurf.harness import EpisodeConfig, run_episode


# (scene, seed, max_steps) -> sha256 of EpisodeReport.log_text()
GOLDEN = {
    # reaches the goal at step 207 after one refinement
    ("peg_u", 3, 250):
        "f75137446986b25a0411bef649c78d11640270c0251c0b1972378dd54f0dd27d",
    # runs out at step 40 after one refinement
    ("cable_hook", 1, 40):
        "575ac1ea27d58698c450c722ca996046d1798e0a94447a0537cf6f5c87376c15",
}


@pytest.mark.parametrize("scene,seed,max_steps", sorted(GOLDEN))
def test_log_hash(scene, seed, max_steps):
    cfg = EpisodeConfig.for_scene(scene, seed=seed, max_steps=max_steps)
    report = run_episode(cfg)
    digest = hashlib.sha256(report.log_text().encode()).hexdigest()
    assert len(report.events) == 1
    assert digest == GOLDEN[(scene, seed, max_steps)]
