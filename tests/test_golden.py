"""Golden logs: the per-step log of fixed episodes, pinned by hash.

The final datasets are pinned too: the log records only set sizes, and
memory labels never feed back into behaviour, so a bookkeeping slip
would not show in the log hash.

A change meant to keep behaviour must leave every hash as it is. A
change that alters behaviour on purpose updates the hash and says why.
"""

import dataclasses
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

# (scene, seed, max_steps) -> sha256 of the eight final DatasetPair
# arrays, in field order
GOLDEN_DATASETS = {
    ("peg_u", 3, 250):
        "3e8fc7e2180953cb4f4d6517c3373b5faf8315c78673ff368b096d39efbf6fee",
    ("cable_hook", 1, 40):
        "f4c46f8565580581065720875282be106c87c981b29c30ba07c20bd7bc2cd8e8",
}


def datasets_sha256(dp) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(dp):
        h.update(getattr(dp, f.name).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("scene,seed,max_steps", sorted(GOLDEN))
def test_log_hash(scene, seed, max_steps):
    cfg = EpisodeConfig.for_scene(scene, seed=seed, max_steps=max_steps)
    report = run_episode(cfg)
    digest = hashlib.sha256(report.log_text().encode()).hexdigest()
    assert len(report.events) == 1
    assert digest == GOLDEN[(scene, seed, max_steps)]
    assert (datasets_sha256(report.final_datasets)
            == GOLDEN_DATASETS[(scene, seed, max_steps)])
