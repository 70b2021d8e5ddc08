"""Each application replay's output, pinned exactly at a tiny size.

The agreement tests next to this file compare the replays with the
analytic models within ±50%; these pins catch any move at all in a
replay's simulated step time or message count.  A deliberate change to
a replay's schedule updates ``PINS``.
"""

import pytest

from repro.apps.cam import FV_1_9x2_5
from repro.apps.cam.des_replay import replay_steps as cam_replay
from repro.apps.gyro import B1_STD
from repro.apps.gyro.des_replay import replay_steps as gyro_replay
from repro.apps.md import LammpsModel
from repro.apps.md.des_replay import replay_steps as md_replay
from repro.apps.pop import PopGrid
from repro.apps.pop.des_replay import replay_steps as pop_replay
from repro.apps.s3d.des_replay import replay_steps as s3d_replay
from repro.machines import BGP, XT4_QC

#: app -> (replay call, seconds_per_step, messages)
PINS = {
    "gyro": (
        lambda: gyro_replay(BGP, 16, problem=B1_STD, steps=2),
        2.0066760640767316,
        3840,
    ),
    "md": (lambda: md_replay(XT4_QC, LammpsModel, 8), 0.48371288001974383, 200),
    "cam": (lambda: cam_replay(BGP, FV_1_9x2_5, 8), 3.839728456470585, 96),
    "pop": (
        lambda: pop_replay(
            XT4_QC, 8, PopGrid(nx=120, ny=80, levels=8), solver_iterations=3
        ),
        0.016551292559837703,
        424,
    ),
    "s3d": (lambda: s3d_replay(BGP, 8, edge=10), 0.02965090509803922, 288),
}


@pytest.mark.parametrize("app", sorted(PINS))
def test_replay_matches_pin(app):
    run, seconds_per_step, messages = PINS[app]
    rep = run()
    assert float(rep.seconds_per_step) == seconds_per_step
    assert rep.messages == messages
