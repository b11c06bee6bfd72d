import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gazesim.head_tracker import HeadObservation
from gazesim.situation import (
    PERSISTENCE_FRAMES,
    SITUATIONS,
    SrmState,
    ViewingSituation,
    classify_instant,
    classify_instants,
    srm_update,
)


def obs(yaw=0.0, pitch=0.0, valid=True, frame=0):
    if not valid:
        return HeadObservation(valid=False, yaw_deg=None, pitch_deg=None, frame=frame)
    return HeadObservation(valid=True, yaw_deg=yaw, pitch_deg=pitch, frame=frame)


CFOV = ViewingSituation.CFOV
NPFOV = ViewingSituation.NPFOV
FPFOV = ViewingSituation.FPFOV
OFOV = ViewingSituation.OFOV


class TestClassifyInstant:
    @pytest.mark.parametrize(
        "yaw,pitch,expected",
        [
            (0.0, 0.0, CFOV),
            (10.0, 0.0, CFOV),
            (-10.0, 0.0, CFOV),
            (10.001, 0.0, NPFOV),
            (-10.5, 0.0, NPFOV),
            (40.0, 5.0, NPFOV),
            (70.0, 0.0, NPFOV),
            (70.001, 0.0, FPFOV),
            (-89.0, -9.9, FPFOV),
            (90.0, 0.0, FPFOV),
            (0.0, 10.0, CFOV),
            (0.0, -10.0, CFOV),
            (50.0, 10.0, NPFOV),
        ],
    )
    def test_gaze_angle_bands(self, yaw, pitch, expected):
        assert classify_instant(obs(yaw, pitch), theta_rel_deg=0.0) is expected

    @pytest.mark.parametrize(
        "yaw,pitch",
        [
            (0.0, 10.1),
            (0.0, -10.1),
            (50.0, -10.1),
            (90.0, 12.0),
        ],
    )
    def test_pitch_outside_band_is_unknown(self, yaw, pitch):
        assert classify_instant(obs(yaw, pitch), theta_rel_deg=0.0) is None

    def test_face_lost_with_body_turned_away_is_out_of_view(self):
        away = obs(valid=False)
        assert classify_instant(away, theta_rel_deg=90.1) is OFOV
        assert classify_instant(away, theta_rel_deg=-90.1) is OFOV
        assert classify_instant(away, theta_rel_deg=180.0) is OFOV

    def test_face_lost_with_body_toward_robot_is_unknown(self):
        away = obs(valid=False)
        assert classify_instant(away, theta_rel_deg=0.0) is None
        assert classify_instant(away, theta_rel_deg=90.0) is None
        assert classify_instant(away, theta_rel_deg=None) is None

    def test_valid_face_wins_over_body_angle(self):
        # Head angles alone decide once the face is visible.
        assert classify_instant(obs(5.0), theta_rel_deg=120.0) is CFOV

    @given(
        st.floats(min_value=-180.0, max_value=180.0),
        st.floats(min_value=-180.0, max_value=180.0),
    )
    def test_mirror_symmetric_in_yaw(self, yaw, pitch):
        assert classify_instant(obs(yaw, pitch), 0.0) is classify_instant(obs(-yaw, pitch), 0.0)

    @given(
        st.floats(min_value=-180.0, max_value=180.0),
        st.floats(min_value=-180.0, max_value=180.0),
    )
    def test_every_valid_observation_gets_at_most_one_label(self, yaw, pitch):
        label = classify_instant(obs(yaw, pitch), 0.0)
        assert label in (CFOV, NPFOV, FPFOV, None)


def near(*edges):
    """Angles on and one ulp either side of each edge, or any angle."""
    ulps = [x for e in edges
            for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    return st.sampled_from(ulps) | st.floats(-180.0, 180.0)


class TestClassifyInstants:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                near(0.0, 10.0, -10.0, 70.0, -70.0, 90.0, -90.0),
                near(10.0, -10.0),
                near(90.0, -90.0, 180.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_classify_instant_frame_by_frame(self, frames):
        valid, yaw, pitch, theta_rel = map(np.array, zip(*frames))
        expected = [classify_instant(obs(y, p, v), t) for v, y, p, t in frames]
        got = classify_instants(valid, yaw, pitch, theta_rel).tolist()
        assert got == [-1 if label is None else SITUATIONS.index(label) for label in expected]


class TestSrmUpdate:
    def test_confirms_after_exactly_persistence_frames(self):
        srm = SrmState()
        for i in range(PERSISTENCE_FRAMES - 1):
            srm = srm_update(srm, CFOV)
            assert srm.confirmed is None, f"confirmed too early at frame {i}"
        srm = srm_update(srm, CFOV)
        assert srm.confirmed is CFOV

    def test_streak_is_capped(self):
        srm = SrmState()
        for _ in range(100):
            srm = srm_update(srm, NPFOV)
        assert srm.streak == PERSISTENCE_FRAMES
        assert srm.confirmed is NPFOV

    def test_candidate_switch_resets_streak_but_keeps_confirmed(self):
        srm = SrmState()
        for _ in range(PERSISTENCE_FRAMES):
            srm = srm_update(srm, CFOV)
        srm = srm_update(srm, FPFOV)
        assert srm.confirmed is CFOV
        assert srm.candidate is FPFOV
        assert srm.streak == 1
        for _ in range(PERSISTENCE_FRAMES - 2):
            srm = srm_update(srm, FPFOV)
        assert srm.confirmed is CFOV
        srm = srm_update(srm, FPFOV)
        assert srm.confirmed is FPFOV

    def test_unknown_never_confirms(self):
        srm = SrmState()
        for _ in range(100):
            srm = srm_update(srm, None)
        assert srm.confirmed is None

    def test_unknown_interrupts_a_streak(self):
        srm = SrmState()
        for _ in range(PERSISTENCE_FRAMES - 1):
            srm = srm_update(srm, OFOV)
        srm = srm_update(srm, None)
        for _ in range(PERSISTENCE_FRAMES - 1):
            srm = srm_update(srm, OFOV)
        assert srm.confirmed is None
        srm = srm_update(srm, OFOV)
        assert srm.confirmed is OFOV

    @given(
        st.lists(
            st.sampled_from([CFOV, NPFOV, FPFOV, OFOV, None]),
            min_size=1,
            max_size=200,
        )
    )
    def test_confirmed_changes_only_after_a_full_streak(self, labels):
        srm = SrmState()
        window = []
        for label in labels:
            before = srm.confirmed
            srm = srm_update(srm, label)
            window.append(label)
            if srm.confirmed is not before:
                tail = window[-PERSISTENCE_FRAMES:]
                assert len(tail) == PERSISTENCE_FRAMES
                assert all(x is srm.confirmed for x in tail)
                assert srm.confirmed is not None


class TestEnumPlumbing:
    def test_situation_values_round_trip(self):
        for s in SITUATIONS:
            assert ViewingSituation(s.value) is s

    def test_canonical_order(self):
        assert [s.value for s in SITUATIONS] == ["CFOV", "NPFOV", "FPFOV", "OFOV"]
