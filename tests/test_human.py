import dataclasses
import math

import numpy as np
import pytest

from gazesim import human
from gazesim.controller import Method, RobotAction
from gazesim.geometry import bearing_to, normalize_angle
from gazesim.human import (
    GAZE_MEAN_BLINK_S,
    GAZE_MEAN_PLAIN_S,
    GAZE_MIN_S,
    GAZE_VAR_BLINK,
    GAZE_VAR_PLAIN,
    LATENCY_MAX_S,
    LATENCY_MIN_S,
    REFERENCE_SUCCESS_RATES,
    ROBOT_TARGET,
    derive_response_table,
    escalation_success,
    gaze_bearing_to,
    gaze_duration,
    gaze_durations,
    human_step,
    make_human,
    respond,
    schedule_response,
)
from gazesim.scenario import default_scenario
from gazesim.seeding import derive_rng, derive_rngs
from gazesim.situation import SITUATIONS, ViewingSituation

CFOV = ViewingSituation.CFOV
NPFOV = ViewingSituation.NPFOV
FPFOV = ViewingSituation.FPFOV
OFOV = ViewingSituation.OFOV

TICK = 1.0 / 30.0


class TestDeriveResponseTable:
    def test_head_turn_column_is_the_first_row(self):
        table = derive_response_table()
        for s in SITUATIONS:
            assert table[RobotAction.HT][s] == REFERENCE_SUCCESS_RATES[Method.M1][s]

    def test_conditional_stage_probabilities(self):
        table = derive_response_table()
        # (0.84 - 0.08) / (1 - 0.08) and (0.92 - 0.84) / (1 - 0.84)
        assert table[RobotAction.HS][FPFOV] == pytest.approx(19.0 / 23.0, abs=1e-12)
        assert table[RobotAction.RT][OFOV] == pytest.approx(19.0 / 21.0, abs=1e-12)
        # No headroom between stages two and three straight ahead.
        assert table[RobotAction.RT][NPFOV] == pytest.approx(0.0, abs=1e-12)

    def test_saturated_stage_pins_successors_to_one(self):
        table = derive_response_table()
        assert table[RobotAction.HS][CFOV] == 1.0
        assert table[RobotAction.RT][CFOV] == 1.0

    def test_round_trip_reproduces_every_cumulative_rate(self):
        for method in (Method.M1, Method.M2, Method.M3, Method.M4):
            reference = REFERENCE_SUCCESS_RATES[
                Method.M3 if method is Method.M4 else method
            ]
            for s in SITUATIONS:
                assert escalation_success(method, s) == pytest.approx(
                    reference[s], abs=1e-12
                )

    def test_one_shared_table_inverting_the_reference_rates(self):
        assert derive_response_table() is derive_response_table()

        def stage(earlier: float, later: float) -> float:
            if earlier >= 1.0:
                return 1.0
            return min(max((later - earlier) / (1.0 - earlier), 0.0), 1.0)

        m1, m2, m3 = (REFERENCE_SUCCESS_RATES[m] for m in (Method.M1, Method.M2, Method.M3))
        assert derive_response_table() == {
            RobotAction.HT: dict(m1),
            RobotAction.HS: {s: stage(m1[s], m2[s]) for s in SITUATIONS},
            RobotAction.RT: {s: stage(m2[s], m3[s]) for s in SITUATIONS},
        }

    def test_m4_shares_the_m3_plan_rates(self):
        assert REFERENCE_SUCCESS_RATES[Method.M3] == REFERENCE_SUCCESS_RATES[Method.M4]


class TestRespond:
    def test_certain_and_impossible(self):
        table = derive_response_table()
        assert table[RobotAction.HS][CFOV] == 1.0
        assert table[RobotAction.RT][NPFOV] == 0.0
        yes, latency = respond(RobotAction.HS, CFOV, seed=1)
        assert yes and LATENCY_MIN_S <= latency <= LATENCY_MAX_S
        no, latency = respond(RobotAction.RT, NPFOV, seed=1)
        assert not no and latency is None

    def test_blink_is_not_a_prompt(self):
        with pytest.raises(ValueError):
            respond(RobotAction.BLINK, CFOV, seed=1)

    def test_deterministic_per_seed(self):
        a = respond(RobotAction.HS, FPFOV, seed=123)
        b = respond(RobotAction.HS, FPFOV, seed=123)
        assert a == b

    def test_empirical_rate_and_latency_distribution(self):
        want = 19.0 / 23.0
        hits = []
        latencies = []
        for seed in range(20_000):
            yes, latency = respond(RobotAction.HS, FPFOV, seed=seed)
            hits.append(yes)
            if yes:
                latencies.append(latency)
        assert np.mean(hits) == pytest.approx(want, abs=0.008)
        latencies = np.array(latencies)
        assert latencies.min() >= LATENCY_MIN_S
        assert latencies.max() <= LATENCY_MAX_S
        assert latencies.mean() == pytest.approx(2.0, abs=0.02)
        # Uniform on [0.5, 3.5] has variance 3*3/12 = 0.75.
        assert latencies.var() == pytest.approx(0.75, abs=0.02)


class TestGazeDuration:
    def test_statistics_with_blinks(self):
        draws = np.array([gaze_duration(True, seed=s) for s in range(4000)])
        assert draws.min() > GAZE_MIN_S
        assert draws.mean() == pytest.approx(GAZE_MEAN_BLINK_S, abs=0.05)
        assert draws.var() == pytest.approx(GAZE_VAR_BLINK, abs=0.02)

    def test_statistics_without_blinks(self):
        draws = np.array([gaze_duration(False, seed=s) for s in range(4000)])
        assert draws.min() > GAZE_MIN_S
        assert draws.mean() == pytest.approx(GAZE_MEAN_PLAIN_S, abs=0.02)
        assert draws.var() == pytest.approx(GAZE_VAR_PLAIN, abs=0.005)

    def test_deterministic(self):
        assert gaze_duration(True, seed=7) == gaze_duration(True, seed=7)

    @pytest.mark.parametrize("blinked", [True, False])
    def test_batched_redraws_match_the_scalar_loop(self, blinked, monkeypatch):
        # With the bound at the mean about half of every round of draws is
        # rejected, so the redraw loop runs a dozen rounds or more; with
        # the real bound (6.7 and 10 sd below the means) it never runs.
        mean, var = (
            (GAZE_MEAN_BLINK_S, GAZE_VAR_BLINK) if blinked else (GAZE_MEAN_PLAIN_S, GAZE_VAR_PLAIN)
        )
        monkeypatch.setattr(human, "GAZE_MIN_S", mean)
        keys = np.arange(3000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        streams = derive_rngs(keys)
        batched = gaze_durations(blinked, streams)
        rounds = []
        for i, key in enumerate(keys.tolist()):
            rng = derive_rng(key)
            draws = 1
            while (draw := float(rng.normal(mean, math.sqrt(var)))) <= mean:
                draws += 1
            rounds.append(draws)
            assert batched[i] == draw
            state = rng.bit_generator.state["state"]["state"]
            assert (int(streams.hi[i]) << 64 | int(streams.lo[i])) == state
        assert sum(r > 1 for r in rounds) > 1000 and max(rounds) >= 8


class TestHumanMotion:
    def test_settles_on_the_painting(self):
        sc = default_scenario()
        painting = sc.painting_for(FPFOV)
        h = make_human(sc, painting.painting_id)
        for k in range(90):
            human_step(h, sc, k * TICK)
        assert h.head_yaw_deg == pytest.approx(sc.painting_world_yaw(painting))
        assert h.head_pitch_deg == pytest.approx(sc.painting_pitch_deg)
        assert h.body_theta_deg == pytest.approx(sc.painting_world_yaw(painting))

    def test_head_outruns_body(self):
        sc = default_scenario()
        painting = sc.painting_for(OFOV)
        h = make_human(sc, painting.painting_id)
        start = h.head_yaw_deg
        human_step(h, sc, 0.0)
        head_moved = abs(normalize_angle(h.head_yaw_deg - start))
        body_moved = abs(normalize_angle(h.body_theta_deg - start))
        assert head_moved == pytest.approx(90.0 * TICK)
        assert body_moved == pytest.approx(60.0 * TICK)

    def test_scheduled_response_fires_on_time(self):
        sc = default_scenario()
        painting = sc.painting_for(CFOV)
        h = make_human(sc, painting.painting_id)
        for k in range(60):
            human_step(h, sc, k * TICK)
        schedule_response(h, fire_at_s=3.0, gaze_duration_s=0.5)
        t = 60 * TICK
        while t < 2.999:
            assert h.attending == painting.painting_id
            human_step(h, sc, t)
            t += TICK
        human_step(h, sc, 3.0)
        assert h.attending == ROBOT_TARGET
        assert h.prior_painting == painting.painting_id

    def test_gaze_reverts_to_the_prior_painting(self):
        sc = default_scenario()
        painting = sc.painting_for(CFOV)
        h = make_human(sc, painting.painting_id)
        schedule_response(h, fire_at_s=0.5, gaze_duration_s=0.4)
        made_robot_contact = False
        for k in range(300):
            human_step(h, sc, k * TICK)
            if h.attending == ROBOT_TARGET and gaze_bearing_to(
                h, sc.robot_pose.position
            ) == pytest.approx(0.0, abs=1e-6):
                made_robot_contact = True
        assert made_robot_contact
        assert h.attending == painting.painting_id
        robot_yaw = bearing_to(h.seat.position, sc.robot_pose.position)
        assert h.head_yaw_deg == pytest.approx(sc.painting_world_yaw(painting))
        assert abs(normalize_angle(h.head_yaw_deg - robot_yaw)) <= 10.0  # CFOV painting

    def test_attending_is_always_a_known_target(self):
        sc = default_scenario()
        h = make_human(sc, sc.painting_for(NPFOV).painting_id)
        schedule_response(h, fire_at_s=1.0, gaze_duration_s=0.3)
        valid = {p.painting_id for p in sc.paintings} | {ROBOT_TARGET}
        for k in range(240):
            human_step(h, sc, k * TICK)
            assert h.attending in valid

    def test_unknown_painting_rejected(self):
        sc = default_scenario()
        with pytest.raises(KeyError):
            make_human(sc, "P99")

    def test_gaze_bearing_measures_offset_from_gaze(self):
        sc = default_scenario()
        h = make_human(sc, sc.painting_for(CFOV).painting_id)
        h.head_yaw_deg = bearing_to(h.seat.position, sc.robot_pose.position)
        assert gaze_bearing_to(h, sc.robot_pose.position) == pytest.approx(0.0)
        h.head_yaw_deg = normalize_angle(h.head_yaw_deg + 35.0)
        assert gaze_bearing_to(h, sc.robot_pose.position) == pytest.approx(35.0)


class TestIdleUntil:
    """`idle_until_s`: when `human_step` next changes a visitor at rest on a
    painting, or None while they turn or attend the robot."""

    @staticmethod
    def settled(sc, situation):
        h = make_human(sc, sc.painting_for(situation).painting_id)
        for k in range(150):  # the widest turn, 180 deg of body, takes 90 ticks
            human_step(h, sc, k * TICK)
        return h

    def test_a_visitor_still_turning_is_never_idle(self):
        sc = default_scenario()
        h = make_human(sc, sc.painting_for(OFOV).painting_id)
        target = sc.painting_world_yaw(sc.painting_for(OFOV))
        head_landed = False
        for k in range(150):
            idle = human.idle_until_s(h, sc)
            before = dataclasses.replace(h)
            human_step(h, sc, k * TICK)
            if h == before:
                break
            assert idle is None  # this step changed the visitor
            # The head lands first; the body still turns after it.
            head_landed |= h.head_yaw_deg == target != h.body_theta_deg
        assert head_landed
        assert human.idle_until_s(h, sc) == math.inf

    def test_a_visitor_attending_the_robot_is_never_idle(self):
        sc = default_scenario()
        h = self.settled(sc, CFOV)
        h.attending = ROBOT_TARGET
        h.head_yaw_deg = h.body_theta_deg = bearing_to(
            h.seat.position, sc.robot_pose.position
        )
        h.head_pitch_deg = 0.0
        h.gaze_until_s = 5.0
        # At rest on the robot, yet the gaze span's end is still to come.
        before = dataclasses.replace(h)
        human_step(h, sc, 1.0)
        assert h == before
        assert human.idle_until_s(h, sc) is None

    def test_a_settled_visitor_waits_for_the_pending_response(self):
        sc = default_scenario()
        h = self.settled(sc, NPFOV)
        assert human.idle_until_s(h, sc) == math.inf
        schedule_response(h, fire_at_s=7.5, gaze_duration_s=1.0)
        assert human.idle_until_s(h, sc) == 7.5
        # Until then each step is an exact no-op; at 7.5 s the visitor fires.
        before = dataclasses.replace(h)
        for t in (5.0, 7.5 - TICK):
            human_step(h, sc, t)
            assert h == before
        human_step(h, sc, 7.5)
        assert h.attending == ROBOT_TARGET
        assert human.idle_until_s(h, sc) is None
