import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazesim import body_tracker
from gazesim.body_tracker import (
    MIN_WEIGHT,
    N_EVAL_POINTS,
    N_PARTICLES,
    SIGMA_FLOOR_M2,
    WARMUP_FRAMES,
    BodyEstimate,
    BodyTracker,
    _batch_likelihoods,
    _contour_local,
    body_orientation_for_srm,
    init_particles,
    likelihood,
    systematic_resample,
)
from gazesim.geometry import Pose2, normalize_angle
from gazesim.laser import (
    BEAM_ANGLES_DEG,
    MAX_RANGE_M,
    EllipseBody,
    scan_to_points,
    synthesize_scan,
)
from gazesim.scenario import default_scenario

SEMI_AXES = (0.25, 0.15)  # the default room's torso and EllipseBody's default


def brute_force_likelihood(eval_points, scan_points, sigma_floor_m2):
    """Reference implementation: plain loops, no vectorization tricks."""
    dists = []
    for ex, ey in eval_points:
        best = math.inf
        for sx, sy in scan_points:
            best = min(best, math.hypot(ex - sx, ey - sy))
        dists.append(best)
    var = sum(d * d for d in dists) / len(dists) - (sum(dists) / len(dists)) ** 2
    sigma = max(var, sigma_floor_m2)
    return max(math.exp(-max(dists) ** 2 / sigma), MIN_WEIGHT)


def broadcast_batch_likelihoods(states, sensor_xy, scan_points, semi_axes):
    """Reference batched kernel: distances for every contour point in one
    (particles x contour points x returns) broadcast, NaN-masked reductions.

    The production kernel computes distances for visible points only and
    must return the same bits.
    """
    n = len(states)
    if len(scan_points) == 0:
        return np.full(n, MIN_WEIGHT)
    local_pts, local_nrm = _contour_local(*semi_axes, N_EVAL_POINTS)
    axis = np.radians(states[:, 2] + 90.0)
    c, s = np.cos(axis)[:, None], np.sin(axis)[:, None]
    lx, ly = local_pts[:, 0][None, :], local_pts[:, 1][None, :]
    nx, ny = local_nrm[:, 0][None, :], local_nrm[:, 1][None, :]
    px = states[:, 0][:, None] + c * lx - s * ly
    py = states[:, 1][:, None] + s * lx + c * ly
    wnx = c * nx - s * ny
    wny = s * nx + c * ny
    visible = wnx * (sensor_xy[0] - px) + wny * (sensor_xy[1] - py) > 0.0

    dx = px[:, :, None] - scan_points[None, None, :, 0]
    dy = py[:, :, None] - scan_points[None, None, :, 1]
    d = np.sqrt(np.min(dx * dx + dy * dy, axis=2))

    d = np.where(visible, d, np.nan)
    counts = visible.sum(axis=1)
    ok = counts > 0
    alphas = np.full(n, MIN_WEIGHT)
    if ok.any():
        with np.errstate(invalid="ignore"):
            d_max = np.nanmax(d[ok], axis=1)
            var = np.nanvar(d[ok], axis=1)
        sigma_d = np.maximum(var, SIGMA_FLOOR_M2)
        alphas[ok] = np.maximum(np.exp(-(d_max * d_max) / sigma_d), MIN_WEIGHT)
    return alphas


def visible_evaluation_points(state, sensor, n_eval_points=N_EVAL_POINTS):
    """Contour points of one hypothesis facing the sensor, shape (k, 2): the
    documented model of the visible contour that the batched kernel masks."""
    x, y, theta = float(state[0]), float(state[1]), float(state[2])
    local_pts, local_nrm = _contour_local(*SEMI_AXES, n_eval_points)
    axis = math.radians(theta + 90.0)  # major axis direction
    c, s = math.cos(axis), math.sin(axis)
    rot = np.array([[c, -s], [s, c]])
    pts = local_pts @ rot.T + [x, y]
    nrm = local_nrm @ rot.T
    to_sensor = np.array([sensor.x, sensor.y]) - pts
    visible = np.einsum("ij,ij->i", nrm, to_sensor) > 0.0
    return pts[visible]


class TestVisibleEvaluationPoints:
    def test_half_the_ring_faces_the_sensor(self):
        # Generic sensor placement so no boundary normal is exactly
        # perpendicular to the sensor direction.
        pts = visible_evaluation_points((0.4, -0.2, 13.0), Pose2(3.7, 1.3, 0.0), 20)
        assert pts.shape == (10, 2)

    def test_opposite_sensors_see_disjoint_halves(self):
        # Points whose outward normal is nearly tangent to the view ray can
        # drop out on both sides, so the halves need not cover the ring.
        state = (0.0, 0.0, 0.0)
        front = visible_evaluation_points(state, Pose2(5.0, 0.1, 0.0), 20)
        back = visible_evaluation_points(state, Pose2(-5.0, -0.1, 0.0), 20)
        assert 8 <= len(front) <= 12
        assert 8 <= len(back) <= 12
        front_set = {tuple(np.round(p, 12)) for p in front}
        back_set = {tuple(np.round(p, 12)) for p in back}
        assert not front_set & back_set

    def test_points_lie_on_the_body_outline(self):
        state = (1.5, -0.7, 40.0)
        pts = visible_evaluation_points(state, Pose2(0.0, 0.0, 0.0), 32)
        axis = math.radians(40.0 + 90.0)
        for px, py in pts:
            dx, dy = px - 1.5, py + 0.7
            u = dx * math.cos(axis) + dy * math.sin(axis)
            v = -dx * math.sin(axis) + dy * math.cos(axis)
            val = (u / SEMI_AXES[0]) ** 2 + (v / SEMI_AXES[1]) ** 2
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_visible_points_face_the_sensor(self):
        sensor = Pose2(4.0, 0.0, 180.0)
        pts = visible_evaluation_points((1.0, 0.0, 0.0), sensor, 24)
        # Everything visible from +x must sit on the +x half of the outline.
        assert np.all(pts[:, 0] >= 1.0)


class TestLikelihood:
    def test_worked_example_against_brute_force(self):
        eval_pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        scan_pts = np.array([[0.0, 0.01], [1.0, 0.02], [2.0, 0.05]])
        got = likelihood(eval_pts, scan_pts, sigma_floor_m2=1e-4)
        want = brute_force_likelihood(eval_pts, scan_pts, 1e-4)
        assert got == pytest.approx(want, rel=1e-12)
        # Distances 0.01/0.02/0.05 give a population variance of 2.888...e-4,
        # above the 1e-4 floor, and a weight just over 1.7e-4.
        assert got == pytest.approx(1.7437e-4, rel=1e-3)

    def test_perfect_match_scores_one(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        assert likelihood(pts, pts.copy(), sigma_floor_m2=1e-4) == 1.0

    def test_uniform_offset_hits_the_floor(self):
        # Equal distances have zero variance, so the floor takes over and
        # the exponent is exactly -d^2 / floor.
        eval_pts = np.array([[0.0, 0.0]])
        scan_pts = np.array([[0.01, 0.0]])
        got = likelihood(eval_pts, scan_pts, sigma_floor_m2=1e-4)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_empty_scan_returns_min_weight(self):
        pts = np.array([[0.0, 0.0]])
        assert likelihood(pts, np.empty((0, 2)), 1e-4) == MIN_WEIGHT
        assert likelihood(np.empty((0, 2)), pts, 1e-4) == MIN_WEIGHT

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=2, max_size=12),
        st.floats(min_value=1e-6, max_value=1e-2),
    )
    def test_weight_in_unit_interval(self, dists, floor):
        eval_pts = np.array([[float(i), 0.0] for i in range(len(dists))])
        scan_pts = np.array([[float(i), d] for i, d in enumerate(dists)])
        w = likelihood(eval_pts, scan_pts, sigma_floor_m2=floor)
        assert 0.0 < w <= 1.0
        assert w == pytest.approx(brute_force_likelihood(eval_pts, scan_pts, floor), rel=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=0.3),
        st.floats(min_value=0.011, max_value=2.0),
    )
    def test_strictly_decreasing_in_worst_distance(self, d1, factor):
        d2 = d1 * (1.0 + factor)
        floor = 1e-4
        pts = np.array([[0.0, 0.0]])
        w1 = likelihood(pts, np.array([[d1, 0.0]]), floor)
        w2 = likelihood(pts, np.array([[d2, 0.0]]), floor)
        if w1 > MIN_WEIGHT:
            assert w2 < w1


SCENE = default_scenario()
SENSOR_XY = np.array([SCENE.sensor_pose.x, SCENE.sensor_pose.y])


def seat_scan(heading_offset_deg, seed):
    """A real scan of the body on the default seat, turned by an offset."""
    seat = SCENE.human_seat
    body = EllipseBody(
        Pose2(seat.x, seat.y, seat.heading_deg + heading_offset_deg),
        SCENE.body_semi_major_m,
        SCENE.body_semi_minor_m,
    )
    return synthesize_scan(SCENE.sensor_pose, body, seed=seed)


def _reinit_over_field(scan, n, rng):
    """Uniform hypotheses over the sensor's fan: particle sets far from any
    body, on which the batched likelihood must still match the scalar one."""
    rel = rng.uniform(BEAM_ANGLES_DEG[0], BEAM_ANGLES_DEG[-1], n)
    rad = np.radians(scan.sensor_pose.heading_deg + rel)
    r = rng.uniform(0.2, MAX_RANGE_M, n)
    states = np.empty((n, 3))
    states[:, 0] = scan.sensor_pose.x + r * np.cos(rad)
    states[:, 1] = scan.sensor_pose.y + r * np.sin(rad)
    states[:, 2] = rng.uniform(-180.0, 180.0, n)
    return states


def scalar_likelihoods(states, scan_points):
    return np.array(
        [
            likelihood(
                visible_evaluation_points(state, SCENE.sensor_pose),
                scan_points,
                SIGMA_FLOOR_M2,
            )
            for state in states
        ]
    )


class TestBatchLikelihoods:
    """The batched kernel is what the filter runs; the scalar likelihood on
    visible_evaluation_points is the documented model it must match."""

    def test_matches_scalar_likelihood_per_particle(self):
        rng = np.random.default_rng(5)
        seat_weights = []
        for i, offset in enumerate((0.0, 35.0, -90.0)):
            scan = seat_scan(offset, seed=100 + i)
            scan_points = scan_to_points(scan)
            assert len(scan_points) > 10
            around_seat = init_particles(SCENE.human_seat, seed=200 + i)[:200]
            over_field = _reinit_over_field(scan, 200, rng)
            for states in (around_seat, over_field):
                got = _batch_likelihoods(states, SENSOR_XY, scan_points, SEMI_AXES)
                want = scalar_likelihoods(states, scan_points)
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
                if states is around_seat:
                    seat_weights.append(np.max(got))
        # The seat sets must exercise real weights, not only the floor.
        assert max(seat_weights) > 1e-3

    def test_row_without_visible_points_gets_min_weight(self):
        scan_points = scan_to_points(seat_scan(0.0, seed=3))
        seat = SCENE.human_seat
        # A hypothesis centred on the sensor encloses it: no contour normal
        # faces the sensor, so nothing is visible.
        states = np.array(
            [[SENSOR_XY[0], SENSOR_XY[1], 10.0], [seat.x, seat.y, seat.heading_deg]]
        )
        assert len(visible_evaluation_points(states[0], SCENE.sensor_pose)) == 0
        got = _batch_likelihoods(states, SENSOR_XY, scan_points, SEMI_AXES)
        assert got[0] == MIN_WEIGHT
        assert got[1] == pytest.approx(
            scalar_likelihoods(states[1:], scan_points)[0], rel=1e-9, abs=0.0
        )
        assert got[1] > MIN_WEIGHT
        assert np.array_equal(
            got, broadcast_batch_likelihoods(states, SENSOR_XY, scan_points, SEMI_AXES)
        )

    def test_empty_scan_gives_min_weight(self):
        far = EllipseBody(Pose2(SENSOR_XY[0] + 10.0, SENSOR_XY[1], 0.0))
        scan_points = scan_to_points(synthesize_scan(SCENE.sensor_pose, far, seed=1))
        assert scan_points.shape == (0, 2)
        states = init_particles(SCENE.human_seat, seed=4)
        got = _batch_likelihoods(states, SENSOR_XY, scan_points, SEMI_AXES)
        assert np.all(got == MIN_WEIGHT)
        assert np.all(scalar_likelihoods(states[:5], scan_points) == MIN_WEIGHT)

    def test_bit_identical_to_broadcast_kernel_on_a_tracker_run(self, monkeypatch):
        compared = []

        def both_kernels(states, sensor_xy, scan_points, semi_axes):
            got = _batch_likelihoods(states, sensor_xy, scan_points, semi_axes)
            want = broadcast_batch_likelihoods(states, sensor_xy, scan_points, semi_axes)
            compared.append(np.array_equal(got, want))
            return got

        monkeypatch.setattr(body_tracker, "_batch_likelihoods", both_kernels)
        seat = SCENE.human_seat
        tracker = BodyTracker(SEMI_AXES, seat, seed=5)
        for frame in range(220):
            # Settle, turn 90 degrees at 60 deg/s, then jump 1.2 m so the
            # filter scores hypotheses far from every return while it
            # recaptures the body.
            heading = seat.heading_deg + 2.0 * min(max(frame - 40, 0), 45)
            x, y = (seat.x, seat.y) if frame < 150 else (seat.x - 0.8, seat.y + 0.9)
            body = EllipseBody(
                Pose2(x, y, heading), SCENE.body_semi_major_m, SCENE.body_semi_minor_m
            )
            scan = synthesize_scan(SCENE.sensor_pose, body, seed=1000 + frame)
            tracker.step(scan, seed=2000 + frame)
        assert len(compared) == 220
        assert all(compared)


class TestSystematicResample:
    def test_proportional_counts(self):
        n = 1000
        weights = np.concatenate(
            [np.full(500, 0.5 / 500), np.full(300, 0.3 / 300), np.full(200, 0.2 / 200)]
        )
        rng = np.random.default_rng(0)
        idx = systematic_resample(weights, rng)
        assert len(idx) == n
        counts = [np.sum(idx < 500), np.sum((idx >= 500) & (idx < 800)), np.sum(idx >= 800)]
        assert counts[0] in (499, 500, 501)
        assert counts[1] in (299, 300, 301)
        assert counts[2] in (199, 200, 201)

    def test_degenerate_weight_wins_everything(self):
        weights = np.zeros(50)
        weights[17] = 1.0
        idx = systematic_resample(weights, np.random.default_rng(1))
        assert np.all(idx == 17)

    def test_indices_are_sorted_draws(self):
        weights = np.full(64, 1.0 / 64)
        idx = systematic_resample(weights, np.random.default_rng(2))
        assert np.all(np.diff(idx) >= 0)


class TestInitParticles:
    def test_shapes_and_spread(self):
        states = init_particles(Pose2(2.0, 0.5, 30.0), seed=11)
        assert states.shape == (N_PARTICLES, 3)
        assert abs(np.mean(states[:, 0]) - 2.0) < 0.05
        assert abs(np.mean(states[:, 1]) - 0.5) < 0.05

    def test_deterministic(self):
        a = init_particles(Pose2(2.0, 0.0, 0.0), seed=3)
        b = init_particles(Pose2(2.0, 0.0, 0.0), seed=3)
        assert np.array_equal(a, b)


def run_static_tracking(seed, n_frames, distance_m=2.0, heading_deg=180.0):
    """Track a motionless body and return per-frame orientation/position errors.

    The initial guess faces the way the body actually faces, mirroring the
    pipeline, which seeds the filter from the seat pose. The outline alone
    cannot tell a body from its 180-degree rotation, so the guess carries
    the facing information.
    """
    body_pose = Pose2(distance_m, 0.0, heading_deg)
    body = EllipseBody(body_pose, *SEMI_AXES)
    sensor = Pose2(0.0, 0.0, 0.0)
    tracker = BodyTracker(SEMI_AXES, Pose2(distance_m, 0.0, heading_deg), seed=seed)
    theta_err, pos_err = [], []
    for frame in range(n_frames):
        scan = synthesize_scan(sensor, body, seed=seed * 100003 + frame)
        est = tracker.step(scan, seed=seed * 60013 + frame)
        theta_err.append(abs(normalize_angle(est.theta_deg - heading_deg)))
        pos_err.append(math.hypot(est.x - body_pose.x, est.y - body_pose.y))
    return np.array(theta_err), np.array(pos_err)


class TestTrackingBehaviour:
    def test_static_body_converges(self):
        hits = 0
        total = 0
        for seed in range(5):
            theta_err, pos_err = run_static_tracking(seed, 60)
            hits += np.sum(theta_err[30:] < 6.0)
            total += len(theta_err[30:])
            assert np.all(pos_err < 0.12)
        assert hits / total >= 0.90

    def test_three_meter_range(self):
        theta_err, pos_err = run_static_tracking(7, 60, distance_m=3.0)
        assert np.mean(theta_err[30:] < 6.0) >= 0.85
        assert np.all(pos_err < 0.15)

    def test_estimate_reports_convergence_after_warmup(self):
        body = EllipseBody(Pose2(2.0, 0.0, 180.0))
        tracker = BodyTracker(SEMI_AXES, Pose2(2.0, 0.0, 180.0), seed=0)
        flags = []
        for frame in range(WARMUP_FRAMES + 5):
            scan = synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=frame)
            flags.append(tracker.step(scan, seed=frame).converged)
        assert not flags[0]
        assert flags[-1]

    def test_deterministic_given_seeds(self):
        a_theta, a_pos = run_static_tracking(3, 20)
        b_theta, b_pos = run_static_tracking(3, 20)
        assert np.array_equal(a_theta, b_theta)
        assert np.array_equal(a_pos, b_pos)

    def test_tracks_a_turning_body(self):
        sensor = Pose2(0.0, 0.0, 0.0)
        tracker = BodyTracker(SEMI_AXES, Pose2(2.0, 0.0, 180.0), seed=42)
        heading = 180.0
        errs = []
        for frame in range(90):
            if 30 <= frame < 60:
                heading += 2.0  # 60 deg/s body rotation at 30 fps
            body = EllipseBody(Pose2(2.0, 0.0, heading))
            scan = synthesize_scan(sensor, body, seed=1000 + frame)
            est = tracker.step(scan, seed=2000 + frame)
            errs.append(abs(normalize_angle(est.theta_deg - heading)))
        # Allowed to lag during the sweep, must settle again afterwards.
        assert np.mean(errs[75:]) < 6.0


class TestBodyOrientationForSrm:
    def test_facing_robot_is_zero(self):
        est = BodyEstimate(2.0, 0.0, 180.0, 2.0, 400.0, True)
        assert body_orientation_for_srm(est, Pose2(0.0, 0.0, 0.0)) == pytest.approx(0.0)

    def test_back_turned_is_180(self):
        est = BodyEstimate(2.0, 0.0, 0.0, 2.0, 400.0, True)
        assert body_orientation_for_srm(est, Pose2(0.0, 0.0, 0.0)) == pytest.approx(180.0)

    def test_oblique_example(self):
        est = BodyEstimate(-math.sqrt(3.0), -1.0, 120.0, 2.0, 400.0, True)
        rel = body_orientation_for_srm(est, Pose2(0.0, 0.0, 0.0))
        assert rel == pytest.approx(90.0)

    def test_unconverged_reports_none(self):
        est = BodyEstimate(2.0, 0.0, 0.0, 2.0, 10.0, False)
        assert body_orientation_for_srm(est, Pose2(0.0, 0.0, 0.0)) is None
