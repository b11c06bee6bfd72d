import numpy as np
import pytest

from gazesim.geometry import HeadPose, Pose2
from gazesim.head_tracker import NOISE_SIGMA_DEG, HeadObservation, observe_head
from gazesim.seeding import STREAM_HEAD, derive_rng


def head_at(rel_yaw_deg: float, pitch_deg: float = 0.0) -> HeadPose:
    """Head 2 m in front of a camera at the origin, offset rel_yaw_deg from
    looking straight back at it."""
    return HeadPose(2.0, 0.0, yaw_deg=180.0 + rel_yaw_deg, pitch_deg=pitch_deg)


CAMERA = Pose2(0.0, 0.0, 0.0)


def draws(seed: int, frame: int) -> tuple[float, float]:
    """The frame's yaw and pitch standard normals, as the tick loop draws them."""
    return tuple(derive_rng(seed, STREAM_HEAD, frame).standard_normal(2).tolist())


class TestValidity:
    def test_facing_camera_is_valid(self):
        obs = observe_head(head_at(0.0), CAMERA, noise=(0.0, 0.0))
        assert obs.valid
        assert obs.yaw_deg == pytest.approx(0.0)

    def test_boundary_is_inclusive(self):
        assert observe_head(head_at(90.0), CAMERA, noise=(0.0, 0.0)).valid
        assert observe_head(head_at(-90.0), CAMERA, noise=(0.0, 0.0)).valid

    def test_just_past_boundary_drops_out(self):
        assert not observe_head(head_at(90.1), CAMERA, noise=(0.0, 0.0)).valid
        assert not observe_head(head_at(-90.1), CAMERA, noise=(0.0, 0.0)).valid

    def test_validity_ignores_noise(self):
        # The cutoff is whether the face is physically visible; a noisy
        # angle reading must not flip it.
        for frame in range(200):
            # Five times the camera's noise.
            noise = tuple(5.0 * z for z in draws(1, frame))
            obs = observe_head(head_at(89.9), CAMERA, frame=frame, noise=noise)
            assert obs.valid
            obs = observe_head(head_at(90.1), CAMERA, frame=frame, noise=noise)
            assert not obs.valid

    def test_invalid_observation_carries_no_angles(self):
        obs = observe_head(head_at(150.0), CAMERA, noise=(0.0, 0.0))
        assert obs.yaw_deg is None
        assert obs.pitch_deg is None


class TestAngles:
    def test_yaw_is_reported_camera_relative(self):
        obs = observe_head(head_at(25.0), CAMERA, noise=(0.0, 0.0))
        assert obs.yaw_deg == pytest.approx(25.0)
        obs = observe_head(head_at(-40.0), CAMERA, noise=(0.0, 0.0))
        assert obs.yaw_deg == pytest.approx(-40.0)

    def test_camera_heading_does_not_change_relative_yaw(self):
        # Relative yaw depends on the camera-to-head line, not on where the
        # camera happens to point.
        turned = Pose2(0.0, 0.0, 45.0)
        obs = observe_head(head_at(25.0), turned, noise=(0.0, 0.0))
        assert obs.yaw_deg == pytest.approx(25.0)

    def test_pitch_passes_through(self):
        obs = observe_head(head_at(0.0, pitch_deg=7.5), CAMERA, noise=(0.0, 0.0))
        assert obs.pitch_deg == pytest.approx(7.5)

    def test_noise_statistics(self):
        errors = []
        for frame in range(10_000):
            obs = observe_head(head_at(20.0), CAMERA, frame=frame, noise=draws(42, frame))
            errors.append(obs.yaw_deg - 20.0)
        errors = np.array(errors)
        assert abs(np.mean(errors)) < 0.05
        assert np.std(errors) == pytest.approx(NOISE_SIGMA_DEG, abs=0.05)
        assert np.mean(np.abs(errors) <= 3.0) >= 0.995

    def test_deterministic_per_seed_and_frame(self):
        a = observe_head(head_at(10.0), CAMERA, frame=3, noise=draws(5, 3))
        b = observe_head(head_at(10.0), CAMERA, frame=3, noise=draws(5, 3))
        c = observe_head(head_at(10.0), CAMERA, frame=4, noise=draws(5, 4))
        assert a == b
        assert a.yaw_deg != c.yaw_deg


class TestObservationType:
    def test_fields(self):
        obs = HeadObservation(valid=True, yaw_deg=1.0, pitch_deg=2.0, frame=9)
        assert obs.valid and obs.yaw_deg == 1.0 and obs.frame == 9
