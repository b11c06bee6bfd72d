"""Simulated camera-based head direction sensor.

Reports head yaw and pitch relative to the camera with additive
Gaussian noise, at most once per video frame. The face model is only
trackable while the head is turned no more than 90 degrees away from
the camera; beyond that the observation is invalid and carries no
angles. Validity depends on the true relative yaw only, never on the
noise draw.
"""
from __future__ import annotations

from dataclasses import dataclass

from .geometry import HeadPose, Pose2, bearing_to, normalize_angle

TRACKING_LIMIT_DEG = 90.0
NOISE_SIGMA_DEG = 1.0


@dataclass(frozen=True)
class HeadObservation:
    """One frame of head-tracker output.

    Angle fields are None when valid is False; they must not be read.
    yaw_deg is measured relative to the head-to-camera direction, so 0
    means the face points straight at the camera.
    """

    frame: int
    valid: bool
    yaw_deg: float | None = None
    pitch_deg: float | None = None


def relative_yaw_deg(head: HeadPose, camera: Pose2) -> float:
    """True head yaw relative to the head-to-camera direction."""
    to_camera = bearing_to(head.position, camera.position)
    return normalize_angle(head.yaw_deg - to_camera)


def observe_head(
    true_head: HeadPose, camera: Pose2, frame: int = 0, *, noise: tuple[float, float]
) -> HeadObservation:
    """Observe one frame. `noise` is the frame's yaw and pitch draws from
    the standard normal, the first two of stream (seed, STREAM_HEAD,
    frame). The added noise is `Generator.normal(0.0, NOISE_SIGMA_DEG)` on
    that stream, bit for bit, so identical (seed, frame) pairs give
    identical output."""
    rel = relative_yaw_deg(true_head, camera)
    if abs(rel) > TRACKING_LIMIT_DEG:
        return HeadObservation(frame=frame, valid=False)
    yaw_z, pitch_z = noise
    return HeadObservation(
        frame=frame,
        valid=True,
        yaw_deg=normalize_angle(rel + (0.0 + NOISE_SIGMA_DEG * yaw_z)),
        pitch_deg=normalize_angle(true_head.pitch_deg + (0.0 + NOISE_SIGMA_DEG * pitch_z)),
    )
