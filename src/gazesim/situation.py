"""Viewing-situation recognition.

Classifies where the robot sits in the person's field of view from the
observed head direction (yaw alpha, pitch beta, both relative to the
camera placed at the robot) and, when the head is not trackable, from
the tracked body orientation relative to the robot:

    CFOV   head valid, |alpha| <= 10 and |beta| <= 10   (central)
    NPFOV  head valid, 10 < |alpha| <= 70, |beta| <= 10 (near peripheral)
    FPFOV  head valid, 70 < |alpha| <= 90, |beta| <= 10 (far peripheral)
    OFOV   head invalid and |theta_rel| > 90            (out of view)

Boundary angles belong to the narrower class. Anything else is unknown
(None): large pitch, an untracked head with the body still roughly
facing the robot, or missing body data.

An instantaneous label only becomes the confirmed situation after it
has persisted for PERSISTENCE_FRAMES consecutive frames; unknown is
never confirmed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .head_tracker import HeadObservation

CENTRAL_HALF_WIDTH_DEG = 10.0
NEAR_PERIPHERAL_LIMIT_DEG = 70.0
FAR_PERIPHERAL_LIMIT_DEG = 90.0
PITCH_HALF_WIDTH_DEG = 10.0
OUT_OF_VIEW_BODY_DEG = 90.0
PERSISTENCE_FRAMES = 30


class ViewingSituation(enum.Enum):
    CFOV = "CFOV"
    NPFOV = "NPFOV"
    FPFOV = "FPFOV"
    OFOV = "OFOV"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SITUATIONS: tuple[ViewingSituation, ...] = (
    ViewingSituation.CFOV,
    ViewingSituation.NPFOV,
    ViewingSituation.FPFOV,
    ViewingSituation.OFOV,
)

# Instantaneous labels are ViewingSituation or None for unknown.
Instant = ViewingSituation | None


def classify_instant(head: HeadObservation, theta_rel_deg: float | None) -> Instant:
    """Label a single frame; None means unknown.

    theta_rel_deg is the body orientation relative to the person-to-robot
    direction. Pass None while the body estimate is not ready; it is only
    consulted when the head observation is invalid.
    """
    if head.valid:
        alpha = abs(head.yaw_deg)
        beta = abs(head.pitch_deg)
        if beta > PITCH_HALF_WIDTH_DEG:
            return None
        if alpha <= CENTRAL_HALF_WIDTH_DEG:
            return ViewingSituation.CFOV
        if alpha <= NEAR_PERIPHERAL_LIMIT_DEG:
            return ViewingSituation.NPFOV
        if alpha <= FAR_PERIPHERAL_LIMIT_DEG:
            return ViewingSituation.FPFOV
        return None
    if theta_rel_deg is not None and abs(theta_rel_deg) > OUT_OF_VIEW_BODY_DEG:
        return ViewingSituation.OFOV
    return None


def classify_instants(valid, yaw_deg, pitch_deg, theta_rel_deg) -> np.ndarray:
    """`classify_instant` over broadcast arrays of head validity, observed
    yaw and pitch, and body angle: each label's index in SITUATIONS, -1 for
    unknown."""
    alpha = np.abs(yaw_deg)
    bands = (CENTRAL_HALF_WIDTH_DEG, NEAR_PERIPHERAL_LIMIT_DEG, FAR_PERIPHERAL_LIMIT_DEG)
    head = np.select([alpha <= limit for limit in bands], [0, 1, 2], -1)
    head = np.where(np.abs(pitch_deg) > PITCH_HALF_WIDTH_DEG, -1, head)
    return np.where(valid, head, np.where(np.abs(theta_rel_deg) > OUT_OF_VIEW_BODY_DEG, 3, -1))


@dataclass(frozen=True)
class SrmState:
    """Persistence filter over instantaneous labels."""

    confirmed: ViewingSituation | None = None
    candidate: Instant = None
    streak: int = 0


def srm_update(state: SrmState, instant: Instant) -> SrmState:
    """Advance the persistence filter by one frame."""
    if instant == state.candidate:
        streak = min(state.streak + 1, PERSISTENCE_FRAMES)
    else:
        return SrmState(confirmed=state.confirmed, candidate=instant, streak=1)
    confirmed = state.confirmed
    if streak >= PERSISTENCE_FRAMES and instant is not None:
        confirmed = instant
    return SrmState(confirmed=confirmed, candidate=instant, streak=streak)
