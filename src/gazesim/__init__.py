"""Deterministic simulator of a robot that proactively establishes eye
contact: simulated sensing, body and head tracking, viewing-situation
recognition, an escalating attention-capture protocol, a calibrated
stochastic visitor, and a seeded experiment harness."""

from .body_tracker import (
    BodyEstimate,
    BodyTracker,
    FilterConfig,
    body_orientation_for_srm,
    filter_step,
    init_particles,
    likelihood,
    systematic_resample,
)
from .config import (
    ConfigError,
    RunConfig,
    parse_config,
    scenario_from_dict,
    scenario_to_dict,
    serialize_config,
)
from .controller import (
    ControllerInputs,
    ControllerState,
    EventKind,
    Method,
    METHODS,
    Phase,
    RobotAction,
    RobotEvent,
    controller_step,
    face_detected,
    make_controller,
)
from .geometry import (
    HeadPose,
    Pose2,
    bearing_to,
    move_toward_angle,
    normalize_angle,
    relative_bearing,
)
from .harness import (
    TrialAbortError,
    TrialDetail,
    TrialRecord,
    read_records_csv,
    run_experiment,
    run_trial,
    run_trial_detailed,
    write_records_csv,
)
from .head_tracker import HeadObservation, observe_head, relative_yaw_deg
from .human import (
    HumanState,
    ResponseTable,
    derive_response_table,
    escalation_success,
    gaze_duration,
    human_step,
    make_human,
    respond,
    schedule_response,
)
from .laser import (
    EllipseBody,
    LaserScan,
    scan_to_points,
    synthesize_scan,
)
from .records import Records
from .scenario import (
    Painting,
    RoomError,
    Scenario,
    default_scenario,
    settled_instant,
)
from .seeding import derive_rng, derive_seed
from .situation import (
    SITUATIONS,
    SrmState,
    ViewingSituation,
    classify_instant,
    srm_update,
)
from .stats import (
    CellStats,
    anova_two_way,
    bonferroni_pairwise,
    gaze_stats,
    overall_ratio,
    success_ratio,
    to_jsonable,
)
from .trace import TraceWriter

__version__ = "0.1.0"
