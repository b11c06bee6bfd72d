"""Deterministic simulator of a robot that proactively establishes eye
contact: simulated sensing, body and head tracking, viewing-situation
recognition, an escalating attention-capture protocol, a calibrated
stochastic visitor, and a seeded experiment harness.

The package binds only the names below; every other name is imported from
its module, such as `gazesim.scenario.RoomError`."""

from .config import RunConfig, parse_config
from .harness import run_experiment, run_trial_detailed
from .human import derive_response_table
from . import stats  # noqa: F401  the one module the names above do not load

__version__ = "0.1.0"
