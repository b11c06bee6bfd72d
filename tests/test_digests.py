"""Pinned sha256 digests of results.csv: the "same behaviour" contract.

A change that alters any of these bytes changes what the simulator
computes, and must say why when it updates the digest.
"""
import hashlib
import json

from gazesim.cli import main

FULL_M4_SEED42 = "53f3f2f0ec5f526e06816ae10c74c60ae2ea6d343e92340237b0f243d2d25370"
EVENT_N1000_SEED42 = "8b56f3a611b02213e0ef477e8c38492a8a19f2f2b1918a2ae681b6b120d5f13e"
IDEAL_N10_SEED42 = "df4569188143a78459eb0a32f564ad8b9b28a462de294088eeba3722afc5e0da"
ALL_METHODS = ["M1", "M2", "M3", "M4"]


def results_digest(tmp_path, config, mode):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(
        ["experiment", "--config", str(config_path), "--out", str(out), "--mode", mode]
    )
    assert code == 0
    return hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


def test_full_mode_m4_on_each_situation(tmp_path, capsys):
    config = {"methods": ["M4"], "n_per_cell": 1, "base_seed": 42}
    assert results_digest(tmp_path, config, "full") == FULL_M4_SEED42


def test_event_mode_all_methods(tmp_path, capsys):
    config = {"methods": ALL_METHODS, "n_per_cell": 1000, "base_seed": 42}
    assert results_digest(tmp_path, config, "event") == EVENT_N1000_SEED42


def test_ideal_mode_all_methods(tmp_path, capsys):
    config = {"methods": ALL_METHODS, "n_per_cell": 10, "base_seed": 42}
    assert results_digest(tmp_path, config, "ideal") == IDEAL_N10_SEED42
