"""Pinned sha256 digests of results.csv: the "same behaviour" contract.

A change that alters any of these bytes changes what the simulator
computes, and must say why when it updates the digest.
"""
import hashlib
import json

from gazesim.cli import main

FULL_M4_SEED42 = "53f3f2f0ec5f526e06816ae10c74c60ae2ea6d343e92340237b0f243d2d25370"


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
