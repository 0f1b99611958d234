"""BENCHMARK.json, the runner's registry and the driver's limits agree.

Runs no protocol: it only parses the contract file and imports the
ledger's registries.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import registry
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def test_benchmark_json_is_the_registry():
    assert SPEC == registry.benchmark_json()
    assert list(SPEC) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    ]
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_match_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(registry.WORKLOADS)
    assert list(registry.ALL_WORKLOADS) == list(workloads.REGISTRY)
    assert 2 <= len(names) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_names_units_and_limits():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in e2e + layers:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_command_paths_and_time_budget():
    assert 1 <= len(SPEC["paths"]) <= 16 and all(PATH.match(p) for p in SPEC["paths"])
    assert all(not p.startswith("/") and ".." not in p.split("/") for p in SPEC["paths"])
    assert len(SPEC["command"]) <= 32 and all(len(c) <= 200 for c in SPEC["command"])
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["run_seconds"] == registry.RUN_SECONDS


def test_every_layer_row_says_what_it_should_move():
    e2e = {m.name for m in registry.END_TO_END}
    for row in registry.PER_LAYER:
        assert row.layer, row.name
        assert row.moves, f"{row.name} names no end-to-end metric"
        for metric, on in row.moves:
            assert metric in e2e, (row.name, metric)
            assert on and set(on) <= set(registry.ALL_WORKLOADS), (row.name, on)
