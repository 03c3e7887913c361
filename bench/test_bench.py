"""Self-tests of the benchmark: seeded inputs, printed metrics, tracer hygiene.

Run from the repository root with `python -m pytest bench -q`.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from weighsim import sensor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _inputs(workload, workdir: Path) -> dict:
    """Every input a workload's set-up produced, on disk and in memory."""
    state = {"files": _files(workdir)}
    if isinstance(workload, workloads.MonteCarlo):
        state["pool"] = repr(workload.pool)
    if isinstance(workload, workloads.StationMix):
        state["op_rng"] = workload.op_rng.bit_generator.state
    return state


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_byte_identical_for_a_seed(name, tmp_path):
    runs = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / label
        workload, _ = run.set_up(name, workdir, seed)
        runs.append(_inputs(workload, workdir))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_inputs_have_the_stated_shape(tmp_path):
    large, _ = run.set_up("weigh_large", tmp_path / "large", 3)
    assert large.frames == 4 * (80 * 180 + 1)

    replay, _ = run.set_up("replay_trace", tmp_path / "replay", 3)
    rows = [line.split(",") for line in replay.expected.splitlines()]
    assert len(rows) == workloads.ReplayTrace.FRAMES
    assert {row[2] for row in rows} == {"128", "64", "32"}
    codes = {int(row[1]) for row in rows}
    assert {sensor.CODE_MIN, sensor.CODE_MAX} <= codes

    mix, _ = run.set_up("station_mix", tmp_path / "mix", 3)
    lines = (mix.store_dir / "records.ndjson").read_text().splitlines()
    assert len(lines) == len(set(mix.ids)) == workloads.StationMix.STORE_RECORDS


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", name, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    for rel in ("BENCHMARK.json", *(str(p.relative_to(ROOT)) for p in BENCH.glob("*.py"))):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes((ROOT / rel).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weigh_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bindings() -> dict[str, dict]:
    """Every attribute of every weighsim module and of every traced class."""
    for module_name, _ in tracer.TRACED:
        importlib.import_module(module_name)
    found = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "weighsim" or name.startswith("weighsim.")
    }
    for module_name, path in tracer.TRACED:
        if "." in path:
            cls = getattr(sys.modules[module_name], path.split(".")[0])
            found[f"{module_name}:{cls.__name__}"] = dict(vars(cls))
    return found


def _unchanged(before: dict[str, dict], after: dict[str, dict]) -> bool:
    return before.keys() == after.keys() and all(
        before[owner].keys() == after[owner].keys()
        and all(before[owner][k] is after[owner][k] for k in before[owner])
        for owner in before
    )


def test_tracer_wraps_every_binding_and_restores_it():
    import weighsim
    from weighsim import calibration, scenario, station

    before = _bindings()
    original = calibration.code_to_mass
    monte_carlo = workloads.MonteCarlo()
    spans = tracer.Tracer()
    with spans:
        for module in (weighsim, calibration, scenario, station):
            assert module.code_to_mass is not original
        monte_carlo.setup(None, 1)
        _, specs, cals = monte_carlo.chains[1]
        scenario.run_end_to_end(monte_carlo.pool[0], specs, cals, workloads.POLICY)
    assert _unchanged(before, _bindings())

    summary = spans.summary()
    assert summary.calls["scenario.run_end_to_end"] == 1
    assert summary.calls["scenario.corner_loads"] > workloads.MonteCarlo.POOL
    for child in ("calibration.code_to_mass", "sensor.add_noise", "sensor.quantize"):
        assert summary.child_calls[("scenario.run_end_to_end", child)] == 4
    assert summary.child_calls[("scenario.run_end_to_end", "cog.assess_four_cell")] == 1


def test_traced_run_leaves_every_wrapped_attribute_as_found(tmp_path):
    before = _bindings()
    outcomes, _, metrics = run.traced_run("monte_carlo", 1, 0.2, tmp_path)
    assert _unchanged(before, _bindings())
    assert all(o.failed == 0 for o in outcomes)
    assert metrics["calibration.code_to_mass.calls"]["value"] == 4.0


def test_self_time_subtracts_the_children():
    # root [0, 100) holds children [10, 30) and [40, 90); the second holds [50, 60)
    names = ["root", "a", "b", "c"]
    starts = [0, 10, 40, 50]
    ends = [100, 30, 90, 60]
    parents = [-1, 0, 0, 2]
    summary = tracer.summarize(names, starts, ends, parents)
    assert summary.total_ns == {"root": 100, "a": 20, "b": 50, "c": 10}
    assert summary.self_ns == {"root": 30, "a": 20, "b": 40, "c": 10}
    assert summary.child_calls == {("root", "a"): 1, ("root", "b"): 1, ("b", "c"): 1}


def test_run_child_kills_a_hung_child(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CHILD_TIMEOUT_S", 0.5)
    elapsed, code, _ = workloads.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, run.child_env()
    )
    assert code != 0
    assert elapsed < 10
