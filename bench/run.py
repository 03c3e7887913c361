"""weighsim benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see `workloads.py`), each a closed loop with one client:

    weigh_large   cold `weigh` of a 57.6k-line capture (4 cells, 80 Sa/s, 180 s)
    station_mix   visits: cold `weigh` of a 604-line capture, then cold `assess`
                  of a random record from a store pre-filled with 2,000
    monte_carlo   in-process `run_end_to_end` over 4,096 seeded scenarios,
                  half on the noise-free default cell, half on a noisy one
    replay_trace  cold `replay` of a 60k-line bit trace, all gains, both rails

A cold call is `python -m weighsim.cli ...` in a fresh process with
PYTHONPATH=src and no other PYTHON* variables, timed from spawn to exit.
Generated files and the record store live in a temporary directory under
the repository root, removed at exit.

`--trace 0` sets up 3 to 15 times, then runs the loop for S seconds
untraced and prints the end-to-end metrics:

    setup_s       median wall time of one set-up (input generation)
    op_ms_p75     upper quartile of the wall time of one timed unit: a cold
                  call, a station_mix visit (weigh + assess) or a
                  monte_carlo pair (one noise-free, one noisy scenario)
    peak_rss_mb   peak RSS of the process running weighsim code: the CLI
                  children, or the benchmark itself for monte_carlo

The latency is the upper quartile, not the median, because shared hosts
have bursts of higher speed lasting seconds: a median flips to the
burst speed once half of a run falls in one, an upper quartile only once
three quarters do. Throughput (`frames_per_s`, `records_per_s`,
`scenarios_per_s`), per-kind p50s and failed_frac are printed on the
detail line but not gated: every unit of a workload does the same work,
so throughput restates the latency and only adds its noise.

`--trace 1` runs the loop untraced, then sets up and runs it again with
every traced function wrapped (`tracer.py`; CLI calls go through
`launcher.py`), and prints the per-layer metrics of `LAYER_METRICS`, the
start-up floor probe (`cli.interpreter_ms` for `python -c pass`,
`cli.startup_ms` for `import weighsim.cli` above that floor) and
`trace_overhead_pct` (how much longer the traced loop took per item of
work than the untraced one, in %). A function's per-call times
come from the operations' spans when the operations call it, otherwise from
the set-up's (sensor and encode costs of input generation); `.calls`
counts are per timed call and from the operations only.

Each run first prints one JSON detail line (per-kind latencies with their
sample counts, the workload-level metrics such as `weigh_ms_p50` and
`frames_per_s`, `failed_frac`, and a digest of the outputs with record ids
masked) and ends with the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "weighsim" / "cli.py").is_file():
    sys.exit(f"bench: no weighsim sources under {SRC}")
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: A `--trace 0` run sets up at least SETUP_MIN times and, while the
#: set-ups so far took less than SETUP_BUDGET_S in all, again, up to
#: SETUP_MAX times; `setup_s` is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0

#: Fresh interpreters per start-up probe; each probe reports the minimum,
#: since start-up noise (scheduling, a cold page) only ever adds time.
PROBE_REPEATS = 9

#: A p90 needs at least this many samples of its kind in one run.
P90_MIN_SAMPLES = 100

#: (metric, span name, statistic, unit). Statistics: "total"/"self" are
#: mean time per call, "calls" is calls per timed operation.
LAYER_METRICS = (
    ("cli.main.self_ms", "cli.main", "self", "ms"),
    ("station.parse_frame_line.us_per_call", "station.parse_frame_line", "total", "us"),
    ("station.FrameIngestor.ingest_lines.ms", "station.FrameIngestor.ingest_lines", "total", "ms"),
    ("station.run_session.ms", "station.run_session", "total", "ms"),
    ("station.run_session.self_ms", "station.run_session", "self", "ms"),
    ("station.RecordStore.load.ms", "station.RecordStore.load", "total", "ms"),
    ("station.RecordStore.append.ms", "station.RecordStore.append", "total", "ms"),
    ("station.WeighRecord.to_line.us_per_call", "station.WeighRecord.to_line", "total", "us"),
    ("calibration.code_to_mass.calls", "calibration.code_to_mass", "calls", "count"),
    ("calibration.code_to_mass.us_per_call", "calibration.code_to_mass", "total", "us"),
    (
        "calibration.CalibrationState.from_file.ms",
        "calibration.CalibrationState.from_file", "total", "ms",
    ),
    ("compliance.static_weigh.ms", "compliance.static_weigh", "total", "ms"),
    ("cog.assess_four_cell.us_per_call", "cog.assess_four_cell", "total", "us"),
    ("sensor.bridge_output.us_per_call", "sensor.bridge_output", "total", "us"),
    ("sensor.add_noise.us_per_call", "sensor.add_noise", "total", "us"),
    ("sensor.quantize.us_per_call", "sensor.quantize", "total", "us"),
    ("scenario.corner_loads.us_per_call", "scenario.corner_loads", "total", "us"),
    ("scenario.run_end_to_end.self_us_per_call", "scenario.run_end_to_end", "self", "us"),
    ("codec.decode_frame.calls", "codec.decode_frame", "calls", "count"),
    ("codec.decode_frame.us_per_call", "codec.decode_frame", "total", "us"),
    ("codec.encode_frame.us_per_call", "codec.encode_frame", "total", "us"),
)

_SCALE = {"ms": 1e6, "us": 1e3}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, plus PYTHONPATH=src.

    Settings such as PYTHONUNBUFFERED or PYTHONDONTWRITEBYTECODE change
    what a cold call costs, so children run as an installed CLI would:
    buffered output and cached bytecode.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def set_up(name: str, workdir: Path, seed: int):
    workdir.mkdir()
    workload = workloads.WORKLOADS[name]()
    start = time.perf_counter()
    workload.setup(workdir, seed)
    return workload, time.perf_counter() - start


def measure(workload, workdir: Path, seconds: float, traced: bool):
    env = child_env()
    if not workload.in_process:
        # Compile bytecode and warm the file cache before anything is timed.
        workloads.Harness(workdir, env, traced=False).cli(
            ["rules", "--jurisdiction", "US", "--kind", "acceptance", "--capacity", "1"]
        )
    harness = workloads.Harness(workdir, env, traced)
    return workload.run(harness, seconds), harness.ops


def detail(workload, outcome) -> dict:
    """Workload-level metrics by name, with units and sample counts."""
    out: dict = {"workload": workload.name}
    for kind, times in outcome.latencies.items():
        out[f"{kind}_ms_p50"] = {**metric(statistics.median(times) * 1e3, "ms"), "n": len(times)}
        if len(times) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(times, n=10)[-1]
            out[f"{kind}_ms_p90"] = {**metric(p90 * 1e3, "ms"), "n": len(times)}
    out[workload.rate_name] = metric(outcome.items / sum(outcome.units), "1/s")
    out["failed_frac"] = {
        **metric(outcome.failed / outcome.attempted, "1"),
        "failed": outcome.failed,
        "attempted": outcome.attempted,
    }
    out["digest"] = {"sha256_16": outcome.digest, "ops": outcome.digest_ops}
    return out


def upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def time_command(cmd: list[str], env: dict[str, str]) -> float:
    elapsed, code, _ = workloads.run_child(cmd, ROOT, env)
    if code != 0:
        raise RuntimeError(f"{cmd} exited with {code}")
    return elapsed


def startup_probe() -> tuple[float, float]:
    """(bare interpreter ms, `import weighsim.cli` ms above it), fresh processes."""
    env = child_env()
    floor = min(time_command([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS))
    imported = min(
        time_command([sys.executable, "-c", "import weighsim.cli"], env)
        for _ in range(PROBE_REPEATS)
    )
    return floor * 1e3, (imported - floor) * 1e3


def layer_metrics(setup, ops, timed_calls: int) -> dict:
    out = {}
    for name, span, stat, unit in LAYER_METRICS:
        if stat == "calls":
            out[name] = metric(ops.calls.get(span, 0) / timed_calls, unit)
            continue
        source = ops if ops.calls.get(span) else setup
        calls = source.calls.get(span, 0)
        total = (source.total_ns if stat == "total" else source.self_ns).get(span, 0)
        out[name] = metric(total / calls / _SCALE[unit] if calls else 0.0, unit)
    loads = ops.calls.get("station.RecordStore.load", 0)
    parsed = ops.child_calls.get(("station.RecordStore.load", "station.WeighRecord.from_line"), 0)
    out["station.RecordStore.load.records_parsed_per_lookup"] = metric(
        parsed / loads if loads else 0.0, "count"
    )
    return out


def timed_run(name: str, seed: int, seconds: float, tmp: Path):
    times: list[float] = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        workdir = tmp / f"setup{len(times)}"
        workload, elapsed = set_up(name, workdir, seed)
        times.append(elapsed)
    outcome, _ = measure(workload, workdir, seconds, traced=False)
    metrics = {
        "setup_s": metric(statistics.median(times), "s"),
        "op_ms_p75": metric(upper_quartile(outcome.units) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(workload.in_process), "MB"),
    }
    return [outcome], [detail(workload, outcome)], metrics


def traced_run(name: str, seed: int, seconds: float, tmp: Path):
    workload, _ = set_up(name, tmp / "untraced", seed)
    base, _ = measure(workload, tmp / "untraced", seconds, traced=False)

    setup_spans = tracer.Tracer()
    with setup_spans:
        workload, _ = set_up(name, tmp / "traced", seed)
    traced, op_spans = measure(workload, tmp / "traced", seconds, traced=True)

    metrics = layer_metrics(setup_spans.summary(), op_spans, traced.attempted)
    interpreter_ms, startup_ms = startup_probe()
    metrics["cli.interpreter_ms"] = metric(interpreter_ms, "ms")
    metrics["cli.startup_ms"] = metric(startup_ms, "ms")
    base_rate = base.items / sum(base.units)
    traced_rate = traced.items / sum(traced.units)
    metrics["trace_overhead_pct"] = metric((base_rate / traced_rate - 1.0) * 100.0, "%")
    details = [
        {**detail(workload, base), "run": "untraced"},
        {**detail(workload, traced), "run": "traced"},
    ]
    return [base, traced], details, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        run = traced_run if args.trace else timed_run
        outcomes, details, metrics = run(args.workload, args.seed, args.seconds, Path(tmp))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for line in details:
        print(json.dumps(line))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
