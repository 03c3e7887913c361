"""Seeded inputs, timed operations and output checks of the four workloads.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished and been checked. Inputs come from
the workload seed alone and are built through weighsim's public API, so
the program under test sees nothing but the generated files and argv.

None of the inputs holds fault traffic (saturated wire frames, gain
mismatches, the Kenya tolerance rule): those are known defects with no
defined correct answer yet, so no check could be stated for them.

The generators call weighsim through module attributes
(`sensor.quantize(...)`, not a name imported at load time) so that the
traced set-up sees the wrappers `tracer.Tracer` installs.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from weighsim import calibration, cog, codec, compliance, scenario, sensor, station
from weighsim.errors import WeighSimError

import tracer

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: A child process that runs longer than this counts as hung and is killed.
CHILD_TIMEOUT_S = 120

DECK = cog.DeckGeometry(wheelbase_m=2.0, track_m=1.5)
POLICY_NAME = "prototype2"
POLICY = cog.POLICIES[POLICY_NAME]
STATION_ID = "ws-1"

#: 120 kg cell with 0.002 mV of bridge noise: about 0.024 kg per sample.
NOISY_CELL = sensor.LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.002)

#: Corner loads stay below this, well inside the cell and ADC ranges.
MAX_CORNER_KG = 115.0

#: Check tolerances. A static weighing averages at least 150 samples of
#: 0.024 kg noise per cell; a Monte Carlo scenario reads one sample per
#: cell. Each tolerance is more than 10 standard deviations of that noise.
CELL_TOL_KG = 0.05
TOTAL_TOL_KG = 0.5
COG_TOL_M = 0.005

_RECORD_ID = re.compile(r'"record_id":"[^"]*"')


def make_vehicle(rng: np.random.Generator) -> scenario.Scenario:
    """Curb weight on every corner plus 1-5 point masses on a 2 m x 1.5 m deck."""
    while True:
        curb = cog.FourCellReading(*(float(v) for v in rng.uniform(15.0, 40.0, 4)))
        placements = tuple(
            scenario.Placement(
                mass_kg=float(rng.uniform(5.0, 60.0)),
                x_m=float(rng.uniform(0.0, DECK.wheelbase_m)),
                y_m=float(rng.uniform(0.0, DECK.track_m)),
            )
            for _ in range(int(rng.integers(1, 6)))
        )
        vehicle = scenario.Scenario(
            geometry=DECK,
            placements=placements,
            curb=curb,
            noise_seed=int(rng.integers(2**32)),
        )
        if max(scenario.corner_loads(vehicle).as_tuple()) <= MAX_CORNER_KG:
            return vehicle


def capture_lines(
    vehicle: scenario.Scenario, rng: np.random.Generator, rate_hz: int, dwell_s: int
) -> list[str]:
    """Wire lines of a parked vehicle: every cell sampled at `rate_hz`, interleaved by time."""
    loads = scenario.corner_loads(vehicle).as_tuple()
    adc = sensor.AdcConfig(sample_rate_hz=float(rate_hz))
    lines = []
    for i in range(rate_hz * dwell_s + 1):
        ts = i * 1000 // rate_hz
        for cell, mass in enumerate(loads):
            reading = sensor.bridge_output(NOISY_CELL, mass, timestamp_ms=ts)
            frame = sensor.quantize(sensor.add_noise(reading, NOISY_CELL, rng), adc)
            lines.append(
                station.format_frame_line(
                    station.SensorFrameRecord(
                        STATION_ID, cell, ts, frame.code, frame.gain, frame.saturated
                    )
                )
            )
    return lines


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_calibrations(workdir: Path, cal: calibration.CalibrationState) -> list[str]:
    """One calibration file per cell."""
    paths = []
    for cell in range(4):
        path = workdir / f"cal{cell}.cfg"
        cal.to_file(path)
        paths.append(str(path))
    return paths


def weigh_argv(frames: Path, cals: list[str], reference_kg: float, data_dir: Path) -> list[str]:
    return [
        "weigh", "--mode", "static", "--frames", str(frames), "--cal", *cals,
        "--cells", "4", "--policy", POLICY_NAME, "--axle-config", "2",
        "--jurisdiction", "US", "--kind", "acceptance",
        "--reference", repr(reference_kg), "--data-dir", str(data_dir),
    ]


def check_weigh(
    returncode: int, stdout: str, loads: tuple[float, ...]
) -> tuple[bool, station.WeighRecord | None]:
    """A weigh passes when every cell is near its true corner load, the exit
    code agrees with `WeighRecord.unsafe()` and the stored assessment
    reproduces."""
    try:
        [line] = stdout.splitlines()
        record = station.WeighRecord.from_line(line)
    except (ValueError, WeighSimError):
        return False, None
    ok = (
        returncode == (2 if record.unsafe() else 0)
        and len(record.cell_masses_kg) == len(loads)
        and all(abs(m - t) <= CELL_TOL_KG for m, t in zip(record.cell_masses_kg, loads))
        and record.reassess() == record.assessment
    )
    return ok, record


def run_child(cmd: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, int, str]:
    """Run `cmd` to its end: (wall seconds from spawn to exit, exit code, stdout).

    The wait blocks in waitpid: `subprocess.run(timeout=...)` polls instead,
    sleeping up to 50 ms between polls, which rounds timings up to the next
    poll. A watchdog timer kills a hung child.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            watchdog.cancel()
    return time.perf_counter() - start, proc.returncode, stdout


def mask_record_id(stdout: str) -> str:
    return _RECORD_ID.sub('"record_id":"*"', stdout)


@dataclass
class Outcome:
    """What one measurement loop did. Times in seconds."""

    #: call kind ("weigh", "assess", "replay", "noise_free", "noisy") → wall
    #: time of each call
    latencies: dict[str, array] = field(default_factory=dict)
    #: wall time of each timed unit: one call, a weigh+assess visit or a
    #: noise-free/noisy scenario pair
    units: array = field(default_factory=lambda: array("d"))
    items: int = 0
    attempted: int = 0
    failed: int = 0
    digest_ops: int = 0
    _digest: object = field(default_factory=hashlib.sha256, repr=False)

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        self.latencies.setdefault(kind, array("d")).append(seconds)
        self.attempted += 1
        self.failed += not ok

    def add_to_digest(self, text: str, limit: int) -> None:
        if self.digest_ops < limit:
            self._digest.update(text.encode())
            self.digest_ops += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


class Harness:
    """Runs timed CLI calls, cold, through the launcher when traced."""

    def __init__(self, workdir: Path, env: dict[str, str], traced: bool):
        self.workdir = workdir
        self.env = env
        self.traced = traced
        #: spans of the operations (CLI children, or in-process calls)
        self.ops = tracer.Summary()
        self._spans = workdir / "spans.json"

    def cli(self, argv: list[str]) -> tuple[float, int, str]:
        if self.traced:
            cmd = [sys.executable, str(LAUNCHER), str(self._spans), *argv]
        else:
            cmd = [sys.executable, "-m", "weighsim.cli", *argv]
        elapsed, code, stdout = run_child(cmd, self.workdir, self.env)
        if self.traced:
            self.ops.merge(tracer.load_summary(str(self._spans)))
            self._spans.unlink()
        return elapsed, code, stdout


class WeighLarge:
    """Cold `weigh` of one long, fast-sampled capture, over and over."""

    name = "weigh_large"
    in_process = False
    rate_name = "frames_per_s"
    RATE_HZ = 80
    DWELL_S = 180

    def setup(self, workdir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        vehicle = make_vehicle(rng)
        self.loads = scenario.corner_loads(vehicle).as_tuple()
        lines = capture_lines(vehicle, rng, self.RATE_HZ, self.DWELL_S)
        self.frames = len(lines)
        capture = workdir / "capture.txt"
        write_lines(capture, lines)
        cals = write_calibrations(workdir, scenario.ideal_calibration(NOISY_CELL))
        self.argv = weigh_argv(capture, cals, scenario.total_mass(vehicle), workdir / "store")

    def run(self, harness: Harness, seconds: float) -> Outcome:
        out = Outcome()
        deadline = time.perf_counter() + seconds
        while True:
            elapsed, code, stdout = harness.cli(self.argv)
            ok, _ = check_weigh(code, stdout, self.loads)
            out.record("weigh", elapsed, ok)
            out.units.append(elapsed)
            out.items += self.frames
            out.add_to_digest(mask_record_id(stdout), 3)
            if time.perf_counter() >= deadline:
                return out


class StationMix:
    """Visits of one weigh (short capture) and one assess of a stored record."""

    name = "station_mix"
    in_process = False
    rate_name = "records_per_s"
    STORE_RECORDS = 2000
    RATE_HZ = 10
    DWELL_S = 15

    def setup(self, workdir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cal = scenario.ideal_calibration(NOISY_CELL)
        self.cals = write_calibrations(workdir, cal)
        self.store_dir = workdir / "store"
        store = station.RecordStore(self.store_dir)
        self.lines: dict[str, str] = {}
        adc = sensor.AdcConfig()
        while len(self.lines) < self.STORE_RECORDS:
            vehicle = make_vehicle(rng)
            codes = [
                sensor.quantize(sensor.bridge_output(NOISY_CELL, mass), adc).code
                for mass in scenario.corner_loads(vehicle).as_tuple()
            ]
            # One sample a second is the cheapest capture a static weighing accepts.
            frames = [
                station.SensorFrameRecord(STATION_ID, cell, t * 1000, code)
                for t in range(self.DWELL_S + 1)
                for cell, code in enumerate(codes)
            ]
            record = station.run_session(
                frames, [cal] * 4, mode="static", policy=POLICY, geometry=DECK,
                tolerance_rule=compliance.US_HANDBOOK44,
                reference_kg=scenario.total_mass(vehicle),
                axle_config=compliance.AXLE_CONFIGURATIONS["2"],
            )
            record_id = format(int(rng.integers(2**48)), "012x")
            if record_id in self.lines:
                continue
            record = replace(record, record_id=record_id)
            store.append(record)
            self.lines[record_id] = record.to_line()
        self.ids = list(self.lines)
        self.capture = workdir / "capture.txt"
        self.op_rng = np.random.default_rng([seed, 1])

    def run(self, harness: Harness, seconds: float) -> Outcome:
        out = Outcome()
        deadline = time.perf_counter() + seconds
        while True:
            vehicle = make_vehicle(self.op_rng)
            loads = scenario.corner_loads(vehicle).as_tuple()
            lines = capture_lines(vehicle, self.op_rng, self.RATE_HZ, self.DWELL_S)
            write_lines(self.capture, lines)
            argv = weigh_argv(self.capture, self.cals, scenario.total_mass(vehicle), self.store_dir)
            weigh_s, code, stdout = harness.cli(argv)
            ok, record = check_weigh(code, stdout, loads)
            out.record("weigh", weigh_s, ok)
            if record is not None:
                self.lines[record.record_id] = stdout.rstrip("\n")
                self.ids.append(record.record_id)
            out.add_to_digest(mask_record_id(stdout), 6)

            record_id = self.ids[int(self.op_rng.integers(len(self.ids)))]
            stored = self.lines[record_id]
            expected_code = 2 if station.WeighRecord.from_line(stored).unsafe() else 0
            assess_s, code, stdout = harness.cli(
                ["assess", record_id, "--data-dir", str(self.store_dir)]
            )
            out.record("assess", assess_s, code == expected_code and stdout == stored + "\n")
            out.add_to_digest(mask_record_id(stdout), 6)

            out.units.append(weigh_s + assess_s)
            out.items += 2
            if time.perf_counter() >= deadline:
                return out


class MonteCarlo:
    """In-process `run_end_to_end` over a pool of seeded scenarios."""

    name = "monte_carlo"
    in_process = True
    rate_name = "scenarios_per_s"
    POOL = 4096
    #: A timed unit is a pair: one scenario on the noise-free default cell
    #: (what `simulate` uses), then one on the noisy cell. Half of all
    #: scenarios are noise-free, and every unit does the same work.
    CELLS = (("noise_free", sensor.FOUR_CELL_120KG), ("noisy", NOISY_CELL))

    def setup(self, workdir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = [make_vehicle(rng) for _ in range(self.POOL)]
        self.truth = [
            (scenario.total_mass(v), scenario.centroid(v)) for v in self.pool
        ]
        self.chains = [
            (kind, (spec,) * 4, (scenario.ideal_calibration(spec),) * 4)
            for kind, spec in self.CELLS
        ]

    def run(self, harness: Harness, seconds: float) -> Outcome:
        run_tracer = tracer.Tracer() if harness.traced else None
        out = Outcome()
        clock = time.perf_counter_ns
        deadline = time.perf_counter() + seconds
        i = 0
        if run_tracer is not None:
            run_tracer.install()
        try:
            while True:
                unit_s = 0.0
                for kind, specs, cals in self.chains:
                    vehicle = self.pool[i % self.POOL]
                    start = clock()
                    a = scenario.run_end_to_end(vehicle, specs, cals, POLICY)
                    elapsed = (clock() - start) / 1e9
                    total, (x, y) = self.truth[i % self.POOL]
                    ok = (
                        abs(a.total_kg - total) <= TOTAL_TOL_KG
                        and abs(a.x_cg_m - x) <= COG_TOL_M
                        and abs(a.y_cg_m - y) <= COG_TOL_M
                    )
                    out.record(kind, elapsed, ok)
                    unit_s += elapsed
                    if i < 1000:
                        out.add_to_digest(station.assessment_line(a), 1000)
                    i += 1
                out.units.append(unit_s)
                if i % 256 == 0:
                    if run_tracer is not None:
                        harness.ops.merge(run_tracer.take_summary())
                    if time.perf_counter() >= deadline:
                        break
        finally:
            if run_tracer is not None:
                run_tracer.uninstall()
                harness.ops.merge(run_tracer.take_summary())
        out.items = i
        return out


class ReplayTrace:
    """Cold `replay` of one long bit trace, over and over."""

    name = "replay_trace"
    in_process = False
    rate_name = "frames_per_s"
    FRAMES = 60_000
    GAINS = (128, 64, 32)

    @staticmethod
    def cell_for(gain: int) -> tuple[sensor.LoadCellSpec, sensor.AdcConfig]:
        """A cell whose output spans 102 % of the ADC window at `gain` over 0-150 kg,
        so codes cover the whole 24-bit range and reach both rails."""
        adc = sensor.AdcConfig(gain=gain, channel=sensor.GAIN_CHANNELS[gain])
        full_scale = adc.full_scale_mv
        spec = sensor.LoadCellSpec(
            capacity_kg=100.0,
            excitation_v=5.0,
            rated_output_mv_v=2.04 * full_scale / 1.5 / 5.0,
            zero_offset_mv=-1.02 * full_scale,
            noise_sigma_mv=1e-4 * full_scale,
        )
        return spec, adc

    def setup(self, workdir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cells = [self.cell_for(g) for g in self.GAINS]
        bits, expected = [], []
        for i in range(self.FRAMES):
            spec, adc = cells[i % len(cells)]
            reading = sensor.bridge_output(spec, float(rng.uniform(0.0, 150.0)))
            frame = sensor.quantize(sensor.add_noise(reading, spec, rng), adc)
            bits.append(codec.encode_frame(frame).to_line())
            expected.append(
                f"{i + 1},{frame.code},{frame.gain},{frame.channel},{int(frame.saturated)}"
            )
        self.trace = workdir / "trace.txt"
        write_lines(self.trace, bits)
        self.expected = "\n".join(expected) + "\n"

    def run(self, harness: Harness, seconds: float) -> Outcome:
        out = Outcome()
        deadline = time.perf_counter() + seconds
        while True:
            elapsed, code, stdout = harness.cli(["replay", str(self.trace)])
            out.record("replay", elapsed, code == 0 and stdout == self.expected)
            out.units.append(elapsed)
            out.items += self.FRAMES
            out.add_to_digest(stdout, 1)
            if time.perf_counter() >= deadline:
                return out


WORKLOADS = {w.name: w for w in (WeighLarge, StationMix, MonteCarlo, ReplayTrace)}
