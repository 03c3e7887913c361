"""The columnar session reduction against a per-frame reference.

`reference_session` is the per-frame reduction the columnar path replaced:
one Python float per frame, each cell's frames sorted by timestamp, and
`np.mean` over a list of the window's masses. Both paths must agree bit
for bit, down to the persisted record line.
"""

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weighsim.calibration import CalibrationState
from weighsim.cog import (
    DeckGeometry,
    FourCellReading,
    POLICIES,
    TwoCellReading,
    assess_four_cell,
    assess_two_cell,
)
from weighsim.compliance import STATIC_WINDOW_S, static_weigh, wim_weigh
from weighsim.errors import InsufficientDurationError, NoVehicleError
from weighsim.station import (
    CHUNK_LINES,
    FrameIngestor,
    SensorFrameRecord,
    format_frame_line,
    run_session,
)

GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
POLICY = POLICIES["prototype2"]


def reference_mass(code, cal):
    mass = cal.scale_kg_per_lsb * (code - cal.tare_code)
    return 0.0 if mass < 0 else mass


def reference_static(samples, window_s=STATIC_WINDOW_S):
    if not samples:
        raise InsufficientDurationError("empty stream")
    times = [t for t, _ in samples]
    span = times[-1] - times[0]
    if span < window_s:
        raise InsufficientDurationError(
            f"stream spans {span:.3f} s, static weighing needs {window_s:.3f} s"
        )
    cutoff = times[-1] - window_s
    return float(np.mean([m for t, m in samples if t > cutoff]))


def reference_wim(samples):
    if not samples:
        raise NoVehicleError("no samples in the pass-over segment")
    masses = np.array([m for _, m in samples], dtype=float)
    return float(masses.mean()), float(masses.var(ddof=1)) if len(masses) > 1 else 0.0


def reference_session(frames, cals, mode):
    """(cell masses, started_at_ms, ended_at_ms) of a one-station session."""
    streams = [[] for _ in cals]
    for frame in frames:
        streams[frame.cell_index].append(frame)
    masses = []
    for stream, cal in zip(streams, cals):
        samples = [
            (f.timestamp_ms / 1000.0, reference_mass(f.adc_code, cal))
            for f in sorted(stream, key=lambda f: f.timestamp_ms)
        ]
        masses.append(reference_static(samples) if mode == "static" else reference_wim(samples)[0])
    all_ts = [f.timestamp_ms for f in frames]
    return masses, min(all_ts), max(all_ts)


def masked_line(record):
    return re.sub(r'"record_id":"[0-9a-f]*"', '"record_id":"*"', record.to_line())


@st.composite
def sessions(draw):
    """Frames of one station: per-cell streams with duplicate timestamps and
    codes on both sides of the tare, sometimes more lines than one chunk."""
    cell_count = draw(st.sampled_from([2, 4]))
    mode = draw(st.sampled_from(["static", "wim"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        per_cell = CHUNK_LINES // cell_count + draw(st.integers(1, 60))
    else:
        per_cell = draw(st.integers(1, 40))
    step_ms = draw(st.sampled_from([1, 100, 1000]))
    span_ms = draw(st.integers(14_000, 20_000)) if mode == "static" else draw(st.integers(0, 3_000))
    cals = []
    for _ in range(cell_count):
        tare = int(rng.integers(-2_000, 2_000))
        scale = draw(st.floats(1e-6, 1e-2, allow_nan=False))
        cals.append(CalibrationState(tare, scale, reference_points=((1.0, tare + 1),)))
    frames = []
    for cell, cal in enumerate(cals):
        ts = rng.integers(0, span_ms // step_ms + 1, per_cell) * step_ms
        if per_cell > 1:
            ts[:2] = 0, span_ms // step_ms * step_ms  # pin the span
        codes = cal.tare_code + rng.integers(-3_000, 200_000, per_cell)
        frames += [SensorFrameRecord("st1", cell, int(t), int(c)) for t, c in zip(ts, codes)]
    order = list(range(len(frames)))
    random.Random(int(rng.integers(2**32))).shuffle(order)
    return [frames[i] for i in order], cals, mode, cell_count


def wire_lines(frames):
    """Frames in per-cell time order, interleaved as shuffled, with blank lines."""
    lines = []
    for frame in sorted(frames, key=lambda f: f.timestamp_ms):
        lines.append(format_frame_line(frame))
        if frame.adc_code % 97 == 0:
            lines.append("")
    return lines


def session_or_error(run):
    try:
        return run()
    except (InsufficientDurationError, NoVehicleError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(sessions())
def test_columnar_session_is_bit_identical(session):
    frames, cals, mode, cell_count = session
    expected = session_or_error(lambda: reference_session(frames, cals, mode))
    ingested = FrameIngestor(cell_count).ingest_lines(wire_lines(frames))
    assert len(ingested) == len(frames)
    for source in (frames, ingested):
        got = session_or_error(
            lambda: run_session(source, cals, mode, POLICY, GEOM, cell_count=cell_count)
        )
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
            continue
        masses, started, ended = expected
        assert list(got.cell_masses_kg) == masses  # exact, not approx
        assert all(type(m) is float for m in got.cell_masses_kg)
        assert (got.started_at_ms, got.ended_at_ms) == (started, ended)
        assert type(got.started_at_ms) is int and type(got.ended_at_ms) is int
        if cell_count == 4:
            assessment = assess_four_cell(FourCellReading(*masses), GEOM, POLICY)
        else:
            assessment = assess_two_cell(TwoCellReading(*masses), GEOM, POLICY)
        reference = replace(got, cell_masses_kg=tuple(masses), assessment=assessment)
        assert masked_line(got) == masked_line(reference)


samples_lists = st.lists(
    st.tuples(
        st.floats(-100.0, 100.0, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    max_size=30,
)


@given(samples_lists)
def test_static_weigh_matches_reference_on_any_order(samples):
    expected = session_or_error(lambda: reference_static(samples))
    assert session_or_error(lambda: static_weigh(samples)) == expected


@given(samples_lists)
def test_wim_weigh_matches_reference(samples):
    assert session_or_error(lambda: wim_weigh(samples)) == session_or_error(lambda: reference_wim(samples))


@pytest.mark.parametrize("mode", ["static", "wim"])
def test_code_below_tare_clamps_to_zero(mode):
    cal = CalibrationState(tare_code=100, scale_kg_per_lsb=0.5, reference_points=((1.0, 102),))
    frames = [SensorFrameRecord("st1", 0, t * 1000, 90) for t in range(16)]
    frames += [SensorFrameRecord("st1", 1, t * 1000, 104) for t in range(16)]
    record = run_session(frames, [cal] * 2, mode, POLICY, GEOM, cell_count=2)
    assert record.cell_masses_kg == (0.0, 2.0)
