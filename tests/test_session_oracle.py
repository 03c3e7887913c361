"""The columnar session reduction against a per-frame reference.

`reference_session` is the per-frame reduction the columnar path replaced:
one Python float per frame, each cell's frames sorted by timestamp, and
`np.mean` over a list of the window's masses, which in static mode is the
deck's last 15 s for every cell, compared in integer ms. Both paths must
agree bit for bit, down to the persisted record line. The reference works
from plain `(cell, timestamp_ms, code, saturated)` tuples, and the wire
lines are written here from the format in the `station` docstring.
"""

import random
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weighsim import codec
from weighsim.calibration import CalibrationState
from weighsim.codec import CHUNK_LINES
from weighsim.cog import DeckGeometry, POLICIES, assess_four_cell, assess_two_cell
from weighsim.compliance import STATIC_WINDOW_S, static_weigh, wim_weigh
from weighsim.errors import IncompleteStationError, InsufficientDurationError, InsufficientSamplesError, InvalidValueError
from weighsim.errors import NoVehicleError
from weighsim.sensor import CODE_MAX
from weighsim.station import FrameBatch, FrameIngestor, SensorFrameRecord, run_session

GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
POLICY = POLICIES["prototype2"]
#: The static window in the integer ms of a capture's timestamps.
WINDOW_MS = 15_000


def reference_mass(code, cal):
    mass = cal.scale_kg_per_lsb * (code - cal.tare_code)
    return 0.0 if mass < 0 else mass


def reference_static(samples, window, end=None):
    """The mean of the masses in the window (end - window, end], `end` the
    last time unless given. Each time is compared by its difference from
    `end` in the times' own unit, so integer ms exactly."""
    if not samples:
        raise InsufficientDurationError("empty stream")
    times = [t for t, _ in samples]
    if times[-1] - times[0] < window:
        raise InsufficientDurationError(f"stream spans {times[-1] - times[0]}, static weighing needs {window}")
    end = times[-1] if end is None else end
    return float(np.mean([m for t, m in samples if end - t < window]))


def reference_wim(samples):
    if not samples:
        raise NoVehicleError("no samples in the pass-over segment")
    masses = np.array([m for _, m in samples], dtype=float)
    return float(masses.mean()), float(masses.var(ddof=1)) if len(masses) > 1 else 0.0


def reference_session(frames, cals, mode):
    """(cell masses, started_at_ms, ended_at_ms) of a one-station session of
    (cell, timestamp_ms, code, saturated) frames, each cell with a frame.
    Every frame counts towards the deck's start and end, which is the end
    of every cell's static window, and towards each cell's span, which in
    WIM mode must overlap the other cells'; saturated frames count towards
    nothing else."""
    spans = [[ts for c, ts, _, _ in frames if c == cell] for cell in range(len(cals))]
    firsts, lasts = [min(span) for span in spans], [max(span) for span in spans]
    if mode == "wim" and min(lasts) < max(firsts):
        early, late = lasts.index(min(lasts)), firsts.index(max(firsts))
        raise IncompleteStationError(
            f"cell {early}'s frames end at {lasts[early]} ms, before cell {late}'s begin at {firsts[late]} ms"
        )
    ended = max(lasts)
    streams = [[] for _ in cals]
    for cell, ts, code, saturated in frames:
        if not saturated:
            streams[cell].append((ts, code))
    masses = []
    for cell, (stream, cal) in enumerate(zip(streams, cals)):
        if not stream:
            raise InsufficientSamplesError(f"every frame of cell {cell} is saturated")
        stream.sort(key=lambda f: f[0])
        samples = [(ts, reference_mass(code, cal)) for ts, code in stream]
        if mode == "wim":
            masses.append(reference_wim(samples)[0])
        elif ended - stream[-1][0] >= WINDOW_MS:
            raise IncompleteStationError(
                f"cell {cell} has no frame in the deck's last 15 s:"
                f" its last at {stream[-1][0]} ms, the deck's at {ended} ms"
            )
        elif stream[-1][0] - stream[0][0] < WINDOW_MS:
            raise InsufficientDurationError(
                f"cell {cell}'s frames span {stream[-1][0] - stream[0][0]} ms, static weighing needs {WINDOW_MS} ms"
            )
        else:
            masses.append(reference_static(samples, WINDOW_MS, end=ended))
    return masses, min(firsts), ended


def masked_line(record):
    return re.sub(r'"record_id":"[0-9a-f]*"', '"record_id":"*"', record.to_line())


@st.composite
def sessions(draw):
    """(cell, timestamp_ms, code, saturated) frames of one station: per-cell
    streams with duplicate timestamps, codes on both sides of the tare and
    at times saturated frames (none, some or all of a cell's), sometimes
    more lines than one chunk, at times a cell whose stream stops early or
    starts late, and sometimes a few frames more on some cells than on
    others."""
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
    shifted = draw(st.sampled_from([None, None, *range(cell_count)]))
    for cell, cal in enumerate(cals):
        n = per_cell + draw(st.integers(0, 3))
        ts = rng.integers(0, span_ms // step_ms + 1, n) * step_ms
        if n > 1:
            ts[:2] = 0, span_ms // step_ms * step_ms  # pin the span
        if cell == shifted:  # the deck's window or the other cells' segments may miss this one
            shift = draw(st.one_of(st.integers(1, span_ms + 1_000), st.sampled_from([15_000, span_ms, span_ms + 1])))
            ts += draw(st.sampled_from([-1, 1])) * shift
        codes = cal.tare_code + rng.integers(-3_000, 200_000, n)
        pinned = rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.1, 1.0]))
        frames += [
            (cell, int(t), CODE_MAX, True) if p else (cell, int(t), int(c), False)
            for t, c, p in zip(ts, codes, pinned)
        ]
    order = list(range(len(frames)))
    random.Random(int(rng.integers(2**32))).shuffle(order)
    return [frames[i] for i in order], cals, mode, cell_count


def wire_lines(frames):
    """Frames in per-cell time order, interleaved as shuffled, with blank lines,
    as `station_id,cell_index,timestamp_ms,adc_code,gain,saturated` at gain 128."""
    lines = []
    for cell, ts, code, saturated in sorted(frames, key=lambda f: f[1]):
        lines.append(f"st1,{cell},{ts},{code},128,{int(saturated)}")
        if code % 97 == 0:
            lines.append("")
    return lines


def columns(samples):
    """The (times, masses) columns of (time, mass) pairs."""
    return np.array([t for t, _ in samples], dtype=float), np.array([m for _, m in samples], dtype=float)


def session_or_error(run):
    try:
        return run()
    except (
        IncompleteStationError, InsufficientDurationError, InsufficientSamplesError, InvalidValueError, NoVehicleError
    ) as exc:
        return type(exc), str(exc)


def ingested_in_files(lines, cuts, cell_count):
    """The batch of `lines` cut into files at `cuts`, each file fed to one
    ingestor, joined as `weigh --frames` joins them."""
    ingestor, edges = FrameIngestor(cell_count), [0, *sorted(cuts), len(lines)]
    return FrameBatch.concat([ingestor.ingest_lines(lines[a:b]) for a, b in zip(edges, edges[1:])])


@settings(max_examples=100, deadline=None)
@given(sessions(), st.sampled_from([1, 2, 3, 7, 64, CHUNK_LINES]), st.lists(st.floats(0, 1), max_size=3), st.data())
def test_columnar_session_is_bit_identical(session, chunk_lines, cuts, data):
    """Records and a capture ingested as several files in chunks of
    `chunk_lines` lines weigh as the reference, to the record line, or fail
    with its error. The frames of a session within one chunk come in a
    drawn permutation; a larger one keeps the shuffled order it was drawn
    in, since a drawn permutation of thousands of frames overruns what
    hypothesis draws for one example."""
    frames, cals, mode, cell_count = session
    if len(frames) < CHUNK_LINES:
        frames = data.draw(st.permutations(frames), label="input order")
    expected = session_or_error(lambda: reference_session(frames, cals, mode))
    records = [SensorFrameRecord("st1", cell, ts, code, saturated=sat) for cell, ts, code, sat in frames]
    lines = wire_lines(frames)
    with mock.patch.object(codec, "CHUNK_LINES", chunk_lines):
        ingested = ingested_in_files(lines, [round(cut * len(lines)) for cut in cuts], cell_count)
    assert len(ingested) == len(frames)
    weighed = set()
    for source in (records, ingested):
        got = session_or_error(
            lambda: run_session(source, cals, mode, POLICY, GEOM)
        )
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
            continue
        weighed.add(masked_line(got))
        masses, started, ended = expected
        assert list(got.cell_masses_kg) == masses  # exact, not approx
        assert all(type(m) is float for m in got.cell_masses_kg)
        assert (got.started_at_ms, got.ended_at_ms) == (started, ended)
        assert type(got.started_at_ms) is int and type(got.ended_at_ms) is int
        if cell_count == 4:
            assessment = assess_four_cell(masses, GEOM, POLICY)
        else:
            assessment = assess_two_cell(masses, GEOM, POLICY)
        reference = replace(got, cell_masses_kg=tuple(masses), assessment=assessment)
        assert masked_line(got) == masked_line(reference)
    assert len(weighed) <= 1


def ramp_session(first_ms):
    """Four ideal cells at 0.001 kg/LSB, 10 Hz, 151 frames each from
    `first_ms`: the first reads 100 kg and the rest 200 kg."""
    cal = CalibrationState(0, 0.001, reference_points=((100.0, 100_000),))
    frames = [(c, first_ms + 100 * k, 100_000 if k == 0 else 200_000, False) for k in range(151) for c in range(4)]
    return frames, [cal] * 4, "static", 4


def zero_capture():
    """Two cells of code 0 at 10 Hz over 0-15,000 ms, a capture a 15 s
    static weighing just accepts."""
    cal = CalibrationState(0, 0.001, reference_points=((100.0, 100_000),))
    return [(c, t, 0, False) for c in range(2) for t in range(0, 15_001, 100)], [cal] * 2, "static", 2


def weighed_or_error_type(frames, cals, mode, cell_count):
    lines = wire_lines(frames)
    got = session_or_error(lambda: run_session(FrameIngestor(cell_count).ingest_lines(lines), cals, mode, POLICY, GEOM))
    return got[0] if isinstance(got, tuple) else got.cell_masses_kg


@settings(max_examples=100, deadline=None)
@given(sessions(), st.integers(-(2**40), 2**40))
@example(ramp_session(0), 100).via("the 100 ms start that took the frame at T - 15 s")
@example(zero_capture(), 1_400).via("the 1,400 ms start refused as spanning under 15 s")
def test_a_capture_shifted_in_time_weighs_the_same(session, shift):
    """Every timestamp moved by `shift` ms: the same cell masses, or the
    same error type. The window is read in the capture's own integer ms,
    so where the station clock started moves no frame across its edge."""
    frames, cals, mode, cell_count = session
    shifted = [(cell, ts + shift, code, sat) for cell, ts, code, sat in frames]
    assert weighed_or_error_type(shifted, cals, mode, cell_count) == weighed_or_error_type(frames, cals, mode, cell_count)


samples_lists = st.lists(
    st.tuples(
        st.floats(-100.0, 100.0, allow_nan=False),
        st.floats(0.0, 1e6, allow_nan=False),
    ),
    max_size=30,
)


@given(samples_lists, st.booleans())
def test_static_weigh_matches_reference_on_any_order(samples, in_order):
    """A stream in time order (ties in drawn order) weighs as the reference;
    a stream in any other order is refused, naming its first time before
    the one ahead of it."""
    if in_order:
        samples = sorted(samples, key=lambda s: s[0])
    times = [t for t, _ in samples]
    back = next((i for i in range(1, len(times)) if times[i] < times[i - 1]), None)
    if back is None:
        expected = session_or_error(lambda: reference_static(samples, STATIC_WINDOW_S))
    else:
        expected = InvalidValueError, f"time {times[back]} at index {back} is before time {times[back - 1]} at {back - 1}"
    assert session_or_error(lambda: static_weigh(*columns(samples))) == expected


@given(samples_lists)
def test_wim_weigh_matches_reference(samples):
    got = session_or_error(lambda: wim_weigh(columns(samples)[1]))
    assert got == session_or_error(lambda: reference_wim(samples))


@pytest.mark.parametrize("mode", ["static", "wim"])
def test_code_below_tare_clamps_to_zero(mode):
    cal = CalibrationState(tare_code=100, scale_kg_per_lsb=0.5, reference_points=((1.0, 102),))
    frames = [SensorFrameRecord("st1", 0, t * 1000, 90) for t in range(16)]
    frames += [SensorFrameRecord("st1", 1, t * 1000, 104) for t in range(16)]
    record = run_session(frames, [cal] * 2, mode, POLICY, GEOM)
    assert record.cell_masses_kg == (0.0, 2.0)
