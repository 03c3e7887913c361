"""A full weigh-station session from wire-format frames to a stored record.

Synthesizes 15 s of frames per corner cell through the sensor model,
parses them back through the ingestion path, weighs statically, checks
compliance, and persists the record.
"""

import tempfile

from weighsim import (
    AdcConfig,
    DeckGeometry,
    FOUR_CELL_120KG,
    FrameIngestor,
    RecordStore,
    bridge_output,
    format_frame_line,
    policy,
    quantize,
    run_session,
)
from weighsim.compliance import AXLE_CONFIGURATIONS
from weighsim.scenario import ideal_calibration
from weighsim.station import SensorFrameRecord

spec = FOUR_CELL_120KG
adc = AdcConfig()
cal = ideal_calibration(spec)

# corner loads of a rear-heavy 430 kg vehicle
corner_masses = [95.0, 90.0, 125.0, 120.0]
wire_lines = []
for cell, mass in enumerate(corner_masses):
    code = quantize(bridge_output(spec, mass), adc).code
    for t in range(151):  # 15 s at 10 samples/s
        wire_lines.append(
            format_frame_line(SensorFrameRecord("station-7", cell, t * 100, code))
        )

print(f"wire stream: {len(wire_lines)} lines, e.g.")
print("  " + "\n  ".join(wire_lines[:2]))

frames = FrameIngestor(cell_count=4).ingest_lines(wire_lines)
record = run_session(
    frames,
    [cal] * 4,
    mode="static",
    policy=policy("prototype2"),
    geometry=DeckGeometry(wheelbase_m=2.0, track_m=1.5),
    axle_config=AXLE_CONFIGURATIONS["2"],
)

print(f"\nassessment: total {record.assessment.total_kg:.2f} kg,"
      f" overloaded={record.assessment.overloaded},"
      f" flagged={record.assessment.flagged_quadrants}")
print(f"compliance: {record.compliance}")
print(f"unsafe -> CLI exit 2? {record.unsafe()}")

with tempfile.TemporaryDirectory() as tmp:
    store = RecordStore(tmp)
    store.append(record)
    print(f"\npersisted line ({store.path.name}):")
    print(record.to_line()[:120] + " ...")
    reloaded = store.load(record.record_id)
    print(f"reassess reproduces stored assessment: {reloaded.reassess() == record.assessment}")
