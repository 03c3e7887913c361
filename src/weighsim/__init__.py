"""weighsim: load-cell weigh-station simulator.

From strain-gauge bridge physics through 24-bit ADC frames and two-point
calibration to centre-of-gravity assessment, alert classification and
weighbridge-style compliance checks, plus a forward statics harness that
provides ground truth for end-to-end tests.

The public names below resolve on first use (PEP 562), so `import
weighsim` loads no submodule, and numpy comes in only with the modules
whose code needs it.
"""

from importlib import import_module

#: The public names each submodule defines.
_NAMES = {
    "errors": "WeighSimError",
    "sensor": "AdcConfig AdcFrame BridgeReading FOUR_CELL_120KG LoadCellSpec TWO_CELL_5KG"
    " add_noise bridge_output quantize",
    "codec": "BitTrace decode_frame encode_frame",
    "calibration": "CalibrationState calibrate code_to_mass tare",
    "cog": "AlertPolicy DeckGeometry FourCellReading LoadAssessment POLICIES TwoCellAssessment"
    " assess_four_cell assess_two_cell classify policy render_lcd",
    "compliance": "AXLE_CONFIGURATIONS AxleConfiguration ComplianceResult KENYA_FIRST_TIME"
    " KENYA_REVERIFICATION NZ_BAND ToleranceRule US_HANDBOOK44 check_compliance"
    " max_permissible_error simulate_weigh_stream static_weigh wim_weigh within_gvw_limit",
    "scenario": "Placement Scenario centroid corner_loads ideal_calibration run_end_to_end total_mass",
    "record": "RecordStore WeighRecord",
    "station": "FrameIngestor SensorFrameRecord format_frame_line parse_frame_line run_session",
}
_SOURCE = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The value is looked up in its submodule on every access and never
    # stored here, so a later rebinding in the submodule shows through.
    if name in _SOURCE:
        return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
