"""Command-line front end.

Subcommands: simulate, calibrate, weigh, assess, replay, rules.

Exit codes: 0 = safe / pass, 2 = overload, imbalance or failed compliance
check, 1 = operational error (bad usage, bad input files). Machine
consumers read the single JSON line on stdout; pass --lcd for the
human-readable multi-line rendering as well.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import codec, kvfile
from .calibration import CalibrationState, calibrate, tare
from .cog import AlertPolicy, DeckGeometry, POLICIES, policy as named_policy, render_lcd
from .compliance import (
    AXLE_CONFIGURATIONS,
    BUILTIN_RULES,
    check_compliance,
    load_axle_table,
    load_tolerance_rules,
    max_permissible_error,
    within_gvw_limit,
)
from .errors import RecordParseError, WeighSimError
from .scenario import Scenario, ideal_calibration, run_end_to_end
from .sensor import AdcConfig, FOUR_CELL_120KG, LoadCellSpec, add_noise, bridge_output, quantize
from .station import FrameBatch, FrameIngestor, RecordStore, WeighRecord, assessment_line, run_session

EXIT_SAFE = 0
EXIT_ERROR = 1
EXIT_UNSAFE = 2


class _Parser(argparse.ArgumentParser):
    # usage errors are operational errors: exit 1, not argparse's 2
    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_geometry(args: argparse.Namespace) -> DeckGeometry:
    wheelbase, track, breadth = 2.0, 1.5, None
    if getattr(args, "config", None):
        source = args.config
        values = kvfile.as_dict(kvfile.read_kv(source), source)
        wheelbase = kvfile.get_float(values, "wheelbase_m", source, wheelbase)
        track = kvfile.get_float(values, "track_m", source, track)
        b = kvfile.get_float(values, "breadth_m", source, 0.0)
        breadth = b if b > 0 else None
    if getattr(args, "wheelbase_m", None) is not None:
        wheelbase = args.wheelbase_m
    if getattr(args, "track_m", None) is not None:
        track = args.track_m
    if getattr(args, "breadth_m", None) is not None:
        breadth = args.breadth_m
    return DeckGeometry(wheelbase_m=wheelbase, track_m=track, breadth_m=breadth)


def _load_policy(args: argparse.Namespace) -> AlertPolicy:
    if getattr(args, "policy", None):
        return named_policy(args.policy)
    if getattr(args, "config", None):
        source = args.config
        values = kvfile.as_dict(kvfile.read_kv(source), source)
        if "overload_threshold_kg" in values:
            return AlertPolicy(
                overload_threshold_kg=kvfile.get_float(values, "overload_threshold_kg", source),
                quadrant_threshold_pct=kvfile.get_float(values, "quadrant_threshold_pct", source, 30.0),
            )
    return POLICIES["prototype2"]


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario.from_file(args.scenario)
    spec = LoadCellSpec.from_file(args.cell_spec) if args.cell_spec else FOUR_CELL_120KG
    policy = _load_policy(args)
    cal = ideal_calibration(spec)
    assessment = run_end_to_end(scenario, (spec,) * 4, (cal,) * 4, policy)
    print(assessment_line(assessment))
    if args.lcd:
        print(render_lcd(assessment, policy))
    unsafe = assessment.overloaded or bool(assessment.flagged_quadrants)
    return EXIT_UNSAFE if unsafe else EXIT_SAFE


def _cmd_calibrate(args: argparse.Namespace) -> int:
    spec = LoadCellSpec.from_file(args.cell_spec)
    adc = AdcConfig()
    rng = np.random.default_rng(args.seed)
    zero_frames = [
        quantize(add_noise(bridge_output(spec, 0.0, args.temperature), spec, rng), adc)
        for _ in range(args.samples)
    ]
    tare_code = tare(zero_frames)
    loaded_codes = [
        quantize(add_noise(bridge_output(spec, args.known_mass, args.temperature), spec, rng), adc).code
        for _ in range(args.samples)
    ]
    code_at_mass = round(sum(loaded_codes) / len(loaded_codes))
    cal = calibrate(tare_code, args.known_mass, code_at_mass, temperature_c=args.temperature)
    cal.to_file(args.out)
    print(
        json.dumps(
            {
                "tare_code": cal.tare_code,
                "scale_kg_per_lsb": cal.scale_kg_per_lsb,
                "calibrated_at_temp_c": cal.calibrated_at_temp_c,
                "out": str(args.out),
            },
            separators=(",", ":"),
        )
    )
    return EXIT_SAFE


def _cmd_weigh(args: argparse.Namespace) -> int:
    ingestor = FrameIngestor(cell_count=args.cells)
    batches = []
    for path in args.frames:
        with open(path) as fh:
            batches.append(ingestor.ingest_lines(fh))
    frames = FrameBatch.concat(batches)
    calibrations = [CalibrationState.from_file(p) for p in args.cal]
    geometry = _load_geometry(args)
    policy = _load_policy(args)
    rule = None
    if args.jurisdiction:
        rules = load_tolerance_rules(args.rules_file) if args.rules_file else BUILTIN_RULES
        try:
            rule = rules[(args.jurisdiction, args.kind)]
        except KeyError:
            raise WeighSimError(
                f"no tolerance rule for {args.jurisdiction}/{args.kind}"
            ) from None
    axle = None
    if args.axle_config:
        table = load_axle_table(args.axle_file) if args.axle_file else AXLE_CONFIGURATIONS
        try:
            axle = table[args.axle_config]
        except KeyError:
            raise WeighSimError(f"unknown axle configuration {args.axle_config!r}") from None
    record = run_session(
        frames,
        calibrations,
        mode=args.mode,
        policy=policy,
        geometry=geometry,
        tolerance_rule=rule,
        reference_kg=args.reference,
        axle_config=axle,
        cell_count=args.cells,
    )
    RecordStore(args.data_dir).append(record)
    print(record.to_line())
    if args.lcd:
        print(render_lcd(record.assessment, policy))
    return EXIT_UNSAFE if record.unsafe() else EXIT_SAFE


def _cmd_assess(args: argparse.Namespace) -> int:
    path = Path(args.record)
    if path.exists():
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if not lines:
            raise RecordParseError(f"{path} holds no records")
        record = None
        for i, line in enumerate(lines, 1):
            candidate = WeighRecord.from_line(line, i)
            if args.record_id is None or candidate.record_id == args.record_id:
                record = candidate
        if record is None:
            raise RecordParseError(f"no record {args.record_id!r} in {path}")
    else:
        record = RecordStore(args.data_dir).load(args.record)
    recomputed = record.reassess()
    if recomputed != record.assessment:
        raise WeighSimError(
            f"stored assessment for {record.record_id} does not reproduce; store corrupt?"
        )
    print(record.to_line())
    if args.lcd:
        print(render_lcd(record.assessment, record.policy))
    return EXIT_UNSAFE if record.unsafe() else EXIT_SAFE


def _cmd_replay(args: argparse.Namespace) -> int:
    lines = Path(args.trace).read_text().splitlines()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            frame = codec.decode_frame(line)
        except WeighSimError as exc:
            print(f"{args.trace}:{line_no}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        print(f"{line_no},{frame.code},{frame.gain},{frame.channel},{int(frame.saturated)}")
    return EXIT_SAFE


def _cmd_rules(args: argparse.Namespace) -> int:
    if args.axle_config:
        table = load_axle_table(args.axle_file) if args.axle_file else AXLE_CONFIGURATIONS
        try:
            config = table[args.axle_config]
        except KeyError:
            raise WeighSimError(f"unknown axle configuration {args.axle_config!r}") from None
        if args.total is None:
            raise WeighSimError("--total is required with --axle-config")
        passed = within_gvw_limit(config, args.total)
        print(
            json.dumps(
                {
                    "check": "gvw",
                    "config_code": config.config_code,
                    "axle_count": config.axle_count,
                    "gvw_limit_kg": config.gvw_limit_kg,
                    "measured_kg": args.total,
                    "passed": passed,
                },
                separators=(",", ":"),
            )
        )
        return EXIT_SAFE if passed else EXIT_UNSAFE

    if not args.jurisdiction:
        raise WeighSimError("need --jurisdiction (tolerance query) or --axle-config (GVW check)")
    rules = load_tolerance_rules(args.rules_file) if args.rules_file else BUILTIN_RULES
    try:
        rule = rules[(args.jurisdiction, args.kind)]
    except KeyError:
        known = ", ".join(f"{j}/{k}" for j, k in sorted(rules))
        raise WeighSimError(
            f"no tolerance rule for {args.jurisdiction}/{args.kind}; known: {known}"
        ) from None
    if args.measured is not None and args.reference is not None:
        result = check_compliance(args.measured, args.reference, rule)
        print(
            json.dumps(
                {
                    "check": "tolerance",
                    "jurisdiction": result.jurisdiction,
                    "verification_kind": result.verification_kind,
                    "reference_kg": result.reference_kg,
                    "error_kg": result.error_kg,
                    "max_error_kg": result.max_error_kg,
                    "margin_kg": result.margin_kg,
                    "passed": result.passed,
                },
                separators=(",", ":"),
            )
        )
        return EXIT_SAFE if result.passed else EXIT_UNSAFE
    if args.capacity is None:
        raise WeighSimError("need --capacity, or --measured with --reference")
    mpe = max_permissible_error(rule, args.capacity)
    print(
        json.dumps(
            {
                "jurisdiction": rule.jurisdiction,
                "verification_kind": rule.verification_kind,
                "capacity_t": args.capacity,
                "max_error_kg": mpe,
            },
            separators=(",", ":"),
        )
    )
    return EXIT_SAFE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weighsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file end to end")
    p.add_argument("scenario", help="scenario text file")
    p.add_argument("--cell-spec", help="load cell spec file (default: ideal 120 kg cell)")
    p.add_argument("--policy", choices=sorted(POLICIES), help="alert policy preset")
    p.add_argument("--config", help="station config file (geometry/policy)")
    p.add_argument("--lcd", action="store_true", help="also print the LCD rendering")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="derive a calibration against a modeled cell")
    p.add_argument("--cell-spec", required=True, help="load cell spec file")
    p.add_argument("--known-mass", type=float, required=True, help="reference mass in kg")
    p.add_argument("--out", required=True, help="calibration file to write")
    p.add_argument("--samples", type=int, default=16, help="samples averaged per point")
    p.add_argument("--temperature", type=float, default=25.0, help="ambient °C")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("weigh", help="run a weigh session from wire-format frames")
    p.add_argument("--mode", choices=["static", "wim"], required=True)
    p.add_argument("--frames", nargs="+", required=True, help="wire-format frame file(s)")
    p.add_argument("--cal", nargs="+", required=True, help="calibration file per cell, in cell order")
    p.add_argument("--cells", type=int, choices=[2, 4], default=4)
    p.add_argument("--config", help="station config file (geometry/policy)")
    p.add_argument("--policy", choices=sorted(POLICIES))
    p.add_argument("--wheelbase-m", type=float)
    p.add_argument("--track-m", type=float)
    p.add_argument("--breadth-m", type=float)
    p.add_argument("--jurisdiction", choices=["Kenya", "NewZealand", "US"])
    p.add_argument("--kind", default="re_verification", help="verification kind for --jurisdiction")
    p.add_argument("--reference", type=float, help="reference mass (kg) for the tolerance check")
    p.add_argument("--axle-config", help="axle configuration code for the GVW check")
    p.add_argument("--rules-file", help="extra tolerance rules")
    p.add_argument("--axle-file", help="extra axle configurations")
    p.add_argument("--data-dir", help="record directory (default: $WEIGHSIM_DATA_DIR or ./weighsim_records)")
    p.add_argument("--lcd", action="store_true")
    p.set_defaults(func=_cmd_weigh)

    p = sub.add_parser("assess", help="re-evaluate a stored weigh record")
    p.add_argument("record", help="record id in the store, or a record file path")
    p.add_argument("--record-id", help="pick one id when the argument is a file")
    p.add_argument("--data-dir")
    p.add_argument("--lcd", action="store_true")
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("replay", help="decode a serial bit-trace file")
    p.add_argument("trace", help="trace file, one '0'/'1' line per frame")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("rules", help="tolerance and GVW table queries")
    p.add_argument("--jurisdiction", choices=["Kenya", "NewZealand", "US"])
    p.add_argument("--kind", default="re_verification")
    p.add_argument("--capacity", type=float, help="capacity/load in tonnes")
    p.add_argument("--measured", type=float, help="measured mass (kg) for a compliance check")
    p.add_argument("--reference", type=float, help="reference mass (kg) for a compliance check")
    p.add_argument("--axle-config", help="axle configuration code")
    p.add_argument("--total", type=float, help="measured total (kg) for the GVW check")
    p.add_argument("--rules-file")
    p.add_argument("--axle-file")
    p.set_defaults(func=_cmd_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WeighSimError, ValueError, OSError) as exc:
        print(f"weighsim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
