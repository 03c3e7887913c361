"""Command-line front end.

Subcommands: simulate, calibrate, weigh, assess, replay, rules.

Exit codes: 0 = safe / pass, 2 = overload, imbalance or failed compliance
check, 1 = operational error (bad usage, bad input files). Machine
consumers read the single JSON line on stdout; pass --lcd for the
human-readable multi-line rendering as well.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn

# Only the error types and the key-value reader load here: each command
# imports the modules it runs, and the parser imports what a subcommand's
# choices come from only when that subcommand is parsed. So `replay`
# starts without the deck, compliance, record, sensor and `schema` modules,
# and only `simulate` and `calibrate`, which run the sensor model, load
# numpy: `weigh` reads, checks and averages its frames without it. No
# command loads `dataclasses`: the schema classes derive from
# `schema.FrozenRecord`, and a field list is read from its `_fields`.
from . import kvfile
from .errors import FrameError, RecordParseError, WeighSimError

if TYPE_CHECKING:
    from .cog import AlertPolicy, DeckGeometry
    from .compliance import AxleConfiguration, ToleranceRule

EXIT_SAFE = 0
EXIT_ERROR = 1
EXIT_UNSAFE = 2


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(low: int, what: str) -> Callable[[str], int]:
    """argparse type of an int flag: a value below `low` is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    # usage errors are operational errors: exit 1, not argparse's 2
    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_station(args: argparse.Namespace) -> tuple[DeckGeometry, AlertPolicy]:
    """Deck geometry and alert policy: each value from its flag, else the
    station config's key, else the default (a 2.0 m x 1.5 m deck, the
    prototype2 policy). `--policy` replaces the whole policy."""
    from .cog import POLICIES, AlertPolicy, DeckGeometry, policy as named_policy

    flags = {name: v for name in DeckGeometry._fields if (v := getattr(args, name, None)) is not None}
    defaults = {"wheelbase_m": 2.0, "track_m": 1.5, **flags}
    DeckGeometry(**defaults)  # a bad flag is the flag's error, not the file's
    with kvfile.named(args.config):
        values = kvfile.as_dict(kvfile.read_kv(args.config)) if args.config else {}
        for name in flags:
            values.pop(name, None)
        geometry = kvfile.build(DeckGeometry, values, **defaults)
        policy = kvfile.build(AlertPolicy, values, **kvfile.scalars(POLICIES["prototype2"]))
        kvfile.reject_unknown(values)
    return geometry, named_policy(args.policy) if args.policy else policy


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .cog import is_unsafe, render_lcd
    from .record import json_line, to_json
    from .scenario import Scenario, ideal_calibration, run_end_to_end
    from .sensor import FOUR_CELL_120KG, LoadCellSpec

    scenario = Scenario.from_file(args.scenario)
    spec = LoadCellSpec.from_file(args.cell_spec) if args.cell_spec else FOUR_CELL_120KG
    _, policy = _load_station(args)
    cal = ideal_calibration(spec)
    assessment = run_end_to_end(scenario, (spec,) * 4, (cal,) * 4, policy)
    print(json_line(to_json(assessment)))
    if args.lcd:
        print(render_lcd(assessment, policy))
    return EXIT_UNSAFE if is_unsafe(assessment) else EXIT_SAFE


def _cmd_calibrate(args: argparse.Namespace) -> int:
    import numpy as np

    from .record import json_line
    from .scenario import calibrate_cell
    from .sensor import LoadCellSpec

    spec = LoadCellSpec.from_file(args.cell_spec)
    rng = np.random.default_rng(args.seed)
    cal = calibrate_cell(spec, args.known_mass, args.temperature, rng, args.samples, gain=args.gain)
    cal.to_file(args.out)
    print(json_line({**kvfile.scalars(cal), "out": str(args.out)}))
    return EXIT_SAFE


def _cmd_weigh(args: argparse.Namespace) -> int:
    from .calibration import CalibrationState
    from .cog import render_lcd
    from .record import RecordStore
    from .station import FrameBatch, FrameIngestor, check_tolerance_inputs, run_session

    # Every check that needs no frame comes before the capture is read.
    if len(args.cal) != args.cells:
        raise WeighSimError(f"need {args.cells} calibrations, got {len(args.cal)}")
    calibrations = [CalibrationState.from_file(p) for p in args.cal]
    geometry, policy = _load_station(args)
    rule = _tolerance_rule(args) if args.jurisdiction else None
    check_tolerance_inputs(rule, args.reference)
    axle = _axle_config(args) if args.axle_config else None
    ingestor = FrameIngestor(cell_count=args.cells)
    batches = []
    for path in args.frames:
        with open(path) as fh, kvfile.named(path):
            batches.append(ingestor.ingest_lines(fh))
    frames = FrameBatch.concat(batches)
    record = run_session(
        frames,
        calibrations,
        mode=args.mode,
        policy=policy,
        geometry=geometry,
        tolerance_rule=rule,
        reference_kg=args.reference,
        axle_config=axle,
    )
    RecordStore(args.data_dir).append(record)
    print(record.to_line())
    if args.lcd:
        print(render_lcd(record.assessment, policy))
    return EXIT_UNSAFE if record.unsafe() else EXIT_SAFE


def _cmd_assess(args: argparse.Namespace) -> int:
    from .cog import render_lcd
    from .record import RecordStore, to_json

    # An existing path is a record file: its last record, or the last with --record-id.
    path = Path(args.record)
    is_file = path.exists()
    store = RecordStore(path.parent, path.name) if is_file else RecordStore(args.data_dir)
    try:
        if not is_file:
            record = store.load(args.record)
        elif not (records := store.load_all()):
            raise RecordParseError(f"{path} holds no records")
        elif not (matches := [r for r in records if args.record_id in (None, r.record_id)]):
            raise RecordParseError(f"no record {args.record_id!r} in {path}")
        else:
            record = matches[-1]
    finally:
        if store.torn_line is not None:
            warning = f"{store.path}:{store.torn_line}: skipped a torn final line"
            print(f"weighsim: warning: {warning}", file=sys.stderr)
    recomputed = record.reassess()
    if recomputed != record.assessment:
        stored, again = to_json(record.assessment), to_json(recomputed)
        name = next(k for k in again if stored.get(k) != again[k])
        raise WeighSimError(
            f"stored assessment for {record.record_id} does not reproduce:"
            f" {name} is {stored.get(name)!r}, recomputed {again[name]!r}"
        )
    print(record.to_line())
    if args.lcd:
        print(render_lcd(record.assessment, record.policy))
    return EXIT_UNSAFE if record.unsafe() else EXIT_SAFE


def _cmd_replay(args: argparse.Namespace) -> int:
    from . import codec

    # The whole file is read as text first, so a file that is not valid
    # text fails before anything reaches stdout.
    with kvfile.named(args.trace):
        text = Path(args.trace).read_text()
    # A row is "%d,%d%s" of its line number, its code and its row end
    # ",gain,channel,saturated\n": one string per pulse count, swapped for
    # its saturated twin at the rows whose code is on a rail (found by
    # C-level `tuple.index` scans). A chunk's three columns, interleaved,
    # are written by one format.
    ends = {pulses: ",%d,%s,0\n" % config for pulses, config in codec.PULSE_COUNT_GAIN.items()}
    saturated = {end: end[:-2] + "1\n" for end in ends.values()}
    try:
        for numbers, codes, pulses in codec.decode_lines(_split_lines(text)):
            row_ends = list(map(ends.__getitem__, pulses))
            for rail in codec.RAILS:
                for i in _indices(codes, rail):
                    row_ends[i] = saturated[row_ends[i]]
            rows = [0] * (3 * len(codes))
            rows[0::3], rows[1::3], rows[2::3] = numbers, codes, row_ends
            sys.stdout.write("%d,%d%s" * len(codes) % tuple(rows))
    except FrameError as exc:
        print(f"{args.trace}:{exc.line_no}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_SAFE


def _indices(values: tuple[int, ...], value: int) -> Iterator[int]:
    """The positions of `value` in `values`, in order."""
    i = -1
    try:
        while True:
            i = values.index(value, i + 1)
            yield i
    except ValueError:
        return


def _split_lines(text: str, size: int = 1 << 16) -> Iterator[str]:
    """The lines of `text.splitlines()`, split from slices of about `size`
    characters that each end after a newline, so that the lines of one
    slice at a time are alive."""

    def slices() -> Iterator[str]:
        pos = 0
        while pos < len(text):
            end = text.find("\n", pos + size) + 1 or len(text)
            yield text[pos:end]
            pos = end

    return chain.from_iterable(map(str.splitlines, slices()))


def _tolerance_rule(args: argparse.Namespace) -> ToleranceRule:
    from .compliance import BUILTIN_RULES, load_tolerance_rules

    rules = load_tolerance_rules(args.rules_file) if args.rules_file else BUILTIN_RULES
    try:
        return rules[(args.jurisdiction, args.kind)]
    except KeyError:
        known = ", ".join(f"{j}/{k}" for j, k in sorted(rules))
        raise WeighSimError(
            f"no tolerance rule for {args.jurisdiction}/{args.kind}; known: {known}"
        ) from None


def _axle_config(args: argparse.Namespace) -> AxleConfiguration:
    from .compliance import AXLE_CONFIGURATIONS, load_axle_table

    table = load_axle_table(args.axle_file) if args.axle_file else AXLE_CONFIGURATIONS
    try:
        return table[args.axle_config]
    except KeyError:
        raise WeighSimError(f"unknown axle configuration {args.axle_config!r}") from None


def _cmd_rules(args: argparse.Namespace) -> int:
    from .compliance import check_compliance, max_permissible_error, within_gvw_limit
    from .record import json_line, to_json

    if args.axle_config:
        config = _axle_config(args)
        if args.total is None:
            raise WeighSimError("--total is required with --axle-config")
        passed = within_gvw_limit(config, args.total)
        print(json_line({"check": "gvw", **to_json(config), "measured_kg": args.total, "passed": passed}))
        return EXIT_SAFE if passed else EXIT_UNSAFE

    if not args.jurisdiction:
        raise WeighSimError("need --jurisdiction (tolerance query) or --axle-config (GVW check)")
    rule = _tolerance_rule(args)
    if args.measured is not None and args.reference is not None:
        result = check_compliance(args.measured, args.reference, rule)
        # the record's tolerance entry, with the margin before `passed`
        entry = {"check": "tolerance", **to_json(result)}
        del entry["passed"]
        print(json_line({**entry, "margin_kg": result.margin_kg, "passed": result.passed}))
        return EXIT_SAFE if result.passed else EXIT_UNSAFE
    if args.capacity is None:
        raise WeighSimError("need --capacity, or --measured with --reference")
    mpe = max_permissible_error(rule, args.capacity)
    query = {"jurisdiction": rule.jurisdiction, "verification_kind": rule.verification_kind}
    print(json_line({**query, "capacity_t": args.capacity, "max_error_kg": mpe}))
    return EXIT_SAFE


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    from .cog import POLICIES

    p.add_argument("scenario", help="scenario text file")
    p.add_argument("--cell-spec", help="load cell spec file (default: ideal 120 kg cell)")
    p.add_argument("--policy", choices=sorted(POLICIES), help="alert policy preset")
    p.add_argument("--config", help="station config file (geometry/policy)")
    p.add_argument("--lcd", action="store_true", help="also print the LCD rendering")
    p.set_defaults(func=_cmd_simulate)


def _calibrate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cell-spec", required=True, help="load cell spec file")
    p.add_argument("--known-mass", type=_finite_float, required=True, help="reference mass in kg")
    p.add_argument("--out", required=True, help="calibration file to write")
    p.add_argument(
        "--samples", type=_int_at_least(1, "a positive integer"), default=16, help="samples averaged per point"
    )
    p.add_argument("--temperature", type=_finite_float, default=25.0, help="ambient °C")
    p.add_argument("--seed", type=_int_at_least(0, "an integer >= 0"), default=0, help="noise seed")
    p.add_argument(
        "--gain", type=int, choices=[128, 64, 32], default=128, help="ADC gain of the frames to weigh (32: channel B)"
    )
    p.set_defaults(func=_cmd_calibrate)


def _weigh_arguments(p: argparse.ArgumentParser) -> None:
    from .cog import DECKS, POLICIES
    from .compliance import JURISDICTIONS

    p.add_argument("--mode", choices=["static", "wim"], required=True)
    p.add_argument("--frames", nargs="+", required=True, help="wire-format frame file(s)")
    p.add_argument("--cal", nargs="+", required=True, help="calibration file per cell, in cell order")
    p.add_argument("--cells", type=int, choices=sorted(DECKS), default=4)
    p.add_argument("--config", help="station config file (geometry/policy)")
    p.add_argument("--policy", choices=sorted(POLICIES))
    p.add_argument("--wheelbase-m", type=_finite_float)
    p.add_argument("--track-m", type=_finite_float)
    p.add_argument("--breadth-m", type=_finite_float)
    p.add_argument("--jurisdiction", choices=JURISDICTIONS)
    p.add_argument("--kind", default="re_verification", help="verification kind for --jurisdiction")
    p.add_argument("--reference", type=_finite_float, help="reference mass (kg) for the tolerance check")
    p.add_argument("--axle-config", help="axle configuration code for the GVW check")
    p.add_argument("--rules-file", help="extra tolerance rules")
    p.add_argument("--axle-file", help="extra axle configurations")
    p.add_argument("--data-dir", help="record directory (default: $WEIGHSIM_DATA_DIR or ./weighsim_records)")
    p.add_argument("--lcd", action="store_true")
    p.set_defaults(func=_cmd_weigh)


def _assess_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("record", help="record id in the store, or a record file path")
    p.add_argument("--record-id", help="pick one id when the argument is a file")
    p.add_argument("--data-dir")
    p.add_argument("--lcd", action="store_true")
    p.set_defaults(func=_cmd_assess)


def _replay_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace", help="trace file, one '0'/'1' line per frame")
    p.set_defaults(func=_cmd_replay)


def _rules_arguments(p: argparse.ArgumentParser) -> None:
    from .compliance import JURISDICTIONS

    p.add_argument("--jurisdiction", choices=JURISDICTIONS)
    p.add_argument("--kind", default="re_verification")
    p.add_argument("--capacity", type=_finite_float, help="capacity/load in tonnes")
    p.add_argument("--measured", type=_finite_float, help="measured mass (kg) for a compliance check")
    p.add_argument("--reference", type=_finite_float, help="reference mass (kg) for a compliance check")
    p.add_argument("--axle-config", help="axle configuration code")
    p.add_argument("--total", type=_finite_float, help="measured total (kg) for the GVW check")
    p.add_argument("--rules-file")
    p.add_argument("--axle-file")
    p.set_defaults(func=_cmd_rules)


#: Each subcommand, in help order: its help line and what adds its arguments.
_COMMANDS = {
    "simulate": ("run a scenario file end to end", _simulate_arguments),
    "calibrate": ("derive a calibration against a modeled cell", _calibrate_arguments),
    "weigh": ("run a weigh session from wire-format frames", _weigh_arguments),
    "assess": ("re-evaluate a stored weigh record", _assess_arguments),
    "replay": ("decode a serial bit-trace file", _replay_arguments),
    "rules": ("tolerance and GVW table queries", _rules_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; with `command`, one in which only
    that subcommand gets its arguments. The top-level help and usage show
    only the subcommands' names and help lines, so parsing an argv that
    starts with `command` prints the same bytes either way."""
    parser = _Parser(prog="weighsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WeighSimError, OSError) as exc:
        print(f"weighsim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> NoReturn:
    """The process entry of `python -m weighsim.cli` and of the `weighsim`
    console script: `main` on `sys.argv`, then exit with its code.

    The process runs without the cyclic garbage collector and freezes its
    heap before it exits. A cold command makes tens of thousands of
    objects, numpy's and its modules', that live until exit, and reference
    counting frees nearly all it discards, so each collection walks live
    objects for next to nothing. The one at exit cost most: after `main`
    returned, a cold 604-line `weigh` took 29-34 ms to exit, and 9 ms with
    the heap frozen (medians of 11, 2-vCPU host, Python 3.11). Output is
    flushed at exit as before. `main(argv)` called in process (tests, the
    benchmark's launcher, library use) leaves the collector as it is.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
