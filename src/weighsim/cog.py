"""Deck mathematics: totals, centre of gravity, sector splits, alerts.

Two deck configurations are supported:

* two cells, left/right, spaced the deck breadth apart: total weight and
  the lateral CoG offset from the centreline;
* four cells, one per corner: total weight, longitudinal and lateral CoG,
  front/rear/left/right sector weights, per-quadrant percentage shares and
  alert flags.

Coordinate conventions (fixed package-wide):

    x   longitudinal, metres from the front cell line, rearward positive
    y   lateral, metres from the RIGHT cell line, leftward positive

So x_cg ∈ [0, wheelbase] and y_cg ∈ [0, track]. y_cg is deliberately kept
in that wheel-line-origin form; callers wanting a signed distance from the
vehicle centreline (positive = left-biased) should read
`centreline_offset_m = y_cg - track/2`, which is exposed on the
assessment and equals the two-cell lateral offset when breadth == track.

Threshold comparisons are strict: a total exactly at the overload limit or
a quadrant exactly at the share limit does NOT raise a flag; heaviness on
an axis likewise needs a strict majority (ties report balanced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import InvalidReadingError, require_positive

QUADRANT_NAMES = ("FL", "FR", "RL", "RR")


@dataclass(frozen=True)
class DeckGeometry:
    """Cell spacing of the deck.

    wheelbase_m  front-to-rear cell distance
    track_m      left-to-right cell distance (four-cell deck)
    breadth_m    left-to-right spacing of the two-cell deck; defaults to
                 the track when omitted
    """

    wheelbase_m: float
    track_m: float
    breadth_m: float | None = None

    def __post_init__(self) -> None:
        if self.breadth_m is None:
            object.__setattr__(self, "breadth_m", self.track_m)
        for name in ("wheelbase_m", "track_m", "breadth_m"):
            require_positive(name, getattr(self, name))


def _check_masses(masses: Sequence[float], names: tuple[str, ...]) -> None:
    """Raise unless `masses` holds one mass per cell of `names`, each finite and >= 0."""
    if len(masses) != len(names):
        raise ValueError(f"need {len(names)} cell masses, got {len(masses)}")
    for name, mass in zip(names, masses):
        if not 0.0 <= mass < math.inf:  # NaN fails both comparisons
            raise InvalidReadingError(f"cell {name} mass must be finite and >= 0, got {mass}")


@dataclass(frozen=True)
class FourCellReading:
    """Masses in kg per corner (FL, FR, RL, RR): a scenario's curb weights or its `corner_loads`."""

    fl_kg: float
    fr_kg: float
    rl_kg: float
    rr_kg: float

    def __post_init__(self) -> None:
        _check_masses(self.as_tuple(), QUADRANT_NAMES)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.fl_kg, self.fr_kg, self.rl_kg, self.rr_kg)


@dataclass(frozen=True)
class AlertPolicy:
    """Alert thresholds. Both comparisons are strict (> flags, == does not)."""

    overload_threshold_kg: float
    quadrant_threshold_pct: float = 30.0

    def __post_init__(self) -> None:
        require_positive("overload threshold", self.overload_threshold_kg)
        require_positive("quadrant threshold", self.quadrant_threshold_pct)


#: Named threshold presets. The two-cell deck used 5 kg cells and alerted
#: above 9.5 kg; the four-cell deck used 120 kg cells and alerted above
#: 400 kg with a 30 % per-quadrant share limit.
POLICIES = {
    "prototype1": AlertPolicy(overload_threshold_kg=9.5),
    "prototype2": AlertPolicy(overload_threshold_kg=400.0, quadrant_threshold_pct=30.0),
}


def policy(name: str) -> AlertPolicy:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(POLICIES)}") from None


@dataclass(frozen=True)
class LoadAssessment:
    """Result of one four-cell weighing.

    CoG fields are None when the total weight is zero (undefined rather
    than NaN). quadrant_pct is in FL, FR, RL, RR order and sums to 100
    when the total is positive.
    """

    total_kg: float
    x_cg_m: float | None
    y_cg_m: float | None
    centreline_offset_m: float | None
    front_kg: float
    rear_kg: float
    left_kg: float
    right_kg: float
    quadrant_pct: tuple[float, float, float, float]
    overloaded: bool
    flagged_quadrants: tuple[str, ...]
    front_heavy: bool
    rear_heavy: bool
    left_heavy: bool
    right_heavy: bool


@dataclass(frozen=True)
class TwoCellAssessment:
    """Result of one two-cell weighing. Offset is None at zero total."""

    total_kg: float
    lateral_offset_m: float | None
    overloaded: bool
    left_heavy: bool
    right_heavy: bool


def assess_two_cell(masses: Sequence[float], geom: DeckGeometry, policy: AlertPolicy) -> TwoCellAssessment:
    """Two-cell assessment of the (left, right) masses. The lateral CoG offset
    from the centreline, positive toward the left cell, is

        offset = (left - right) / total * breadth / 2
    """
    _check_masses(masses, ("left", "right"))
    left, right = masses
    total = left + right
    return TwoCellAssessment(
        total_kg=total,
        lateral_offset_m=(left - right) / total * (geom.breadth_m / 2.0) if total > 0 else None,
        overloaded=total > policy.overload_threshold_kg,
        left_heavy=left > right,
        right_heavy=right > left,
    )


def assess_four_cell(masses: Sequence[float], geom: DeckGeometry, policy: AlertPolicy) -> LoadAssessment:
    """Full four-cell assessment of the (FL, FR, RL, RR) masses.

        x_cg = (rear sum)  * wheelbase / total    (0 = front cell line)
        y_cg = (left sum)  * track     / total    (0 = right cell line)
        quadrant share_i = w_i * 100 / total

    The total is formed from the front/rear sector sums so that the
    front+rear identity holds bit-exactly; the left/right grouping agrees
    to within 2 units in the last place.
    """
    _check_masses(masses, QUADRANT_NAMES)
    fl, fr, rl, rr = masses
    front = fl + fr
    rear = rl + rr
    left = fl + rl
    right = fr + rr
    total = front + rear

    if total > 0:
        # multiply before dividing: keeps shares exact at round thresholds
        pct = tuple(w * 100.0 / total for w in masses)
        x_cg = min(max(rear * geom.wheelbase_m / total, 0.0), geom.wheelbase_m)
        y_cg = min(max(left * geom.track_m / total, 0.0), geom.track_m)
        centreline = y_cg - geom.track_m / 2.0
        flagged = tuple(
            name
            for name, share in zip(QUADRANT_NAMES, pct)
            if share > policy.quadrant_threshold_pct
        )
    else:
        pct = (0.0, 0.0, 0.0, 0.0)
        x_cg = y_cg = centreline = None
        flagged = ()

    return LoadAssessment(
        total_kg=total,
        x_cg_m=x_cg,
        y_cg_m=y_cg,
        centreline_offset_m=centreline,
        front_kg=front,
        rear_kg=rear,
        left_kg=left,
        right_kg=right,
        quadrant_pct=pct,
        overloaded=total > policy.overload_threshold_kg,
        flagged_quadrants=flagged,
        front_heavy=front > rear,
        rear_heavy=rear > front,
        left_heavy=left > right,
        right_heavy=right > left,
    )


class Deck(NamedTuple):
    """What differs between the two-cell and the four-cell deck."""

    kind: str  # the record's assessment "kind"
    assessment: type
    assess: Callable


#: The deck of each cell count.
DECKS = {
    2: Deck("two_cell", TwoCellAssessment, assess_two_cell),
    4: Deck("four_cell", LoadAssessment, assess_four_cell),
}


def assess(
    masses: Sequence[float], geom: DeckGeometry, policy: AlertPolicy
) -> LoadAssessment | TwoCellAssessment:
    """Assessment of the deck with one cell per mass, masses in cell order."""
    if len(masses) not in DECKS:
        raise ValueError(f"cell count must be one of {sorted(DECKS)}, got {len(masses)}")
    return DECKS[len(masses)].assess(masses, geom, policy)


def is_unsafe(assessment: LoadAssessment | TwoCellAssessment) -> bool:
    """True when the assessment raises an overload or a quadrant flag."""
    return assessment.overloaded or bool(getattr(assessment, "flagged_quadrants", ()))


def classify(assessment: LoadAssessment | TwoCellAssessment, policy: AlertPolicy) -> list[str]:
    """Render raised flags as stable text lines (the LCD alert area).

    Exactly ["SAFE"] when no flag at all is raised. Otherwise one line per
    flag: OVERLOAD first, then IMBALANCE per quadrant in FL, FR, RL, RR
    order, then axis heaviness. The format is frozen for golden-file
    comparison.
    """
    lines: list[str] = []
    if assessment.overloaded:
        lines.append(
            f"OVERLOAD total={assessment.total_kg:.2f}kg"
            f" limit={policy.overload_threshold_kg:.2f}kg"
        )
    if isinstance(assessment, LoadAssessment):
        for name, share in zip(QUADRANT_NAMES, assessment.quadrant_pct):
            if name in assessment.flagged_quadrants:
                lines.append(
                    f"IMBALANCE {name}={share:.1f}% limit={policy.quadrant_threshold_pct:.1f}%"
                )
        if assessment.front_heavy:
            lines.append("FRONT-HEAVY")
        if assessment.rear_heavy:
            lines.append("REAR-HEAVY")
    if assessment.left_heavy:
        lines.append("LEFT-HEAVY")
    if assessment.right_heavy:
        lines.append("RIGHT-HEAVY")
    if not lines:
        lines.append("SAFE")
    return lines


def render_lcd(assessment: LoadAssessment | TwoCellAssessment, policy: AlertPolicy) -> str:
    """Multi-line human rendering: totals, CoG, sectors, then alert lines."""
    out: list[str] = [f"TOTAL  {assessment.total_kg:9.2f} kg"]
    if isinstance(assessment, LoadAssessment):
        if assessment.x_cg_m is not None:
            out.append(
                f"COG    x={assessment.x_cg_m:.3f}m y={assessment.y_cg_m:.3f}m"
                f" (centreline {assessment.centreline_offset_m:+.3f}m)"
            )
        else:
            out.append("COG    undefined (zero load)")
        out.append(f"FRONT  {assessment.front_kg:9.2f} kg  REAR   {assessment.rear_kg:9.2f} kg")
        out.append(f"LEFT   {assessment.left_kg:9.2f} kg  RIGHT  {assessment.right_kg:9.2f} kg")
        pct = assessment.quadrant_pct
        out.append(
            f"SHARE  FL {pct[0]:5.1f}%  FR {pct[1]:5.1f}%  RL {pct[2]:5.1f}%  RR {pct[3]:5.1f}%"
        )
    else:
        if assessment.lateral_offset_m is not None:
            out.append(f"COG    centreline {assessment.lateral_offset_m:+.3f}m")
        else:
            out.append("COG    undefined (zero load)")
    out.extend(classify(assessment, policy))
    return "\n".join(out)
