import math

import pytest
from hypothesis import example, given, strategies as st

from weighsim.cog import (
    AlertPolicy,
    DeckGeometry,
    FourCellReading,
    POLICIES,
    assess_four_cell,
    assess_two_cell,
    classify,
    policy,
    render_lcd,
)
from weighsim.errors import InvalidReadingError

GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
P1 = POLICIES["prototype1"]
P2 = POLICIES["prototype2"]

# zero or at least a milligram: subnormal-float "masses" are not physical
masses = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1000.0))


class TestTwoCell:
    def test_total_is_sum(self):
        assert assess_two_cell((0.0, 0.0), GEOM, P1).total_kg == 0.0
        assert assess_two_cell((5.0, 4.5), GEOM, P1).total_kg == 9.5
        assert assess_two_cell((3.2, 1.8), GEOM, P1).total_kg == 5.0

    def test_balanced_offset_is_zero(self):
        geom = DeckGeometry(wheelbase_m=1.0, track_m=1.0, breadth_m=2.0)
        assert assess_two_cell((4.0, 4.0), geom, P1).lateral_offset_m == 0.0

    def test_all_weight_on_left_cell(self):
        geom = DeckGeometry(wheelbase_m=1.0, track_m=1.0, breadth_m=2.0)
        assert assess_two_cell((5.0, 0.0), geom, P1).lateral_offset_m == 1.0

    def test_direct_evaluation(self):
        geom = DeckGeometry(wheelbase_m=1.0, track_m=1.0, breadth_m=0.8)
        assert assess_two_cell((3.0, 1.0), geom, P1).lateral_offset_m == pytest.approx(0.2)

    def test_zero_total_is_undefined(self):
        a = assess_two_cell((0.0, 0.0), GEOM, P1)
        assert a.lateral_offset_m is None
        assert not (a.overloaded or a.left_heavy or a.right_heavy)

    def test_threshold_is_strict(self):
        geom = DeckGeometry(wheelbase_m=1.0, track_m=1.0, breadth_m=0.5)
        assert not assess_two_cell((5.0, 4.5), geom, P1).overloaded
        assert assess_two_cell((5.0, 4.51), geom, P1).overloaded

    def test_negative_reading_rejected(self):
        with pytest.raises(InvalidReadingError, match="^cell left mass must be finite and >= 0, got -0.1$"):
            assess_two_cell((-0.1, 1.0), GEOM, P1)


class TestFourCell:
    def test_uniform_load(self):
        a = assess_four_cell((50.0, 50.0, 50.0, 50.0), GEOM, P2)
        assert a.total_kg == 200.0
        assert a.x_cg_m == pytest.approx(1.0)
        assert a.y_cg_m == pytest.approx(0.75)
        assert a.centreline_offset_m == pytest.approx(0.0)
        assert a.quadrant_pct == (25.0, 25.0, 25.0, 25.0)
        assert not a.overloaded and a.flagged_quadrants == ()
        assert not (a.front_heavy or a.rear_heavy or a.left_heavy or a.right_heavy)

    def test_rear_biased_overload(self):
        a = assess_four_cell((100.0, 100.0, 150.0, 150.0), GEOM, P2)
        assert a.total_kg == 500.0
        assert a.overloaded
        assert a.x_cg_m == pytest.approx(1.2)  # 300 * 2 / 500
        assert a.rear_heavy and not a.front_heavy

    def test_quadrant_flag_and_left_heavy(self):
        a = assess_four_cell((40.0, 10.0, 30.0, 20.0), GEOM, P2)
        assert a.quadrant_pct[0] == pytest.approx(40.0)
        assert a.flagged_quadrants == ("FL",)
        assert a.left_heavy and not a.right_heavy

    def test_overload_threshold_strict(self):
        assert not assess_four_cell((100.0, 100.0, 100.0, 100.0), GEOM, P2).overloaded
        assert assess_four_cell((100.0, 100.0, 100.0, 100.1), GEOM, P2).overloaded

    def test_quadrant_threshold_strict(self):
        at_limit = assess_four_cell((30.0, 30.0, 30.0, 10.0), GEOM, P2)
        assert at_limit.flagged_quadrants == ()
        just_over = assess_four_cell((30.1, 30.0, 29.9, 10.0), GEOM, P2)
        assert just_over.flagged_quadrants == ("FL",)

    def test_zero_total(self):
        a = assess_four_cell((0.0, 0.0, 0.0, 0.0), GEOM, P2)
        assert a.total_kg == 0.0
        assert a.x_cg_m is None and a.y_cg_m is None and a.centreline_offset_m is None
        assert a.quadrant_pct == (0.0, 0.0, 0.0, 0.0)
        assert not a.overloaded and a.flagged_quadrants == ()

    def test_limit_cases(self):
        rear_only = assess_four_cell((0.0, 0.0, 10.0, 30.0), GEOM, P2)
        assert rear_only.x_cg_m == GEOM.wheelbase_m
        front_only = assess_four_cell((10.0, 30.0, 0.0, 0.0), GEOM, P2)
        assert front_only.x_cg_m == 0.0

    def test_negative_reading_rejected(self):
        with pytest.raises(InvalidReadingError, match="^cell RL mass must be finite and >= 0, got -0.5$"):
            FourCellReading(1.0, 1.0, -0.5, 1.0)
        with pytest.raises(InvalidReadingError, match="^cell RL mass"):
            assess_four_cell((1.0, 1.0, -0.5, 1.0), GEOM, P2)

    @given(masses, masses, masses, masses)
    @example(319.4994880988804, 704.5200639178316, 705.300069472294, 0.0)  # 2 ulp apart
    def test_sector_consistency(self, fl, fr, rl, rr):
        a = assess_four_cell((fl, fr, rl, rr), GEOM, P2)
        assert a.front_kg + a.rear_kg == a.total_kg
        # The two groupings T = (fl+fr)+(rl+rr) and S = (fl+rl)+(fr+rr) of four
        # doubles >= 0, rounded to nearest without underflow. Let s be the exact
        # sum, 2**e <= s < 2**(e+1), and q = 2**(e-52) the ulp of that binade.
        # - The pair sums are each <= s, so each rounds by at most q/2; they
        #   cannot both be >= 2**e, so one rounds by at most q/4: 3q/4 together.
        # - Rounding the final sum adds at most q/2. So each grouping lies
        #   within 5q/4 of s, and one below 2**e (spacing q/2) within q.
        # - If S and T are both >= 2**e they are multiples of q, and
        #   |S - T| <= 5q/2 gives <= 2q. If one is below, |S - T| <= 9q/4 is a
        #   multiple of q/2, so again <= 2q. If both are below, |S - T| < q.
        # In every case |S - T| <= 2 ulp(max(S, T)), and the example reaches it.
        lr_total = a.left_kg + a.right_kg
        assert abs(lr_total - a.total_kg) <= 2 * math.ulp(max(lr_total, a.total_kg))

    @given(masses, masses, masses, masses)
    def test_percentages_sum_to_100(self, fl, fr, rl, rr):
        a = assess_four_cell((fl, fr, rl, rr), GEOM, P2)
        if a.total_kg > 0:
            assert abs(sum(a.quadrant_pct) - 100.0) <= 1e-9

    @given(masses, masses, masses, masses)
    def test_cog_bounds(self, fl, fr, rl, rr):
        a = assess_four_cell((fl, fr, rl, rr), GEOM, P2)
        if a.total_kg > 0:
            assert 0.0 <= a.x_cg_m <= GEOM.wheelbase_m
            assert 0.0 <= a.y_cg_m <= GEOM.track_m

    @given(masses, masses, masses, masses, st.integers(min_value=-8, max_value=8))
    def test_scale_equivariance_exact_for_pow2(self, fl, fr, rl, rr, exp):
        # power-of-two scaling is exact in binary float, so everything but
        # the overload flag must be bit-identical
        k = 2.0**exp
        a = assess_four_cell((fl, fr, rl, rr), GEOM, P2)
        b = assess_four_cell((k * fl, k * fr, k * rl, k * rr), GEOM, P2)
        assert b.quadrant_pct == a.quadrant_pct
        assert b.x_cg_m == a.x_cg_m and b.y_cg_m == a.y_cg_m
        assert (b.front_heavy, b.rear_heavy, b.left_heavy, b.right_heavy) == (
            a.front_heavy, a.rear_heavy, a.left_heavy, a.right_heavy,
        )
        assert b.flagged_quadrants == a.flagged_quadrants
        assert b.overloaded == (b.total_kg > P2.overload_threshold_kg)

    @given(masses, masses, masses, masses)
    def test_two_cell_four_cell_consistency(self, fl, fr, rl, rr):
        # collapsing to (left, right) with breadth == track puts the
        # two-cell centreline offset exactly at y_cg - track/2
        a = assess_four_cell((fl, fr, rl, rr), GEOM, P2)
        if a.total_kg == 0:
            return
        offset = assess_two_cell((fl + rl, fr + rr), GEOM, P2).lateral_offset_m
        assert offset == pytest.approx(a.y_cg_m - GEOM.track_m / 2, abs=1e-9)


class TestClassify:
    def test_safe(self):
        a = assess_four_cell((50.0, 50.0, 50.0, 50.0), GEOM, P2)
        assert classify(a, P2) == ["SAFE"]

    def test_overload_only(self):
        a = assess_four_cell((125.0, 125.0, 125.0, 125.0), GEOM, P2)
        assert classify(a, P2) == ["OVERLOAD total=500.00kg limit=400.00kg"]

    def test_two_quadrants_in_fixed_order(self):
        a = assess_four_cell((40.0, 40.0, 15.0, 5.0), GEOM, P2)
        assert classify(a, P2) == [
            "IMBALANCE FL=40.0% limit=30.0%",
            "IMBALANCE FR=40.0% limit=30.0%",
            "FRONT-HEAVY",
            "LEFT-HEAVY",
        ]

    def test_two_cell_lines(self):
        geom = DeckGeometry(wheelbase_m=1.0, track_m=1.0, breadth_m=0.5)
        a = assess_two_cell((6.0, 4.0), geom, P1)
        assert classify(a, P1) == [
            "OVERLOAD total=10.00kg limit=9.50kg",
            "LEFT-HEAVY",
        ]

    def test_stable_across_runs(self):
        a = assess_four_cell((40.0, 10.0, 30.0, 20.0), GEOM, P2)
        assert classify(a, P2) == classify(a, P2)


def test_render_lcd_contains_sections():
    a = assess_four_cell((100.0, 100.0, 150.0, 150.0), GEOM, P2)
    text = render_lcd(a, P2)
    for token in ("TOTAL", "COG", "FRONT", "LEFT", "SHARE", "OVERLOAD"):
        assert token in text


def test_policy_presets():
    assert POLICIES["prototype1"].overload_threshold_kg == 9.5
    assert POLICIES["prototype2"].overload_threshold_kg == 400.0
    assert POLICIES["prototype2"].quadrant_threshold_pct == 30.0
    with pytest.raises(ValueError):
        policy("prototype3")


def test_geometry_validation():
    assert DeckGeometry(2.0, 1.5).breadth_m == 1.5
    with pytest.raises(ValueError):
        DeckGeometry(0.0, 1.5)
    with pytest.raises(ValueError):
        AlertPolicy(overload_threshold_kg=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_geometry_and_policy_are_rejected(value):
    # nan <= 0 is False, so a plain sign check let these through
    for name in ("wheelbase_m", "track_m", "breadth_m"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DeckGeometry(**{"wheelbase_m": 2.0, "track_m": 1.5, name: value})
    with pytest.raises(ValueError, match="overload threshold must be finite"):
        AlertPolicy(overload_threshold_kg=value)
    with pytest.raises(ValueError, match="quadrant threshold must be finite"):
        AlertPolicy(overload_threshold_kg=400.0, quadrant_threshold_pct=value)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cell", range(4))
def test_non_finite_four_cell_mass_is_rejected(cell, value):
    # a NaN passed the old `< 0` check and assessed as SAFE
    masses = [1.0, 1.0, 1.0, 1.0]
    masses[cell] = value
    message = f"^cell {('FL', 'FR', 'RL', 'RR')[cell]} mass must be finite and >= 0, got {value}$"
    with pytest.raises(InvalidReadingError, match=message):
        assess_four_cell(masses, GEOM, P2)
    with pytest.raises(InvalidReadingError, match=message):
        FourCellReading(*masses)


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_two_cell_mass_is_rejected(value):
    with pytest.raises(InvalidReadingError, match=f"^cell right mass must be finite and >= 0, got {value}$"):
        assess_two_cell((1.0, value), GEOM, P1)
    with pytest.raises(InvalidReadingError, match="^cell left mass"):
        assess_two_cell((value, 1.0), GEOM, P1)


@pytest.mark.parametrize("assess, count", [(assess_two_cell, 2), (assess_four_cell, 4)])
@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_cell_count_is_a_value_error(assess, count, extra):
    with pytest.raises(ValueError, match=f"^need {count} cell masses, got {count + extra}$"):
        assess((1.0,) * (count + extra), GEOM, P2)


def test_negative_zero_mass_is_accepted():
    assert assess_four_cell((-0.0, 0.0, 0.0, 0.0), GEOM, P2).total_kg == 0.0
    assert assess_two_cell((-0.0, 1.0), GEOM, P1).right_heavy
