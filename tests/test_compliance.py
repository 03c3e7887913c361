import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weighsim.compliance import (
    AXLE_CONFIGURATIONS,
    AxleConfiguration,
    BUILTIN_RULES,
    KENYA_FIRST_TIME,
    KENYA_REVERIFICATION,
    NZ_BAND,
    STATIC_WINDOW_S,
    ToleranceRule,
    US_HANDBOOK44,
    check_compliance,
    load_axle_table,
    load_tolerance_rules,
    max_permissible_error,
    mean,
    simulate_weigh_stream,
    static_weigh,
    static_window,
    wim_weigh,
    within_gvw_limit,
)
from weighsim.errors import (
    ConfigError,
    IncompleteStationError,
    InsufficientDurationError,
    InvalidSeedError,
    InvalidValueError,
    NoVehicleError,
    UncoveredCapacityError,
)


class TestToleranceFigures:
    def test_kenya_reverification_anchors(self):
        assert max_permissible_error(KENYA_REVERIFICATION, 80.0) == 20.0
        assert max_permissible_error(KENYA_REVERIFICATION, 400.0) == 80.0

    def test_kenya_first_time_anchors(self):
        assert max_permissible_error(KENYA_FIRST_TIME, 80.0) == 10.0
        assert max_permissible_error(KENYA_FIRST_TIME, 400.0) == 40.0

    def test_nz_flat_band(self):
        assert max_permissible_error(NZ_BAND, 10.0) == 40.0
        assert max_permissible_error(NZ_BAND, 25.0) == 40.0
        assert max_permissible_error(NZ_BAND, 40.0) == 40.0

    def test_us_percent_of_load(self):
        assert max_permissible_error(US_HANDBOOK44, 40.0) == pytest.approx(40.0)
        assert max_permissible_error(US_HANDBOOK44, 10.0) == pytest.approx(10.0)

    def test_kenya_linear_interpolation(self):
        # halfway between the anchors
        assert max_permissible_error(KENYA_REVERIFICATION, 240.0) == pytest.approx(50.0)
        assert max_permissible_error(KENYA_FIRST_TIME, 240.0) == pytest.approx(25.0)

    def test_uncovered_capacity(self):
        with pytest.raises(UncoveredCapacityError):
            max_permissible_error(KENYA_REVERIFICATION, 79.9)
        with pytest.raises(UncoveredCapacityError):
            max_permissible_error(KENYA_REVERIFICATION, 400.1)
        with pytest.raises(UncoveredCapacityError):
            max_permissible_error(NZ_BAND, 41.0)
        with pytest.raises(UncoveredCapacityError):
            max_permissible_error(US_HANDBOOK44, 0.0)

    @pytest.mark.parametrize("rule", [KENYA_REVERIFICATION, NZ_BAND, US_HANDBOOK44], ids=["anchors", "band", "percent"])
    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_a_non_finite_load_is_uncovered_by_every_rule_shape(self, rule, load):
        # the percent-of-load rule returned nan for nan and inf for inf
        with pytest.raises(UncoveredCapacityError):
            max_permissible_error(rule, load)

    @pytest.mark.parametrize("load", [0.0, -1.0, float("nan"), float("inf")])
    def test_percent_of_load_names_the_refused_load(self, load):
        with pytest.raises(UncoveredCapacityError, match=f"^load must be > 0 t, got {load}$"):
            max_permissible_error(US_HANDBOOK44, load)

    @given(st.floats(min_value=80.0, max_value=400.0, allow_nan=False), st.floats(min_value=0.0, max_value=1.0))
    def test_kenya_monotone_in_capacity(self, cap, frac):
        higher = cap + frac * (400.0 - cap)
        assert max_permissible_error(KENYA_REVERIFICATION, cap) <= max_permissible_error(
            KENYA_REVERIFICATION, higher
        )

    def test_builtin_lookup(self):
        assert BUILTIN_RULES[("Kenya", "re_verification")] is KENYA_REVERIFICATION
        assert ("Kenya", "acceptance") not in BUILTIN_RULES


class TestCheckCompliance:
    def test_exact_match_has_full_margin(self):
        r = check_compliance(80_000.0, 80_000.0, KENYA_REVERIFICATION)
        assert r.passed and r.error_kg == 0.0 and r.margin_kg == 20.0

    def test_boundary_inclusive(self):
        assert check_compliance(80_020.0, 80_000.0, KENYA_REVERIFICATION).passed

    def test_just_past_boundary_fails(self):
        r = check_compliance(80_020.1, 80_000.0, KENYA_REVERIFICATION)
        assert not r.passed
        assert r.margin_kg == pytest.approx(-0.1)

    def test_reference_must_be_positive(self):
        with pytest.raises(ValueError):
            check_compliance(100.0, 0.0, KENYA_REVERIFICATION)

    @pytest.mark.parametrize("measured", [-5.0, -1e308, np.nan, np.inf, -np.inf])
    def test_measured_must_be_finite_and_not_negative(self, measured):
        # -5 kg was scored as a failed check; -1e308 gave an infinite error
        message = re.escape(f"measured mass must be finite and >= 0, got {measured}")
        with pytest.raises(InvalidValueError, match=f"^{message}$"):
            check_compliance(measured, 1e308, US_HANDBOOK44)
        assert check_compliance(0.0, 100.0, US_HANDBOOK44).error_kg == 100.0


class TestGvw:
    def test_two_axle_configurations(self):
        assert within_gvw_limit(AXLE_CONFIGURATIONS["2"], 17_000.0)
        assert within_gvw_limit(AXLE_CONFIGURATIONS["2"], 18_000.0)
        assert not within_gvw_limit(AXLE_CONFIGURATIONS["2A"], 18_001.0)

    def test_seven_axle_inclusive(self):
        assert within_gvw_limit(AXLE_CONFIGURATIONS["7"], 56_000.0)
        assert not within_gvw_limit(AXLE_CONFIGURATIONS["7"], 56_000.5)

    @pytest.mark.parametrize("total", [float("nan"), float("inf"), -1.0])
    def test_total_must_be_finite_and_not_negative(self, total):
        # NaN read as "exceeds the limit", -1 kg as "within it"
        message = re.escape(f"measured total must be finite and >= 0, got {total}")
        with pytest.raises(InvalidValueError, match=f"^{message}$"):
            within_gvw_limit(AXLE_CONFIGURATIONS["2"], total)

    def test_table_contents(self):
        assert AXLE_CONFIGURATIONS["2"].gvw_limit_kg == 18_000
        assert AXLE_CONFIGURATIONS["2A"].gvw_limit_kg == 18_000
        assert AXLE_CONFIGURATIONS["6A"].gvw_limit_kg == 56_000
        assert AXLE_CONFIGURATIONS["7"].gvw_limit_kg == 56_000
        assert AXLE_CONFIGURATIONS["7"].axle_count == 7

    def test_table_extension_from_file(self, tmp_path):
        path = tmp_path / "axles.cfg"
        path.write_text("9 = 9, 62000\n2 = 2, 17500\n")
        table = load_axle_table(path)
        assert table["9"].gvw_limit_kg == 62_000
        assert table["2"].gvw_limit_kg == 17_500  # override
        assert table["7"].gvw_limit_kg == 56_000  # builtin kept


def test_rules_extension_from_file(tmp_path):
    path = tmp_path / "rules.cfg"
    path.write_text(
        "Kenya/acceptance = anchors 80:15 400:60\n"
        "NewZealand/first_time = band 5:50 30\n"
        "US/first_time = percent 0.2\n"
    )
    rules = load_tolerance_rules(path)
    assert max_permissible_error(rules[("Kenya", "acceptance")], 80.0) == 15.0
    assert max_permissible_error(rules[("NewZealand", "first_time")], 20.0) == 30.0
    assert max_permissible_error(rules[("US", "first_time")], 10.0) == pytest.approx(20.0)
    assert ("Kenya", "re_verification") in rules


@pytest.mark.parametrize(
    "line, message",
    [
        # each used to exit 1 with "list index out of range"
        ("NewZealand/first_time = band 5:50", "bad rule 'NewZealand/first_time': 'band 5:50' has no max_error_kg"),
        ("Kenya/first_time = anchors 80", "bad rule 'Kenya/first_time': anchor '80' has no kg"),
        # used to be taken as `percent 0.2`, `junk` ignored
        ("US/acceptance = percent 0.2 junk", "bad rule 'US/acceptance': 'percent 0.2 junk' has an extra part 'junk'"),
        ("Kenya/first_time = anchors 80:10 400:40:5", "bad rule 'Kenya/first_time': anchor '400:40:5' has an extra part '5'"),
        ("NewZealand/first_time = band 5 30", "bad rule 'NewZealand/first_time': band '5' has no high"),
        ("NewZealand/first_time = band 5:50 30 1", "bad rule 'NewZealand/first_time': 'band 5:50 30 1' has an extra part '1'"),
        ("US/acceptance = percent", "bad rule 'US/acceptance': 'percent' has no percent"),
    ],
)
def test_a_rule_with_a_part_missing_or_left_over(tmp_path, line, message):
    path = tmp_path / "rules.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_tolerance_rules(path)


def test_rule_validation():
    with pytest.raises(ValueError):
        ToleranceRule("Kenya", "acceptance")  # no shape at all
    with pytest.raises(ValueError):
        ToleranceRule("Kenya", "acceptance", anchor_points_t_kg=((80.0, 20.0),), percent_of_load=0.1)
    with pytest.raises(ValueError):
        ToleranceRule("Kenya", "acceptance", anchor_points_t_kg=((400.0, 20.0), (80.0, 10.0)))
    with pytest.raises(ValueError):
        ToleranceRule("Elsewhere", "acceptance", percent_of_load=0.001)


TIMES_S = np.arange(151) * 0.1


class TestStaticWeigh:
    def test_constant_stream(self):
        assert static_weigh(TIMES_S, np.full(151, 500.0)) == 500.0

    def test_alternating_symmetric_mean(self):
        # 150 samples inside the trailing 15 s window, half 499, half 501
        assert static_weigh(TIMES_S, np.where(np.arange(151) % 2, 499.0, 501.0)) == 500.0

    def test_noisy_stream_statistical_oracle(self):
        rng = np.random.default_rng(99)
        masses = np.array([500.0 + rng.normal(0.0, 1.0) for _ in range(151)])
        assert abs(static_weigh(TIMES_S, masses) - 500.0) <= 3.0 / np.sqrt(150)

    def test_short_stream_rejected(self):
        with pytest.raises(InsufficientDurationError):
            static_weigh(TIMES_S[:100], np.full(100, 500.0))  # 9.9 s
        with pytest.raises(InsufficientDurationError):
            static_weigh(np.array([]), np.array([]))

    def test_window_is_half_open(self):
        # times 0 to 18.75 s: the sample at exactly t_end - 15 s = 3.75 s is left out
        times = np.arange(151) * 0.125
        assert static_weigh(times, np.where(times <= 3.75, 1000.0, 500.0)) == 500.0

    @pytest.mark.parametrize("index", [0, 75, 150])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_time_that_is_not_finite_is_named(self, index, bad):
        # a first time of NaN or -inf read 500.0, leaving out the 1,000 kg
        # sample at it, and a NaN time in the middle dropped its sample
        times, masses = TIMES_S.copy(), np.full(151, 500.0)
        times[index], masses[index] = bad, 1000.0
        with pytest.raises(InvalidValueError, match=rf"^time {bad} at index {index} is not finite$"):
            static_weigh(times, masses)

    @pytest.mark.parametrize("index", [0, 150])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_mass_that_is_not_finite_is_named(self, index, bad):
        # a NaN mass read nan
        masses = np.full(151, 500.0)
        masses[index] = bad
        with pytest.raises(InvalidValueError, match=rf"^mass {bad} at index {index} is not finite$"):
            static_weigh(TIMES_S, masses)

    def test_a_time_before_the_one_ahead_of_it_is_named(self):
        # a stream out of time order used to be scanned for its window
        times = TIMES_S.copy()
        times[41] = 3.5
        with pytest.raises(InvalidValueError, match=r"^time 3\.5 at index 41 is before time 4\.0 at 40$"):
            static_weigh(times, np.full(151, 500.0))

    def test_columns_of_two_lengths_are_refused(self):
        # the masses past the times' count were left out of the mean
        with pytest.raises(InvalidValueError, match="^151 times for 152 masses$"):
            static_weigh(TIMES_S, np.full(152, 500.0))


@st.composite
def edge_streams(draw):
    """Sorted integer-ms times clustered within a few ms of the window's
    edge, the last time less 15 s; the first sits on that edge or a few ms
    before it, so the stream spans about 15 s or more. Times run up to
    2**62 ms, where a float of them would round. Then an end at the last
    time or after it, at times a few ms from where the window holds none."""
    end = draw(st.one_of(st.integers(0, 10**6), st.integers(-(2**62), 2**62)))
    edge = end - 15_000
    times = draw(st.lists(st.one_of(st.integers(edge - 3, edge + 3), st.integers(edge - 30_000, end)), max_size=40))
    after = draw(st.one_of(st.just(0), st.integers(14_997, 15_003), st.integers(0, 40_000)))
    return sorted([draw(st.integers(edge - 3, edge)), *times, end]), end + after


def window_or_error(times, end=None):
    """The index at which `static_window`'s 15 s window of integer-ms
    `times` starts, as a weighing finds it, or its error."""
    try:
        return static_window(times, STATIC_WINDOW_S * 1000, end)
    except (InsufficientDurationError, IncompleteStationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(edge_streams())
@example(([0, 15_000], 15_000)).via("exactly 15 s")
@example(([1_400, 16_400], 16_400)).via("exactly 15 s, from 1.4 s")
@example(([0, 15_000], 30_000)).via("a window that ends 15 s after the last time")
def test_bisected_window_is_the_scanned_window(stream):
    # The scan the bisection must equal: each integer time compared exactly
    # with the end less the window, none converted to seconds.
    times_ms, end = stream
    if end - times_ms[-1] >= 15_000:
        scanned = IncompleteStationError, f"no time in the window ({end} - 15000.0, {end}]"
    elif times_ms[-1] - times_ms[0] < 15_000:
        scanned = InsufficientDurationError, f"stream spans {times_ms[-1] - times_ms[0]}, static weighing needs 15000.0"
    else:
        scanned = [i for i, t in enumerate(times_ms) if t > end - 15_000][0]
    assert window_or_error(times_ms, end) == scanned


def test_a_stream_of_exactly_15_s_leaves_its_first_sample_out():
    assert window_or_error([1_000, 1_000, 1_001, 16_000]) == 2


class TestWimWeigh:
    def test_zero_noise_matches_static(self):
        static_stream = simulate_weigh_stream(500.0, "static", 0.0, seed=1)
        _, wim_masses = simulate_weigh_stream(500.0, "wim", 0.0, seed=1)
        assert wim_weigh(wim_masses)[0] == static_weigh(*static_stream) == 500.0

    def test_empty_segment(self):
        with pytest.raises(NoVehicleError):
            wim_weigh(np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_mass_that_is_not_finite_is_named(self, bad):
        # wim_weigh([1.0, nan]) returned (nan, nan)
        with pytest.raises(InvalidValueError, match=rf"^mass {bad} at index 1 is not finite$"):
            wim_weigh([1.0, bad])

    def test_seeded_determinism(self):
        a = wim_weigh(simulate_weigh_stream(500.0, "wim", 1.0, seed=7)[1])
        b = wim_weigh(simulate_weigh_stream(500.0, "wim", 1.0, seed=7)[1])
        assert a == b

    def test_wim_variance_exceeds_static(self):
        # paired-simulation oracle: same vehicle, same seed family
        _, static_masses = simulate_weigh_stream(500.0, "static", 1.0, seed=3)
        _, wim_masses = simulate_weigh_stream(500.0, "wim", 1.0, seed=3)
        static_var = float(np.var(static_masses, ddof=1))
        _, wim_var = wim_weigh(wim_masses)
        assert wim_var > static_var

    def test_static_beats_wim_over_paired_runs(self):
        static_errs, wim_errs = [], []
        for seed in range(100):
            true = 400.0 + 200.0 * (seed % 7)
            static_errs.append(abs(static_weigh(*simulate_weigh_stream(true, "static", 1.0, seed)) - true))
            _, wim_masses = simulate_weigh_stream(true, "wim", 1.0, seed + 10_000)
            wim_errs.append(abs(wim_weigh(wim_masses)[0] - true))
        assert np.mean(static_errs) < np.mean(wim_errs)


def test_simulate_stream_rejects_unknown_mode():
    with pytest.raises(ValueError):
        simulate_weigh_stream(1.0, "rolling", 0.0, seed=0)


@pytest.mark.parametrize("mode", ["static", "wim"])
@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_simulate_stream_rejects_a_bad_noise_sigma(mode, sigma):
    # NaN and -1.0 gave a noise-free stream (static_weigh exactly 500.0)
    with pytest.raises(ValueError, match=rf"^noise_sigma_kg must be finite and >= 0, got {sigma}$"):
        simulate_weigh_stream(500.0, mode, sigma, seed=1)


@pytest.mark.parametrize("mode", ["static", "wim"])
@pytest.mark.parametrize("mass", [float("nan"), float("inf"), -5.0])
def test_simulate_stream_rejects_a_bad_true_mass(mode, mass):
    # each gave a stream of that mass: static_weigh read nan, inf and about -5.08 kg
    with pytest.raises(InvalidValueError, match=rf"^true_mass_kg must be finite and >= 0, got {mass}$"):
        simulate_weigh_stream(mass, mode, 1.0, seed=1)


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_simulate_stream_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # -1 raised numpy's untyped ValueError, 1.5 a TypeError, and True seeded 1
    with pytest.raises(InvalidSeedError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
        simulate_weigh_stream(500.0, "static", 1.0, seed)


def test_simulate_stream_takes_a_numpy_integer_seed():
    _, masses = simulate_weigh_stream(500.0, "static", 1.0, np.int64(3))
    assert np.array_equal(masses, simulate_weigh_stream(500.0, "static", 1.0, 3)[1])
    assert len(simulate_weigh_stream(500.0, "wim", 1.0, np.uint64(2**64 - 1))[0]) > 0


NAN = float("nan")


def test_axle_configuration_rejects_nan():
    with pytest.raises(ValueError, match="^GVW limit must be finite, got nan"):
        AxleConfiguration("9", axle_count=9, gvw_limit_kg=NAN)


@pytest.mark.parametrize(
    "shape",
    [
        {"anchor_points_t_kg": ((NAN, 20.0), (400.0, 80.0))},
        {"anchor_points_t_kg": ((80.0, NAN), (400.0, 80.0))},
        {"band_t": (10.0, 40.0), "band_error_kg": NAN},
        {"band_t": (NAN, 40.0), "band_error_kg": 40.0},
        {"band_t": (10.0, NAN), "band_error_kg": 40.0},
        {"percent_of_load": NAN},
    ],
)
def test_tolerance_rule_rejects_nan(shape):
    # each was accepted: a NaN anchor or band bound left every load uncovered,
    # a NaN error or percent failed every check
    with pytest.raises(ValueError, match="nan"):
        ToleranceRule("US", "acceptance", **shape)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ToleranceRule("NewZealand", "acceptance", band_t=(10.0, 40.0)), "band rules need band_error_kg"),
        (
            lambda: ToleranceRule("US", "annual", percent_of_load=0.001),
            "verification kind must be one of ('first_time', 're_verification', 'acceptance'), got 'annual'",
        ),
        (lambda: AxleConfiguration("1", axle_count=1, gvw_limit_kg=8000.0), "axle count must be >= 2, got 1"),
    ],
    ids=["band_without_error", "unknown_kind", "one_axle"],
)
def test_a_rule_or_axle_configuration_out_of_shape(make, message):
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        make()


def test_tolerance_rule_rejects_non_positive_numbers():
    with pytest.raises(ValueError, match="^percent of load must be > 0, got -0.001$"):
        ToleranceRule("US", "acceptance", percent_of_load=-0.001)
    with pytest.raises(ValueError, match="^anchor capacity must be > 0, got 0.0$"):
        ToleranceRule("Kenya", "first_time", anchor_points_t_kg=((0.0, 10.0), (400.0, 40.0)))
    with pytest.raises(ValueError, match=r"^band must satisfy 0 <= low <= high, got \(40.0, 10.0\)$"):
        ToleranceRule("NewZealand", "acceptance", band_t=(40.0, 10.0), band_error_kg=40.0)


#: Lengths at and around numpy's pairwise-sum boundaries: 8 running sums, a
#: block of up to 128 values, halves split at a multiple of 8.
BOUNDARY_LENGTHS = sorted({n + d for n in (8, 16, 120, 128, 136, 256, 264, 1024, 2000) for d in (-1, 0, 1) if n + d <= 2000})
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324]


def same_float(a, b):
    """Equal bit for bit, but any NaN equals any NaN."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2000), st.sampled_from(BOUNDARY_LENGTHS)),
    scale=st.sampled_from([1e-3, 1.0, 1e6, 1e300]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.tuples(st.integers(0, 1999), st.sampled_from(SPECIAL_FLOATS)), max_size=3),
    negative_zeros=st.booleans(),
)
def test_mean_is_numpy_mean_bit_for_bit(n, scale, seed, specials, negative_zeros):
    if negative_zeros:
        xs = [-0.0] * n
    else:
        xs = (np.random.default_rng(seed).normal(1.0, 0.5, n) * scale).tolist()
    for i, value in specials:
        xs[i % n] = value
    with np.errstate(all="ignore"):
        expected = float(np.array(xs).mean())
        assert same_float(mean(xs), expected), (n, mean(xs), expected)
        if n > 1 and all(map(math.isfinite, xs)):
            assert same_float(wim_weigh(xs)[1], float(np.array(xs).var(ddof=1)))
        elif n > 1:  # a segment with a mass that is not finite is refused, not averaged
            with pytest.raises(InvalidValueError, match=r"^mass \S+ at index \d+ is not finite$"):
                wim_weigh(xs)


@pytest.mark.parametrize("n", [8191, 8192, 8193, 16385, 50000])
@pytest.mark.parametrize("scale", [1e-3, 1e6, 1e300])
def test_mean_of_a_long_column_is_numpy_mean(n, scale):
    """Past 8,192 values, numpy's buffer size, the sum still splits as
    `compliance.mean` splits it: a long WIM segment or static window keeps
    its record bytes."""
    xs = (np.random.default_rng(n).normal(1.0, 0.5, n) * scale).tolist()
    xs[n // 3] = -0.0
    with np.errstate(all="ignore"):
        assert same_float(mean(xs), float(np.array(xs).mean())), n
        xs[n - 5] = math.inf
        assert same_float(mean(xs), float(np.array(xs).mean())), n
