import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weighsim.calibration import code_to_mass
from weighsim.cog import DeckGeometry, FourCellReading, POLICIES, assess_four_cell
from weighsim.errors import ConfigError, InsufficientSamplesError, InvalidPlacementError, InvalidSeedError
from weighsim.errors import UndefinedCentroidError
from weighsim.scenario import (
    Placement,
    Scenario,
    centroid,
    corner_loads,
    ideal_calibration,
    run_end_to_end,
    total_mass,
)
from weighsim.sensor import LoadCellSpec, add_noise, bridge_output, quantize

GEOM = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
P2 = POLICIES["prototype2"]
CURB = FourCellReading(10.0, 10.0, 10.0, 10.0)


def scenario(*placements, curb=None, **kwargs):
    return Scenario(
        geometry=GEOM,
        placements=tuple(placements),
        curb=curb or FourCellReading(0.0, 0.0, 0.0, 0.0),
        **kwargs,
    )


class TestCornerLoads:
    def test_centre_mass_splits_evenly(self):
        s = scenario(Placement(100.0, 1.0, 0.75), curb=CURB)
        loads = corner_loads(s)
        assert loads.as_tuple() == (35.0, 35.0, 35.0, 35.0)

    def test_rear_left_corner_limit(self):
        s = scenario(Placement(80.0, GEOM.wheelbase_m, GEOM.track_m))
        loads = corner_loads(s)
        assert loads.rl_kg == 80.0
        assert loads.fl_kg == loads.fr_kg == loads.rr_kg == 0.0

    def test_superposition(self):
        p1 = Placement(50.0, 0.5, 0.25)
        p2 = Placement(75.0, 1.75, 1.4)
        combined = corner_loads(scenario(p1, p2))
        separate = [corner_loads(scenario(p)) for p in (p1, p2)]
        for i in range(4):
            assert combined.as_tuple()[i] == pytest.approx(
                separate[0].as_tuple()[i] + separate[1].as_tuple()[i], abs=1e-12
            )

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=300.0),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=1.5),
            ),
            max_size=6,
        )
    )
    def test_conservation(self, raw):
        s = scenario(*(Placement(m, x, y) for m, x, y in raw), curb=CURB)
        loads = corner_loads(s)
        assert sum(loads.as_tuple()) == pytest.approx(total_mass(s), rel=1e-12, abs=1e-9)

    def test_out_of_bounds_placement(self):
        with pytest.raises(InvalidPlacementError):
            scenario(Placement(10.0, 2.5, 0.5))
        with pytest.raises(InvalidPlacementError):
            scenario(Placement(10.0, 1.0, -0.1))
        with pytest.raises(InvalidPlacementError):
            scenario(Placement(0.0, 1.0, 0.5))

    def test_nan_placement_is_rejected(self):
        # a NaN mass passed `<= 0`; NaN coordinates already failed the bounds
        with pytest.raises(InvalidPlacementError, match="^placement mass must be finite, got nan$"):
            scenario(Placement(float("nan"), 1.0, 0.5))
        with pytest.raises(InvalidPlacementError):
            scenario(Placement(10.0, float("nan"), 0.5))


class TestCentroid:
    def test_single_placement_is_its_position(self):
        assert centroid(scenario(Placement(42.0, 0.3, 1.2))) == (0.3, 1.2)

    def test_symmetric_pair(self):
        s = scenario(Placement(10.0, 0.0, 0.0), Placement(10.0, GEOM.wheelbase_m, GEOM.track_m))
        x, y = centroid(s)
        assert x == pytest.approx(GEOM.wheelbase_m / 2)
        assert y == pytest.approx(GEOM.track_m / 2)

    def test_zero_mass_undefined(self):
        with pytest.raises(UndefinedCentroidError):
            centroid(scenario())

    def test_round_trip_through_assessment(self):
        rng = np.random.default_rng(4321)
        for _ in range(200):
            placements = [
                Placement(
                    float(rng.uniform(1.0, 150.0)),
                    float(rng.uniform(0.0, GEOM.wheelbase_m)),
                    float(rng.uniform(0.0, GEOM.track_m)),
                )
                for _ in range(rng.integers(1, 5))
            ]
            s = scenario(*placements, curb=CURB)
            a = assess_four_cell(corner_loads(s).as_tuple(), GEOM, P2)
            cx, cy = centroid(s)
            assert a.x_cg_m == pytest.approx(cx, abs=1e-9)
            assert a.y_cg_m == pytest.approx(cy, abs=1e-9)


class TestEndToEnd:
    SPEC = LoadCellSpec(capacity_kg=120.0)

    def cals(self, spec=None):
        cal = ideal_calibration(spec or self.SPEC)
        return (cal,) * 4

    @pytest.mark.parametrize("count", [3, 5])
    def test_needs_four_specs_and_four_calibrations(self, count):
        # five used to drop the fifth silently, three to raise an untyped TypeError
        s = scenario(Placement(100.0, 1.0, 0.75))
        cal = ideal_calibration(self.SPEC)
        with pytest.raises(ValueError, match=rf"^need 4 cell specs and 4 calibrations, got {count} and 4$"):
            run_end_to_end(s, (self.SPEC,) * count, (cal,) * 4, P2)
        with pytest.raises(ValueError, match=rf"^need 4 cell specs and 4 calibrations, got 4 and {count}$"):
            run_end_to_end(s, (self.SPEC,) * 4, (cal,) * count, P2)

    def test_overload_detected_through_pipeline(self):
        s = scenario(Placement(460.0, 1.0, 0.75), curb=CURB)  # 500 kg total
        a = run_end_to_end(s, (self.SPEC,) * 4, self.cals(), P2)
        assert a.overloaded
        assert a.total_kg == pytest.approx(500.0, abs=0.01)

    def test_curb_only_cog(self):
        curb = FourCellReading(20.0, 10.0, 15.0, 5.0)
        s = scenario(curb=curb)
        a = run_end_to_end(s, (self.SPEC,) * 4, self.cals(), P2)
        # per-cell quantization error is 1 LSB*scale ≈ 5.7e-5 kg, which on a
        # 50 kg curb moves the CoG by up to a few 1e-6 m
        ref = assess_four_cell(curb.as_tuple(), GEOM, P2)
        assert a.x_cg_m == pytest.approx(ref.x_cg_m, abs=1e-5)
        assert a.y_cg_m == pytest.approx(ref.y_cg_m, abs=1e-5)

    def test_seeded_runs_are_bit_identical(self):
        spec = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.002)
        s = scenario(Placement(100.0, 0.5, 0.5), noise_seed=77)
        a = run_end_to_end(s, (spec,) * 4, self.cals(spec), P2)
        b = run_end_to_end(s, (spec,) * 4, self.cals(spec), P2)
        assert a == b

    NOISY = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.002)

    @staticmethod
    def spawn_all_reference(s, specs, cals):
        """The chain with all four streams built by `spawn(4)`, noise or not."""
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(s.noise_seed).spawn(4)]
        masses = []
        for mass, spec, cal, rng in zip(corner_loads(s).as_tuple(), specs, cals, rngs):
            reading = add_noise(bridge_output(spec, mass, temperature_c=s.temperature_c), spec, rng)
            masses.append(code_to_mass(quantize(reading).code, cal))
        return assess_four_cell(masses, s.geometry, P2)

    @given(
        st.integers(min_value=0, max_value=2**64),
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=40.0),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=1.5),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=50)
    def test_noise_streams_keep_their_bits(self, seed, placements):
        # cell i draws from child i of the seed's SeedSequence, as when all
        # four streams were spawned, also with noise-free cells in between
        specs = (self.NOISY, self.SPEC, self.NOISY, self.SPEC)
        cals = tuple(ideal_calibration(spec) for spec in specs)
        s = scenario(*(Placement(*p) for p in placements), curb=CURB, noise_seed=seed)
        assert run_end_to_end(s, specs, cals, P2) == self.spawn_all_reference(s, specs, cals)

    def test_noise_free_chain_seeds_no_stream(self, monkeypatch):
        s = scenario(Placement(100.0, 0.5, 0.5), curb=CURB, noise_seed=77)
        specs = (self.SPEC,) * 4
        expected = self.spawn_all_reference(s, specs, self.cals())

        def refuse(*args, **kwargs):
            raise AssertionError("a noise-free chain built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert run_end_to_end(s, specs, self.cals(), P2) == expected

    def test_a_cell_on_its_rail_is_refused_by_name(self):
        # every cell read its rail as a load, 1406.25 kg in all
        spec = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=1e308)
        s = scenario(curb=FourCellReading(25.0, 25.0, 25.0, 25.0))
        with pytest.raises(InsufficientSamplesError, match=r"^no non-saturated sample at 25\.0 kg on cell FL$"):
            run_end_to_end(s, (spec,) * 4, self.cals(), P2)

    def test_ideal_calibration_refuses_a_rail_code(self):
        # the 120 kg point is 45 mV, past the 39.06 mV full scale: its rail
        # code became the slope, and a 100 kg deck read 246.15 kg
        with pytest.raises(InsufficientSamplesError, match=r"^no non-saturated sample at 120\.0 kg$"):
            ideal_calibration(LoadCellSpec(capacity_kg=120.0, zero_offset_mv=35.0))
        with pytest.raises(InsufficientSamplesError, match=r"^no non-saturated sample at 0\.0 kg$"):
            ideal_calibration(LoadCellSpec(capacity_kg=120.0, zero_offset_mv=-40.0))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_noise_seed_must_be_a_non_negative_integer(self, seed):
        # a noise-free chain seeds no stream, so numpy no longer rejects these;
        # True was taken as seed 1
        with pytest.raises(InvalidSeedError, match=rf"^noise_seed must be an integer >= 0, got {seed!r}$"):
            scenario(noise_seed=seed)
        assert scenario(noise_seed=np.uint64(2**64 - 1)).noise_seed == 2**64 - 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_temperature_must_be_finite(self, value):
        # a NaN temperature reached quantize, which failed with an untyped ValueError
        with pytest.raises(ValueError, match=f"^temperature_c must be finite, got {value}$"):
            scenario(temperature_c=value)

    def test_monte_carlo_total_is_unbiased(self):
        spec = LoadCellSpec(capacity_kg=120.0, noise_sigma_mv=0.001)
        cals = self.cals(spec)
        true_total = 200.0
        totals = []
        for seed in range(1000):
            s = scenario(Placement(160.0, 1.0, 0.75), curb=CURB, noise_seed=seed)
            totals.append(run_end_to_end(s, (spec,) * 4, cals, P2).total_kg)
        totals = np.array(totals)
        stderr = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - true_total) <= 3 * stderr

    @given(
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=50)
    def test_adding_mass_never_clears_overload(self, extra, x, y):
        base = scenario(Placement(450.0, 1.0, 0.75))
        a = assess_four_cell(corner_loads(base).as_tuple(), GEOM, P2)
        assert a.overloaded
        more = scenario(Placement(450.0, 1.0, 0.75), Placement(extra, x, y))
        b = assess_four_cell(corner_loads(more).as_tuple(), GEOM, P2)
        assert b.overloaded


class TestScenarioFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "# demo deck\n"
            "wheelbase_m = 2.0\n"
            "track_m = 1.5\n"
            "curb_fl_kg = 10\ncurb_fr_kg = 10\ncurb_rl_kg = 10\ncurb_rr_kg = 10\n"
            "noise_seed = 5\n"
            "temperature_c = 30\n"
            "placement = 100 @ 1.0, 0.75\n"
            "placement = 50 @ 0.5, 0.5\n"
        )
        s = Scenario.from_file(path)
        assert s.geometry == DeckGeometry(2.0, 1.5)
        assert len(s.placements) == 2
        assert s.placements[0] == Placement(100.0, 1.0, 0.75)
        assert s.noise_seed == 5 and s.temperature_c == 30.0
        assert total_mass(s) == pytest.approx(190.0)

    def test_bad_placement_syntax(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("wheelbase_m = 2\ntrack_m = 1.5\nplacement = oops\n")
        with pytest.raises(ConfigError):
            Scenario.from_file(path)

    def test_missing_geometry(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("track_m = 1.5\n")
        with pytest.raises(ConfigError):
            Scenario.from_file(path)
