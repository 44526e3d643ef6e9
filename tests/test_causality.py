import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrpovm.causality import (CausalScenario, Event, format_signature,
                              in_future_lightcone, parse_scenario,
                              readout_signature)

GOLDEN = Path(__file__).parent / "golden"

ORIGIN = Event(0.0, (0.0, 0.0, 0.0))

coord = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
events = st.builds(lambda t, x, y, z: Event(t, (x, y, z)),
                   coord, coord, coord, coord)


class TestLightcone:
    def test_same_place_later(self):
        assert in_future_lightcone(ORIGIN, Event(1.0, (0.0, 0.0, 0.0)))

    def test_spacelike(self):
        assert not in_future_lightcone(ORIGIN, Event(1.0, (2.0, 0.0, 0.0)))

    def test_boundary_counts(self):
        assert in_future_lightcone(ORIGIN, ORIGIN)
        assert in_future_lightcone(ORIGIN, Event(2.0, (2.0, 0.0, 0.0)))

    @staticmethod
    def _slack(a, b):
        return (b.t - a.t) - math.dist(a.pos, b.pos)

    @given(events, events, coord, coord, coord, coord)
    @settings(max_examples=60)
    def test_translation_invariance(self, a, b, dt, dx, dy, dz):
        assume(abs(self._slack(a, b)) > 1e-6)  # stay off the float boundary
        shift = lambda e: Event(e.t + dt, (e.pos[0] + dx, e.pos[1] + dy,
                                           e.pos[2] + dz))
        assert in_future_lightcone(a, b) == \
            in_future_lightcone(shift(a), shift(b))

    @given(events, events, st.floats(min_value=0, max_value=2 * math.pi))
    @settings(max_examples=60)
    def test_rotation_invariance(self, a, b, angle):
        assume(abs(self._slack(a, b)) > 1e-6)
        c, s = math.cos(angle), math.sin(angle)

        def rot(e):
            x, y, z = e.pos
            return Event(e.t, (c * x - s * y, s * x + c * y, z))

        assert in_future_lightcone(a, b) == in_future_lightcone(rot(a), rot(b))

    @given(events, events, st.floats(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_delay_monotonicity(self, choice, readout, delay):
        assume(abs(self._slack(choice, readout)) > 1e-6)
        later = Event(readout.t + delay, readout.pos)
        if in_future_lightcone(choice, readout):
            assert in_future_lightcone(choice, later)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Event(math.nan, (0.0, 0.0, 0.0))


def _scenario(path: Path) -> CausalScenario:
    return parse_scenario(path.read_text())


def _variable_list(sig) -> tuple[str, ...]:
    """Every readout's variables, in readout order."""
    return tuple(name for names in sig.variables.values() for name in names)


class TestSignature:
    def test_nested_choices_layout(self):
        sig = readout_signature(_scenario(GOLDEN / "nested_choices.txt"))
        assert _variable_list(sig) == (
            "alpha", "beta", "beta_a",
            "gamma", "gamma_a", "gamma_b", "gamma_ab")

    def test_spacelike_choices_layout(self):
        sig = readout_signature(_scenario(GOLDEN / "spacelike_choices.txt"))
        assert _variable_list(sig) == (
            "gamma", "alpha", "alpha_a", "beta", "beta_b",
            "delta", "delta_a", "delta_b", "delta_ab")
        assert len(_variable_list(sig)) == 9

    def test_no_choices(self):
        scenario = CausalScenario(choices=(),
                                  readouts=(("r", Event(1.0, (0, 0, 0))),))
        sig = readout_signature(scenario)
        assert sig.variables["r"] == ("r",)
        assert sig.influences["r"] == ()

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=20)
    def test_variable_count_is_power_of_two(self, k):
        choices = tuple((f"c{i}", Event(float(-1 - i), (0.0, 0.0, 0.0)))
                        for i in range(k))
        scenario = CausalScenario(
            choices=choices, readouts=(("r", Event(100.0, (0.0, 0.0, 0.0))),))
        sig = readout_signature(scenario)
        assert len(sig.variables["r"]) == 2 ** k

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CausalScenario(choices=(("a", ORIGIN),),
                           readouts=(("a", Event(1.0, (0, 0, 0))),))


class TestScenarioFormat:
    def test_round_trip_output(self):
        text = (GOLDEN / "nested_choices.txt").read_text()
        sig = readout_signature(parse_scenario(text))
        expected = (GOLDEN / "nested_choices.expected").read_text().rstrip()
        assert format_signature(sig) == expected

    def test_comments_and_blanks(self):
        scenario = parse_scenario(
            "# layout\n\nchoice a 0 0 0 0\nreadout r 1 0 0 0\n")
        assert len(scenario.choices) == 1
        assert len(scenario.readouts) == 1

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario("choice a 0 0 0\n")

    def test_bad_coordinate(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario("choice a zero 0 0 0\n")
