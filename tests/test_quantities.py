import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptwaveguide.quantities import (C, CONFIG_KEYS, E_CHARGE, HBAR, Config,
                                    ConfigParseError, ConfigValidationError,
                                    angular_to_ev, cutoff_frequency, ev_to_angular,
                                    parse_config)


class TestConversions:
    def test_zero(self):
        assert ev_to_angular(0.0) == 0.0

    def test_one_ev(self):
        # e/hbar with the exact SI constants
        assert ev_to_angular(1.0) == pytest.approx(1.519267448809510e15, abs=1e9)

    def test_five_ev_is_five_times_one(self):
        assert ev_to_angular(5.0) == pytest.approx(5 * ev_to_angular(1.0), rel=1e-15)
        assert ev_to_angular(5.0) == pytest.approx(7.596337244047552e15, abs=5e9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ev_to_angular(-0.1)
        with pytest.raises(ValueError):
            angular_to_ev(-1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_round_trip(self, x):
        assert angular_to_ev(ev_to_angular(x)) == pytest.approx(x, rel=1e-12)


class TestCutoff:
    def test_reference_width(self):
        # 0.124 um ties to a 5 eV cutoff within half a percent
        wc = cutoff_frequency(0.124e-6)
        assert wc == pytest.approx(7.595369223019569e15, rel=1e-12)
        assert angular_to_ev(wc) == pytest.approx(5.0, rel=5e-3)

    def test_double_width_halves_cutoff(self):
        assert angular_to_ev(cutoff_frequency(0.248e-6)) == pytest.approx(
            2.499681418492596, rel=1e-12)

    def test_wide_limit(self):
        assert cutoff_frequency(1.0) < cutoff_frequency(1e-6) * 1e-5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            cutoff_frequency(0.0)
        with pytest.raises(ValueError):
            cutoff_frequency(-1e-6)

    @given(st.floats(min_value=1e-9, max_value=1.0),
           st.floats(min_value=1.1, max_value=10.0))
    def test_inverse_width_scaling(self, w, factor):
        a = cutoff_frequency(w) * w
        b = cutoff_frequency(w * factor) * (w * factor)
        assert a == pytest.approx(b, rel=1e-12)
        assert cutoff_frequency(w * factor) < cutoff_frequency(w)


class TestConfig:
    def test_empty_gives_defaults(self):
        config = parse_config("")
        assert config == Config()
        assert config.hbar_omega0_ev == 5.0
        assert config.hbar_omegap_ev == 0.2
        assert config.hbar_delta_ev == 1.25
        assert config.region_length_um == 19.7

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nhbar_omegap_ev = 0.1  # trailing comment\n"
        assert parse_config(text).hbar_omegap_ev == 0.1

    def test_all_keys(self):
        text = "\n".join([
            "hbar_omega0_ev = 4.0",
            "hbar_omegap_ev = 0.1",
            "hbar_delta_ev = 1.0",
            "region_length_um = 10",
        ])
        config = parse_config(text)
        assert config.hbar_omega0_ev == 4.0
        assert config.hbar_omegap_ev == 0.1
        assert config.hbar_delta_ev == 1.0
        assert config.region_length_um == 10.0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("hbar_omegap_ev = 0.1\nbogus line\n")
        assert err.value.line_no == 2

    def test_unknown_key_reports_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("\n\nnot_a_key = 3\n")
        assert err.value.line_no == 3
        # the sweep window and output path are command-line flags, and the
        # slab width follows from the resonance: a file that sets one fails
        for line in ("slab_width_um = 0.124", "sweep_start = 1.0005", "sweep_stop = 1.1",
                     "sweep_points = 400", "output_path = results.csv"):
            with pytest.raises(ConfigParseError) as err:
                parse_config(f"hbar_omegap_ev = 0.1\n{line}\n")
            assert err.value.line_no == 2
            assert str(err.value) == f"line 2: unknown key {line.split()[0]!r}"

    def test_repeated_key_reports_second_line(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("hbar_omegap_ev = 0.1\n# again\nhbar_omegap_ev = 0.2\n")
        assert err.value.line_no == 3
        assert "'hbar_omegap_ev' given twice" in str(err.value)

    def test_unparseable_value(self):
        with pytest.raises(ConfigParseError):
            parse_config("hbar_omegap_ev = three")

    def test_zero_plasma_frequency_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config("hbar_omegap_ev = 0")
        assert err.value.key == "hbar_omegap_ev"

    def test_sweep_start_below_one_rejected(self):
        # a file cannot set the window: the key itself is rejected
        with pytest.raises(ConfigParseError) as err:
            parse_config("sweep_start = 0.9")
        assert str(err.value) == "line 1: unknown key 'sweep_start'"

    def test_sweep_stop_must_exceed_start(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("sweep_start = 1.05\nsweep_stop = 1.01")
        assert str(err.value) == "line 1: unknown key 'sweep_start'"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", CONFIG_KEYS + ("slab_width_um", "sweep_start",
                                                   "sweep_stop"))
    def test_non_finite_rejected(self, key, value):
        if key not in CONFIG_KEYS:
            # a removed key fails on its name, before its value is read
            with pytest.raises(ConfigParseError) as err:
                parse_config(f"{key} = {value}")
            assert str(err.value) == f"line 1: unknown key {key!r}"
            return
        with pytest.raises(ConfigValidationError) as err:
            parse_config(f"{key} = {value}")
        assert err.value.key == key

    def test_single_point_rejected(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("sweep_points = 1")
        assert str(err.value) == "line 1: unknown key 'sweep_points'"


def test_si_constants_exact():
    assert C == 299792458.0
    assert HBAR == 1.054571817e-34
    assert E_CHARGE == 1.602176634e-19
    assert math.isfinite(C * HBAR / E_CHARGE)
