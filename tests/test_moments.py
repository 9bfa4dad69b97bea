"""Driving-point admittance and transfer-function moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_oracle import moment_scale, walk_ladder
from repro.errors import ModelingError
from repro.interconnect import (RLCLine, admittance_moments, admittance_series,
                                elmore_delay, transfer_moments, transfer_series)
from repro.interconnect.moments import ladder_moments_batch
from repro.units import mm, nH, pF


@pytest.fixture(scope="module")
def line():
    return RLCLine(resistance=72.44, inductance=nH(5.14), capacitance=pF(1.10),
                   length=mm(5))


class TestAdmittanceMoments:
    def test_m0_is_zero_for_capacitive_load(self, line):
        moments = admittance_moments(line, 0.0)
        assert moments[0] == pytest.approx(0.0, abs=1e-20)

    def test_m1_is_total_downstream_capacitance(self, line):
        load = 50e-15
        moments = admittance_moments(line, load)
        assert moments[1] == pytest.approx(line.capacitance + load, rel=1e-6)

    def test_m2_matches_uniform_rc_closed_form(self):
        """For an RC line with load CL: m2 = -(R*C^2/3 + R*C*CL + R*CL^2... )

        Exact distributed result for a uniform RC line with far-end load CL:
            m2 = -R * (C^2/3 + C*CL + CL^2) ... with CL = 0: m2 = -R*C^2/3.
        """
        resistance, capacitance = 100.0, 1e-12
        rc_line = RLCLine(resistance=resistance, inductance=1e-15,
                          capacitance=capacitance, length=mm(5))
        moments = admittance_moments(rc_line, 0.0)
        assert moments[2] == pytest.approx(-resistance * capacitance ** 2 / 3.0, rel=1e-3)

    def test_m2_with_load_matches_closed_form(self):
        resistance, capacitance, load = 100.0, 1e-12, 0.3e-12
        rc_line = RLCLine(resistance=resistance, inductance=1e-15,
                          capacitance=capacitance, length=mm(5))
        moments = admittance_moments(rc_line, load)
        expected = -resistance * (capacitance ** 2 / 3.0 + capacitance * load + load ** 2)
        assert moments[2] == pytest.approx(expected, rel=1e-3)

    def test_inductance_enters_third_moment(self, line):
        rc_only = RLCLine(resistance=line.resistance, inductance=1e-15,
                          capacitance=line.capacitance, length=line.length)
        with_l = admittance_moments(line, 0.0)
        without_l = admittance_moments(rc_only, 0.0)
        assert with_l[1] == pytest.approx(without_l[1], rel=1e-9)
        assert with_l[2] == pytest.approx(without_l[2], rel=1e-6)
        # The third moment picks up the L*C^2-like term, so it must differ by far
        # more than the numerical noise floor (compare with a zero abs tolerance).
        assert not np.isclose(with_l[3], without_l[3], rtol=1e-3, atol=0.0)

    def test_segment_count_convergence(self, line):
        coarse = admittance_moments(line, 0.0, n_segments=100)
        fine = admittance_moments(line, 0.0, n_segments=1200)
        assert fine[1:5] == pytest.approx(coarse[1:5], rel=0.02)

    def test_moments_match_explicit_ladder(self, line):
        """With the same segment count, the series expansion is exact for the ladder."""
        single = admittance_moments(line, 0.0, n_segments=1)
        # One pi segment: Y = sC/2 + (sC/2) / (1 + (R + sL) sC/2)  -- expand manually.
        r, l, c = line.resistance, line.inductance, line.capacitance
        m1 = c
        m2 = -r * (c / 2) ** 2
        assert single[1] == pytest.approx(m1, rel=1e-12)
        assert single[2] == pytest.approx(m2, rel=1e-12)

    def test_invalid_arguments(self, line):
        with pytest.raises(ModelingError):
            admittance_series(line, -1e-15)
        with pytest.raises(ModelingError):
            admittance_series(line, 0.0, order=1)
        with pytest.raises(ModelingError):
            admittance_series(line, 0.0, n_segments=0)


class TestTransferMoments:
    def test_transfer_is_unity_at_dc(self, line):
        moments = transfer_moments(line, 10e-15)
        assert moments[0] == pytest.approx(1.0, rel=1e-12)

    def test_elmore_delay_of_uniform_rc_line(self):
        """Distributed RC line with far-end load: T_elmore = R*(C/2 + CL)."""
        resistance, capacitance, load = 200.0, 1e-12, 0.2e-12
        rc_line = RLCLine(resistance=resistance, inductance=1e-15,
                          capacitance=capacitance, length=mm(4))
        delay = elmore_delay(rc_line, load)
        assert delay == pytest.approx(resistance * (capacitance / 2.0 + load), rel=1e-3)

    def test_inductance_does_not_change_elmore_delay(self, line):
        rc_only = RLCLine(resistance=line.resistance, inductance=1e-15,
                          capacitance=line.capacitance, length=line.length)
        assert elmore_delay(line, 0.0) == pytest.approx(elmore_delay(rc_only, 0.0),
                                                        rel=1e-6)

    def test_transfer_series_second_moment_sign(self, line):
        series = transfer_series(line, 0.0, order=4)
        # H(s) = 1 - s*T_D + s^2*(...) : the first moment must be negative.
        assert series.coefficient(1) < 0.0


def log_uniform(low, high):
    return st.floats(min_value=np.log10(low), max_value=np.log10(high)).map(
        lambda exponent: 10.0 ** exponent)


lines = st.builds(RLCLine, resistance=log_uniform(1e-2, 1e4),
                  inductance=log_uniform(1e-14, 1e-7),
                  capacitance=log_uniform(1e-15, 1e-10))
loads = st.one_of(st.just(0.0), log_uniform(1e-17, 1e-11))
segment_counts = st.sampled_from([1, 2, 3, 600, 1199])


class TestChainMatrixAgainstWalk:
    """The chain-matrix power against the segment-by-segment walk oracle.

    Moments of mixed sign can cancel almost completely (an RLC line's m3 passes
    through zero where ``L`` balances ``R^2 C``), so "relative" is taken against
    :func:`ladder_oracle.moment_scale`: the same terms summed with every sign
    positive, which bounds ``|m_k|`` and equals it to within a small factor away
    from such cancellation.
    """

    @staticmethod
    def assert_close(computed, oracle, scale):
        assert np.all(np.abs(oracle) <= scale * (1.0 + 1e-9))
        assert np.all(np.abs(computed[1:] - oracle[1:]) <= 1e-11 * scale[1:])

    @settings(max_examples=60, deadline=None)
    @given(line=lines, load=loads, n_segments=segment_counts,
           order=st.integers(min_value=2, max_value=10))
    def test_moments_match_walk(self, line, load, n_segments, order):
        admittance, transfer = ladder_moments_batch([line], [load], order=order,
                                                    n_segments=n_segments)
        walked_y, walked_h = walk_ladder(line, load, order, n_segments)
        scale_y, scale_h = moment_scale(line, load, order, n_segments)
        self.assert_close(admittance[0], walked_y.coefficients, scale_y)
        self.assert_close(transfer[0], walked_h.coefficients, scale_h)

    @settings(max_examples=20, deadline=None)
    @given(lanes=st.lists(st.tuples(lines, loads, segment_counts), min_size=1,
                          max_size=6),
           order=st.integers(min_value=2, max_value=10))
    def test_batch_lanes_are_bit_identical_to_one_lane_calls(self, lanes, order):
        batch_y, batch_h = ladder_moments_batch(
            [line for line, _, _ in lanes], [load for _, load, _ in lanes],
            order=order, n_segments=[n for _, _, n in lanes])
        for k, (line, load, n) in enumerate(lanes):
            assert np.array_equal(batch_y[k], admittance_moments(
                line, load, order=order, n_segments=n))
            assert np.array_equal(batch_h[k], transfer_moments(
                line, load, order=order, n_segments=n))

    def test_distributed_default_and_validation(self, line):
        admittance, _ = ladder_moments_batch([line, line], [0.0, 1e-14],
                                             n_segments=[None, 600])
        assert np.array_equal(admittance[0], admittance_moments(line, 0.0))
        assert np.array_equal(admittance[1], admittance_moments(line, 1e-14))
        with pytest.raises(ModelingError):
            ladder_moments_batch([line], [0.0, 0.0])
        with pytest.raises(ModelingError):
            ladder_moments_batch([line, line], [0.0, -1e-15])
        with pytest.raises(ModelingError):
            ladder_moments_batch([line], [0.0], n_segments=[1, 2])
