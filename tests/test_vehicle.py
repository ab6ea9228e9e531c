"""Vehicle scenario fixtures: matrices, attack waveform, constraint boxes."""

import math

import numpy as np
import pytest

from care_filter.model import validate
from care_filter.vehicle import (
    VehicleParams,
    attack_input,
    attack_signal,
    bicycle_matrices,
    box_bounds,
    build_constraints,
    slip_angle,
    steering_angle,
    vehicle_constraints,
    vehicle_model,
)

P = VehicleParams()


def assert_bytes_equal(arrays, literals):
    """Each array is the float64 literal bit for bit, signs of zero included."""
    for got, want in zip(arrays, literals, strict=True):
        want = np.array(want, dtype=float)
        assert got.dtype == want.dtype and got.shape == want.shape, (got, want)
        assert got.tobytes() == want.tobytes(), (got, want)


class TestKinematics:
    def test_slip_angle_zero(self):
        assert slip_angle(0.0) == 0.0

    def test_slip_angle_halves_tangent(self):
        # l_r / (l_f + l_r) = 0.5 with the default geometry
        delta = 0.8
        assert slip_angle(delta) == pytest.approx(math.atan(0.5 * math.tan(delta)))

    def test_round_trip(self):
        for delta in (-1.0, -0.3, 0.0, 0.5, 1.0472):
            assert steering_angle(slip_angle(delta)) == pytest.approx(delta, abs=1e-12)

    def test_attack_slip_stays_inside_steering_box(self):
        worst = max(abs(attack_input(k)[0]) for k in range(0, 1001))
        assert worst <= slip_angle(1.1) + 1e-12
        assert worst < P.steer_max


class TestMatrices:
    def test_standstill(self):
        A, B, G, C = bicycle_matrices(0.0)
        expected_A = np.eye(4)
        expected_A[0, 3] = 0.01
        np.testing.assert_allclose(A, expected_A)
        np.testing.assert_allclose(B[:, 0], np.zeros(4))
        assert B[3, 1] == pytest.approx(0.01)
        np.testing.assert_array_equal(C, np.eye(4))

    def test_moving(self):
        A, B, G, C = bicycle_matrices(10.0)
        assert A[1, 2] == pytest.approx(0.1)
        assert B[1, 0] == pytest.approx(0.1)
        assert B[2, 0] == pytest.approx(0.1 / 1.25)
        np.testing.assert_array_equal(B, G)

    def test_attack_and_control_share_the_channel(self):
        A, B, G, _ = bicycle_matrices(7.3)
        np.testing.assert_array_equal(B, G)
        assert G is not B  # independent arrays


class TestAttackSignal:
    def test_quiet_before_onset(self):
        for k in (0, 50, 99):
            assert attack_signal(k) == (0.0, 0.0)

    def test_steering_sinusoid_after_onset(self):
        d, a = attack_signal(150)
        assert d == pytest.approx(1.1 * math.sin(7.5))
        assert a == pytest.approx(3.5)

    def test_acceleration_blocks_alternate(self):
        assert attack_signal(100)[1] == 3.5
        assert attack_signal(199)[1] == 3.5
        assert attack_signal(250)[1] == -3.5
        assert attack_signal(399)[1] == 3.5
        assert attack_signal(420)[1] == -3.5
        assert attack_signal(599)[1] == 3.5
        assert attack_signal(650)[1] == -3.5

    def test_acceleration_stops_at_700(self):
        assert attack_signal(700)[1] == 0.0
        assert attack_signal(900)[1] == 0.0
        # steering keeps going
        assert attack_signal(900)[0] == pytest.approx(1.1 * math.sin(45.0))

    def test_attack_input_converts_steering_to_slip(self):
        d = attack_input(321)
        delta_d, a_d = attack_signal(321)
        assert d[0] == pytest.approx(slip_angle(delta_d))
        assert d[1] == a_d


class TestConstraints:
    def test_zero_control_boxes(self):
        # the rows of the declared boxes, each bounded coordinate's upper row
        # then its lower one, with no negative zero; the heading is free
        assert_bytes_equal(build_constraints((0.0, 0.0)), (
            [[1, 0], [-1, 0], [0, 1], [0, -1]],
            [1.0472, 1.0472, 3.5, 3.5],
            [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1],
             [0, 0, 0, -1]],
            [20.0, 0.0, 5.0, 0.0, 22.0, 0.0]))
        (d_lo, d_hi), (x_lo, x_hi) = box_bounds((0.0, 0.0))
        assert_bytes_equal((d_lo, d_hi, x_lo, x_hi), (
            [-1.0472, -3.5], [1.0472, 3.5], [0.0, 0.0, -np.inf, 0.0], [20.0, 5.0, np.inf, 22.0]))

    def test_nominal_acceleration_shifts_the_box(self):
        _, b_in, _, _ = build_constraints((0.0, 1.0))
        assert_bytes_equal((b_in,), ([1.0472, 1.0472, 2.5, 4.5],))
        (d_lo, d_hi), _ = box_bounds((0.0, 1.0))
        assert_bytes_equal((d_lo, d_hi), ([-1.0472, -4.5], [1.0472, 2.5]))

    def test_state_rows_encode_position_and_speed_boxes(self):
        _, _, B_st, c_st = build_constraints((0.0, 0.0))
        x = np.array([10.0, 2.5, 0.3, 11.0])  # interior point
        assert np.all(B_st @ x <= c_st)
        x_bad = np.array([21.0, 2.5, 0.3, 11.0])
        assert np.any(B_st @ x_bad > c_st)


class TestFactories:
    def test_model_passes_validation(self):
        model = vehicle_model(lambda k: 10.0)
        cons = vehicle_constraints(lambda k: (0.0, 0.0))
        rep = validate(model, cons, horizon=25)
        assert rep.ok, str(rep)

    def test_model_schedules_on_velocity(self):
        speeds = {0: 5.0, 1: 12.0}
        model = vehicle_model(lambda k: speeds.get(k, 10.0))
        assert model.A(0)[1, 2] == pytest.approx(0.05)
        assert model.A(1)[1, 2] == pytest.approx(0.12)

    def test_constraints_track_the_control(self):
        cons = vehicle_constraints(lambda k: (0.0, 0.5 * k))
        np.testing.assert_allclose(cons.input_bound(0), [1.0472, 1.0472, 3.5, 3.5])
        np.testing.assert_allclose(cons.input_bound(2), [1.0472, 1.0472, 2.5, 4.5])
