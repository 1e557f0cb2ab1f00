"""The float RK4 steps replay the original closure-based integrators bit for bit.

plant.step holds the four RK4 stages of each body shape, the switch gate
evaluates the parallel body's force (body_accel), and the stiffness rig writes
its own step inline, all in the original arithmetic order. These tests run
them against the closure-based references in oracles on seeded random inputs
(the rig on its own protocol) and compare float.hex, so a zero whose sign
moved (-0.0 against 0.0) fails as loudly as a changed digit.
"""

import math
import random
import sys

import pytest

from oracles import pea_rhs, reference_rig_rows, reference_step
from tsea.experiments import run_static_stiffness
from tsea.params import ActuatorParams, LoadModel
from tsea.plant import (
    Mode,
    PeaState,
    SeaState,
    SimulationError,
    TransitionState,
    clamp_torque,
    spring_torque,
    step,
)
from tsea.selector import transmitted_torque

N_RANDOM = 10_000
BIG = sys.float_info.max
SIGNED_TINY = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 2.2250738585072014e-308)


def bits(x: float) -> str:
    return float.hex(x) if isinstance(x, float) else repr(x)


class Sampler:
    """Seeded random inputs. In a fifth of the samples almost every value is
    a signed zero or a subnormal, where only the order of the operations
    decides the sign of a zero result. In another fifth the extra output
    torque nearly cancels gravity and the output's other static torques, the
    velocities are small but not zero and a small omega_eps saturates the
    Coulomb term: the output force is then a sum of comparable terms whose
    rounding depends on their order, and a one-ulp change in it outlives the
    step, whose change of velocity is not small against the velocity."""

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.z = 0.0  # chance that a value is drawn from SIGNED_TINY
        self.cancel = False  # whether the extra torque nearly cancels gravity

    def next_sample(self) -> None:
        u = self.rng.random()
        self.z = 0.8 if u < 0.2 else 0.1
        self.cancel = u >= 0.8

    def tiny(self) -> bool:
        return self.rng.random() < self.z

    def angle(self) -> float:
        rng = self.rng
        if self.tiny():
            return rng.choice(SIGNED_TINY)
        if rng.random() < 0.1:  # far from the origin, where a stage step is below one ulp
            return rng.choice((1.0, -1.0)) * 1e6 * rng.uniform(0.999, 1.001)
        return rng.uniform(-4.0, 4.0)

    def velocity(self) -> float:
        rng = self.rng
        if self.cancel:  # small, never zero
            return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-12.0, -2.0)
        if self.tiny():
            return rng.choice(SIGNED_TINY)
        return rng.uniform(-2e3, 2e3) if rng.random() < 0.05 else rng.uniform(-20.0, 20.0)

    def torque(self, scale: float) -> float:
        # beyond tau_max = 3 Nm now and then, so the clamp acts
        return self.rng.choice(SIGNED_TINY) if self.tiny() else self.rng.uniform(-scale, scale)

    def coefficient(self, value: float) -> float:
        """A damping or friction magnitude, sometimes a signed zero."""
        rng = self.rng
        return rng.choice((0.0, -0.0)) if self.tiny() else value * rng.uniform(0.5, 2.0)

    def params(self) -> ActuatorParams:
        rng, c, d = self.rng, self.coefficient, ActuatorParams()
        return ActuatorParams(
            J_m=d.J_m * rng.uniform(0.5, 2.0), J_o=d.J_o * rng.uniform(0.5, 2.0),
            K_s=d.K_s * rng.uniform(0.5, 2.0), K_struct=d.K_struct * rng.uniform(0.5, 2.0),
            b_m=c(d.b_m), b_o=c(d.b_o), tau_c_sea=c(d.tau_c_sea),
            tau_c_pea=c(d.tau_c_pea), tau_c_out=c(0.05),
            dt=d.dt * rng.uniform(0.25, 2.0),
            # a cancelling sample saturates the Coulomb term at small velocities
            omega_eps=10.0 ** rng.uniform(-8.0, -2.0) if self.cancel
            else d.omega_eps * rng.uniform(0.5, 2.0),
        )

    def load(self) -> LoadModel:
        return LoadModel(mass=0.0 if self.tiny() else self.rng.uniform(0.1, 2.0))

    def extra(self, p: ActuatorParams, ld: LoadModel, state, tau_m: float) -> float:
        """The extra output torque: in a cancelling sample, the static torque
        on the output (its spring or, in PEA, the motor and its spring, less
        the gravity load) give or take 1e-10 to 1e-2 of it."""
        if not self.cancel:
            return self.torque(10.0)
        mgr = ld.mass * ld.g * ld.radius
        if type(state) is PeaState:
            q, _, anchor = state
            static = clamp_torque(tau_m, p) - p.K_s * (q - anchor) - mgr * math.cos(q)
        else:
            static = spring_torque(state, p) - mgr * math.cos(state.theta_o)
        rng = self.rng
        return static * (1.0 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-10.0, -2.0))

    def state(self, mode: Mode):
        if mode is Mode.PEA:
            return PeaState(self.angle(), self.velocity(), self.angle())
        qm, wm, qo, wo = self.angle(), self.velocity(), self.angle(), self.velocity()
        if mode is Mode.SEA:
            return SeaState(qm, wm, qo, wo, self.angle())
        return TransitionState(qm, wm, qo, wo, self.rng.choice((Mode.SEA, Mode.PEA)))


def outcome(fn, *args):
    """The new state's fields in bits, or the error it raised."""
    try:
        s = fn(*args)
    except SimulationError as exc:
        return ("SimulationError", str(exc))
    return (type(s).__name__, *(bits(getattr(s, f)) for f in s._fields))


def assert_same_step(state, tau_m, p, ld, extra):
    new = outcome(step, state, tau_m, p, ld, extra)
    ref = outcome(reference_step, state, tau_m, p, ld, extra)
    assert new == ref, (state, tau_m, p, ld, extra)
    return new


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_step_matches_reference_on_random_states(mode):
    sample = Sampler(f"kernels-{mode.value}")
    errors = 0
    for _ in range(N_RANDOM):
        sample.next_sample()
        p, ld, state = sample.params(), sample.load(), sample.state(mode)
        tau_m = sample.torque(5.0)
        result = assert_same_step(state, tau_m, p, ld, sample.extra(p, ld, state, tau_m))
        errors += result[0] == "SimulationError"
    assert errors < N_RANDOM // 100  # nearly every sample reached the comparison of bits


@pytest.mark.parametrize("state, extra, message", [
    (SeaState(0.0, 0.0, BIG, 1e308, 0.0), 0.0, "non-finite SEA state"),
    (SeaState(0.0, 0.0, 0.0, 0.0, 0.0), 1e308, "non-finite SEA state"),
    (PeaState(-BIG, -1e308, 0.0), 0.0, "non-finite PEA state"),
    (PeaState(0.0, 0.0, 0.0), -1e308, "non-finite PEA state"),
    (TransitionState(0.0, 0.0, BIG, 1e308, Mode.PEA), 0.0, "non-finite TRANS state"),
    (TransitionState(0.0, 0.0, 0.0, 0.0, Mode.SEA), 1e308, "non-finite TRANS state"),
], ids=["sea-angle", "sea-impulse", "pea-angle", "pea-impulse", "trans-angle", "trans-impulse"])
def test_infinite_stage_angle_raises_the_same_error(state, extra, message):
    # a finite start whose mid-step stage angle overflows, so math.cos raises
    result = assert_same_step(state, 0.0, ActuatorParams(), LoadModel(), extra)
    assert result == ("SimulationError", message)


def test_pea_gate_matches_reference():
    sample = Sampler("kernels-gate")
    for _ in range(N_RANDOM):
        sample.next_sample()
        p, s = sample.params(), sample.state(Mode.PEA)
        tau_m, tau_ext = sample.torque(3.0), sample.torque(5.0)
        _, alpha = pea_rhs(tau_m, tau_ext, p, s.theta_anchor)(s.theta, s.omega)
        assert bits(transmitted_torque(s, tau_m, tau_ext, p)) == bits(tau_m - p.J_m * alpha)


@pytest.mark.parametrize("mode", [Mode.SEA, Mode.PEA])
def test_stiffness_rig_replays_reference(mode, full_range):
    # the rig's inline step over the protocol's own torque schedule
    # (at 5 Nm/s SEA leg 6 starts at the mirror image of leg 4's start, PEA
    # leg 5 at leg 3's; from there on the rig copies the two legs before,
    # negated, then as they are)
    trace, _ = run_static_stiffness(mode, full_range, ramp_rate=5.0, cycles=3)
    rows, _ = reference_rig_rows(mode, full_range, ramp_rate=5.0, cycles=3)
    for name in ("theta_m", "omega_m"):
        assert [bits(v) for v in getattr(trace, name).tolist()] \
            == [bits(v) for v in rows[name].tolist()], name
