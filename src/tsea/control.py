"""Motor-side position controller.

The controller reads only the motor angle; output-side feedback is
deliberately unavailable. Saturation is applied downstream in plant.step,
never here, so commanded and applied torque can differ only at the clamp.
The protocols in experiments generate their own position and torque
references.
"""

from __future__ import annotations


def p_position(theta_tar: float, theta_m: float, Kp: float) -> float:
    """Proportional position law Kp*(theta_tar - theta_m) [Nm], pre-saturation."""
    return Kp * (theta_tar - theta_m)
