"""Quarter-car benchmark subsimulators.

Two masses (chassis and wheel) joined by a spring-damper, with the wheel on a
tyre spring excited by a step in the road height at t = 0.  The model ships
in two splittings:

* reticulation A: the chassis alone in S1 (solved exactly under a held force),
  everything else in S2 (forward Euler micro steps);
* reticulation B: chassis plus spring-damper in S1, wheel plus tyre in S2,
  forward Euler micro steps on both sides.

A simulator that receives a velocity reconstructs the displacement it needs by
integrating that held input alongside its own states.
"""

from __future__ import annotations

from math import isfinite

from .model import Frozen, PowerBond, PowerPort, SimulatorSlot


class QuarterCarParams(Frozen):
    """Masses, stiffnesses, and the (possibly nonlinear) damping law."""

    _field_defaults = {
        "m_c": 400.0,  # chassis mass [kg]
        "m_w": 40.0,  # wheel mass [kg]
        "k_c": 15000.0,  # suspension spring [N/m]
        "k_w": 150000.0,  # tyre spring [N/m]
        "d_c": 1000.0,  # damping constant
        "n_d": 0.5,  # damping-law exponent knob; 0.5 is exactly linear
    }
    # damping_exponent = 2 / (1 + 2*n_d) is read every micro step; ==, hash and repr skip it
    __slots__ = (*_field_defaults, "damping_exponent")

    def __init__(self, **values: float):
        super().__init__(**values)
        for name in ("m_c", "m_w", "k_c", "k_w", "d_c"):
            value = getattr(self, name)  # d_c = 0 is an undamped car
            if not (isfinite(value) and (value >= 0.0 if name == "d_c" else value > 0.0)):
                least = ">= 0" if name == "d_c" else "> 0"
                raise ValueError(f"{name} must be finite and {least}, got {value!r}")
        n_d = self.n_d
        if not (isfinite(n_d) and 1.0 + 2.0 * n_d > 0.0):
            raise ValueError(f"n_d must be finite with 1 + 2*n_d > 0, got {n_d!r}")
        object.__setattr__(self, "damping_exponent", 2.0 / (1.0 + 2.0 * n_d))


LINEAR_PARAMS = QuarterCarParams()
NONLINEAR_PARAMS = QuarterCarParams(d_c=900.0, n_d=1.5)

PRESETS = {"linear": LINEAR_PARAMS, "nonlinear": NONLINEAR_PARAMS}

RETICULATIONS = ("A", "B")


def preset_params(name: str) -> QuarterCarParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}") from None


#: Road height under the tyre [m].  Every run starts at rest at t = 0 with
#: the road already raised, so the model sees a 0.1 m step at t = 0.
ROAD_HEIGHT = 0.1


def spring_damper_force(
    z_c: float, z_w: float, v_c: float, v_w: float, params: QuarterCarParams
) -> float:
    """Suspension force k_c*(z_c - z_w) + d_c*sign(dv)*|dv|^(2/(1+2*n_d)).

    The damping term is defined as exactly 0 at dv = 0 so the fractional
    exponent never produces a NaN.  At exponent 1 (``n_d = 0.5``) the law is
    bit for bit ``k_c*(z_c - z_w) + (d_c*dv if dv > 0 or dv < 0 else 0.0)``,
    NaN ``dv`` included; the micro-step loops of ``WheelAssembly`` and
    ``ChassisSpringDamper`` rely on that to evaluate the linear law in-line.
    """
    dv = v_c - v_w
    if dv > 0.0:
        damping = params.d_c * dv**params.damping_exponent
    elif dv < 0.0:
        damping = -params.d_c * (-dv) ** params.damping_exponent
    else:
        damping = 0.0
    return params.k_c * (z_c - z_w) + damping


class QuarterCarSlot(SimulatorSlot):
    """State every quarter-car slot shares: the parameters, the micro step
    count, the input held over a macro step, and a count of ``do_step`` calls."""

    n_inputs = 1
    n_outputs = 1

    def __init__(self, params: QuarterCarParams = LINEAR_PARAMS, micro_steps: int = 10):
        if not micro_steps >= 1:
            raise ValueError(f"micro_steps must be at least 1, got {micro_steps}")
        self.params = params
        self.micro_step_ratio = micro_steps
        self.u = 0.0
        self.step_calls = 0

    def set_inputs(self, u):
        self.u = u[0]


class ChassisExact(QuarterCarSlot):
    """Reticulation A, S1: the chassis mass alone.

    Input is the (negated) suspension force; with it held constant the motion
    is solved exactly.  Output is the chassis velocity.
    """

    probe_names = ("z_c", "v_c")

    def __init__(self, params: QuarterCarParams = LINEAR_PARAMS):
        super().__init__(params, micro_steps=1)
        self.z_c = 0.0
        self.v_c = 0.0

    def do_step(self, t, dt):
        self.step_calls += 1
        a = self.u / self.params.m_c
        self.z_c += self.v_c * dt + 0.5 * a * dt * dt
        self.v_c += a * dt

    def get_outputs(self):
        return (self.v_c,)

    def probes(self):
        return (self.z_c, self.v_c)


class WheelAssembly(QuarterCarSlot):
    """Reticulation A, S2: wheel, tyre spring, and the suspension spring-damper.

    Input is the chassis velocity, integrated internally to reconstruct the
    chassis displacement the suspension force needs.  Output is the suspension
    force at the end of the step.  Forward Euler micro stepping with all
    derivatives taken at the start of each substep.
    """

    probe_names = ("z_w", "v_w")

    def __init__(self, params: QuarterCarParams = LINEAR_PARAMS, micro_steps: int = 10):
        super().__init__(params, micro_steps)
        self.z_c_int = 0.0
        self.z_w = 0.0
        self.v_w = 0.0

    def do_step(self, t, dt):
        self.step_calls += 1
        p = self.params
        n = self.micro_step_ratio
        h = dt / n
        u = self.u
        hu = h * u
        k_c, d_c, k_w, m_w = p.k_c, p.d_c, p.k_w, p.m_w
        linear = p.damping_exponent == 1.0
        road = ROAD_HEIGHT
        z_c_int, z_w, v_w = self.z_c_int, self.z_w, self.v_w
        for _ in range(n):
            if linear:
                dv = u - v_w
                f_c = k_c * (z_c_int - z_w) + (d_c * dv if dv > 0.0 or dv < 0.0 else 0.0)
            else:
                f_c = spring_damper_force(z_c_int, z_w, u, v_w, p)
            f_w = k_w * (z_w - road)
            z_c_int += hu
            z_w += h * v_w
            v_w += h * (f_c - f_w) / m_w
        self.z_c_int, self.z_w, self.v_w = z_c_int, z_w, v_w

    def get_outputs(self):
        return (
            spring_damper_force(self.z_c_int, self.z_w, self.u, self.v_w, self.params),
        )

    def probes(self):
        return (self.z_w, self.v_w)


class ChassisSpringDamper(QuarterCarSlot):
    """Reticulation B, S1: chassis mass plus the suspension spring-damper.

    Input is the wheel velocity (integrated to a wheel displacement shadow),
    output is the suspension force at the end of the step.
    """

    probe_names = ("z_c", "v_c")

    def __init__(self, params: QuarterCarParams = LINEAR_PARAMS, micro_steps: int = 10):
        super().__init__(params, micro_steps)
        self.z_c = 0.0
        self.v_c = 0.0
        self.z_w_int = 0.0

    def do_step(self, t, dt):
        self.step_calls += 1
        p = self.params
        n = self.micro_step_ratio
        h = dt / n
        u = self.u
        hu = h * u
        k_c, d_c, m_c = p.k_c, p.d_c, p.m_c
        linear = p.damping_exponent == 1.0
        z_c, v_c, z_w_int = self.z_c, self.v_c, self.z_w_int
        for _ in range(n):
            if linear:
                dv = v_c - u
                f_c = k_c * (z_c - z_w_int) + (d_c * dv if dv > 0.0 or dv < 0.0 else 0.0)
            else:
                f_c = spring_damper_force(z_c, z_w_int, v_c, u, p)
            z_c += h * v_c
            v_c += h * (-f_c) / m_c
            z_w_int += hu
        self.z_c, self.v_c, self.z_w_int = z_c, v_c, z_w_int

    def get_outputs(self):
        return (
            spring_damper_force(self.z_c, self.z_w_int, self.v_c, self.u, self.params),
        )

    def probes(self):
        return (self.z_c, self.v_c)


class WheelOnly(QuarterCarSlot):
    """Reticulation B, S2: wheel mass on the tyre spring.

    Input is the negated suspension force, output the wheel velocity.  The
    micro step count can be dropped to 1 for the low-accuracy variant.
    """

    probe_names = ("z_w", "v_w")

    def __init__(self, params: QuarterCarParams = LINEAR_PARAMS, micro_steps: int = 10):
        super().__init__(params, micro_steps)
        self.z_w = 0.0
        self.v_w = 0.0

    def do_step(self, t, dt):
        self.step_calls += 1
        p = self.params
        n = self.micro_step_ratio
        h = dt / n
        f_c = -self.u  # held suspension force acting on the wheel
        k_w, m_w = p.k_w, p.m_w
        road = ROAD_HEIGHT
        z_w, v_w = self.z_w, self.v_w
        for _ in range(n):
            f_w = k_w * (z_w - road)
            z_w += h * v_w
            v_w += h * (f_c - f_w) / m_w
        self.z_w, self.v_w = z_w, v_w

    def get_outputs(self):
        return (self.v_w,)

    def probes(self):
        return (self.z_w, self.v_w)


class MonolithicQuarterCar(QuarterCarSlot):
    """The full 4-state model in a single slot: no bonds, no coupling error.

    Uses the same forward Euler micro stepping as the split simulators and
    carries a shadow chassis displacement updated from the chassis velocity
    exactly the way a velocity-input reconstruction would, for drift checks.
    """

    n_inputs = 0
    n_outputs = 0
    probe_names = ("z_c", "v_c", "z_w", "v_w")

    def __init__(self, params: QuarterCarParams = LINEAR_PARAMS, micro_steps: int = 10):
        super().__init__(params, micro_steps)
        self.z_c = 0.0
        self.v_c = 0.0
        self.z_w = 0.0
        self.v_w = 0.0
        self.z_c_int = 0.0

    def set_inputs(self, u):
        pass

    def do_step(self, t, dt):
        self.step_calls += 1
        p = self.params
        n = self.micro_step_ratio
        h = dt / n
        k_w, m_c, m_w = p.k_w, p.m_c, p.m_w
        road = ROAD_HEIGHT
        z_c, v_c, z_w, v_w, z_c_int = self.z_c, self.v_c, self.z_w, self.v_w, self.z_c_int
        for _ in range(n):
            f_c = spring_damper_force(z_c, z_w, v_c, v_w, p)
            f_w = k_w * (z_w - road)
            z_c += h * v_c
            z_c_int += h * v_c
            z_w += h * v_w
            v_c += h * (-f_c) / m_c
            v_w += h * (f_c - f_w) / m_w
        self.z_c, self.v_c, self.z_w, self.v_w, self.z_c_int = z_c, v_c, z_w, v_w, z_c_int

    def get_outputs(self):
        return ()

    def probes(self):
        return (self.z_c, self.v_c, self.z_w, self.v_w)


def build_reticulation(
    kind: str,
    params: QuarterCarParams,
    micro_s1: int = 10,
    micro_s2: int = 10,
) -> tuple[list[SimulatorSlot], tuple[PowerBond, ...]]:
    """Assemble the two slots and the single power bond for a reticulation.

    Reticulation A couples -force into the chassis and velocity into the wheel
    assembly; reticulation B couples wheel velocity into the chassis side and
    -force into the wheel.  For A the chassis is solved exactly, so
    ``micro_s1`` is ignored there.

    The bond's effort port is the slot that outputs the force (slot 1 in A,
    slot 0 in B), so the bond sign is +1 and the transmitted power is the
    plain force-times-velocity product in both reticulations.
    """
    if kind not in RETICULATIONS:
        raise ValueError(f"unknown reticulation {kind!r}, expected one of {RETICULATIONS}")
    if kind == "A":
        slots: list[SimulatorSlot] = [
            ChassisExact(params),
            WheelAssembly(params, micro_steps=micro_s2),
        ]
    else:
        slots = [
            ChassisSpringDamper(params, micro_steps=micro_s1),
            WheelOnly(params, micro_steps=micro_s2),
        ]
    force = 1 if kind == "A" else 0
    return slots, (PowerBond(PowerPort(force, 0, 0), PowerPort(1 - force, 0, 0), sigma=1),)
