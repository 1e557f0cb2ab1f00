"""Command-line entry point: one subcommand per experiment protocol.

Every subcommand writes trace.csv, report.json and plot.svg under --out and
prints a one-paragraph summary. Exit codes: 0 success, 1 argument/validation
error, 2 simulation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments, io
from .experiments import InvariantViolation
from .params import resolve_preset
from .plant import Mode, SimulationError
from .spring_hub import effective_length, hub_torque, linearized_stiffness

# hub-curve evaluates and writes its sweep one point at a time: 1,000,000 points
# take about 10 s and write about 60 MB
MAX_SWEEP_POINTS = 1_000_000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        usage = " ".join(self.format_usage().split())  # one line however wide
        raise CliError(f"{message} ({usage})")

    def parse_known_args(self, args=None, namespace=None):
        # subparsers are _Parsers too: each rejects its own leftovers, so a flag
        # is reported with the usage of the parser it was given to
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> _Parser:
    parser = _Parser(prog="tsea", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, noise: bool = True) -> None:
        sp.add_argument("--preset", default="calibrated",
                        help="named preset or path to a preset JSON file")
        sp.add_argument("--out", default="out", help="output directory")
        if noise:  # hub-curve logs no output angle to perturb
            sp.add_argument("--seed", type=int, default=0, help="noise seed")
            sp.add_argument("--noise", action="store_true",
                            help="apply encoder noise to the logged output angle")

    sp = sub.add_parser("stiffness", help="locked-output quasi-static stiffness test")
    sp.add_argument("--mode", choices=("sea", "pea"), required=True)
    sp.add_argument("--cycles", type=int, default=3)
    sp.add_argument("--rate", type=float, default=0.2, help="torque ramp rate [Nm/s]")
    common(sp)

    sp = sub.add_parser("track", help="sinusoidal tracking with periodic topology switches")
    sp.add_argument("--duration", type=float, default=30.0)
    sp.add_argument("--period", type=float, default=5.0, help="switch request period [s]")
    common(sp)

    sp = sub.add_parser("disturb", help="impulse disturbance rejection under position hold")
    sp.add_argument("--mode", choices=("sea", "pea"), required=True)
    sp.add_argument("--impacts", type=int, default=None,
                    help="number of impacts (default 6 sea / 5 pea)")
    sp.add_argument("--impulse", type=float, default=experiments.IMPACT_TORQUE_NM,
                    help="impact pulse torque [Nm]")
    common(sp)

    sp = sub.add_parser("cycle", help="switching endurance run")
    sp.add_argument("--n", type=int, default=324, help="number of switches")
    common(sp)

    sp = sub.add_parser("hub-curve", help="sweep the nonlinear hub torque curve")
    sp.add_argument("--range", type=float, default=0.5, dest="sweep_range",
                    help="sweep limit [rad]; grid covers ±range")
    sp.add_argument("--steps", type=int, default=201)
    common(sp, noise=False)
    return parser


def _positive(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise CliError(f"{flag} must be finite (got {value})")
    if value <= 0.0:
        raise CliError(f"{flag} must be positive (got {value})")


def _check_out(out: str) -> None:
    """Reject an --out that cannot be made a directory before any run: the
    path itself, or else its nearest existing ancestor, must be a directory."""
    path = Path(out)
    try:
        while not (path.exists() or path.is_symlink()):  # a dangling link exists
            path = path.parent
    except OSError as exc:  # a name too long
        raise CliError(f"--out {out!r}: {exc.strerror or exc}") from exc
    if not path.is_dir():
        raise CliError(f"--out {out!r}: {str(path)!r} exists and is not a directory")


def _check_args(args) -> None:
    """Reject a bad --out and bad hub-curve numbers before any file is
    written. The protocols check their own arguments and raise ValueError
    before they simulate."""
    _check_out(args.out)
    if args.command == "hub-curve":
        _positive("--range", args.sweep_range)
        if not math.isfinite(2.0 * args.sweep_range):  # the span of the grid
            raise CliError(f"--range must span a finite interval (got {args.sweep_range})")
        if not 2 <= args.steps <= MAX_SWEEP_POINTS:
            raise CliError(f"--steps must be between 2 and {MAX_SWEEP_POINTS} (got {args.steps})")


def _write_outputs(args, trace, report_dict: dict, svg_series: dict,
                   svg_bands, title: str) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the report goes first: a non-finite value fails before the large CSV is written
    io.write_report_json(report_dict, out_dir / "report.json")
    if args.noise:
        trace = io.apply_noise(trace, args.seed)
    io.write_trace_csv(trace, out_dir / "trace.csv")
    io.emit_svg_plot(trace.t, svg_series, out_dir / "plot.svg",
                     bands=svg_bands, title=title)


def _run_stiffness(args, preset) -> None:
    mode = Mode.SEA if args.mode == "sea" else Mode.PEA
    trace, report = experiments.run_static_stiffness(mode, preset, ramp_rate=args.rate,
                                                     cycles=args.cycles)
    _write_outputs(
        args, trace, report.as_dict(),
        {"theta_m [rad]": trace.theta_m, "tau_applied [Nm]": trace.tau_applied},
        None, f"stiffness {args.mode}: K_fit={report.K_fit_nm_per_rad:.3f} Nm/rad",
    )
    print(f"stiffness {args.mode}: K_fit = {report.K_fit_nm_per_rad:.4f} "
          f"± {report.K_stderr_nm_per_rad:.4f} Nm/rad, loop area = "
          f"{report.loop_area_nm_rad:.4f} Nm·rad over {len(report.k_per_cycle)} cycles")


def _run_track(args, preset) -> None:
    trace, report = experiments.run_dynamic_switching(preset, duration=args.duration,
                                                      switch_period=args.period)
    bands = io.mode_bands(trace)
    _write_outputs(
        args, trace, report.as_dict(),
        {"theta_m [rad]": trace.theta_m, "theta_o [rad]": trace.theta_o,
         "i_q [A]": trace.i_q},
        bands, "dynamic switching",
    )
    print(f"track: {report.switches_completed} switches completed, "
          f"{report.retried_attempts} retried attempts")
    for name, stats in report.per_mode.items():
        print("  {}: rms error {rms_error_rad:.4f} rad, rms i_q {rms_iq_a:.2f} A, "
              "peak i_q {peak_iq_a:.2f} A".format(name, **stats))


def _run_disturb(args, preset) -> None:
    mode = Mode.SEA if args.mode == "sea" else Mode.PEA
    trace, report = experiments.run_disturbance(mode, preset, n_impacts=args.impacts,
                                                impact_torque=args.impulse)
    _write_outputs(
        args, trace, report.as_dict(),
        {"theta_o [rad]": trace.theta_o, "i_q [A]": trace.i_q},
        None, f"disturbance {args.mode}",
    )
    settle = ("n/a" if report.mean_settling_ms is None
              else f"{report.mean_settling_ms:.0f} ms")
    print(f"disturb {args.mode}: mean peak {report.mean_peak_deg:.2f} deg, "
          f"mean settling {settle} over {len(report.peaks_deg)} impacts")


def _run_cycle(args, preset) -> None:
    trace, report = experiments.run_switch_cycle(preset, n=args.n)
    bands = io.mode_bands(trace)
    _write_outputs(
        args, trace, report.as_dict(),
        {"theta_m [rad]": trace.theta_m, "tau_spring [Nm]": trace.tau_spring},
        bands, f"endurance: {report.completed} switches",
    )
    print(f"cycle: {report.completed} completed, {report.rejected} rejected, "
          f"0 violations, max engagement KE loss {report.max_ke_loss_j:.2e} J")


def _run_hub_curve(args, preset) -> None:
    # every value first, then the report before the trace, as _write_outputs
    # does: a value strict JSON refuses stops the run before any trace is written
    betas = np.linspace(-args.sweep_range, args.sweep_range, args.steps)
    taus = np.array([hub_torque(preset.hub, float(b)) for b in betas])
    lengths = np.array([effective_length(preset.hub, float(b)) for b in betas])
    k_lin = linearized_stiffness(preset.hub)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_report_json(dict(k_linearized_nm_per_rad=k_lin, sweep_range_rad=args.sweep_range,
                              steps=args.steps), out_dir / "report.json")
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        fh.write("beta,tau_hub,l_eff\n")
        for b, tau, l in zip(betas, taus, lengths):
            fh.write(f"{float(b)!r},{float(tau)!r},{float(l)!r}\n")
    io.emit_svg_plot(betas, {"tau_hub [Nm]": taus, "l_eff [mm]": lengths},
                     out_dir / "plot.svg", title=f"hub curve, K_lin={k_lin:.3f} Nm/rad")
    print(f"hub-curve: {args.steps} points over ±{args.sweep_range} rad, "
          f"K_lin = {k_lin:.4f} Nm/rad")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        preset = resolve_preset(args.preset)
        if args.command != "hub-curve" and args.seed < 0:  # before any step
            raise CliError(f"seed must be non-negative (got {args.seed})")
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runners = {
        "stiffness": _run_stiffness,
        "track": _run_track,
        "disturb": _run_disturb,
        "cycle": _run_cycle,
        "hub-curve": _run_hub_curve,
    }
    try:
        runners[args.command](args, preset)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, InvariantViolation) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
