"""Command-line interface: dispersion tables, verification runs, chain
simulation, plane-wave catalogs, and packet evolution.

Output conventions: every subcommand echoes the resolved unit system and mass
ratio on comment lines starting with '#'; floats are written in shortest
round-trip form; CSV uses '\\n' line endings.  Exit codes: 0 success, 1
verification/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import chain as chain_mod
from . import dispersion, evolution, planewaves, verify
from .params import ChainParams, ParameterError, QuantumParams


def _bounded(convert, low=-math.inf, strict=False):
    """argparse type: a finite int or float, at least low (above low if strict)."""
    def parse(text: str):
        try:
            value = convert(text)
            valid = math.isfinite(value) and (value > low or (value == low and not strict))
        except (ValueError, OverflowError):  # not a number, or an int beyond float range
            valid = False
        if not valid:
            bound = f" {'>' if strict else '>='} {low}" if low > -math.inf else ""
            raise argparse.ArgumentTypeError(
                f"must be a finite {convert.__name__}{bound}, got {text!r}")
        return value

    return parse


_finite_float = _bounded(float)
_positive_int = _bounded(int, 1)
_positive_float = _bounded(float, 0.0, strict=True)
_nonnegative_float = _bounded(float, 0.0)


class _UsageError(Exception):
    """A subcommand's arguments are unusable; ``main`` reports it and returns 2."""


class _SubcommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _unit_params(args) -> QuantumParams:
    if args.units == "natural":
        return QuantumParams()
    return QuantumParams(m_e=args.m_e, c=args.c, hbar=args.hbar)


def _header(args, epsilon) -> list[str]:
    if args.units == "natural":
        units = "natural (hbar = c = m_e = 1)"
    else:
        units = f"custom (m_e={args.m_e!r}, c={args.c!r}, hbar={args.hbar!r})"
    return [f"# units: {units}", f"# epsilon: {epsilon!r}"]


def _csv(head: list[str], rows) -> str:
    """Header lines, then one line per row of ``.tolist()`` numbers, each written by ``repr``."""
    return "\n".join(head + [",".join(map(repr, row)) for row in rows]) + "\n"


def _write(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _add_unit_flags(p) -> None:
    p.add_argument("--units", choices=("natural", "custom"), default="natural")
    p.add_argument("--m-e", type=_positive_float, default=1.0, help="rest mass (custom units)")
    p.add_argument("--c", type=_positive_float, default=1.0, help="speed of light (custom units)")
    p.add_argument("--hbar", type=_positive_float, default=1.0,
                   help="reduced Planck constant (custom units)")


def cmd_dispersion(args) -> int:
    eps_list = args.epsilon if args.epsilon else [0.5]
    base = _unit_params(args)
    grid = np.linspace(-args.pmax, args.pmax, args.n)
    _write(args.output, "".join(
        _csv(_header(args, eps) + [",".join(dispersion.FIGURE2_COLUMNS)],
             dispersion.figure2_table(eps, grid, base).tolist())
        for eps in eps_list))
    return 0


def cmd_verify(args) -> int:
    rep = verify.full_report(epsilon=args.epsilon, corrupt=args.corrupt,
                             fast=args.fast)
    lines = _header(args, args.epsilon) + rep.lines()
    print("\n".join(lines))
    if args.output:
        _write(args.output, json.dumps(
            {"epsilon": args.epsilon, "passed": rep.passed,
             "notes": rep.notes, "checks": rep.to_rows()}, indent=2) + "\n")
    return 0 if rep.passed else 1


def cmd_chain(args) -> int:
    params = ChainParams(m=args.m, M=args.M, K=args.K, I=args.I, J=args.J, a=args.a)
    try:
        state = chain_mod.init_mode(args.n, args.mode, args.amplitude, args.branch, params)
    except ValueError as exc:
        raise _UsageError(f"chain: {exc}") from None
    omega_max = chain_mod.max_frequency(params)
    dt = args.dt if args.dt is not None else 0.01 / omega_max
    if dt * omega_max >= 2.0:
        print("chain: time step violates the stability bound dt * omega_max < 2",
              file=sys.stderr)
        return 1

    k = 2 * math.pi * args.mode / (args.n * params.a)
    mp = chain_mod.discrete_dispersion(k, params)
    omega = mp.omega_acoustic if args.branch == "acoustic" else mp.omega_optical
    sim_time = args.periods * 2 * math.pi / omega if omega > 0 else 100 * dt
    n_steps = max(int(sim_time / dt), 1)
    record_every = max(n_steps // 400, 1)
    times, us, Us, dus, dUs, _ = chain_mod.simulate(state, dt, n_steps, params,
                                                    record_every=record_every)
    # the uniform translation mode (omega = 0) does not oscillate
    measured = chain_mod.measure_mode_frequency(times, us[:, 0]) if omega > 0 else 0.0

    scales = chain_mod.characteristic_scales(params)
    rows = (row for t, *sample in zip(times.tolist(), us, Us, dus, dUs)
            for row in zip([t] * args.n, range(args.n), *(a.tolist() for a in sample)))
    _write(args.output, _csv(_header(args, scales.epsilon) + ["t,site,u,U,du_dt,dU_dt"], rows))

    slope = chain_mod.convergence_exponent(params, (0.2, 0.1, 0.05, 0.025)) \
        if min(params.I, params.J) > 0 else None
    summary = {
        "mode_index": args.mode, "branch": args.branch, "wavenumber": k,
        "omega_dispersion": omega, "omega_measured": measured,
        "relative_error": abs(measured - omega) / omega if omega > 0 else 0.0,
        "continuum_convergence_exponent": slope,
        "epsilon": scales.epsilon,
    }
    _write(args.summary, json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_solutions(args) -> int:
    qp = _unit_params(args).replace_epsilon(args.epsilon)
    sols = planewaves.catalog_eight(args.pz, qp)
    rng = np.random.default_rng(0)
    pts = [(t, z) for t, z in rng.uniform(-10, 10, size=(20, 2))]
    entries = []
    for s in sols:
        entries.append({
            "branch": s.branch.label,
            "spin": s.spin,
            "p_z": s.p_z,
            "E": s.E,
            "amplitudes": [[float(a.real), float(a.imag)] for a in s.amplitudes],
            "residual": planewaves.residual(s, pts, qp),
            "form": s.form,
        })
    det = abs(np.linalg.det(planewaves.stacked_amplitude_matrix(sols)))
    print("\n".join(_header(args, args.epsilon)))
    _write(args.output, json.dumps(
        {"p_z": args.pz, "epsilon": args.epsilon,
         "independence_determinant": det, "solutions": entries}, indent=2) + "\n")
    return 0


def cmd_evolve(args) -> int:
    qp = _unit_params(args).replace_epsilon(args.epsilon)
    try:
        branch = dispersion.parse_branch(args.branch)
        spec = evolution.PacketSpec(k0=args.k0, sigma=args.sigma, branch=branch,
                                    center=args.center)
        state0 = evolution.init_packet(spec, args.n_grid, args.L, qp)
    except ValueError as exc:
        raise _UsageError(f"evolve: {exc}") from None

    dt = args.t_total / args.samples
    snapshots = [state0]
    times = [0.0]
    positions = [evolution.packet_centroid(state0)]
    samples = evolution.evolve_samples(state0, dt, args.samples, qp, method=args.method)
    for i, state in enumerate(samples, start=1):
        times.append(state.t)
        positions.append(evolution.packet_centroid(state))
        if i in (args.samples // 2, args.samples):
            snapshots.append(state)

    rows = (row for s in snapshots for row in zip(
        [float(s.t)] * s.n_grid, s.z.tolist(), *(np.abs(s.fields) ** 2).tolist()))
    head = _header(args, args.epsilon) + ["t,z,psi1_sq,psi3_sq,phi1_sq,phi3_sq"]
    _write(args.output, _csv(head, rows))

    v_meas, _ = evolution.centroid_velocity(times, positions, args.L)
    v_ref = dispersion.group_velocity(branch, args.k0, qp) if args.k0 != 0 else 0.0
    summary = {
        "branch": branch.label, "k0": args.k0, "epsilon": args.epsilon,
        "measured_group_velocity": v_meas, "analytic_group_velocity": v_ref,
        "relative_error": abs(v_meas - v_ref) / abs(v_ref) if v_ref else None,
    }
    _write(args.summary, json.dumps(summary, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac8",
        description="Coupled-branch relativistic wave toolkit: dispersion tables, "
                    "plane-wave catalogs, chain simulation, packet evolution, and "
                    "verification reports.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p = sub.add_parser("dispersion", help="branch-energy table on a momentum grid")
    p.add_argument("--epsilon", type=_nonnegative_float, action="append", default=None,
                   help="mass ratio; repeat for several datasets (default 0.5)")
    p.add_argument("--pmax", type=_positive_float, default=3.0)
    p.add_argument("--n", type=_bounded(int, 2), default=121)
    p.add_argument("--output", "-o", default=None)
    _add_unit_flags(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--epsilon", type=_nonnegative_float, default=0.5)
    p.add_argument("--fast", action="store_true",
                   help="skip the slower packet-velocity measurements")
    p.add_argument("--corrupt", choices=("b3-ratio",), default=None, help=argparse.SUPPRESS)
    p.add_argument("--output", "-o", default=None, help="also write a JSON report")
    _add_unit_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chain", help="simulate one normal mode of the ring")
    p.add_argument("--m", type=_positive_float, default=1.0)
    p.add_argument("--M", type=_positive_float, default=4.0)
    p.add_argument("--K", type=_positive_float, default=1.0)
    p.add_argument("--I", type=_nonnegative_float, default=1.0)
    p.add_argument("--J", type=_nonnegative_float, default=1.0)
    p.add_argument("--a", type=_positive_float, default=1.0)
    p.add_argument("--mode", type=int, default=2)
    p.add_argument("--n", type=int, default=128, help="number of ring sites")
    p.add_argument("--branch", choices=("acoustic", "optical"), default="optical")
    p.add_argument("--amplitude", type=_positive_float, default=1e-3)
    p.add_argument("--periods", type=_bounded(float, 3.0), default=8.0,
                   help="run length in periods; the frequency fit needs at least 3")
    p.add_argument("--dt", type=_positive_float, default=None)
    p.add_argument("--output", "-o", default=None, help="trajectory CSV")
    p.add_argument("--summary", default=None, help="summary JSON path")
    p.add_argument("--units", choices=("natural",), default="natural",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("solutions", help="catalog of the eight plane-wave solutions")
    p.add_argument("--pz", type=_finite_float, default=1.0)
    p.add_argument("--epsilon", type=_nonnegative_float, default=0.5)
    p.add_argument("--output", "-o", default=None)
    _add_unit_flags(p)
    p.set_defaults(func=cmd_solutions)

    p = sub.add_parser("evolve", help="evolve a single-branch wave packet")
    p.add_argument("--branch", default="optical+",
                   choices=[b.label for b in dispersion.BRANCHES])
    p.add_argument("--k0", type=_finite_float, default=1.0)
    p.add_argument("--epsilon", type=_nonnegative_float, default=0.5)
    p.add_argument("--sigma", type=_positive_float, default=5.0)
    p.add_argument("--center", type=_finite_float, default=50.0)
    p.add_argument("--n-grid", type=_positive_int, default=1024)
    p.add_argument("--L", type=_positive_float, default=200.0)
    p.add_argument("--t-total", type=_positive_float, default=40.0)
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--method", choices=("spectral", "rk4"), default="spectral")
    p.add_argument("--output", "-o", default=None, help="snapshot CSV")
    p.add_argument("--summary", default=None, help="summary JSON path")
    _add_unit_flags(p)
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ParameterError as exc:  # flags that pass argparse but give no usable parameter set
        print(f"dirac8 {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
