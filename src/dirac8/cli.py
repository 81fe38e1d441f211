"""Command-line interface: dispersion tables, verification runs, chain
simulation, plane-wave catalogs, and packet evolution.

Output conventions: every subcommand echoes the resolved unit system and mass
ratio on comment lines starting with '#'; floats are written in shortest
round-trip form, byte for byte as ``repr`` writes them (CSV cells by
``textfmt.cells``, a pass of rows at a time on up to two worker threads, see
``_csv``); CSV uses '\\n' line endings.
Exit codes: 0 success, 1 verification/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import itertools
import json
import math
import os
import platform
import sys

import numpy as np

from . import chain as chain_mod
from . import dispersion, evolution, planewaves, textfmt, verify
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
    """The arguments are unusable; ``main`` writes the message on one error line, returns 2."""


class _RunError(Exception):
    """The run failed; ``main`` writes the message on one error line and returns 1."""


class _SubcommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_NATURAL = "natural (hbar = c = m_e = 1)"


def _unit_params(args, epsilon) -> tuple[QuantumParams, str]:
    """The parameters the unit flags give at this epsilon, and their line for ``_header``."""
    units = (_NATURAL if (args.m_e, args.c, args.hbar) == (1.0, 1.0, 1.0)
             else f"custom (m_e={args.m_e!r}, c={args.c!r}, hbar={args.hbar!r})")
    return QuantumParams(m_e=args.m_e, epsilon=epsilon, c=args.c, hbar=args.hbar), units


def _header(units: str, epsilon) -> list[str]:
    return [f"# units: {units}", f"# epsilon: {epsilon!r}"]


_CHUNK_CELLS = 16384  # cells formatted per pass, which bounds the memory a pass takes


def _csv(head: list[str], shape, columns):
    """Yield the header lines, then the table's CSV lines, one pass of about 16k cells at a time.

    The table has a row per index of ``shape``, in C order.  Each column has
    an axis per axis of ``shape``, of its length or of length 1 where the
    column broadcasts, and holds either float64 values or cells already
    written: uint8 text, NUL-padded along one more trailing axis.  Each pass
    is formatted by ``_pass`` on a pool of worker threads, one per usable CPU
    up to two, and yielded in order, so the bytes do not depend on the worker
    count.  Each pass runs in a copy of the caller's context, so it keeps the
    caller's ``np.errstate``.  At most one pass more than there are workers is
    in flight, which bounds the memory.  Closing the generator early, or an
    error in a pass, cancels the queued passes and joins the workers.
    """
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    yield "".join(line + "\n" for line in head)
    n_rows = math.prod(shape)
    step = max(_CHUNK_CELLS // len(columns), 1)
    textfmt.cells(())  # builds the kernel's tables here, not in two workers at once
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    workers = min(2, usable)
    pool = ThreadPoolExecutor(workers, thread_name_prefix="dirac8-csv")
    pending = collections.deque()
    try:
        for start in range(0, n_rows, step):
            pending.append(pool.submit(contextvars.copy_context().run, _pass, shape, columns,
                                       start, min(start + step, n_rows)))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _pass(shape, columns, start: int, stop: int) -> str:
    """The CSV lines of rows start to stop of ``_csv``'s table.

    A pass gathers from each column its own rows and no more; a column that
    broadcasts is read at index 0 along its length-1 axes.  The float columns
    are taken first and written by ``textfmt.cells``, byte for byte as
    ``repr`` writes them; then every column's cells and the separators are
    laid into one NUL-padded byte block, compacted once and decoded once.
    """
    index = np.unravel_index(np.arange(start, stop), shape)

    def rows(col):
        return col[tuple(i if n > 1 else 0 for i, n in zip(index, col.shape))]

    written = iter(textfmt.cells(np.stack([rows(col) for col in columns
                                           if col.dtype != np.uint8])))
    comma = np.full((stop - start, 1), ord(","), dtype=np.uint8)
    block = np.concatenate([part for col in columns for part in
                            (rows(col) if col.dtype == np.uint8 else next(written), comma)],
                           axis=1)
    del written, index  # the block holds the cells now; free them before compacting it
    block[:, -1] = ord("\n")
    text = block[block != 0]
    del block
    return str(text, "ascii")


def _write(path, chunks) -> None:
    """Write an iterable of text chunks, each as it comes, to path or stdout."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(chunks)


def _add_unit_flags(p) -> None:
    p.add_argument("--m-e", type=_positive_float, default=1.0, help="rest mass")
    p.add_argument("--c", type=_positive_float, default=1.0, help="speed of light")
    p.add_argument("--hbar", type=_positive_float, default=1.0, help="reduced Planck constant")


def cmd_dispersion(args) -> int:
    eps_list = args.epsilon if args.epsilon else [0.5]
    base, units = _unit_params(args, max(eps_list))
    # the largest energy in the table is the optical one at pmax and the largest epsilon
    if not math.isfinite(dispersion.branch_energy(dispersion.OPTICAL_PLUS, args.pmax, base)):
        raise _UsageError(f"the optical energy at --pmax {args.pmax!r} overflows")
    grid = np.linspace(-args.pmax, args.pmax, args.n)
    _write(args.output, itertools.chain.from_iterable(
        _csv(_header(units, eps) + [",".join(dispersion.FIGURE2_COLUMNS)], grid.shape,
             dispersion.figure2_table(grid, dataclasses.replace(base, epsilon=eps)).T)
        for eps in eps_list))
    return 0


def cmd_verify(args) -> int:
    rep = verify.full_report(epsilon=args.epsilon)
    lines = _header(_NATURAL, args.epsilon) + rep.lines()
    print("\n".join(lines))
    if args.output:
        _write(args.output, [json.dumps(
            {"epsilon": args.epsilon, "seed": verify.SEED,
             "versions": {"python": platform.python_version(), "numpy": np.__version__,
                          "platform": platform.platform()},
             "passed": rep.passed, "notes": rep.notes, "checks": rep.to_rows(),
             "timings": rep.timings},
            indent=2) + "\n"])
    return 0 if rep.passed else 1


_FRAMES = 400  # about the frames a chain run records, whatever its length
_MAX_PERIODS = _FRAMES // 8  # fewer than 8 frames a period would alias the measured frequency


def cmd_chain(args) -> int:
    if args.periods > _MAX_PERIODS:
        raise _UsageError(f"--periods {args.periods!r} is above {_MAX_PERIODS!r}: the "
                          f"{_FRAMES} recorded frames would sample each period fewer than 8 times")
    params = ChainParams(m=args.m, M=args.M, K=args.K, I=args.I, J=args.J, a=args.a)
    try:
        state = chain_mod.init_mode(args.n, args.mode, args.amplitude, args.branch, params)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    omega_max = chain_mod.max_frequency(params)
    dt = args.dt if args.dt is not None else 0.01 / omega_max
    margin = dt * omega_max
    if margin >= 2.0:
        raise _RunError("time step violates the stability bound dt * omega_max < 2")

    k = 2 * math.pi * args.mode / (args.n * params.a)
    omega = chain_mod.discrete_dispersion(k, params)[0][dispersion.KINDS.index(args.branch)]
    sim_time = args.periods * 2 * math.pi / omega if omega > 0 else 100 * dt
    if sim_time + dt == sim_time:  # the run would never end; this also bounds sim_time / dt
        raise _UsageError(f"a step of {float(dt)!r} does not advance the clock at "
                          f"{float(sim_time)!r}; raise --dt or lower --periods")
    n_steps = max(int(sim_time / dt), 1)
    record_every = max(n_steps // _FRAMES, 1)
    times, samples, final = chain_mod.simulate(state, dt, n_steps, params,
                                               record_every=record_every)
    try:  # the uniform translation mode (omega = 0) does not oscillate
        # at the exact spacing of the recorded steps, not the summed clock of the t column
        measured = chain_mod.measure_mode_frequency(
            record_every * dt * np.arange(len(times)), samples.u[:, 0]) if omega > 0 else 0.0
    except ValueError as exc:  # e.g. an amplitude so small that the displacements underflow
        raise _RunError(str(exc)) from None

    # the summary's arithmetic runs before any output, so an overflow in it leaves no file
    slope = chain_mod.convergence_exponent(params) if min(params.I, params.J) > 0 else None
    e0, e1 = (chain_mod.total_energy(s, params) for s in (state, final))
    h0, h1 = (chain_mod.modified_energy(s, dt, params) for s in (state, final))
    omega_verlet = float(chain_mod.verlet_frequency(omega, dt))
    sites = np.arange(args.n).astype("S")
    head = _header(_NATURAL, params.epsilon) + ["t,site,u,U,du_dt,dU_dt"]
    _write(args.output, _csv(head, samples.u.shape, [
        textfmt.cells(times)[:, None], sites.view(np.uint8).reshape(1, args.n, -1),
        samples.u, samples.U, samples.du_dt, samples.dU_dt]))

    summary = {
        "mode_index": args.mode, "branch": args.branch, "wavenumber": k,
        "omega_dispersion": omega, "omega_measured": measured,
        "relative_error": abs(measured - omega) / omega if omega > 0 else 0.0,
        "continuum_convergence_exponent": slope,
        "epsilon": params.epsilon,
        "dt": dt, "n_steps": n_steps, "n_samples": len(times), "stability_margin": margin,
        "relative_energy_drift": abs(e1 - e0) / e0 if e0 > 0 else None,
        "omega_verlet": omega_verlet,
        "relative_modified_energy_drift": abs(h1 - h0) / h0 if h0 > 0 else None,
    }
    _write(args.summary, [json.dumps(summary, indent=2) + "\n"])
    return 0


def cmd_solutions(args) -> int:
    qp, units = _unit_params(args, args.epsilon)
    sols = planewaves.catalog_eight(args.pz, qp)
    entries = []
    for s in sols:
        entries.append({
            "branch": s.branch.label,
            "spin": s.spin,
            "p_z": s.p_z,
            "E": s.E,
            "amplitudes": [[float(a.real), float(a.imag)] for a in s.amplitudes],
            "residual": planewaves.residual(s, qp),
            "form": s.form,
        })
    det = abs(np.linalg.det([s.amplitudes for s in sols]))
    print("\n".join(_header(units, args.epsilon)))
    _write(args.output, [json.dumps(
        {"p_z": args.pz, "epsilon": args.epsilon,
         "independence_determinant": det, "solutions": entries}, indent=2) + "\n"])
    return 0


def cmd_evolve(args) -> int:
    qp, units = _unit_params(args, args.epsilon)
    try:
        branch = dispersion.parse_branch(args.branch)
        spec = evolution.PacketSpec(k0=args.k0, sigma=args.sigma, branch=branch,
                                    center=args.center)
        state0 = evolution.init_packet(spec, args.n_grid, args.L, qp)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    if args.t_total * args.t_total == 0:  # the centroid fit scales the times by their norm
        raise _UsageError(f"--t-total {args.t_total!r} is too short to square")
    dt = args.t_total / args.samples
    if qp.c * dt >= args.L / 2:  # no branch outruns c, so this bounds a step's travel
        raise _UsageError(f"a packet can travel c * t_total / samples = {qp.c * dt!r}, "
                          "at least L/2, between samples; raise --samples")
    snapshots = [state0]
    times = [0.0]
    positions = [evolution.packet_centroid(state0)]
    samples = evolution.evolve_samples(state0, dt, args.samples, qp)
    for i, state in enumerate(samples, start=1):
        times.append(state.t)
        positions.append(evolution.packet_centroid(state))
        if i in (args.samples // 2, args.samples):
            snapshots.append(state)

    intensities = np.array([np.abs(s.fields) ** 2 for s in snapshots]).transpose(1, 0, 2)
    head = _header(units, args.epsilon) + ["t,z,psi1_sq,psi3_sq,phi1_sq,phi3_sq"]
    _write(args.output, _csv(head, intensities.shape[1:], [
        textfmt.cells([s.t for s in snapshots])[:, None], textfmt.cells(state0.z)[None],
        *intensities]))

    v_meas, _ = evolution.centroid_velocity(times, positions, args.L)
    v_ref = dispersion.group_velocity(branch, args.k0, qp) + 0.0  # writes optical- -0.0 as 0.0
    summary = {
        "branch": branch.label, "k0": args.k0, "epsilon": args.epsilon,
        "measured_group_velocity": v_meas, "analytic_group_velocity": v_ref,
        "relative_error": abs(v_meas - v_ref) / abs(v_ref) if v_ref else None,
    }
    _write(args.summary, [json.dumps(summary, indent=2) + "\n"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _SubcommandParser(
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
    p.add_argument("--output", "-o", default=None, help="also write a JSON report")
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
    p.add_argument("--branch", choices=dispersion.KINDS, default="optical")
    p.add_argument("--amplitude", type=_positive_float, default=1e-3)
    p.add_argument("--periods", type=_bounded(float, 3.0), default=8.0,
                   help="run length in periods, 3 to 50: the frequency fit needs at least 3, "
                        "and at least 8 of the ~400 recorded frames a period")
    p.add_argument("--dt", type=_positive_float, default=None)
    p.add_argument("--output", "-o", default=None, help="trajectory CSV")
    p.add_argument("--summary", default=None, help="summary JSON path")
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
    p.add_argument("--output", "-o", default=None, help="snapshot CSV")
    p.add_argument("--summary", default=None, help="summary JSON path")
    _add_unit_flags(p)
    p.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a failure writes one ``dirac8 <command>: error: …`` line."""
    args = argparse.Namespace(command=None)  # the subcommand is named before its flags parse
    try:
        # unknown flags are reported on one line, like the subcommands' other usage errors
        _, unknown = build_parser().parse_known_args(argv, args)
        if unknown:
            raise _UsageError("unrecognized arguments: " + " ".join(unknown))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (_UsageError, ParameterError) as exc:  # bad flags, or no usable parameter set
        message, code = exc, 2
    except FloatingPointError as exc:  # an input whose arithmetic leaves the float range
        message, code = f"out of float range: {exc}", 2
    except _RunError as exc:
        message, code = exc, 1
    except BrokenPipeError:  # the reader closed stdout; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    prog = f"dirac8 {args.command}" if args.command else "dirac8"
    print(f"{prog}: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
