"""The three benchmark workloads: seeded inputs, one unit of work, its gate.

A unit calls only public ``dirac8`` functions.  ``Unit.run`` returns the
program's outputs; the harness times that call and nothing else.
``Unit.check`` then parses and checks the outputs, untimed, and returns a
list of failed conditions (empty when the unit passed).

Inputs are drawn from ``random.Random(seed)`` as one stream per run, so input
``i`` of a seed is the same however many units a run gets through.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("selfcheck", "packet", "trajectory")

# selfcheck: mass ratios at which every one of the 49 checks passes.
EPSILONS = (0.0, 0.25, 0.5, 2.0, 5.0)

# packet: 8192-point grid on L = 200 with the CLI's defaults otherwise
# (sigma 5, t_total 40, 20 samples).  k0 >= 1 keeps the optical packets'
# dispersion error in the measured group velocity below 7.4e-3 (it is
# 1.1e-2 at k0 = 0.75), so the 1e-2 gate holds with margin.
PACKET_GRID = 8192
PACKET_EPSILON = 0.5
PACKET_L = 200.0
PACKET_SIGMA = 5.0
PACKET_T = 40.0
PACKET_SNAPSHOTS = 3  # t = 0, samples // 2 and samples
K0_RANGE = (1.0, 2.5)
CENTER_RANGE = (20.0, 180.0)
PACKET_TOL = {"optical": 1e-2, "acoustic": 1e-3}
QUADRATIC_DRIFT_TOL = 1e-10

# trajectory: 512-site ring, CLI defaults otherwise (8 periods, dt = 0.01 /
# omega_max, about 400 recorded frames).  Every mode below takes 9.7k-11.4k
# steps, so units cost about the same.  The CLI's zero-crossing frequency
# estimate errs by up to ~1e-4 depending on the mode (optical mode 6 gives
# 1.04e-4); the pools keep the modes whose error is at most 5e-5, half the
# gate, so the gate checks the chain and the estimate rather than the luck of
# a draw.
CHAIN_SITES = 512
CHAIN_MODES = {
    "optical": (1, 2, 3, 7, 10, 12, 14, 17, 18, 22, 23, 24, 25, 26, 27, 28, 29),
    "acoustic": (184, 188, 192, 216, 220, 224, 232, 244, 252, 256),
}
CHAIN_TOL = 1e-4

# Grid of the evolution calls a workload makes, for the FFT floor: packet
# evolves at 8192 points, selfcheck mostly at 512 (its two phase checks use
# 256); trajectory never evolves.
FFT_GRID = {"selfcheck": 512, "packet": PACKET_GRID, "trajectory": 0}


def draw_inputs(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` unit inputs of ``workload`` for ``seed``."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"dirac8-{workload}-{seed}")
    out = []
    for _ in range(count):
        if workload == "selfcheck":
            out.append({"epsilon": rng.choice(EPSILONS),
                        "report_seed": rng.randrange(2**31)})
        elif workload == "packet":
            out.append({"branch": rng.choice(("optical+", "optical-",
                                              "acoustic+", "acoustic-")),
                        "k0": rng.uniform(*K0_RANGE),
                        "center": rng.uniform(*CENTER_RANGE)})
        else:
            branch = rng.choice(("optical", "acoustic"))
            out.append({"branch": branch, "mode": rng.choice(CHAIN_MODES[branch])})
    return out


@dataclass
class Unit:
    """One unit of work of a workload, with its scratch directory."""

    workload: str
    inputs: dict
    workdir: Path
    corrupt: str | None = None

    @property
    def csv(self) -> Path:
        return self.workdir / "out.csv"

    @property
    def summary(self) -> Path:
        return self.workdir / "summary.json"

    def run(self):
        return getattr(self, "_run_" + self.workload)()

    def check(self, outputs) -> list[str]:
        return getattr(self, "_check_" + self.workload)(outputs)

    # --- selfcheck ---------------------------------------------------------
    def _run_selfcheck(self):
        from dirac8 import verify
        return verify.full_report(epsilon=self.inputs["epsilon"],
                                  seed=self.inputs["report_seed"],
                                  corrupt=self.corrupt)

    def _check_selfcheck(self, report) -> list[str]:
        return [f"check failed: {c.name}" for c in report.failures]

    # --- packet ------------------------------------------------------------
    def _run_packet(self):
        from dirac8 import cli, dispersion, evolution
        from dirac8.params import QuantumParams
        x = self.inputs
        rc = cli.main(["evolve", "--branch", x["branch"], "--k0", repr(x["k0"]),
                       "--center", repr(x["center"]), "--epsilon", repr(PACKET_EPSILON),
                       "--n-grid", str(PACKET_GRID),
                       "--L", repr(PACKET_L), "--sigma", repr(PACKET_SIGMA),
                       "--t-total", repr(PACKET_T),
                       "-o", str(self.csv), "--summary", str(self.summary)])
        qp = QuantumParams(epsilon=PACKET_EPSILON)
        spec = evolution.PacketSpec(k0=x["k0"], sigma=PACKET_SIGMA,
                                    branch=dispersion.parse_branch(x["branch"]),
                                    center=x["center"])
        state = evolution.init_packet(spec, PACKET_GRID, PACKET_L, qp)
        q0 = evolution.conserved_quadratic(state, qp)
        q1 = evolution.conserved_quadratic(
            evolution.evolve(state, PACKET_T, 1, qp), qp)
        return rc, q0, q1

    def _check_packet(self, outputs) -> list[str]:
        rc, q0, q1 = outputs
        errors = _exit_and_summary(rc, self.summary)
        if errors:
            return errors
        summary = json.loads(self.summary.read_text())
        tol = PACKET_TOL[self.inputs["branch"][:-1]]
        err = summary["relative_error"]
        if err is None or not err <= tol:
            errors.append(f"group-velocity relative_error {err} > {tol}")
        rows = _csv_rows(self.csv, expect_columns=6)
        if rows != PACKET_SNAPSHOTS * PACKET_GRID:
            errors.append(f"CSV has {rows} data rows, expected "
                          f"{PACKET_SNAPSHOTS * PACKET_GRID}")
        drift = abs(q1 - q0) / abs(q0) if q0 else math.inf
        if not drift <= QUADRATIC_DRIFT_TOL:
            errors.append(f"conserved-quadratic drift {drift} > {QUADRATIC_DRIFT_TOL}")
        return errors

    # --- trajectory --------------------------------------------------------
    def _run_trajectory(self):
        from dirac8 import cli
        x = self.inputs
        return cli.main(["chain", "--n", str(CHAIN_SITES), "--mode", str(x["mode"]),
                         "--branch", x["branch"],
                         "-o", str(self.csv), "--summary", str(self.summary)])

    def _check_trajectory(self, rc) -> list[str]:
        errors = _exit_and_summary(rc, self.summary)
        if errors:
            return errors
        err = json.loads(self.summary.read_text())["relative_error"]
        if not err <= CHAIN_TOL:
            errors.append(f"mode-frequency relative_error {err} > {CHAIN_TOL}")
        frames, rows = _chain_frames(self.csv, CHAIN_SITES)
        if frames < 2 or rows != frames * CHAIN_SITES:
            errors.append(f"CSV has {rows} data rows in {frames} frames of "
                          f"{CHAIN_SITES} sites")
        return errors

    def output_stats(self) -> tuple[int, int]:
        """(bytes written, CSV data rows) of the unit's CLI outputs."""
        paths = [p for p in (self.csv, self.summary) if p.exists()]
        rows = _csv_rows(self.csv) if self.csv.exists() else 0
        return sum(p.stat().st_size for p in paths), rows

    def clean(self) -> None:
        for p in (self.csv, self.summary):
            p.unlink(missing_ok=True)


def _exit_and_summary(rc, summary: Path) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    if not summary.exists():
        return ["no summary written"]
    return []


def _data_lines(path: Path):
    """CSV lines after the '#' comments and the column header."""
    with open(path) as fh:
        header_seen = False
        for line in fh:
            if line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                continue
            yield line


def _csv_rows(path: Path, expect_columns: int | None = None) -> int:
    rows = 0
    for line in _data_lines(path):
        if expect_columns is not None and line.count(",") != expect_columns - 1:
            return -1
        rows += 1
    return rows


def _chain_frames(path: Path, n_sites: int) -> tuple[int, int]:
    """(frames, rows) of a chain trajectory; frames = -1 if a frame is malformed.

    A well-formed frame lists sites 0 .. n_sites - 1 in order at one time.
    """
    frames = rows = 0
    t_frame = None
    for line in _data_lines(path):
        t, site, *rest = line.split(",")
        if len(rest) != 4:
            return -1, rows
        expected_site = rows % n_sites
        if int(site) != expected_site:
            return -1, rows
        if expected_site == 0:
            frames += 1
            t_frame = t
        elif t != t_frame:
            return -1, rows
        rows += 1
    return frames, rows
