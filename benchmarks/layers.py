"""Per-layer metrics derived from a traced run's span summary.

Every metric is per traced unit unless its name says otherwise (``per_call``,
``per_s``, a ratio).  ``.calls`` is a call count, ``.s`` inclusive seconds in
the function's spans, ``.self_s`` the same minus time in traced callees.
"""

from __future__ import annotations

VERIFY_SECTIONS = ("chain", "evolution", "squaring", "amplitude", "eigen",
                   "catalog", "determinant", "velocity")

# name -> (unit, span the metric reads, how it reads it)
SPAN_METRICS = {
    "chain.step.calls": ("count", "chain.step", "calls"),
    "chain.step.us_per_call": ("us", "chain.step", "us_per_call"),
    "chain.simulate.self_s": ("s", "chain.simulate", "self_s"),
    "chain.max_frequency.calls": ("count", "chain.max_frequency", "calls"),
    "chain.total_energy.s": ("s", "chain.total_energy", "s"),
    "chain.measure_mode_frequency.s": ("s", "chain.measure_mode_frequency", "s"),
    "chain.site_steps_per_s": ("1/s", "chain.step", "work_per_s"),
    "evolution.evolve.calls": ("count", "evolution.evolve", "calls"),
    "evolution.evolve.ms_per_call": ("ms", "evolution.evolve", "ms_per_call"),
    "evolution.init_packet.s": ("s", "evolution.init_packet", "s"),
    "evolution.branch_vector.calls": ("count", "evolution.branch_vector", "calls"),
    "evolution.packet_centroid.s": ("s", "evolution.packet_centroid", "s"),
    "evolution.conserved_quadratic.s": ("s", "evolution.conserved_quadratic", "s"),
    "evolution.measure_group_velocity.s": ("s", "evolution.measure_group_velocity", "s"),
    "matrices.spin_sector_hamiltonian.calls":
        ("count", "matrices.spin_sector_hamiltonian", "calls"),
    "matrices.hamiltonian_d8.calls": ("count", "matrices.hamiltonian_d8", "calls"),
    "matrices.null_space.s": ("s", "matrices.null_space", "s"),
    "matrices.check_algebra.s": ("s", "matrices.check_algebra", "s"),
    "dispersion.branch_energy.calls": ("count", "dispersion.branch_energy", "calls"),
    "dispersion.group_velocity.calls": ("count", "dispersion.group_velocity", "calls"),
    "planewaves.build_solution.calls": ("count", "planewaves.build_solution", "calls"),
    "planewaves.residual.s": ("s", "planewaves.residual", "s"),
    **{f"verify._{s}_checks.s": ("s", f"verify._{s}_checks", "s") for s in VERIFY_SECTIONS},
    "cli.main.s": ("s", "cli.main", "s"),
}

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = ("chain.step.calls", "chain.max_frequency.calls",
                "evolution.branch_vector.calls", "matrices.spin_sector_hamiltonian.calls",
                "cli.rows", "cli.out_bytes")


def per_layer(summary: dict, present: set, work: dict, n_units: int, *,
              fft_floor_ms: float, out_bytes: int, rows: int,
              cpu_over_wall: float, trace_overhead: float) -> tuple[dict, list[str]]:
    """Metric name -> {"value", "unit"}, and the names whose span is absent.

    A metric whose function no longer exists reads 0 and is listed as absent.
    """
    metrics, absent = {}, []
    for name, (unit, span, how) in SPAN_METRICS.items():
        if span not in present:
            absent.append(name)
        s = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        calls, total = s["calls"], s["s"]
        if how in ("calls", "s", "self_s"):
            value = s[how] / n_units
        elif how == "us_per_call":
            value = 1e6 * total / calls if calls else 0.0
        elif how == "ms_per_call":
            value = 1e3 * total / calls if calls else 0.0
        else:  # work_per_s
            value = work.get(span, 0) / total if total else 0.0
        metrics[name] = {"value": value, "unit": unit}

    cli_self = sum(v["self_s"] for k, v in summary.items() if k.startswith("cli."))
    evolve_ms = metrics["evolution.evolve.ms_per_call"]["value"]
    metrics.update({
        "evolution.fft_floor_ms": {"value": fft_floor_ms, "unit": "ms"},
        "evolution.evolve_over_fft": {
            "value": evolve_ms / fft_floor_ms if fft_floor_ms else 0.0, "unit": "ratio"},
        "cli.self_s": {"value": cli_self / n_units, "unit": "s"},
        "cli.out_bytes": {"value": out_bytes / n_units, "unit": "bytes"},
        "cli.rows": {"value": rows / n_units, "unit": "count"},
        "process.cpu_over_wall": {"value": cpu_over_wall, "unit": "ratio"},
        "trace.overhead": {"value": trace_overhead, "unit": "ratio"},
    })
    return metrics, absent
