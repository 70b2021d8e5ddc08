"""The experiment registry: every table/figure of the paper, by id.

``run_experiment("fig4")`` (or ``"table3"`` …) regenerates that
artifact as renderable text; ``EXPERIMENTS`` lists everything.  The
``benchmarks/`` tree wraps these for pytest-benchmark; the examples
call them directly.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List

from ..machines import BGL, BGP, XT3, XT4_DC, XT4_QC
from ..params import checked_entry
from .report import Figure, format_table

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "experiment_ids",
    "validate_experiment_params",
]


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_config() -> str:
    """The system-configuration summary straight from the catalog."""
    from ..machines import MACHINE_NAMES, all_machines, KB, MB, GB

    machines = all_machines()
    rows = []

    def cache_str(lvl) -> str:
        if lvl is None:
            return "n/a"
        size = lvl.size_bytes
        label = f"{size // MB} MB" if size >= MB else f"{size // KB}K"
        return f"{label} {'shared' if lvl.shared else 'private'}"

    for name in MACHINE_NAMES:
        m = machines[name]
        rows.append(
            [
                m.name,
                m.node.cores,
                int(m.node.core.clock_hz / 1e6),
                m.node.coherence.value,
                cache_str(m.node.l1),
                cache_str(m.node.l2),
                cache_str(m.node.l3),
                round(m.node.memory.capacity_bytes / GB, 1),
                round(m.node.memory.peak_bandwidth / 1e9, 1),
                round(m.node.peak_flops / 1e9, 1),
                round(m.torus.injection_bandwidth / 1e9, 1),
                (
                    int(m.tree.link_bandwidth * m.tree.links_per_node / 1e6)
                    if m.tree
                    else "n/a"
                ),
            ]
        )
    return format_table(
        [
            "Machine",
            "Cores/node",
            "Clock MHz",
            "Coherence",
            "L1",
            "L2",
            "L3",
            "Mem GB",
            "Mem GB/s",
            "Peak GF/node",
            "Torus inj GB/s",
            "Tree MB/s",
        ],
        rows,
        title="Table 1: System Configuration Summary",
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
def table2_hpcc() -> str:
    from .hpcc import build_table2, TABLE2_ROWS

    cols = build_table2([BGP, XT4_QC], processes=4096)
    b, x = cols["BG/P"], cols["XT4/QC"]
    values = list(
        zip(
            TABLE2_ROWS,
            [
                b.dgemm_single_gflops, b.dgemm_ep_gflops,
                b.stream_single_gbs, b.stream_ep_gbs,
                b.fft_single_gflops, b.fft_ep_gflops,
                b.ra_single_gups, b.ra_ep_gups,
                b.hpl_tflops, b.mpifft_gflops, b.ptrans_gbs, b.mpi_ra_gups,
                b.pingpong_latency_us, b.pingpong_bandwidth_gbs,
                b.ring_latency_us, b.ring_bandwidth_gbs,
            ],
            [
                x.dgemm_single_gflops, x.dgemm_ep_gflops,
                x.stream_single_gbs, x.stream_ep_gbs,
                x.fft_single_gflops, x.fft_ep_gflops,
                x.ra_single_gups, x.ra_ep_gups,
                x.hpl_tflops, x.mpifft_gflops, x.ptrans_gbs, x.mpi_ra_gups,
                x.pingpong_latency_us, x.pingpong_bandwidth_gbs,
                x.ring_latency_us, x.ring_bandwidth_gbs,
            ],
        )
    )
    return format_table(
        ["Test", "BG/P", "XT4/QC"],
        [[name, bv, xv] for name, bv, xv in values],
        title="Table 2: HPCC comparison, 4096 processes, VN mode",
    )


# ---------------------------------------------------------------------------
# Figure 1: HPCC scaling
# ---------------------------------------------------------------------------
def fig1_hpcc_scaling() -> str:
    from ..kernels.hpl import HplModel
    from ..kernels.fft import FftModel
    from ..kernels.ptrans import PtransModel
    from ..kernels.randomaccess import RandomAccessModel
    from ..simengine import make_rng

    procs = [256, 512, 1024, 2048, 4096, 8192]
    out = []

    fig = Figure("Figure 1(a): HPL scaling", "processes", "TFlop/s")
    for m in (BGP, XT4_QC):
        fig.add(m.name, [(p, HplModel(m).run(p).gflops / 1e3) for p in procs])
    out.append(fig.render())

    fig = Figure("Figure 1(b): FFT scaling", "processes", "GFlop/s total")
    for m in (BGP, XT4_QC):
        fig.add(m.name, [(p, FftModel(m).mpi_run(p).gflops_total) for p in procs])
    out.append(fig.render())

    fig = Figure("Figure 1(c): PTRANS scaling", "processes", "GB/s")
    rng = make_rng(42)
    for m in (BGP, XT4_QC):
        model = PtransModel(m)
        fig.add(m.name, [(p, model.run(p, rng=rng).gb_per_s) for p in procs])
    out.append(fig.render())

    fig = Figure("Figure 1(d): RandomAccess scaling", "processes", "GUP/s")
    for m in (BGP, XT4_QC):
        model = RandomAccessModel(m)
        fig.add(f"{m.name} stock", [(p, model.run(p).gups_total) for p in procs])
        fig.add(
            f"{m.name} SANDIA_OPT2",
            [(p, model.run(p, "sandia").gups_total) for p in procs],
        )
    out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# Figure 2: HALO
# ---------------------------------------------------------------------------
def fig2_halo() -> str:
    from ..halo.bench import HaloBenchmark
    from ..halo.protocols import PROTOCOLS
    from ..topology.mapping import PAPER_FIG2_MAPPINGS

    words_sweep = [2, 8, 32, 128, 512, 2048, 8192, 32768]
    out = []

    # One benchmark per (grid, mode, mapping), shared by every panel that
    # plots it, so each link-load analysis (word-independent) runs once.
    @functools.cache
    def bench(grid, mode, mapping):
        return HaloBenchmark(BGP, grid, mode=mode, mapping=mapping)

    # (a) protocols, 8192 cores VN, 128x64 grid, TXYZ
    fig = Figure(
        "Figure 2(a): protocols, 8192 cores VN (128x64, TXYZ)", "halo words", "seconds"
    )
    hb = bench((128, 64), "VN", "TXYZ")
    for proto in PROTOCOLS:
        fig.add(proto, [(w, hb.time_analytic(w, proto)) for w in words_sweep])
    out.append(fig.render())

    # (b) protocols, 2048 cores SMP, 64x32 grid, XYZT
    fig = Figure(
        "Figure 2(b): protocols, 2048 cores SMP (64x32, XYZT)", "halo words", "seconds"
    )
    hb = bench((64, 32), "SMP", "XYZT")
    for proto in PROTOCOLS:
        fig.add(proto, [(w, hb.time_analytic(w, proto)) for w in words_sweep])
    out.append(fig.render())

    # (c, d) mappings at 4096 (64x64) and 8192 (128x64) cores VN
    for panel, grid in (("c", (64, 64)), ("d", (128, 64))):
        fig = Figure(
            f"Figure 2({panel}): mappings, {grid[0]*grid[1]} cores VN {grid}",
            "halo words",
            "seconds",
        )
        for mapping in PAPER_FIG2_MAPPINGS:
            hb = bench(grid, "VN", mapping)
            fig.add(mapping, [(w, hb.time_analytic(w)) for w in words_sweep])
        out.append(fig.render())

    # (e, f) best mapping per grid size, VN and SMP.
    for panel, mode, grids in (
        ("e", "VN", [(32, 32), (64, 32), (64, 64), (128, 64)]),
        ("f", "SMP", [(16, 16), (32, 16), (32, 32), (64, 32)]),
    ):
        fig = Figure(
            f"Figure 2({panel}): best mapping per grid, {mode} mode",
            "halo words",
            "seconds",
        )
        for grid in grids:
            benches = [bench(grid, mode, m) for m in PAPER_FIG2_MAPPINGS]
            pts = [
                (w, min(hb.time_analytic(w) for hb in benches))
                for w in words_sweep
            ]
            fig.add(f"{grid[0]}x{grid[1]}", pts)
        out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# Figure 3: IMB collectives
# ---------------------------------------------------------------------------
def fig3_imb(nbytes: int = 32768, processes: int = 8192) -> str:
    """``nbytes`` sets the fixed payload of panels (b)/(d) and
    ``processes`` the fixed process count of panels (a)/(c) — the
    paper's 32 KB / 8192-way operating point by default."""
    from ..imb.harness import ImbBenchmark

    nbytes, processes = int(nbytes), int(processes)
    sizes = [4, 64, 1024, 8192, 32768, 262144, 1048576]
    procs = [64, 256, 1024, 4096, 8192]
    kb_label = f"{nbytes / 1024:g}KB"
    out = []

    fig = Figure(
        f"Figure 3(a): Allreduce latency vs size, {processes} procs", "bytes", "us"
    )
    for m in (BGP, XT4_QC):
        b = ImbBenchmark(m)
        for dtype in ("float64", "float32"):
            pts = [(p.nbytes, p.latency_us) for p in b.size_sweep("allreduce", processes, sizes, dtype)]
            fig.add(f"{m.name} {dtype}", pts)
    out.append(fig.render())

    fig = Figure(f"Figure 3(b): Allreduce latency vs procs, {kb_label}", "processes", "us")
    for m in (BGP, XT4_QC):
        b = ImbBenchmark(m)
        for dtype in ("float64", "float32"):
            sweep = b.process_sweep("allreduce", nbytes, procs, dtype)
            pts = [(p.processes, p.latency_us) for p in sweep]
            fig.add(f"{m.name} {dtype}", pts)
    out.append(fig.render())

    fig = Figure(
        f"Figure 3(c): Bcast latency vs size, {processes} procs", "bytes", "us"
    )
    for m in (BGP, XT4_QC):
        pts = [(p.nbytes, p.latency_us) for p in ImbBenchmark(m).size_sweep("bcast", processes, sizes)]
        fig.add(m.name, pts)
    out.append(fig.render())

    fig = Figure(f"Figure 3(d): Bcast latency vs procs, {kb_label}", "processes", "us")
    for m in (BGP, XT4_QC):
        sweep = ImbBenchmark(m).process_sweep("bcast", nbytes, procs)
        pts = [(p.processes, p.latency_us) for p in sweep]
        fig.add(m.name, pts)
    out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# TOP500 run
# ---------------------------------------------------------------------------
def top500_hpl() -> str:
    from ..kernels.hpl import HplModel
    from ..power.measure import measure_hpl

    res = HplModel(BGP).top500_run()
    power = measure_hpl(BGP, 8192)
    rows = [
        ["Problem size N", 614399],
        ["Block size NB", 96],
        ["Process grid", "64x128"],
        ["GFlop/s (paper: 21400)", round(res.gflops)],
        ["MFlops/W (paper: 310.93)", round(power.mflops_per_watt, 1)],
    ]
    return format_table(["Quantity", "Value"], rows, title="TOP500 HPL run (Section II.C)")


# ---------------------------------------------------------------------------
# Figure 4: POP
# ---------------------------------------------------------------------------
def fig4_pop() -> str:
    from ..apps.pop.model import PopModel
    from ..apps.pop.solvers import CG_SIGNATURE, CHRONGEAR_SIGNATURE

    procs = [2000, 4000, 8000, 16000, 22500, 32000, 40000]
    out = []

    fig = Figure("Figure 4(a): POP total, BG/P VN/SMP x CG/ChronGear", "processes", "SYD")
    pop = PopModel(BGP)
    for mode in ("VN", "SMP"):
        for solver in (CG_SIGNATURE, CHRONGEAR_SIGNATURE):
            pts = [(r.processes, r.syd) for r in pop.sweep(procs, mode=mode, solver=solver)]
            fig.add(f"{mode} {solver.name}", pts)
    out.append(fig.render())

    fig = Figure("Figure 4(b): POP phases on BG/P (s/simulated day)", "processes", "seconds")
    for mode in ("VN", "SMP"):
        runs = pop.sweep(procs, mode=mode)
        fig.add(f"{mode} baroclinic", [(r.processes, r.baroclinic_s_per_day) for r in runs])
        fig.add(f"{mode} barotropic", [(r.processes, r.barotropic_s_per_day) for r in runs])
        fig.add(f"{mode} barrier(imbalance)", [(r.processes, r.imbalance_s_per_day) for r in runs])
    out.append(fig.render())

    fig = Figure("Figure 4(c): POP BG/P vs XT4 (Catamount)", "processes", "SYD")
    for m in (BGP, XT4_DC):
        pts = [(r.processes, r.syd) for r in PopModel(m).sweep(procs)]
        fig.add(m.name, pts)
    out.append(fig.render())

    fig = Figure("Figure 4(d): POP phases, BG/P vs XT4", "processes", "seconds/simday")
    for m in (BGP, XT4_DC):
        runs = PopModel(m).sweep(procs)
        baroclinic = [(r.processes, r.baroclinic_s_per_day + r.imbalance_s_per_day) for r in runs]
        fig.add(f"{m.name} baroclinic", baroclinic)
        fig.add(f"{m.name} barotropic", [(r.processes, r.barotropic_s_per_day) for r in runs])
    out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# Figure 5: CAM
# ---------------------------------------------------------------------------
def fig5_cam() -> str:
    from ..apps.cam.model import (
        CamModel,
        SPECTRAL_T42,
        SPECTRAL_T85,
        FV_1_9x2_5,
        FV_0_47x0_63,
    )

    cores = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    out = []

    fig = Figure("Figure 5(a): CAM spectral on BG/P, MPI vs hybrid", "cores", "SYD")
    for bmk in (SPECTRAL_T42, SPECTRAL_T85):
        cm = CamModel(BGP, bmk)
        fig.add(f"{bmk.name} MPI", [(r.cores, r.syd) for r in cm.sweep(cores)])
        fig.add(f"{bmk.name} hybrid", [(r.cores, r.syd) for r in cm.sweep(cores, hybrid=True)])
    out.append(fig.render())

    fig = Figure("Figure 5(b): CAM FV on BG/P, MPI vs hybrid", "cores", "SYD")
    for bmk in (FV_1_9x2_5, FV_0_47x0_63):
        cm = CamModel(BGP, bmk)
        fig.add(f"{bmk.name} MPI", [(r.cores, r.syd) for r in cm.sweep(cores)])
        fig.add(f"{bmk.name} hybrid", [(r.cores, r.syd) for r in cm.sweep(cores, hybrid=True)])
    out.append(fig.render())

    fig = Figure("Figure 5(c): CAM spectral, BG/P vs XT3 vs XT4", "cores", "SYD")
    for bmk in (SPECTRAL_T42, SPECTRAL_T85):
        for m in (BGP, XT3, XT4_QC):
            cm = CamModel(m, bmk)
            best = [
                (c, max(cm.run(c, hybrid=False).syd, cm.run(c, hybrid=True).syd))
                for c in cores
            ]
            fig.add(f"{bmk.name} {m.name}", best)
    out.append(fig.render())

    fig = Figure("Figure 5(d): CAM FV, BG/P vs XT3 vs XT4", "cores", "SYD")
    for m in (BGP, XT3, XT4_QC):
        cm = CamModel(m, FV_1_9x2_5)
        best = [
            (c, max(cm.run(c, hybrid=False).syd, cm.run(c, hybrid=True).syd))
            for c in cores
        ]
        fig.add(f"{FV_1_9x2_5.name} {m.name}", best)
    out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# Figure 6: S3D
# ---------------------------------------------------------------------------
def fig6_s3d(edge: int = 50) -> str:
    """``edge`` is the per-rank subgrid edge (paper: 50^3 points/rank);
    sweeping it turns Fig. 6 into a weak-scaling sensitivity study."""
    from ..apps.s3d.model import S3dModel

    edge = int(edge)
    procs = [1, 8, 64, 512, 4096, 8192, 30000]
    fig = Figure(
        f"Figure 6: S3D weak scaling ({edge}^3 points/rank)",
        "processes",
        "core-hours per grid point per step",
    )
    for m in (BGP, BGL, XT3, XT4_DC, XT4_QC):
        pts = [
            (r.processes, r.core_hours_per_point_step)
            for r in S3dModel(m).weak_scaling(procs, edge=edge)
        ]
        fig.add(m.name, pts)
    return fig.render()


# ---------------------------------------------------------------------------
# Figure 7: GYRO
# ---------------------------------------------------------------------------
def fig7_gyro() -> str:
    from ..apps.gyro.model import GyroModel
    from ..apps.gyro.grid5d import B1_STD, B3_GTC, B3_GTC_MODIFIED

    out = []
    fig = Figure("Figure 7(a): GYRO B1-std strong scaling", "processes", "speedup")
    procs = [16, 32, 64, 128, 256, 512, 1024, 2048]
    for m in (BGP, XT4_QC):
        g = GyroModel(m, B1_STD)
        base = g.run(16)
        fig.add(m.name, [(r.processes, r.speedup_vs(base)) for r in g.strong_scaling(procs)])
    out.append(fig.render())

    fig = Figure("Figure 7(b): GYRO B3-gtc strong scaling", "processes", "speedup")
    procs_b3 = [64, 128, 256, 512, 1024, 2048]
    for m in (BGP, XT4_QC):
        g = GyroModel(m, B3_GTC)
        base = g.run(64)
        runs = g.strong_scaling(procs_b3)
        label = f"{m.name} ({runs[0].mode} mode)" if runs else m.name
        fig.add(label, [(r.processes, r.speedup_vs(base)) for r in runs])
    out.append(fig.render())

    fig = Figure(
        "Figure 7(c): GYRO modified-B3-gtc weak scaling", "processes", "s/step"
    )
    weak = [64, 128, 256, 512, 1024, 2048]
    for m in (BGP, BGL, XT3, XT4_QC):
        g = GyroModel(m, B3_GTC_MODIFIED)
        fig.add(m.name, [(r.processes, r.seconds_per_step) for r in g.weak_scaling(weak)])
    out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# Figure 8: MD
# ---------------------------------------------------------------------------
def fig8_md() -> str:
    from ..apps.md.models import LammpsModel, PmemdModel

    procs = [64, 128, 256, 512, 1024, 2048, 4096]
    out = []
    for Model, panel in ((LammpsModel, "a"), (PmemdModel, "b")):
        fig = Figure(
            f"Figure 8({panel}): {Model.code} RuBisCO (290,220 atoms)",
            "processes",
            "ns/day",
        )
        for m in (BGP, XT3, XT4_DC):
            model = Model(m)
            fig.add(m.name, [(r.processes, r.ns_per_day) for r in model.scaling(procs)])
        out.append(fig.render())
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# Table 3: power
# ---------------------------------------------------------------------------
def table3_power() -> str:
    from ..power.table3 import build_table3

    cols = build_table3([BGP, XT4_QC])
    rows = [
        ["Cores", *[c.cores for c in cols]],
        ["Measured power / HPL (kW)", *[round(c.hpl_power_kw, 1) for c in cols]],
        ["  per core (W)", *[c.hpl_watts_per_core for c in cols]],
        ["Measured power / normal (kW)", *[round(c.normal_power_kw, 1) for c in cols]],
        ["  per core (W)", *[c.normal_watts_per_core for c in cols]],
        ["Peak (TFlop/s)", *[round(c.peak_tflops, 1) for c in cols]],
        ["HPL Rmax (TFlop/s)", *[round(c.hpl_rmax_tflops, 1) for c in cols]],
        ["HPL MFlops/W", *[round(c.mflops_per_watt, 1) for c in cols]],
        ["POP SYD @ 8192 cores", *[round(c.pop_syd_at_8192, 1) for c in cols]],
        ["  aggregate power (kW)", *[round(c.pop_power_kw_at_8192, 1) for c in cols]],
        ["Cores for 12 SYD", *[c.cores_for_12_syd for c in cols]],
        ["  aggregate power (kW)", *[round(c.power_kw_for_12_syd, 1) for c in cols]],
    ]
    return format_table(
        ["Quantity", *[c.machine for c in cols]],
        rows,
        title="Table 3: Power Comparison",
    )


# ---------------------------------------------------------------------------
# Extensions beyond the paper's tables/figures
# ---------------------------------------------------------------------------
def lists_placement() -> str:
    """TOP500/Green500 standings of the evaluated systems (Sections I,
    II.C), plus the density story of the introduction."""
    from ..power.lists import place_configuration
    from ..machines.density import footprint_for_peak

    rows = []
    for machine, cores in ((BGP, 8192), (BGP, ANL_CORES := 40960 * 4), (XT4_QC, 30976)):
        try:
            pl = place_configuration(machine, cores)
        except ValueError:
            continue
        rows.append(
            [
                f"{machine.name} ({cores} cores)",
                round(pl.rmax_gflops / 1e3, 1),
                pl.top500_rank,
                round(pl.mflops_per_watt, 1),
                pl.green500_rank,
            ]
        )
    placement = format_table(
        ["system", "Rmax (TF)", "TOP500 #", "MFlops/W", "Green500 #"],
        rows,
        title="June-2008 list placement (Section II.C: Eugene #74 / Green500 #5)",
    )

    rows = []
    for m in (BGP, XT3, XT4_QC):
        fp = footprint_for_peak(m, 100.0)
        rows.append(
            [m.name, m.cores_per_rack, fp.racks, round(fp.floor_area_m2, 1),
             round(fp.power_kw, 1)]
        )
    density = format_table(
        ["machine", "cores/rack", "racks for 100 TF", "floor m^2", "power kW"],
        rows,
        title="Density (Section I.A: 4096 vs 384 vs 192 cores per rack)",
    )
    return placement + "\n\n" + density


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": table1_config,
    "table2": table2_hpcc,
    "fig1": fig1_hpcc_scaling,
    "fig2": fig2_halo,
    "fig3": fig3_imb,
    "top500": top500_hpl,
    "fig4": fig4_pop,
    "fig5": fig5_cam,
    "fig6": fig6_s3d,
    "fig7": fig7_gyro,
    "fig8": fig8_md,
    "table3": table3_power,
    "lists": lists_placement,
}


def experiment_ids() -> List[str]:
    """All experiment ids, in paper order."""
    return list(EXPERIMENTS)


def validate_experiment_params(experiment_id: str, params: Dict[str, Any]) -> None:
    """Check ``experiment_id`` exists and accepts every name in ``params``.

    Raises :class:`KeyError` with the same messages ``run_experiment``
    would produce — the campaign spec loader uses this to fail fast at
    expansion time instead of deep inside a worker process.
    """
    checked_entry(EXPERIMENTS, experiment_id, params, "experiment")


def run_experiment(experiment_id: str, **params: Any) -> str:
    """Regenerate one paper artifact as text.

    ``params`` must match keyword arguments of the experiment function;
    unsupported names raise :class:`KeyError` listing what is accepted
    (most artifacts are parameter-free reproductions of the paper).
    """
    return checked_entry(EXPERIMENTS, experiment_id, params, "experiment")(**params)
