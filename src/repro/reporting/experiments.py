"""The per-figure/table experiment index and the paper-claims ledger
(DESIGN.md §3, EXPERIMENTS.md).

Every artifact in the paper's evaluation, and every ablation behind
its design arguments, has an :class:`Experiment` here; this registry
is the only place an artifact is produced.  Its ``measure`` regenerates
the artifact's numbers on the simulated cluster as :data:`Rows`, its
``render`` turns those rows into the text the ``output_sha256`` pins
hash, and its ``paper_claim`` is what the paper says about the
artifact: the sentence plus conditions over the same rows, so one run
checks both the pin and the claim.  ``quick=True`` trims sweeps for
CI; the full-size text of each id is archived as
``benchmarks/results/<id>.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.lbm import LBMConfig, run_lbm
from repro.apps.stencil2d import StencilConfig, run_stencil2d
from repro.bench.latency import latency_sweep
from repro.bench.bandwidth import atomics_latency, bandwidth_sweep, message_rate
from repro.bench.collectives import COLLECTIVES, collective_latency
from repro.bench.overlap import (
    OverlapPoint,
    app_loop_ms,
    overlap_percentage,
    overlap_sweep,
    service_thread_overlap,
)
from repro.bench.p2p import p2p_bandwidth_probe
from repro.bench.verbs_level import table2_probe
from repro.hardware import NodeConfig, wilkes_params
from repro.reporting.format import format_series, format_table
from repro.shmem import Domain, capability_rows, design_spec
from repro.units import KiB, MiB, message_sizes

H, G = Domain.HOST, Domain.GPU
HP, GDR = "host-pipeline", "enhanced-gdr"

SMALL_SIZES = message_sizes(1, 8 * KiB)
LARGE_SIZES = message_sizes(16 * KiB, 4 * MiB)
QUICK_SMALL = [4, 64, 1 * KiB, 8 * KiB]
QUICK_LARGE = [64 * KiB, 1 * MiB, 4 * MiB]

#: The numbers one run computes: each named column (a design's latency
#: curve, a table column) maps a row key (a message size, a PE count) to
#: its value; ``None`` is a column the design cannot serve (``n/s``).
Rows = Dict[str, Optional[Dict[Any, Any]]]

#: One condition of a claim: what it asserts, and a predicate over rows.
Condition = Tuple[str, Callable[[Rows], bool]]


@dataclass(frozen=True)
class Claim:
    """The paper's claim about one artifact: the sentence and the
    conditions over the artifact's rows that make it hold.

    ``conditions`` are checked on a full-size run and ``quick`` on a
    quick-size one; most quick sweeps skip the paper's anchor points,
    so most claims check nothing there."""

    text: str
    conditions: Tuple[Condition, ...]
    quick: Tuple[Condition, ...] = ()

    def failures(self, rows: Rows, quick: bool = False) -> List[str]:
        """The conditions ``rows`` fail; empty when the claim holds.  A
        condition that reads a point the rows lack fails."""
        failed = []
        for label, holds in self.quick if quick else self.conditions:
            try:
                if not holds(rows):
                    failed.append(label)
            except (LookupError, TypeError):  # an absent point, or an n/s column
                failed.append(f"{label} (point missing)")
        return failed


@dataclass
class Experiment:
    """One paper artifact: how to measure and render it, and its claim."""

    exp_id: str
    title: str
    paper_claim: Claim
    measure: Callable[[bool], Rows] = field(repr=False)
    render: Callable[[Rows], str] = field(repr=False)


# ------------------------------------------------------------ conditions
TOL = 0.45  # +/-45% band on absolute usec (a simulator, not the testbed)


def _within(measured, paper, tol=TOL):
    return paper * (1 - tol) <= measured <= paper * (1 + tol)


def _anchor(nbytes, paper, design=GDR, tol=TOL) -> Condition:
    return (f"{design} at {nbytes} B within {paper} usec +/-{tol:.0%}",
            lambda r: _within(r[design][nbytes], paper, tol))


def _speedup(nbytes, factor) -> Condition:
    return (f"{GDR} more than {factor}x faster than {HP} at {nbytes} B",
            lambda r: r[HP][nbytes] / r[GDR][nbytes] > factor)


def _reduction(nbytes, frac=0.25) -> Condition:
    return (f"{GDR} more than {frac:.0%} below {HP} at {nbytes} B",
            lambda r: 1 - r[GDR][nbytes] / r[HP][nbytes] > frac)


def _on_par(nbytes, design=GDR, base=HP, rel=0.10) -> Condition:
    return (f"{design} within {rel:.0%} of {base} at {nbytes} B",
            lambda r: abs(r[design][nbytes] - r[base][nbytes]) <= rel * r[base][nbytes])


def _no_slower(nbytes, design=GDR, base=HP, slack=1.0) -> Condition:
    return (f"{design} at most {slack}x {base} at {nbytes} B",
            lambda r: r[design][nbytes] <= slack * r[base][nbytes])


def _unsupported(design) -> Condition:
    return f"{design} unsupported (n/s)", lambda r: r[design] is None


def _bands(bands) -> Tuple[Condition, ...]:
    """One condition per ``npes: (today, paper)`` entry: the improvement
    stays within 5 points of today's value and is a gain (> 0)."""

    def band(npes, today, paper):
        lo, hi = today - 5, today + 5
        return (f"improvement at {npes} PEs in [{lo}, {hi}]% and > 0 (paper: {paper or '-'}%)",
                lambda r: lo <= r["improvement"][npes] <= hi and r["improvement"][npes] > 0)

    return tuple(band(npes, *pair) for npes, pair in bands.items())


# ---------------------------------------------------------------- render
def _render_curves(x_label: str, rows: Rows, *, title: str, fmt: str = "{:.2f}") -> str:
    """Render named curves over the x values they share."""
    xs = next(list(c) for c in rows.values() if c is not None)
    series = {name: None if c is None else list(c.values()) for name, c in rows.items()}
    return format_series(x_label, series, xs, title=title, fmt=fmt)


def _render_table(keys, fmts, rows: Rows, *, title: str) -> str:
    """Render a table: the ``keys`` columns (a tuple row key fills
    several), then one column per rows column, each cell formatted by
    its entry in ``fmts``."""
    cols = list(rows)
    return format_table(
        [*keys, *cols],
        [[*(k if isinstance(k, tuple) else (k,)), *(f.format(rows[c][k]) for c, f in zip(cols, fmts))]
         for k in rows[cols[0]]],
        title=title,
    )


# ---------------------------------------------------------------- Table I
TABLE1_COLUMNS = ["intra-node", "inter-node", "schemes", "perf", "one-sided", "productivity"]


def _measure_table1(quick: bool = False) -> Rows:
    rows = capability_rows()
    return {c: {row[0]: row[i] for row in rows} for i, c in enumerate(TABLE1_COLUMNS, 1)}


# --------------------------------------------------------------- Table II
IB_ROW, HP_ROW, GDR_ROW = "IB send/recv (verbs write)", f"OpenSHMEM put ({HP})", f"OpenSHMEM put ({GDR})"


def _measure_table2(quick: bool = False) -> Rows:
    rows = table2_probe(designs=(HP, GDR))
    return {
        "Host-Host (usec)": {r.level: r.host_host_usec for r in rows},
        "GPU-GPU (usec)": {r.level: r.gpu_gpu_usec for r in rows},
    }


# -------------------------------------------------------------- Table III
#: Table III's measured cells (MB/s), keyed like the rows.
TABLE3_PAPER = {
    ("P2P read", "intra-socket"): 3421,
    ("P2P read", "inter-socket"): 247,
    ("P2P write", "intra-socket"): 6396,
    ("P2P write", "inter-socket"): 1179,
}


def _measure_table3(quick: bool = False) -> Rows:
    cells = {(f"P2P {c.direction}", "intra-socket" if c.same_socket else "inter-socket"): c
             for c in p2p_bandwidth_probe(nbytes=8 * MiB if quick else 64 * MiB)}
    return {"achieved": {k: c.mbps for k, c in cells.items()},
            "% of FDR": {k: c.pct_of_fdr for k, c in cells.items()}}


def _table3_cell(key, paper) -> Condition:
    return (f"{' '.join(key)} within 3% of {paper:,} MB/s",
            lambda r: _within(r["achieved"][key], paper, 0.03))


# -------------------------------------------------------- Figs 6-9 panels
#: Every runtime design, baseline to device-initiated, in registry
#: order.  ``latency_sweep`` returns ``None`` for cells a design cannot
#: serve (naive has no GPU heap), which renders as an absent curve —
#: the same convention the Fig 9 "baseline unsupported" panels use.
FOUR_WAY = ("naive", HP, GDR, "device-initiated")


def _latency(fig, op, local, remote, *, large, nodes, designs=(HP, GDR)):
    """``(measure, render)`` of one Fig 6-9 style latency panel."""
    cfg_label = f"{'H' if local is H else 'D'}-{'H' if remote is H else 'D'}"
    scope, target = ("intra-node", "near") if nodes == 1 else ("inter-node", "far")
    four = ", four designs" if designs is FOUR_WAY else ""
    title = (f"Fig {fig} — {scope} {cfg_label} {op}, "
             f"{'large' if large else 'small'} messages{four} (usec)")

    def measure(quick: bool = False) -> Rows:
        sizes = (QUICK_LARGE if quick else LARGE_SIZES) if large else (QUICK_SMALL if quick else SMALL_SIZES)
        rows = {}
        for design in designs:
            if G in (local, remote) and not design_spec(design).caps.gpu_domain:
                # No GPU symmetric heap in this design (Table I, Naive):
                # the cell is unsupported, same as a None sweep.
                rows[design] = None
                continue
            pts = latency_sweep(design, op, local, remote, sizes, nodes=nodes, target=target)
            rows[design] = None if pts is None else {s: p.usec for s, p in zip(sizes, pts)}
        return rows

    return measure, partial(_render_curves, "bytes", title=title)


def _spread(r: Rows, nbytes: int) -> float:
    """Slowest over fastest latency at ``nbytes`` among serving designs."""
    usecs = [c[nbytes] for c in r.values() if c is not None]
    return max(usecs) / min(usecs)


# ----------------------------------------------------------------- Fig 10
def _measure_fig10(quick: bool = False, nbytes: int = 1 * MiB) -> Rows:
    computes = [0, 100, 500] if quick else [0, 50, 100, 200, 400, 800, 1600]
    return {d: {p.compute_usec: p.comm_usec for p in overlap_sweep(d, nbytes, computes)}
            for d in (HP, GDR)}


def _overlap(curve) -> float:
    return overlap_percentage([OverlapPoint(c, u) for c, u in curve.items()])


def _render_fig10(rows: Rows, nbytes: int = 1 * MiB) -> str:
    return "\n\n".join(
        _render_curves(
            "target compute usec", {f"comm usec ({design})": curve},
            title=f"Fig 10 — overlap, {nbytes // 1024} KB ({design}): {_overlap(curve):.0f}% overlap",
        )
        for design, curve in rows.items()
    )


# ------------------------------------------------------------ Figs 11-12
GAINS_FMTS = ["{:.3f}", "{:.3f}", "{:.0f}%"]


def _gains(base, new, times) -> Rows:
    """Execution-time rows of a baseline and a redesign from ``(PEs,
    base seconds, new seconds)`` triples, with the improvement in %."""
    return {
        f"{base} (s)": {n: b for n, b, _ in times},
        f"{new} (s)": {n: t for n, _, t in times},
        "improvement": {n: 100 * (1 - t / b) for n, b, t in times},
    }


#: Stencil2D improvement bands, ``PEs: (today's %, the paper's %)``.
#: A documented fidelity gap (EXPERIMENTS.md, "Fig 11"): the paper's
#: 1K^2 gains shrink with scale, ours grow, because strong scaling
#: shrinks the modeled compute while per-message latency stays fixed.
#: Each band is today's value +/-5 points, so the gap cannot drift
#: silently; the quick 4-PE row has no paper counterpart.
FIG11_BANDS = {16: (22, 24), 32: (30, 18), 64: (40, 14)}
FIG11_QUICK_BANDS = {4: (4, None)}
#: The 2K x 2K panel's bands: the paper gives 32 and 64 GPUs only.
FIG11_2K_BANDS = {16: (8, None), 32: (14, 20), 64: (21, 19)}
FIG11_2K_QUICK_BANDS = {4: (1, None)}


def _measure_fig11(quick: bool = False, size: int = 1024) -> Rows:
    cfg = StencilConfig(
        nx=size, ny=size, iterations=1000,
        measure_iterations=3 if quick else 8,
        warmup_iterations=1 if quick else 2,
    )
    times = []
    for npes in [4] if quick else [16, 32, 64]:
        hp = run_stencil2d(nodes=max(1, npes // 2), design=HP, cfg=cfg)
        gd = run_stencil2d(nodes=max(1, npes // 2), design=GDR, cfg=cfg)
        times.append((npes, hp["evolution_time"], gd["evolution_time"]))
    return _gains(HP, GDR, times)


def _render_fig11(rows: Rows, size: int = 1024) -> str:
    return _render_table(["GPUs"], GAINS_FMTS, rows,
                         title=f"Fig 11 — Stencil2D execution time, {size}x{size}, 1000 iters")


# ----------------------------------------------------------------- Fig 12
MPI, SHMEM = "MPI two-sided", "OpenSHMEM GDR"

#: LBM strong-scaling improvement bands, ``PEs: (today's %, the
#: paper's %)``.  A documented fidelity gap (EXPERIMENTS.md, "Fig 12"):
#: our MPI baseline is an idealised rendezvous pipeline, so the
#: one-sided redesign wins by 18-26% where the paper measured 45-70%.
#: Each band is today's value +/-5 points; the quick 4-PE row has no
#: paper counterpart.  ``fig12`` is strong scaling; ``fig12_weak`` is
#: the weak-scaling panel.
FIG12_BANDS = {8: (18, None), 16: (22, 70), 32: (24, 53), 64: (26, 45)}
FIG12_QUICK_BANDS = {4: (13, None)}
#: Weak scaling, 64^3 per GPU (the paper: 39/30% at 32/64 GPUs); the
#: same gap.
FIG12_WEAK_BANDS = {8: (16, None), 16: (16, None), 32: (16, 39), 64: (16, 30)}
FIG12_WEAK_QUICK_BANDS = {4: (16, None)}


def _measure_fig12(quick: bool = False, mode: str = "strong") -> Rows:
    side = 128 if mode == "strong" else 64
    base = LBMConfig(nx=side, ny=side, nz=side, iterations=1000)
    times = []
    for npes in [4] if quick else [8, 16, 32, 64]:
        cfg = base if mode == "strong" else dc_replace(base, nz=64 * npes)
        cfg = dc_replace(
            cfg,
            measure_iterations=3 if quick else 6,
            warmup_iterations=1 if quick else 2,
        )
        mpi = run_lbm(nodes=max(1, npes // 2), design=GDR, cfg=dc_replace(cfg, comm_mode="mpi"))
        shm = run_lbm(nodes=max(1, npes // 2), design=GDR, cfg=cfg)
        times.append((npes, mpi["evolution_time"], shm["evolution_time"]))
    return _gains(MPI, SHMEM, times)


def _render_fig12(rows: Rows, mode: str = "strong") -> str:
    title = ("Fig 12(a) — LBM evolution, strong scaling, 128^3" if mode == "strong"
             else "Fig 12(b) — LBM evolution, weak scaling, 64^3 per GPU")
    return _render_table(["GPUs"], GAINS_FMTS, rows, title=title)


# ------------------------------------------------------ protocol crossovers
# The two-sided msg layer measured Fig 6-9 style (DESIGN.md §12).

XOVER_LATENCY_SIZES = message_sizes(64, 256 * KiB)
XOVER_LATENCY_QUICK = [256, 4 * KiB, 32 * KiB, 256 * KiB]
XOVER_RATE_SIZES = [4, 64, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB]
XOVER_RATE_QUICK = [64, 4 * KiB, 64 * KiB]
EAGER, RDV, THRESHOLD = "eager-forced", "rendezvous-forced", "threshold-8192"


def _measure_xover1(quick: bool = False) -> Rows:
    from repro.bench.crossover import msg_latency_sweep
    from repro.hardware.params import wilkes_params

    base = wilkes_params()
    sizes = XOVER_LATENCY_QUICK if quick else XOVER_LATENCY_SIZES
    rows = {}
    for name, thr in (
        (EAGER, base.pipeline_chunk),
        (RDV, 0),
        (f"threshold-{base.msg_eager_threshold}", None),
    ):
        rows[name] = {s: p.usec for s, p in zip(sizes, msg_latency_sweep(sizes, threshold=thr))}
    return rows


def _render_xover1(rows: Rows) -> str:
    from repro.bench.crossover import find_crossover

    eager, rdv = rows[EAGER], rows[RDV]
    xb = find_crossover(list(eager), list(eager.values()), list(rdv.values()))
    return _render_curves(
        "bytes", rows, title=f"Xover 1 — two-sided send/recv latency (usec), crossover at {xb} B",
    )


def _measure_xover2(quick: bool = False) -> Rows:
    from repro.bench.crossover import message_rate_sweep

    sizes = XOVER_RATE_QUICK if quick else XOVER_RATE_SIZES
    return {
        transport: {s: p.msgs_per_sec for s, p in zip(sizes, message_rate_sweep(sizes, transport=transport))}
        for transport in ("rc", "ud")
    }


def _beats(winner, loser, sizes, better=lambda a, b: a < b) -> Condition:
    return (f"{winner} beats {loser} at {'/'.join(map(str, sizes))} B",
            lambda r: all(better(r[winner][s], r[loser][s]) for s in sizes))


# ------------------------------------------------ design ablations and OMB
# The paper's design arguments (§III-B/C, Fig 5) and the rest of the
# OMB-GPU suite on the same fabric, each as an artifact with a claim.
NOPROXY = "enhanced-gdr-noproxy"
PLACEMENTS = ("intra-socket", "inter-socket")
PIPELINE_CHUNKS = (64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB)
PIPELINE_DEPTHS = (1, 2, 4, 8)
PROXY_SIZES = [64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]
SOCKET_SIZES = [8, 2 * KiB, 64 * KiB, 1 * MiB, 4 * MiB]
THRESHOLD_SIZES = [1 * KiB, 8 * KiB, 32 * KiB, 128 * KiB, 1 * MiB, 4 * MiB]
HYBRID, ALWAYS_GDR, NEVER_GDR = "hybrid (default)", "always Direct-GDR", "never GDR (always staged)"
RATE, ATOMIC = "message rate (8 B D-D)", "latency (usec)"
PUT_4MB = "4 MB D-D put (usec)"


def _node_config(placement):
    """``None`` (the Wilkes node) or both HCAs on socket 0 with the last
    PE's GPU on socket 1, so its traffic crosses QPI."""
    if placement == "intra-socket":
        return None
    return NodeConfig(gpus=2, hcas=2, gpu_sockets=[0, 1], hca_sockets=[0, 0])


def _dd_usecs(design, op, sizes, **kw) -> Dict[int, float]:
    return {s: p.usec for s, p in zip(sizes, latency_sweep(design, op, G, G, sizes, **kw))}


def _measure_pipeline(quick: bool = False) -> Rows:
    return {PUT_4MB: {
        (f"{chunk // 1024} KB", depth): _dd_usecs(GDR, "put", [4 * MiB], params=wilkes_params().tuned(
            pipeline_chunk=chunk, pipeline_depth=depth))[4 * MiB]
        for chunk in PIPELINE_CHUNKS for depth in PIPELINE_DEPTHS
    }}


def _measure_proxy(quick: bool = False) -> Rows:
    return {design: {(placement, s): usec for placement in PLACEMENTS for s, usec in _dd_usecs(
        design, "get", PROXY_SIZES, node_config=_node_config(placement)).items()}
        for design in (GDR, NOPROXY)}


def _render_proxy(rows: Rows) -> str:
    return "\n\n".join(
        _render_curves("bytes", {d: {s: u for (p, s), u in c.items() if p == placement}
                                 for d, c in rows.items()},
                       title=f"Ablation — inter-node D-D get, {placement} (usec)")
        for placement in PLACEMENTS
    )


def _measure_service_thread(quick: bool = False) -> Rows:
    keys = [(design, st) for design in (HP, GDR) for st in (False, True)]
    return {
        "overlap (1 MB)": {(d, "on" if st else "off"): service_thread_overlap(d, st) for d, st in keys},
        "app loop (ms)": {(d, "on" if st else "off"): app_loop_ms(d, st) for d, st in keys},
    }


def _measure_sockets(quick: bool = False) -> Rows:
    return {placement: _dd_usecs(GDR, "put", SOCKET_SIZES, node_config=_node_config(placement))
            for placement in PLACEMENTS}


def _measure_thresholds(quick: bool = False) -> Rows:
    def at(threshold):
        return wilkes_params().tuned(
            gdr_put_threshold=threshold, gdr_get_threshold=threshold,
            loopback_put_threshold=threshold, loopback_get_threshold=threshold,
        )

    return {HYBRID: _dd_usecs(GDR, "put", THRESHOLD_SIZES),
            ALWAYS_GDR: _dd_usecs(GDR, "put", THRESHOLD_SIZES, params=at(1 << 30)),
            NEVER_GDR: _dd_usecs(GDR, "put", THRESHOLD_SIZES, params=at(0))}


def _measure_collectives(quick: bool = False) -> Rows:
    keys = [(which, npes) for which in COLLECTIVES for npes in (4, 8, 16)]
    hp = {k: collective_latency(*k, HP) for k in keys}
    gd = {k: collective_latency(*k, GDR) for k in keys}
    return {f"{HP} (usec)": hp, f"{GDR} (usec)": gd,
            "improvement": {k: 100 * (1 - gd[k] / hp[k]) for k in keys}}


def _measure_omb_bandwidth(quick: bool = False) -> Rows:
    sizes = message_sizes(4 * KiB, 4 * MiB)
    return {d: {p.nbytes: p.mbps for p in bandwidth_sweep(d, G, G, sizes)} for d in (HP, GDR)}


def _measure_rate_atomics(quick: bool = False) -> Rows:
    return {RATE: {d: message_rate(d) for d in (HP, GDR)},
            ATOMIC: {(a.op, a.domain.value): a.usec for a in atomics_latency()}}


def _render_rate_atomics(rows: Rows) -> str:
    return "\n\n".join((
        _render_table(["design"], ["{:.2f} M msg/s"], {RATE: rows[RATE]}, title="OMB: message rate"),
        _render_table(["op", "target domain"], ["{:.2f}"], {ATOMIC: rows[ATOMIC]},
                      title=f"OMB: remote atomics latency ({GDR})"),
    ))


# ---------------------------------------------------------------- registry
EXPERIMENTS: Dict[str, Experiment] = {}


def _register(exp_id, title, claim, measure, render):
    EXPERIMENTS[exp_id] = Experiment(exp_id, title, claim, measure, render)


_register("table1", "Design feature matrix", Claim("proposed covers all configs, one-sided", (
    (f"{GDR} serves H-H/H-D/D-H/D-D intra- and inter-node",
     lambda r: r["intra-node"][GDR] == r["inter-node"][GDR] == "H-H/H-D/D-H/D-D"),
    (f"{GDR} is truly one-sided", lambda r: r["one-sided"][GDR] == "good"),
)), _measure_table1, partial(
    _render_table, ["design"], ["{}"] * 6, title="Table I — design feature matrix",
))
_register("table2", "4 B put, IB vs OpenSHMEM level", Claim("GPU-GPU SHMEM put far above verbs floor", (
    (f"{HP} GPU-GPU put over 4x the verbs floor",
     lambda r: r["GPU-GPU (usec)"][HP_ROW] > 4 * r["GPU-GPU (usec)"][IB_ROW]),
    (f"{GDR} GPU-GPU put under 1.5x the verbs floor",
     lambda r: r["GPU-GPU (usec)"][GDR_ROW] < 1.5 * r["GPU-GPU (usec)"][IB_ROW]),
)), _measure_table2, partial(
    _render_table, ["level"], ["{:.2f}"] * 2,
    title="Table II — 4 B put latency, IB level vs OpenSHMEM level",
))
_register("table3", "PCIe P2P bandwidth", Claim(
    "read 3421/247, write 6396/1179 MB/s",
    tuple(_table3_cell(key, paper) for key, paper in TABLE3_PAPER.items()),
), _measure_table3, partial(
    _render_table, ["op", "placement"], ["{:,.0f} MB/s", "{:.0f}%"],
    title="Table III — PCIe P2P bandwidth (IvyBridge)",
))
_register("fig6a", "intra-node H-D put small", Claim("2.4 vs 6.2 usec at 4 B (2.5x)", (
    _anchor(4, 2.4), _anchor(4, 6.2, design=HP, tol=0.25), _speedup(4, 2.0),
    _anchor(8, 2.2),  # the abstract's intra-node 8 B H-D put
)), *_latency("6(a)", "put", H, G, large=False, nodes=1))
_register("fig6b", "intra-node H-D put large", Claim("on par (both IPC copy)", (_on_par(4 * MiB),)),
          *_latency("6(b)", "put", H, G, large=True, nodes=1))
_register("fig6c", "intra-node H-D get small", Claim("2.02 usec at 4 B", (_anchor(4, 2.02),)),
          *_latency("6(c)", "get", H, G, large=False, nodes=1))
_register("fig6d", "intra-node H-D get large", Claim("-40% via shm design", (
    _reduction(1 * MiB), _reduction(4 * MiB),
)), *_latency("6(d)", "get", H, G, large=True, nodes=1))
_register("fig7a", "intra-node D-H put small", Claim(">2x improvement", (_speedup(4, 2.0),)),
          *_latency("7(a)", "put", G, H, large=False, nodes=1))
_register("fig7b", "intra-node D-H put large", Claim("-40% via shm design", (
    _reduction(1 * MiB), _reduction(4 * MiB),
)), *_latency("7(b)", "put", G, H, large=True, nodes=1))
_register("fig7c", "intra-node D-H get small", Claim(">2x improvement", (_speedup(4, 2.0),)),
          *_latency("7(c)", "get", G, H, large=False, nodes=1))
_register("fig7d", "intra-node D-H get large", Claim("on par (both H2D from shm)", (_on_par(4 * MiB),)),
          *_latency("7(d)", "get", G, H, large=True, nodes=1))
_register("fig8a", "inter-node D-D put small", Claim("20.9 -> 3.13 usec at 8 B (7x)", (
    _anchor(8, 3.13), _anchor(8, 20.9, design=HP), _speedup(8, 4.5),
    (f"{GDR} at 2048 B under 4 usec (§V-B)", lambda r: r[GDR][2 * KiB] < 4.0),
)), *_latency("8(a)", "put", G, G, large=False, nodes=2))
_register("fig8b", "inter-node D-D put large", Claim("on par (cudaMemcpy-bound)", (
    _no_slower(4 * MiB, slack=1.05),
)), *_latency("8(b)", "put", G, G, large=True, nodes=2))
_register("fig8c", "inter-node D-D get small", Claim("~7x improvement", (_speedup(8, 4.5),)),
          *_latency("8(c)", "get", G, G, large=False, nodes=2))
_register("fig8d", "inter-node D-D get large", Claim("proxy avoids P2P bottleneck, no overhead", (
    _no_slower(4 * MiB),
)), *_latency("8(d)", "get", G, G, large=True, nodes=2))
_register("fig9a", "inter-node D-H put", Claim("2.81 usec at 8 B; baseline unsupported", (
    _anchor(8, 2.81), _unsupported(HP),
)), *_latency("9(a)", "put", G, H, large=False, nodes=2))
_register("fig9b", "inter-node H-D put", Claim("3.7 usec at 4 KB; baseline unsupported", (
    _anchor(4 * KiB, 3.7), _anchor(8, 2.81), _unsupported(HP),
)), *_latency("9(b)", "put", H, G, large=False, nodes=2))
_register("fig9c", "inter-node H-D get", Claim("baseline unsupported", (_unsupported(HP),)),
          *_latency("9(c)", "get", H, G, large=False, nodes=2))
_register("fig9d", "inter-node D-H get", Claim("baseline unsupported", (_unsupported(HP),)),
          *_latency("9(d)", "get", G, H, large=False, nodes=2))
_register("fig10", "overlap", Claim("~100% overlap for proposed; baseline degrades", (
    (f"{GDR} overlap above 95% at 1 MB", lambda r: _overlap(r[GDR]) > 95.0),
    (f"{HP} overlap below 40% at 1 MB", lambda r: _overlap(r[HP]) < 40.0),
)), _measure_fig10, _render_fig10)
_register("fig11", "Stencil2D", Claim(
    "-14..24% execution time", _bands(FIG11_BANDS), quick=_bands(FIG11_QUICK_BANDS),
), _measure_fig11, _render_fig11)
_register("fig12", "LBM evolution", Claim(
    "-45..70% (strong), -30..39% (weak)", _bands(FIG12_BANDS), quick=_bands(FIG12_QUICK_BANDS),
), _measure_fig12, _render_fig12)
# Four-way comparisons (DESIGN.md §11): the 22 paper targets above are
# pinned by BENCH_PR1.json; these extra targets put the device-initiated
# design on the same axes without touching their outputs.
_register("fig8a4", "inter-node D-D put small, four designs", Claim(
    "device-initiated tracks enhanced-gdr small-message latency without the proxy hop",
    (_unsupported("naive"), *(_no_slower(n, "device-initiated", GDR) for n in (8, 8 * KiB))),
), *_latency("8(a)+", "put", G, G, large=False, nodes=2, designs=FOUR_WAY))
_register("fig8b4", "inter-node D-D put large, four designs", Claim(
    "large messages narrow the designs that serve D-D to within 2x; device-initiated stays bound "
    "by the intra-socket GDR P2P read (1.51x enhanced-gdr at 4 MiB), not the wire",
    (_unsupported("naive"), ("designs serving D-D within 2x of each other at 4 MiB, closer than at 16 KiB",
                             lambda r: _spread(r, 4 * MiB) < min(2.0, _spread(r, 16 * KiB)))),
), *_latency("8(b)+", "put", G, G, large=True, nodes=2, designs=FOUR_WAY))
_register("fig6a4", "intra-node H-D put small, four designs", Claim(
    "device ld/st through peer-mapped memory tracks the IPC path intra-node",
    (_unsupported("naive"), *(_on_par(n, "device-initiated") for n in (4, 8 * KiB))),
), *_latency("6(a)+", "put", H, G, large=False, nodes=1, designs=FOUR_WAY))
# Protocol-crossover studies (DESIGN.md §12): additive targets — the 22
# paper targets above stay bit-identical.
_register("xover1", "eager vs rendezvous crossover", Claim(
    "eager wins below the threshold, rendezvous above (MPICH2-over-IB lineage)", (
        _beats(EAGER, RDV, (64, 8 * KiB)), _beats(RDV, EAGER, (16 * KiB, 256 * KiB)),
        (f"{THRESHOLD} follows eager up to 8 KiB and rendezvous above", lambda r: all(
            usec == r[EAGER if s <= 8 * KiB else RDV][s] for s, usec in r[THRESHOLD].items())),
    )), _measure_xover1, _render_xover1)
_register("xover2", "RC vs UD message rate", Claim(
    "UD's cheaper posts win small messages; segmentation loses the large ones", (
        _beats("ud", "rc", (4, 64, 1 * KiB, 4 * KiB), better=lambda a, b: a > b),
        _beats("rc", "ud", (16 * KiB, 64 * KiB), better=lambda a, b: a > b),
    )), _measure_xover2,
    partial(_render_curves, "bytes", title="Xover 2 — RC vs UD message rate (msgs/s)", fmt="{:.0f}"))

# Second panels of Figs 10-12 and the design ablations: additive
# targets, pinned in tier-1 beside the ones above.
_register("fig10_8k", "overlap, 8 KB", Claim("~100% overlap for proposed at 8 KB; baseline degrades", (
    (f"{GDR} overlap above 95% at 8 KB", lambda r: _overlap(r[GDR]) > 95.0),
    (f"{HP} overlap below 40% at 8 KB", lambda r: _overlap(r[HP]) < 40.0),
)), partial(_measure_fig10, nbytes=8 * KiB), partial(_render_fig10, nbytes=8 * KiB))
_register("fig11_2k", "Stencil2D, 2K x 2K", Claim(
    "-20/19% execution time at 32/64 GPUs", _bands(FIG11_2K_BANDS), quick=_bands(FIG11_2K_QUICK_BANDS),
), partial(_measure_fig11, size=2048), partial(_render_fig11, size=2048))
_register("fig12_weak", "LBM evolution, weak scaling", Claim(
    "-39/30% execution time at 32/64 GPUs (weak)", _bands(FIG12_WEAK_BANDS), quick=_bands(FIG12_WEAK_QUICK_BANDS),
), partial(_measure_fig12, mode="weak"), partial(_render_fig12, mode="weak"))
_register("ablation_pipeline", "Pipeline-GDR-write chunk size and depth", Claim(
    "overlapping pipeline stages beats a serial pipeline", (
        ("depth 4 faster than depth 1 at the default 256 KB chunk",
         lambda r: r[PUT_4MB][("256 KB", 4)] < r[PUT_4MB][("256 KB", 1)]),
    )), _measure_pipeline, partial(
    _render_table, ["chunk", "depth"], ["{:.0f}"], title="Ablation — Pipeline-GDR-write chunk size / depth",
))
_register("ablation_proxy", "proxy framework on and off (Fig 5)", Claim(
    "the proxy beats raw P2P-read gets, most where P2P read collapses inter-socket", (
        (f"{GDR} faster than {NOPROXY} for a 4 MiB intra-socket get",
         lambda r: r[GDR][("intra-socket", 4 * MiB)] < r[NOPROXY][("intra-socket", 4 * MiB)]),
        (f"{NOPROXY} over 3x {GDR} for a 4 MiB inter-socket get",
         lambda r: r[NOPROXY][("inter-socket", 4 * MiB)] > 3 * r[GDR][("inter-socket", 4 * MiB)]),
    )), _measure_proxy, _render_proxy)
_register("ablation_service_thread", "service thread vs truly one-sided (§III-C)", Claim(
    "a progress thread restores the baseline's overlap at a CPU cost the proposed design avoids", (
        (f"{HP} overlap below 40% without a service thread",
         lambda r: r["overlap (1 MB)"][(HP, "off")] < 40.0),
        (f"{HP} overlap above 95% with one", lambda r: r["overlap (1 MB)"][(HP, "on")] > 95.0),
        (f"the thread adds over 30% to {HP}'s app loop",
         lambda r: r["app loop (ms)"][(HP, "on")] > 1.3 * r["app loop (ms)"][(HP, "off")]),
        (f"{GDR} without a thread beats {HP} with one",
         lambda r: r["app loop (ms)"][(GDR, "off")] < r["app loop (ms)"][(HP, "on")]),
    )), _measure_service_thread, partial(
    _render_table, ["design", "service thread"], ["{:.0f}%", "{:.3f}"],
    title="Ablation — service thread: overlap gained vs CPU time lost",
))
_register("ablation_sockets", "HCA/GPU socket placement (§II-B)", Claim(
    "rerouting keeps inter-socket large puts off the 1,179 MB/s P2P write", (
        ("inter-socket 4 MiB put faster than a pure 1,179 MB/s P2P write",
         lambda r: r["inter-socket"][4 * MiB] < 4 * MiB / 1179e6 * 1e6),
        ("inter-socket 4 MiB put under 2.5x intra-socket",
         lambda r: r["inter-socket"][4 * MiB] < 2.5 * r["intra-socket"][4 * MiB]),
    )), _measure_sockets, partial(
    _render_curves, "bytes", title="Ablation — inter-node D-D put vs HCA/GPU socket placement (usec)",
))
_register("ablation_thresholds", "GDR threshold policy (§III-B/C)", Claim(
    "a hybrid threshold beats Direct GDR everywhere, which the P2P read throttles", (
        (f"{HYBRID} faster than {ALWAYS_GDR} at 4 MiB", lambda r: r[HYBRID][4 * MiB] < r[ALWAYS_GDR][4 * MiB]),
    )), _measure_thresholds, partial(
    _render_curves, "bytes", title="Ablation — inter-node D-D put vs GDR threshold policy (usec)",
))
_register("collectives", "collectives over GPU symmetric objects", Claim(
    "dissemination barriers scale logarithmically; GDR speeds up GPU broadcasts", (
        (f"{GDR} barrier at 16 PEs under 3.5x 4 PEs",
         lambda r: r[f"{GDR} (usec)"][("barrier", 16)] < 3.5 * r[f"{GDR} (usec)"][("barrier", 4)]),
        (f"{GDR} broadcast faster than {HP} at 8 PEs",
         lambda r: r[f"{GDR} (usec)"][("broadcast", 8)] < r[f"{HP} (usec)"][("broadcast", 8)]),
    )), _measure_collectives, partial(
    _render_table, ["collective", "PEs"], ["{:.1f}", "{:.1f}", "{:.0f}%"],
    title="Collectives over GPU symmetric objects (4 KB payloads)",
))
_register("omb_bandwidth", "OMB uni-directional bandwidth", Claim(
    "large-message bandwidth nears the cudaMemcpy ceiling and the proposed design never loses", (
        (f"{GDR} above 4,000 MB/s at 4 MiB", lambda r: r[GDR][4 * MiB] > 4000),
        (f"{GDR} at least 95% of {HP} at 4 MiB", lambda r: r[GDR][4 * MiB] >= 0.95 * r[HP][4 * MiB]),
    )), _measure_omb_bandwidth, partial(
    _render_curves, "bytes", title="OMB: inter-node D-D uni-directional bandwidth (MB/s)", fmt="{:,.0f}",
))
_register("omb_rate_atomics", "OMB message rate and remote atomics (§III-D)", Claim(
    "small-message rate tracks the 7x latency gain; GPU words and 32-bit atomics cost more", (
        (f"{GDR} message rate over 3x {HP}", lambda r: r[RATE][GDR] > 3 * r[RATE][HP]),
        ("fetch_add on a GPU word slower than on a host word",
         lambda r: r[ATOMIC][("fetch_add", "gpu")] > r[ATOMIC][("fetch_add", "host")]),
        ("masked 32-bit fetch_add slower than the native 64-bit one on a host word",
         lambda r: r[ATOMIC][("fetch_add_32", "host")] > r[ATOMIC][("fetch_add", "host")]),
    )), _measure_rate_atomics, _render_rate_atomics)


def run_experiment(exp_id: str, quick: bool = False) -> str:
    """Run one registered experiment and return its rendered output."""
    exp = EXPERIMENTS[exp_id]
    return exp.render(exp.measure(quick))
