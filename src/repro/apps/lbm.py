"""GPULBM: the multiphase Lattice-Boltzmann evolution phase (§IV, Fig 12).

The paper redesigns a CUDA-aware-MPI multiphase LBM [24] to issue
OpenSHMEM puts straight from/to GPU memory.  We reproduce the
*communication structure* it describes exactly:

* a 3-D grid decomposed along the Z axis, one slab per PE (periodic);
* three exchanges per timestep — the laplacian of the order parameter
  ``phi`` (1 element/site), the phase distribution ``f`` (1 element),
  and the momentum distribution ``g`` (6 elements) — each moving
  ``X * Y * elements * sizeof(float)`` bytes per neighbour, the
  paper's own message-size formula;
* all fields live in **GPU symmetric memory** (``shmalloc`` with the
  GPU domain replaces the tracked ``cudaMalloc`` calls, §IV) and every
  exchange is a one-sided ``shmem_putmem``.

The physics is a compact multiphase-flavoured update chosen so that
each compute stage genuinely *needs* the ghost planes the preceding
exchange delivered (so validation against a single-PE reference is
meaningful), while the per-site cost is charged through the GPU
roofline model:

1. ``lap = laplacian(phi)``   (7-point, needs phi ghosts)   -> exchange lap
2. ``f += A*d2z(lap) + B*(phi - f)``  (needs lap ghosts)    -> exchange f
3. ``g[c] += C*(shift_z(f, dz_c) - g[c])``  (needs f ghosts)-> exchange g
4. ``phi = w0*f + sum_c wc*g[c]`` — pointwise, computed on interior
   *and* ghost planes (their f/g are valid), so phi ghosts never need
   their own exchange: exactly three exchanges per step, as published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.shmem import Domain, ShmemJob
from repro.shmem.collectives import NOTIFY_FLAG_OFF

#: Model coefficients (stable for any grid; values are arbitrary but fixed).
A_COEF = 0.05
B_COEF = 0.10
C_COEF = 0.20
W0 = 0.4
WC = 0.1  # x6 components
#: z-displacement of each of the six g components.
G_DZ = (-1, -1, 0, 0, 1, 1)

_FLAG_DOWN = NOTIFY_FLAG_OFF  # signal from my down neighbour
_FLAG_UP = NOTIFY_FLAG_OFF + 8  # signal from my up neighbour


@dataclass(frozen=True)
class LBMConfig:
    """One LBM experiment (strong: fix the global grid; weak: per-GPU)."""

    nx: int = 64
    ny: int = 64
    nz: int = 64  # global Z extent (must divide by npes)
    iterations: int = 1000
    measure_iterations: int = 8
    warmup_iterations: int = 2
    validate: bool = False
    #: "shmem" — the paper's one-sided redesign (§IV);
    #: "mpi"   — the original two-sided CUDA-aware version [24].
    comm_mode: str = "shmem"

    def local_nz(self, npes: int) -> int:
        if self.nz % npes:
            raise ConfigurationError(
                f"global nz={self.nz} must divide evenly over {npes} PEs"
            )
        lnz = self.nz // npes
        if lnz < 1:
            raise ConfigurationError("fewer than one Z plane per PE")
        return lnz


@dataclass
class LBMResult:
    evolution_time: float
    per_iteration: float
    comm_time: float
    compute_time: float
    phi_tile: Optional[np.ndarray] = None
    z0: int = 0


def _laplacian(phi: np.ndarray) -> np.ndarray:
    """7-point laplacian, periodic in x/y, ghost-based in z.

    Returns the full-shape array; only interior z planes are valid."""
    lap = np.zeros_like(phi)
    lap[1:-1] = (
        phi[0:-2]
        + phi[2:]
        + np.roll(phi[1:-1], 1, axis=1)
        + np.roll(phi[1:-1], -1, axis=1)
        + np.roll(phi[1:-1], 1, axis=2)
        + np.roll(phi[1:-1], -1, axis=2)
        - 6.0 * phi[1:-1]
    )
    return lap


def seed_phi(nx: int, ny: int, nz: int) -> np.ndarray:
    """Deterministic initial order parameter over the global grid."""
    zz, yy, xx = np.mgrid[0:nz, 0:ny, 0:nx]
    return (np.sin(2 * np.pi * xx / nx) * np.cos(2 * np.pi * yy / ny)
            * np.sin(2 * np.pi * zz / nz)).astype(np.float32)


def reference_lbm(cfg: LBMConfig, iterations: int) -> np.ndarray:
    """Single-domain reference with periodic Z (np.roll)."""
    nx, ny, nz = cfg.nx, cfg.ny, cfg.nz
    phi = seed_phi(nx, ny, nz)
    f = phi.copy()
    g = np.stack([phi.copy() for _ in G_DZ])

    def lap_of(p):
        out = np.zeros_like(p)
        for axis in (0, 1, 2):
            out += np.roll(p, 1, axis) + np.roll(p, -1, axis)
        return out - 6.0 * p

    for _ in range(iterations):
        lap = lap_of(phi)
        f = f + A_COEF * (np.roll(lap, 1, 0) + np.roll(lap, -1, 0) - 2 * lap) + B_COEF * (phi - f)
        for c, dz in enumerate(G_DZ):
            g[c] = g[c] + C_COEF * (np.roll(f, -dz, 0) - g[c])
        phi = W0 * f + WC * g.sum(axis=0)
    return phi


def lbm_program(cfg: LBMConfig):
    """Build the SPMD evolution-phase program."""

    def main(ctx) -> Generator:
        lnz = cfg.local_nz(ctx.npes)
        nx, ny = cfg.nx, cfg.ny
        plane = ny * nx  # sites per plane
        pb = plane * 4  # plane bytes (float32)
        gpb = 6 * pb  # g-plane bytes
        up = (ctx.pe + 1) % ctx.npes
        down = (ctx.pe - 1) % ctx.npes

        # GPU-domain symmetric fields, each with 2 ghost planes.
        phi_s = yield from ctx.shmalloc((lnz + 2) * pb, domain=Domain.GPU)
        lap_s = yield from ctx.shmalloc((lnz + 2) * pb, domain=Domain.GPU)
        f_s = yield from ctx.shmalloc((lnz + 2) * pb, domain=Domain.GPU)
        g_s = yield from ctx.shmalloc((lnz + 2) * gpb, domain=Domain.GPU)

        def phi_v():
            return phi_s.as_array(np.float32).reshape(lnz + 2, ny, nx)

        def lap_v():
            return lap_s.as_array(np.float32).reshape(lnz + 2, ny, nx)

        def f_v():
            return f_s.as_array(np.float32).reshape(lnz + 2, ny, nx)

        def g_v():
            return g_s.as_array(np.float32).reshape(lnz + 2, 6, ny, nx)

        z0 = ctx.pe * lnz
        if cfg.validate:
            full = seed_phi(cfg.nx, cfg.ny, cfg.nz)
            mine = full[z0 : z0 + lnz]
            phi_v()[1:-1] = mine
            phi_v()[0] = full[(z0 - 1) % cfg.nz]
            phi_v()[-1] = full[(z0 + lnz) % cfg.nz]
            f_v()[:] = phi_v()
            for c in range(6):
                g_v()[:, c] = phi_v()

        gpu = ctx.cuda.gpu
        sites = lnz * plane
        # Roofline charges per stage (bandwidth-bound on K20).
        t_lap = gpu.estimate_kernel_time(flops=sites * 8, bytes_touched=sites * 8 * 4, efficiency=0.8)
        t_f = gpu.estimate_kernel_time(flops=sites * 6, bytes_touched=sites * 5 * 4, efficiency=0.8)
        t_g = gpu.estimate_kernel_time(flops=sites * 24, bytes_touched=sites * 14 * 4, efficiency=0.8)
        t_phi = gpu.estimate_kernel_time(flops=sites * 8, bytes_touched=sites * 8 * 4, efficiency=0.8)

        flag_down = ctx.sync_sym(_FLAG_DOWN)
        flag_up = ctx.sync_sym(_FLAG_UP)
        exchange_count = 0
        comm_s = 0.0
        compute_s = 0.0
        if cfg.comm_mode not in ("shmem", "mpi"):
            raise ConfigurationError(f"unknown comm_mode {cfg.comm_mode!r}")
        comm = ctx.job.mpi.comm(ctx) if cfg.comm_mode == "mpi" else None

        def exchange_mpi(sym, plane_bytes: int) -> Generator:
            """The original code's two-sided halo exchange [24]: two
            matched sendrecv rounds per field, rendezvous each time."""
            nonlocal comm_s
            t0 = ctx.now
            # round 1: top interior -> up, ghost 0 <- down
            yield from comm.sendrecv(
                sym.local + lnz * plane_bytes, plane_bytes, up,
                sym.local + 0 * plane_bytes, plane_bytes, down,
            )
            # round 2: bottom interior -> down, ghost lnz+1 <- up
            yield from comm.sendrecv(
                sym.local + 1 * plane_bytes, plane_bytes, down,
                sym.local + (lnz + 1) * plane_bytes, plane_bytes, up,
            )
            comm_s += ctx.now - t0

        def exchange_shmem(sym, plane_bytes: int) -> Generator:
            """Push my boundary planes into the neighbours' ghost planes
            (periodic in Z), then flag-synchronize."""
            nonlocal exchange_count, comm_s
            t0 = ctx.now
            exchange_count += 1
            stamp = exchange_count
            # my top interior plane (lnz) -> up neighbour's ghost plane 0
            yield from ctx.putmem(sym.addr + 0 * plane_bytes,
                                  sym.local + lnz * plane_bytes, plane_bytes, up)
            # my bottom interior plane (1) -> down neighbour's ghost lnz+1
            yield from ctx.putmem(sym.addr + (lnz + 1) * plane_bytes,
                                  sym.local + 1 * plane_bytes, plane_bytes, down)
            yield from ctx.quiet()
            yield from ctx.put_uint64(flag_down.addr, stamp, up)  # I am their down
            yield from ctx.put_uint64(flag_up.addr, stamp, down)  # I am their up
            yield from ctx.quiet()
            yield from ctx.wait_until(flag_down, ">=", stamp)
            yield from ctx.wait_until(flag_up, ">=", stamp)
            comm_s += ctx.now - t0

        exchange = exchange_mpi if cfg.comm_mode == "mpi" else exchange_shmem

        def charge(seconds: float) -> Generator:
            nonlocal compute_s
            t0 = ctx.now
            yield from ctx.gpu_compute(seconds)
            compute_s += ctx.now - t0

        def step() -> Generator:
            # 1. laplacian of phi (interior), exchange lap planes
            if cfg.validate:
                lap_v()[:] = _laplacian(phi_v())
            yield from charge(t_lap)
            yield from exchange(lap_s, pb)
            # 2. f update (needs lap ghosts), exchange f planes
            if cfg.validate:
                lap, f, phi = lap_v(), f_v(), phi_v()
                f[1:-1] = (
                    f[1:-1]
                    + A_COEF * (lap[0:-2] + lap[2:] - 2 * lap[1:-1])
                    + B_COEF * (phi[1:-1] - f[1:-1])
                )
            yield from charge(t_f)
            yield from exchange(f_s, pb)
            # 3. g update (needs f ghosts), exchange g planes (6 elements)
            if cfg.validate:
                f, g = f_v(), g_v()
                for c, dz in enumerate(G_DZ):
                    src = f[1 + dz : lnz + 1 + dz]
                    g[1:-1, c] = g[1:-1, c] + C_COEF * (src - g[1:-1, c])
            yield from charge(t_g)
            yield from exchange(g_s, gpb)
            # 4. phi from f and g — on interior AND ghost planes, so phi
            # ghosts stay valid without a fourth exchange.
            if cfg.validate:
                f, g = f_v(), g_v()
                # ghost g planes hold the neighbour's *interior* values,
                # which used the same update; recompute their c-sum here.
                phi_v()[:] = W0 * f + WC * g.sum(axis=1)
            yield from charge(t_phi)

        sim_iters = (
            cfg.iterations
            if cfg.validate
            else min(cfg.iterations, cfg.warmup_iterations + cfg.measure_iterations)
        )
        measured_from = 0 if cfg.validate else min(cfg.warmup_iterations, sim_iters)
        yield from ctx.barrier_all()
        for _ in range(measured_from):
            yield from step()
        comm_s = compute_s = 0.0
        t_start = ctx.now
        for _ in range(measured_from, sim_iters):
            yield from step()
        yield from ctx.barrier_all()
        window = max(sim_iters - measured_from, 1)
        per_iter = (ctx.now - t_start) / window
        return LBMResult(
            evolution_time=per_iter * cfg.iterations,
            per_iteration=per_iter,
            comm_time=comm_s / window,
            compute_time=compute_s / window,
            phi_tile=np.array(phi_v()[1:-1]) if cfg.validate else None,
            z0=z0,
        )

    return main


def run_lbm(
    nodes: int,
    design: str,
    cfg: Optional[LBMConfig] = None,
    pes_per_node: int = 0,
    **job_kwargs,
) -> Dict:
    """Run one LBM evolution-phase experiment."""
    cfg = cfg or LBMConfig()
    job = ShmemJob(nodes=nodes, design=design, pes_per_node=pes_per_node, **job_kwargs)
    res = job.run(lbm_program(cfg))
    per_pe: List[LBMResult] = res.results
    return {
        "design": design,
        "npes": job.npes,
        "evolution_time": max(r.evolution_time for r in per_pe),
        "per_iteration": max(r.per_iteration for r in per_pe),
        "comm_time": per_pe[0].comm_time,
        "compute_time": per_pe[0].compute_time,
        "results": per_pe,
        "job": job,
    }
