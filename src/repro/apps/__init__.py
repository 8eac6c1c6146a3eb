"""Application kernels used in the paper's evaluation (§IV, §V-C).

* :mod:`repro.apps.stencil2d` — the SHOC Stencil2D benchmark: a 2-D
  9-point stencil with halo exchange, double precision.
* :mod:`repro.apps.lbm`       — the GPULBM multiphase Lattice Boltzmann
  evolution phase: a Z-decomposed 3-D grid with three plane exchanges
  per timestep (laplacian-of-phi, f, and f+g 6-element).

Both run in two modes: *validated* (real numpy math on small grids,
checked against a single-PE reference in the tests) and *modeled*
(roofline kernel times for paper-scale grids).  Communication is always
real: every halo byte crosses the simulated OpenSHMEM runtime.
"""

from repro.apps.grid import partition_1d, process_grid, tile_of
from repro.apps.stencil2d import StencilConfig, StencilResult, run_stencil2d, stencil_program
from repro.apps.lbm import LBMConfig, LBMResult, lbm_program, run_lbm

__all__ = [
    "LBMConfig",
    "LBMResult",
    "StencilConfig",
    "StencilResult",
    "lbm_program",
    "partition_1d",
    "process_grid",
    "run_lbm",
    "run_stencil2d",
    "stencil_program",
    "tile_of",
]
