"""CUDA-aware MPI two-sided emulation (the application baseline).

The original GPULBM [24] that §IV redesigns is a CUDA-aware **MPI**
code: every halo exchange is a matched send/recv pair.  To reproduce
the paper's application comparison faithfully, this package provides a
minimal MVAPICH2-GPU-style two-sided layer over the same simulated
hardware:

* rendezvous protocol for GPU buffers — data moves only once *both*
  sides have posted and the RTS/CTS round-trip completed;
* the transfer itself is the host-staged chunk pipeline
  (D2H -> IB -> H2D), with the receiver's H2D copies charged to the
  receiver's links — both processes are occupied for the duration,
  which is exactly the serialization one-sided puts eliminate;
* eager path for small host-resident messages.

The lowercase API (``isend``/``irecv``/``send``/``recv``) is
deliberately *not* built on the OpenSHMEM runtime designs: it is the
independent baseline the paper's Figure 12 compares against, and its
timing is pinned.  It posts and matches through the same front end as
:mod:`repro.msg` (:class:`repro.msg.engine.TwoSided`), with its own
match lists; only its transfer is its own.  Programs that want the
runtime's own two-sided engine (wildcards, the tunable eager limit, the
RC/UD routes) call ``ctx.isend``/``ctx.irecv`` (:mod:`repro.msg`).
"""

from repro.mpi.core import MpiComm, MpiWorld

__all__ = ["MpiComm", "MpiWorld"]
