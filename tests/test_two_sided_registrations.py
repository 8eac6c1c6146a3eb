"""The two-sided engines' registration memo keeps no freed buffer.

Both engines (:class:`repro.msg.MsgEngine` and the lowercase MPI
baseline) register the receive buffer a rendezvous writes into, once per
allocation.  A buffer freed after its message must leave that memo: each
round below receives into a fresh buffer and frees it.  Nor does the
memory space keep a freed buffer that no pending snapshot still reads.
"""

from repro.shmem import ShmemJob
from repro.units import KiB

ROUNDS = 20
#: Past both engines' eager limits, host to host: an RC rendezvous write.
NBYTES = 64 * KiB


def _rounds(exchange):
    def main(ctx):
        src = ctx.cuda.malloc_host(NBYTES)
        for r in range(ROUNDS):
            if ctx.pe == 0:
                src.fill(r, NBYTES)
                yield from exchange(ctx, "send", src)
            else:
                buf = ctx.cuda.malloc_host(NBYTES)
                yield from exchange(ctx, "recv", buf)
                assert buf.read(NBYTES) == bytes([r]) * NBYTES
                ctx.cuda.free(buf)
        return None

    return main


def _msg(ctx, side, buf):
    if side == "send":
        yield from ctx.send(buf, NBYTES, 1)
    else:
        yield from ctx.recv(buf, NBYTES, src=0)


def _mpi(ctx, side, buf):
    comm = ctx.job.mpi.comm(ctx)
    if side == "send":
        yield from comm.send(buf, NBYTES, dst=1)
    else:
        yield from comm.recv(buf, NBYTES, src=0)


def _freed_in_memo(engine):
    return [mr.alloc for mr in engine._mrs.values() if mr.alloc.freed]


def _freed_in_space(job):
    return [a for a in job.space._allocs if a.freed and not a.pending]


def test_msg_engine_memo_drops_freed_buffers():
    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    job.run(_rounds(_msg))
    assert job.msg.rendezvous == ROUNDS
    assert _freed_in_memo(job.msg) == []
    assert _freed_in_space(job) == []


def test_mpi_world_memo_drops_freed_buffers():
    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    job.run(_rounds(_mpi))
    assert job.mpi.messages == ROUNDS
    assert _freed_in_memo(job.mpi) == []
    assert _freed_in_space(job) == []
