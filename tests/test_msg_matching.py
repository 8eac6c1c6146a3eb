"""Deterministic two-sided matching semantics (PR 10).

MPI-style matching is where two-sided stacks rot: tag/source ordering,
wildcards, and the unexpected-message queue all have to behave
identically whether the engine ran analytically, event by event, or
under the span tracer.  These tests pin the engine's ``match_log`` —
the exact ``(dst, src, tag, nbytes, protocol, transport, time)``
sequence — across all three modes, and check the queue disciplines
directly: a receive posted *before* the send matches from the posted
queue, one posted *after* drains the unexpected queue, and wildcards
take the earliest compatible message in post order.  The lowercase
MPI engine shares that matching front end; the last test checks that
both engines pair the k-th send of a key with its k-th receive.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shmem.job import ShmemJob
from repro.units import KiB


def _job():
    return ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr")


def _run(program, *, fastpath=True, trace=False):
    """Run ``program``; return (results, match_log, counters)."""
    from repro.obs.spans import SpanTracer

    job = _job()
    job.sim.fastpath = fastpath
    tracer = None
    if trace:
        tracer = SpanTracer().attach(job.sim, label="msg matching")
    res = job.run(program)
    engine = job.msg
    counters = {
        "messages": engine.messages,
        "eager": engine.eager,
        "rendezvous": engine.rendezvous,
    }
    log = list(engine.match_log)
    if tracer is not None:
        tracer.detach(job.sim)
    return res, log, counters


def _mixed_tag_program():
    """PEs 1-3 send distinct (tag, size, transport) combos at PE 0,
    which posts one specific, one source-wildcard and one full-wildcard
    receive.  Sizes straddle the eager threshold."""

    def main(ctx):
        n = 64 * KiB
        buf = ctx.cuda.malloc_host(3 * n)
        if ctx.pe == 0:
            r_specific = ctx.irecv(buf, 32 * KiB, src=2, tag=2)
            r_anysrc = ctx.irecv(buf + n, 256, tag=1)
            r_any = ctx.irecv(buf + 2 * n, 4 * KiB)
            envs = []
            for ev in (r_specific, r_anysrc, r_any):
                envs.append(tuple((yield ev)))
            yield from ctx.barrier_all()
            return envs
        src = ctx.cuda.malloc_host(64 * KiB)
        if ctx.pe == 1:
            yield from ctx.send(src, 256, 0, tag=1)
        elif ctx.pe == 2:
            yield from ctx.send(src, 32 * KiB, 0, tag=2)  # rendezvous
        elif ctx.pe == 3:
            yield from ctx.send(src, 4 * KiB, 0, tag=3, transport="ud")
        yield from ctx.barrier_all()
        return []

    return main


def test_match_log_is_bit_identical_across_engines():
    fast, log_fast, c_fast = _run(_mixed_tag_program(), fastpath=True)
    event, log_event, c_event = _run(_mixed_tag_program(), fastpath=False)
    traced, log_traced, c_traced = _run(_mixed_tag_program(), trace=True)
    assert log_fast, "no matches recorded"
    # Exact tuple equality — protocol decisions, transports and the
    # virtual match timestamps all included.
    assert log_fast == log_event == log_traced
    assert c_fast == c_event == c_traced
    assert fast.results[0] == event.results[0] == traced.results[0]
    # The mix straddled the threshold: both protocols must appear.
    protocols = {row[4] for row in log_fast}
    assert protocols == {"eager", "rendezvous"}
    transports = {row[5] for row in log_fast}
    assert transports == {"rc", "ud"}


def test_specific_receives_match_their_envelope():
    res, log, _ = _run(_mixed_tag_program())
    envs = res.results[0]
    assert envs[0] == (2, 2)  # the specific (src=2, tag=2) receive
    assert envs[1] == (1, 1)  # ANY_SOURCE, tag=1 -> PE 1's send
    assert envs[2] == (3, 3)  # full wildcard -> the only one left


def test_wildcard_posted_before_and_after_send():
    """Same match either way: posted-queue hit vs unexpected-queue
    drain must both deliver PE 1's message with its envelope."""

    def recv_first(ctx):
        buf = ctx.cuda.malloc_host(1 * KiB)
        if ctx.pe == 0:
            ev = ctx.irecv(buf, 512)  # posted before any send exists
            env = yield ev
            yield from ctx.barrier_all()
            return tuple(env)
        if ctx.pe == 1:
            yield from ctx.send(buf, 512, 0, tag=3)
        yield from ctx.barrier_all()
        return None

    def send_first(ctx):
        buf = ctx.cuda.malloc_host(1 * KiB)
        if ctx.pe == 1:
            ev = ctx.isend(buf, 512, 0, tag=3)
            yield from ctx.barrier_all()  # send is in flight/queued
            yield ev
        elif ctx.pe == 0:
            yield from ctx.barrier_all()
            env = yield ctx.irecv(buf, 512)  # drains unexpected queue
            return tuple(env)
        else:
            yield from ctx.barrier_all()
        yield from ctx.barrier_all() if False else iter(())
        return None

    res1, _, _ = _run(recv_first)
    res2, _, _ = _run(send_first)
    assert res1.results[0] == (1, 3)
    assert res2.results[0] == (1, 3)


def test_wildcard_takes_unexpected_messages_in_post_order():
    """Two queued sends from the same source with different tags: a
    full wildcard must take them strictly in arrival order."""

    def main(ctx):
        buf = ctx.cuda.malloc_host(2 * KiB)
        if ctx.pe == 1:
            e1 = ctx.isend(buf, 128, 0, tag=7)
            e2 = ctx.isend(buf + 1024, 128, 0, tag=8)
            yield from ctx.barrier_all()
            yield ctx.sim.all_of([e1, e2])
            yield from ctx.barrier_all()
            return None
        if ctx.pe == 0:
            yield from ctx.barrier_all()
            first = tuple((yield ctx.irecv(buf, 128)))
            second = tuple((yield ctx.irecv(buf + 1024, 128)))
            yield from ctx.barrier_all()
            return [first, second]
        yield from ctx.barrier_all()
        yield from ctx.barrier_all()
        return None

    res, _, _ = _run(main)
    assert res.results[0] == [(1, 7), (1, 8)]


def test_route_default_transport_is_honoured():
    """``set_route`` flips a source->dest pair to UD without the caller
    passing a transport, and the match log records it."""

    def main(ctx):
        # PE 2 lives on node 1, so the routed UD transport actually
        # crosses the fabric (same-node pairs short-circuit to copies).
        ctx.job.msg.set_route(2, 0, "ud")
        buf = ctx.cuda.malloc_host(4 * KiB)
        if ctx.pe == 2:
            yield from ctx.send(buf, 2 * KiB, 0)
        elif ctx.pe == 0:
            yield from ctx.recv(buf, 2 * KiB, src=2)
        yield from ctx.barrier_all()

    job = _job()
    job.run(main)
    assert [row[5] for row in job.msg.match_log] == ["ud"]
    assert job.sim.stats.ud_packets > 0


def test_truncation_fails_both_sides():
    """A send larger than the posted receive is a matching error, not
    silent data loss.  A rendezvous send fails on both sides (the
    sender is still waiting on CTS); an eager send already completed
    at post time — only the receiver can observe the error."""

    def main(ctx):
        buf = ctx.cuda.malloc_host(64 * KiB)
        if ctx.pe == 1:
            rdv = ctx.isend(buf, 32 * KiB, 0, tag=0)  # rendezvous-sized
            rdv.defuse()
            eager = ctx.isend(buf, 2 * KiB, 0, tag=1)
            eager.defuse()
            yield from ctx.barrier_all()
            return [rdv.triggered and not rdv.ok, eager.ok]
        if ctx.pe == 0:
            r0 = ctx.irecv(buf, 1 * KiB, src=1, tag=0)
            r0.defuse()
            r1 = ctx.irecv(buf + 32 * KiB, 1 * KiB, src=1, tag=1)
            r1.defuse()
            yield from ctx.barrier_all()
            return [r0.triggered and not r0.ok, r1.triggered and not r1.ok]
        yield from ctx.barrier_all()
        return None

    res = _job().run(main)
    assert res.results[1] == [True, True]  # rdv send failed, eager send ok
    assert res.results[0] == [True, True]  # both receives failed


# ------------------------------------------------------ pairing property
#: Interleaving step: posts land this far apart, so a later post can
#: meet a transfer still in flight.
_STEP = 1e-6
_SMALL, _LARGE = 64, 12 * KiB  # eager and rendezvous sizes in both engines


@st.composite
def _exchanges(draw):
    """Exact-key messages among 3 PEs and 2 tags, each a send and a
    receive, posted in one drawn global order: ``[(kind, msg), ...]``
    and the messages ``[(src, dst, tag, nbytes), ...]``."""
    keys = [(src, (src + hop) % 3, tag) for src, hop, tag in draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(0, 1)),
        min_size=1, max_size=10,
    ))]
    # Every send has its own size, so a match log row names its send.
    msgs = [(src, dst, tag, draw(st.sampled_from((_SMALL, _LARGE))) + i)
            for i, (src, dst, tag) in enumerate(keys)]
    order = draw(st.permutations([(kind, i) for i in range(len(msgs))
                                  for kind in ("send", "recv")]))
    return order, msgs


def _fifo_pairs(order, msgs):
    """Receive post -> the send it must get: the k-th send of each
    ``(src, dst, tag)`` pairs with the k-th receive of that key."""
    sends, recvs = {}, {}
    for kind, i in order:
        (sends if kind == "send" else recvs).setdefault(msgs[i][:3], []).append(i)
    return {r: s for key in sends for s, r in zip(sends[key], recvs[key])}


def _post_program(order, msgs, engine):
    """Each PE posts its sends and receives at its slots of ``order``;
    a receive returns the first byte it got (its send's index + 1)."""
    capacity = _LARGE + len(msgs)

    def main(ctx):
        sim, me = ctx.sim, ctx.pe
        comm = ctx.job.mpi.comm(ctx) if engine == "mpi" else None
        posts, got = [], {}
        for slot, (kind, i) in enumerate(order):
            src, dst, tag, nbytes = msgs[i]
            if me != (src if kind == "send" else dst):
                continue
            if sim.now < slot * _STEP:
                yield sim.timeout(slot * _STEP - sim.now)
            if kind == "send":
                buf = ctx.cuda.malloc_host(nbytes)
                buf.fill(i + 1, nbytes)
                post = comm.isend if comm else ctx.isend
                posts.append(post(buf, nbytes, dst, tag))
            else:
                buf = ctx.cuda.malloc_host(capacity)
                post = comm.irecv if comm else ctx.irecv
                posts.append(post(buf, capacity, src, tag))
                got[i] = buf
        live = [ev for ev in posts if not ev.processed]
        if live:
            yield sim.all_of(live)
        return {i: buf.read(1)[0] for i, buf in got.items()}

    return main


@settings(max_examples=60, deadline=None)
@given(_exchanges())
@pytest.mark.parametrize("engine", ["msg", "mpi"])
def test_kth_send_of_a_key_meets_its_kth_receive(engine, exchange):
    """Both engines pair the k-th send of each ``(src, dst, tag)`` with
    the k-th receive of that key, whatever the interleaving: the msg
    engine in its match log, each engine in the bytes a receive got."""
    order, msgs = exchange
    job = ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr")
    res = job.run(_post_program(order, msgs, engine))
    pairs = _fifo_pairs(order, msgs)
    got = {i: first for per_pe in res.results for i, first in per_pe.items()}
    assert got == {r: s + 1 for r, s in pairs.items()}
    if engine == "msg":
        # Rows of one key appear in match order, which FIFO pairing
        # makes the order its sends were posted.
        by_key = {}
        for dst, src, tag, nbytes, *_ in job.msg.match_log:
            by_key.setdefault((src, dst, tag), []).append(nbytes)
        sent = {}
        for kind, i in order:
            if kind == "send":
                sent.setdefault(msgs[i][:3], []).append(msgs[i][3])
        assert by_key == sent
    else:
        assert job.mpi.messages == len(msgs)
