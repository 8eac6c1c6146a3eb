"""Property-based tests for the link/transfer layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.links import Link, TransferSpec, chunked
from repro.simulator import Simulator


@given(
    nbytes=st.integers(1, 1 << 24),
    setup=st.floats(0, 1e-3),
    hops=st.lists(
        st.tuples(st.floats(0, 1e-4), st.floats(1e6, 1e11)), min_size=1, max_size=4
    ),
)
@settings(max_examples=60, deadline=None)
def test_uncontended_execute_matches_total_latency(nbytes, setup, hops):
    """With no competing traffic, execute() takes exactly total_latency()."""
    sim = Simulator()
    spec = TransferSpec(nbytes, setup=setup)
    for i, (lat, bw) in enumerate(hops):
        spec.add(Link(sim, f"l{i}").fwd, lat, bw)

    def proc():
        yield from spec.execute(sim)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == pytest.approx(spec.total_latency(), rel=1e-9)


@given(
    nbytes=st.integers(1, 1 << 22),
    nflows=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_serialized_flows_sum_exactly(nbytes, nflows):
    """N equal flows over one direction finish in exactly N x one flow."""
    sim = Simulator()
    link = Link(sim, "l")
    one = TransferSpec(nbytes).add(link.fwd, 1e-6, 1e9).total_latency()

    def proc():
        spec = TransferSpec(nbytes).add(link.fwd, 1e-6, 1e9)
        yield from spec.execute(sim)

    for _ in range(nflows):
        sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(nflows * one, rel=1e-9)


@given(nbytes=st.integers(0, 1 << 24), chunk=st.integers(1, 1 << 20))
@settings(max_examples=100, deadline=None)
def test_chunked_partitions_exactly(nbytes, chunk):
    parts = list(chunked(nbytes, chunk))
    assert sum(parts) == nbytes
    if not nbytes:
        assert parts == []
        return
    # C-level checks: a chunk of 1 makes up to 16 M parts.
    assert parts[:-1].count(chunk) == len(parts) - 1  # only the tail is short
    assert 0 < parts[-1] <= chunk


@given(
    sizes=st.lists(st.integers(1, 1 << 20), min_size=2, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_fifo_grant_order_over_one_direction(sizes):
    """Transfers queued on one direction complete in submission order."""
    sim = Simulator()
    link = Link(sim, "l")
    done = []

    def proc(i, n):
        spec = TransferSpec(n).add(link.fwd, 0.0, 1e9)
        yield from spec.execute(sim)
        done.append(i)

    for i, n in enumerate(sizes):
        sim.process(proc(i, n))
    sim.run()
    assert done == list(range(len(sizes)))
