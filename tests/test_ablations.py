"""The ablation asserts that read points outside their artifact's rows.

Each registered ablation's claim (``repro.reporting.experiments``)
holds the conditions over its own rows.  These four compare runs the
artifacts do not render: a 16 KB chunk, a 2 KB get, an 8 B put, and
D-H against H-D puts between the two GDR thresholds.
"""

from repro.bench.latency import latency_sweep
from repro.hardware import wilkes_params
from repro.shmem import Domain
from repro.units import KiB, MiB

G, H = Domain.GPU, Domain.HOST


def _usec(design, op, local, remote, nbytes, **kw):
    return latency_sweep(design, op, local, remote, [nbytes], **kw)[0].usec


def test_tiny_chunks_pay_overhead():
    """Per-chunk cudaMemcpy overhead dominates a 16 KB-chunk pipeline."""
    tiny = wilkes_params().tuned(pipeline_chunk=16 * KiB)
    t_tiny = _usec("enhanced-gdr", "put", G, G, 4 * MiB, params=tiny)
    t_base = _usec("enhanced-gdr", "put", G, G, 4 * MiB, params=wilkes_params())
    assert t_base < t_tiny


def test_small_messages_unaffected():
    """Below the threshold both designs are identical (Direct GDR)."""
    a = _usec("enhanced-gdr", "get", G, G, 2 * KiB)
    b = _usec("enhanced-gdr-noproxy", "get", G, G, 2 * KiB)
    assert a == b


def test_staging_hurts_small_messages():
    """The small half of the hybrid threshold policy's win."""
    never = wilkes_params().tuned(gdr_put_threshold=0, gdr_get_threshold=0)
    assert _usec("enhanced-gdr", "put", G, G, 8) < _usec("enhanced-gdr", "put", G, G, 8, params=never)


def test_read_threshold_matters_more_than_write():
    """At a size between the two thresholds, the D-H put (read leg)
    must already have left GDR while the H-D put (write leg) stays."""
    p = wilkes_params()
    mid = (p.gdr_get_threshold + p.gdr_put_threshold) // 2
    # Direct GDR write is cheaper than a staged pipeline at this size.
    assert _usec("enhanced-gdr", "put", H, G, mid) < _usec("enhanced-gdr", "put", G, H, mid)
