"""Calibration tests: the paper's anchor numbers and headline ratios.

Each anchor and ratio is stated once, as a condition of its experiment's
claim (``repro.reporting.experiments``); the tests here read one
condition each off the pinned full-size run (``pinned_rows``, shared
with the pin test, so no sweep runs twice), which names the failing
anchor on its own.  Two checks no pinned run computes stay as their own
jobs: a cold, lone 4 MB proxy get (the Fig 8(d) sweep's point is warm)
and a put under tuned always-GDR thresholds.
"""

from tests.helpers import ledger_condition, pinned_rows, run_get, run_put
from repro.shmem import Domain
from repro.units import MiB

G = Domain.GPU


def holds(exp_id, label):
    return ledger_condition(exp_id, label)(pinned_rows(exp_id))


# --------------------------------------------------------------- absolutes
def test_internode_dd_8b_put_enhanced_is_3us():
    assert holds("fig8a", "enhanced-gdr at 8 B within 3.13 usec +/-45%")


def test_internode_dd_8b_put_baseline_is_21us():
    assert holds("fig8a", "host-pipeline at 8 B within 20.9 usec +/-45%")


def test_internode_dd_2kb_put_under_4us():
    """§V-B: 'a 2KB message size transfer is achieved in under 4us'."""
    assert holds("fig8a", "enhanced-gdr at 2048 B under 4 usec (§V-B)")


def test_internode_hd_8b_put_is_2_8us():
    """Fig 9: 2.81us for an inter-node H-D put of 8 bytes."""
    assert holds("fig9b", "enhanced-gdr at 8 B within 2.81 usec +/-45%")


def test_internode_hd_4kb_put_is_3_7us():
    assert holds("fig9b", "enhanced-gdr at 4096 B within 3.7 usec +/-45%")


def test_intranode_hd_4b_put_baseline_is_6us():
    assert holds("fig6a", "host-pipeline at 4 B within 6.2 usec +/-25%")


def test_intranode_hd_4b_put_enhanced_is_2_4us():
    assert holds("fig6a", "enhanced-gdr at 4 B within 2.4 usec +/-45%")


def test_intranode_hd_4b_get_enhanced_is_2us():
    assert holds("fig6c", "enhanced-gdr at 4 B within 2.02 usec +/-45%")


def test_intranode_8b_hd_put_abstract_anchor():
    """Abstract: '2.2us for an intra-node 8 byte put from Host-to-Device'."""
    assert holds("fig6a", "enhanced-gdr at 8 B within 2.2 usec +/-45%")


# ------------------------------------------------------------------ ratios
def test_internode_small_put_improvement_about_7x():
    """Headline: 7X latency improvement for inter-node small messages."""
    assert holds("fig8a", "enhanced-gdr more than 4.5x faster than host-pipeline at 8 B")


def test_intranode_small_put_improvement_over_2x():
    """Headline: 2.5X for intra-node small/medium messages."""
    assert holds("fig6a", "enhanced-gdr more than 2.0x faster than host-pipeline at 4 B")


def test_intranode_large_dh_put_improvement_about_40pct():
    """Fig 7(b): shared-memory design cuts large D-H puts by ~40%."""
    assert holds("fig7b", "enhanced-gdr more than 25% below host-pipeline at 1048576 B")


def test_intranode_large_hd_get_improvement_about_40pct():
    """Fig 6(d): same effect for large H-D gets."""
    assert holds("fig6d", "enhanced-gdr more than 25% below host-pipeline at 1048576 B")


def test_intranode_large_hd_put_on_par():
    """Fig 6(b): both designs use the IPC copy for large H-D puts."""
    assert holds("fig6b", "enhanced-gdr within 10% of host-pipeline at 4194304 B")


def test_internode_large_dd_put_on_par():
    """Fig 8(b): large put bounded by the cudaMemcpy in both designs."""
    assert holds("fig8b", "enhanced-gdr at most 1.05x host-pipeline at 4194304 B")


# ------------------------------------------- checks no pinned run computes
def test_internode_large_dd_get_proxy_no_overhead():
    """Fig 8(d): the proxy design avoids the P2P bottleneck without
    adding overhead vs the baseline."""
    base, _, _ = run_get("host-pipeline", 4 * MiB, G, G, nodes=2)
    enh, _, _ = run_get("enhanced-gdr", 4 * MiB, G, G, nodes=2)
    assert enh <= base


def test_gdr_crossover_exists():
    """Direct GDR wins small, staged pipelines win large: the latency
    curve must cross the naive always-GDR line somewhere in between."""
    from repro.hardware import wilkes_params

    params = wilkes_params().tuned(gdr_put_threshold=1 << 30, gdr_get_threshold=1 << 30)
    # Forcing GDR at 4MB (P2P read-limited) must be slower than the
    # hybrid's pipeline at the same size.
    forced, _, _ = run_put("enhanced-gdr", 4 * MiB, G, G, nodes=2, params=params)
    hybrid, _, _ = run_put("enhanced-gdr", 4 * MiB, G, G, nodes=2)
    assert hybrid < forced
