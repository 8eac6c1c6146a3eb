"""Seeded regression corpus for the differential harness.

~40 pinned seeds through the full oracle battery, covering every
runtime design x symmetric-heap domain x fault-plan on/off cell.  A
corpus failure means a real regression in one of the three execution
modes (or in the harness itself) — shrink it with::

    python -m repro check --seed <seed> --design <design> [--faults]
"""

import pytest

from repro.check import check_workload, execute_reference, generate_workload
from repro.check.oracles import heaps_equal

#: (seed, pinned design or None for the seeded draw, fault plan armed)
CORPUS = [
    # naive: host domain only, by design.
    (101, "naive", False),
    (102, "naive", False),
    (103, "naive", False),
    (104, "naive", True),
    (105, "naive", True),
    # host-pipeline: host + GPU domains, no inter-node cross-domain.
    (201, "host-pipeline", False),
    (202, "host-pipeline", False),
    (203, "host-pipeline", False),
    (204, "host-pipeline", True),
    (205, "host-pipeline", True),
    # enhanced-gdr: every configuration in Table I.
    (301, "enhanced-gdr", False),
    (302, "enhanced-gdr", False),
    (303, "enhanced-gdr", False),
    (304, "enhanced-gdr", True),
    (305, "enhanced-gdr", True),
    # device-initiated: all configurations, no host staging; the
    # faulted rows exercise the replay-after-cooldown path (there is
    # no host failover ladder to descend).
    (401, "device-initiated", False),
    (403, "device-initiated", False),
    (404, "device-initiated", False),
    (404, "device-initiated", True),
    (405, "device-initiated", True),
    # Seeded design draw: topology/design/domain mix.
    (1, None, False),
    (2, None, False),
    (3, None, False),
    (4, None, False),
    (5, None, False),
    (6, None, False),
    (7, None, False),
    (8, None, True),
    (9, None, True),
    (10, None, False),
    # Analytic-engine stressors: seeds whose drawn workloads pile
    # concurrent put_nbi windows onto shared links (contended-window
    # tier) or lean on collective rounds (closed-form tier).  All three
    # execution modes must stay oracle-clean with the tiers engaged.
    (416, None, False),  # enhanced-gdr draw, 3 nbi ops, 3-deep round
    (481, None, False),  # device-initiated draw, 4 nbi ops across 4 PEs
    (400, None, False),  # enhanced-gdr draw, 3 collective rounds
    (460, None, False),  # enhanced-gdr draw, collectives, 4-deep round
    (485, None, False),  # host-pipeline draw, 3 collective rounds
]


#: Two-sided corpus: every runtime design (clean + faulted) plus the
#: seeded draw, with ``msg=True`` mixing send/recv rounds into the
#: classic stream.  Seeds chosen so each workload carries both eager
#: and rendezvous messages and both RC and UD transports; the faulted
#: rows arm the repeating port flap, so UD drop-and-resend and RC
#: retransmit both run under the oracles.  Shrink failures with::
#:
#:     python -m repro check --seed <seed> --design <design> --msg [--faults]
MSG_CORPUS = [
    (501, "naive", False),
    (507, "naive", True),
    (500, "host-pipeline", False),
    (504, "host-pipeline", True),
    (503, "enhanced-gdr", False),
    (501, "enhanced-gdr", True),
    (504, "device-initiated", False),
    (503, "device-initiated", True),
    (500, None, False),
    (504, None, True),
]


def _ids():
    return [
        f"seed{seed}-{design or 'drawn'}-{'faults' if faults else 'clean'}"
        for seed, design, faults in CORPUS
    ]


def _msg_ids():
    return [
        f"msg-seed{seed}-{design or 'drawn'}-{'faults' if faults else 'clean'}"
        for seed, design, faults in MSG_CORPUS
    ]


@pytest.mark.parametrize("seed,design,faults", CORPUS, ids=_ids())
def test_corpus_seed_passes_every_oracle(seed, design, faults):
    w = generate_workload(seed, ops=10, design=design, faults=faults)
    report = check_workload(w)
    assert report.oracles_run == 9
    assert report.passed, report.summary()
    # The acceptance bar, stated explicitly: final heap bytes match the
    # reference executor exactly, in every execution mode.
    ref = execute_reference(w)
    for mode, obs in report.runs.items():
        assert heaps_equal(obs.heaps, ref.heaps), f"{mode} heap mismatch on seed {seed}"


@pytest.mark.parametrize("seed,design,faults", MSG_CORPUS, ids=_msg_ids())
def test_msg_corpus_seed_passes_every_oracle(seed, design, faults):
    w = generate_workload(seed, ops=10, design=design, faults=faults, msg=True)
    assert w.has_msg_ops()
    report = check_workload(w)
    assert report.oracles_run == 9
    assert report.passed, report.summary()
    # Every receive observed the exact (source, tag) envelope the
    # reference predicts, in every execution mode.
    ref = execute_reference(w)
    assert ref.msgs
    for mode, obs in report.runs.items():
        assert obs.msgs == ref.msgs, f"{mode} envelope mismatch on seed {seed}"
        assert heaps_equal(obs.heaps, ref.heaps), f"{mode} heap mismatch on seed {seed}"


def test_msg_corpus_covers_protocol_transport_fault_matrix():
    from repro.hardware.params import wilkes_params

    eager_limit = min(wilkes_params().msg_eager_threshold, wilkes_params().pipeline_chunk)
    cells = set()
    designs = set()
    for seed, design, faults in MSG_CORPUS:
        w = generate_workload(seed, ops=10, design=design, faults=faults, msg=True)
        designs.add(w.design)
        for op in w.all_ops():
            if op.kind != "msg":
                continue
            protocol = (
                "eager" if op.nbytes <= eager_limit and not op.local_device
                else "rendezvous"
            )
            transport = op.transport or "rc"
            cells.add((protocol, transport, faults))
            if op.any_src or op.any_tag:
                cells.add(("wildcard", transport, faults))
    assert designs == {"naive", "host-pipeline", "enhanced-gdr", "device-initiated"}
    for protocol in ("eager", "rendezvous", "wildcard"):
        for faults in (False, True):
            assert any(c[0] == protocol and c[2] == faults for c in cells), (protocol, faults)
    for transport in ("rc", "ud"):
        for faults in (False, True):
            assert any(c[1] == transport and c[2] == faults for c in cells), (transport, faults)


def test_msg_oracle_catches_planted_matching_bug(monkeypatch):
    """Mutation spot-check: make the matcher ignore tags (a classic
    MPI-matching bug) and require the oracle battery to notice."""
    from repro.msg.engine import MsgEngine

    def tag_blind(send, recv):
        return recv.peer in (-1, send.pe)  # drops the tag clause

    monkeypatch.setattr(MsgEngine, "_compatible", staticmethod(tag_blind))
    caught = 0
    for seed, design, faults in MSG_CORPUS[:4]:
        w = generate_workload(seed, ops=10, design=design, faults=faults, msg=True)
        report = check_workload(w)
        if not report.passed:
            caught += 1
    assert caught, "tag-blind matcher survived the whole corpus slice"


def test_corpus_covers_the_design_domain_fault_matrix():
    cells = set()
    for seed, design, faults in CORPUS:
        w = generate_workload(seed, ops=10, design=design, faults=faults)
        domains = {b.domain for b in w.buffers if any(op.buf == b.name for op in w.all_ops())}
        for d in domains:
            cells.add((w.design, d, faults))
    for design in ("naive", "host-pipeline", "enhanced-gdr", "device-initiated"):
        for faults in (False, True):
            assert (design, "host", faults) in cells, (design, "host", faults)
    # GPU-domain traffic must appear for every GPU-capable design.
    assert any(c == ("host-pipeline", "gpu", False) for c in cells)
    assert any(c[0] == "enhanced-gdr" and c[1] == "gpu" for c in cells)
    assert any(c == ("device-initiated", "gpu", False) for c in cells)
    assert any(c == ("device-initiated", "gpu", True) for c in cells)
