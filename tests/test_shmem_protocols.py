"""Tests for the protocol-selection tables of the three designs."""

import pytest

from repro.errors import ShmemError
from repro.hardware import wilkes_params
from repro.shmem.constants import Config, Locality, Op, Protocol
from repro.shmem.protocols import (
    EnhancedGDRSelector,
    HostPipelineSelector,
    NaiveSelector,
    UnsupportedConfiguration,
    make_selector,
)

P = wilkes_params()
SMALL = 1024
LARGE = 1 << 20


@pytest.fixture
def naive():
    return NaiveSelector(P)


@pytest.fixture
def hp():
    return HostPipelineSelector(P)


@pytest.fixture
def gdr():
    return EnhancedGDRSelector(P)


# ------------------------------------------------------------------- factory
def test_make_selector_known_designs():
    for name, cls in (
        ("naive", NaiveSelector),
        ("host-pipeline", HostPipelineSelector),
        ("enhanced-gdr", EnhancedGDRSelector),
    ):
        assert isinstance(make_selector(name, P), cls)


def test_make_selector_unknown():
    with pytest.raises(ShmemError):
        make_selector("warp", P)


# --------------------------------------------------------------------- naive
def test_naive_host_only(naive):
    r = naive.select(Op.PUT, Config.HH, Locality.INTER_NODE, SMALL)
    assert r.protocol is Protocol.RDMA_HOST
    r = naive.select(Op.GET, Config.HH, Locality.INTRA_NODE, SMALL)
    assert r.protocol is Protocol.SHM_COPY
    r = naive.select(Op.PUT, Config.HH, Locality.SELF, SMALL)
    assert r.protocol is Protocol.LOCAL_COPY


@pytest.mark.parametrize("config", [Config.HD, Config.DH, Config.DD])
def test_naive_rejects_gpu_configs(naive, config):
    with pytest.raises(UnsupportedConfiguration):
        naive.select(Op.PUT, config, Locality.INTER_NODE, SMALL)


# ------------------------------------------------------------- host-pipeline
def test_hp_intranode_table(hp):
    assert hp.select(Op.PUT, Config.HH, Locality.INTRA_NODE, SMALL).protocol is Protocol.SHM_COPY
    assert hp.select(Op.PUT, Config.DD, Locality.INTRA_NODE, SMALL).protocol is Protocol.IPC_COPY
    assert hp.select(Op.PUT, Config.HD, Locality.INTRA_NODE, SMALL).protocol is Protocol.IPC_COPY
    assert (
        hp.select(Op.PUT, Config.DH, Locality.INTRA_NODE, LARGE).protocol
        is Protocol.STAGED_HOST_COPY
    )
    assert (
        hp.select(Op.GET, Config.HD, Locality.INTRA_NODE, LARGE).protocol
        is Protocol.STAGED_HOST_COPY
    )
    assert (
        hp.select(Op.GET, Config.DH, Locality.INTRA_NODE, LARGE).protocol
        is Protocol.SHM_DIRECT_COPY
    )


def test_hp_internode_dd_is_pipeline_at_any_size(hp):
    for n in (8, SMALL, LARGE):
        r = hp.select(Op.PUT, Config.DD, Locality.INTER_NODE, n)
        assert r.protocol is Protocol.HOST_PIPELINE
        assert not r.one_sided  # the defining flaw of the baseline


def test_hp_internode_interdomain_unsupported(hp):
    """Fig 9: the existing solution has no inter-node H-D / D-H path."""
    for config in (Config.HD, Config.DH):
        for op in (Op.PUT, Op.GET):
            with pytest.raises(UnsupportedConfiguration):
                hp.select(op, config, Locality.INTER_NODE, SMALL)


def test_hp_internode_hh_fine(hp):
    assert hp.select(Op.GET, Config.HH, Locality.INTER_NODE, LARGE).protocol is Protocol.RDMA_HOST


# -------------------------------------------------------------- enhanced-gdr
def test_gdr_self_is_local(gdr):
    assert gdr.select(Op.PUT, Config.DD, Locality.SELF, LARGE).protocol is Protocol.LOCAL_COPY


@pytest.mark.parametrize("config", [Config.HD, Config.DH, Config.DD])
@pytest.mark.parametrize("op", [Op.PUT, Op.GET])
def test_gdr_intranode_small_uses_loopback(gdr, config, op):
    r = gdr.select(op, config, Locality.INTRA_NODE, 64)
    assert r.protocol is Protocol.GDR_LOOPBACK
    assert r.one_sided


def test_gdr_intranode_thresholds_respect_read_bottleneck(gdr):
    """put H-D cuts over at the *write* threshold; put D-H (P2P read)
    at the smaller *read* threshold — §III-B."""
    n_mid = (P.loopback_get_threshold + P.loopback_put_threshold) // 2
    r_hd = gdr.select(Op.PUT, Config.HD, Locality.INTRA_NODE, n_mid)
    r_dh = gdr.select(Op.PUT, Config.DH, Locality.INTRA_NODE, n_mid)
    assert r_hd.protocol is Protocol.GDR_LOOPBACK  # still under write threshold
    assert r_dh.protocol is not Protocol.GDR_LOOPBACK  # read threshold passed


def test_gdr_intranode_large_table(gdr):
    assert (
        gdr.select(Op.PUT, Config.HD, Locality.INTRA_NODE, LARGE).protocol is Protocol.IPC_COPY
    )
    assert (
        gdr.select(Op.PUT, Config.DH, Locality.INTRA_NODE, LARGE).protocol
        is Protocol.SHM_DIRECT_COPY
    )
    assert (
        gdr.select(Op.GET, Config.HD, Locality.INTRA_NODE, LARGE).protocol is Protocol.IPC_COPY
    )
    assert (
        gdr.select(Op.GET, Config.DH, Locality.INTRA_NODE, LARGE).protocol
        is Protocol.SHM_DIRECT_COPY
    )
    assert gdr.select(Op.PUT, Config.DD, Locality.INTRA_NODE, LARGE).protocol is Protocol.IPC_COPY


@pytest.mark.parametrize("config", [Config.HD, Config.DH, Config.DD])
@pytest.mark.parametrize("op", [Op.PUT, Op.GET])
def test_gdr_internode_small_is_direct(gdr, config, op):
    r = gdr.select(op, config, Locality.INTER_NODE, 2048)
    assert r.protocol is Protocol.DIRECT_GDR


def test_gdr_internode_put_thresholds(gdr):
    # H-D put: write leg only -> larger threshold applies
    n = P.gdr_put_threshold
    assert gdr.select(Op.PUT, Config.HD, Locality.INTER_NODE, n).protocol is Protocol.DIRECT_GDR
    # D-D put: the read leg's smaller threshold applies
    n = P.gdr_get_threshold + 1
    assert gdr.select(Op.PUT, Config.DD, Locality.INTER_NODE, n).protocol is not Protocol.DIRECT_GDR


def test_gdr_internode_large_put_table(gdr):
    assert (
        gdr.select(Op.PUT, Config.DD, Locality.INTER_NODE, LARGE).protocol
        is Protocol.PIPELINE_GDR_WRITE
    )
    assert (
        gdr.select(Op.PUT, Config.DH, Locality.INTER_NODE, LARGE).protocol
        is Protocol.PIPELINE_GDR_WRITE
    )
    # H-D large put stays direct while the landing is intra-socket...
    assert (
        gdr.select(Op.PUT, Config.HD, Locality.INTER_NODE, LARGE).protocol is Protocol.DIRECT_GDR
    )
    # ...but falls back to the proxy across sockets (P2P write bottleneck)
    r = gdr.select(Op.PUT, Config.HD, Locality.INTER_NODE, LARGE, remote_same_socket=False)
    assert r.protocol is Protocol.PROXY
    r = gdr.select(Op.PUT, Config.DD, Locality.INTER_NODE, LARGE, remote_same_socket=False)
    assert r.protocol is Protocol.PROXY


def test_gdr_internode_large_get_table(gdr):
    # Gets from a remote GPU go through the remote proxy (Fig 5).
    assert gdr.select(Op.GET, Config.DD, Locality.INTER_NODE, LARGE).protocol is Protocol.PROXY
    assert gdr.select(Op.GET, Config.HD, Locality.INTER_NODE, LARGE).protocol is Protocol.PROXY
    # D-H get: remote side is host; direct while local landing is healthy.
    assert (
        gdr.select(Op.GET, Config.DH, Locality.INTER_NODE, LARGE).protocol is Protocol.DIRECT_GDR
    )
    r = gdr.select(Op.GET, Config.DH, Locality.INTER_NODE, LARGE, local_same_socket=False)
    assert r.protocol is Protocol.PROXY


def test_gdr_every_route_is_one_sided(gdr):
    """The headline claim: the proposed design never involves the target."""
    for op in (Op.PUT, Op.GET):
        for config in Config:
            for loc in (Locality.SELF, Locality.INTRA_NODE, Locality.INTER_NODE):
                for n in (8, SMALL, LARGE):
                    for lss in (True, False):
                        for rss in (True, False):
                            r = gdr.select(
                                op, config, loc, n,
                                local_same_socket=lss, remote_same_socket=rss,
                            )
                            assert r.one_sided, (op, config, loc, n)


def test_gdr_hh_never_touches_gpu_paths(gdr):
    for loc in (Locality.INTRA_NODE, Locality.INTER_NODE):
        for n in (8, LARGE):
            r = gdr.select(Op.PUT, Config.HH, loc, n)
            assert r.protocol in (Protocol.SHM_COPY, Protocol.RDMA_HOST)


def test_route_reason_strings_populated(gdr):
    r = gdr.select(Op.PUT, Config.DD, Locality.INTER_NODE, LARGE)
    assert "Fig 4" in r.reason


# ------------------------------------------------------------ device-initiated
@pytest.fixture
def dev():
    from repro.shmem.protocols import DeviceInitiatedSelector

    return DeviceInitiatedSelector(P)


def test_device_self_is_local(dev):
    assert dev.select(Op.PUT, Config.DD, Locality.SELF, LARGE).protocol is Protocol.LOCAL_COPY


@pytest.mark.parametrize("config", list(Config))
@pytest.mark.parametrize("op", [Op.PUT, Op.GET])
def test_device_intranode_is_peer_load_store(dev, config, op):
    for n in (8, SMALL, LARGE):
        r = dev.select(op, config, Locality.INTRA_NODE, n)
        assert r.protocol is Protocol.DEVICE_P2P
        assert r.one_sided


@pytest.mark.parametrize("config", list(Config))
@pytest.mark.parametrize("op", [Op.PUT, Op.GET])
def test_device_internode_is_device_gdr_at_every_size(dev, config, op):
    """No size thresholds: the thresholds of the host designs dodge
    host staging costs the device design does not have."""
    for n in (8, SMALL, LARGE, 4 << 20):
        r = dev.select(op, config, Locality.INTER_NODE, n)
        assert r.protocol is Protocol.DEVICE_GDR
        assert r.one_sided


def test_device_routes_ignore_socket_placement(dev):
    """Host designs steer on socket locality (P2P write bottleneck);
    the device design has no proxy to fall back to, so placement
    cannot change the route."""
    for lss in (True, False):
        for rss in (True, False):
            r = dev.select(
                Op.PUT, Config.DD, Locality.INTER_NODE, LARGE,
                local_same_socket=lss, remote_same_socket=rss,
            )
            assert r.protocol is Protocol.DEVICE_GDR


# ------------------------------------------------------------ design registry
def test_registry_unknown_design_is_friendly_everywhere():
    from repro.shmem.designs import design_spec

    with pytest.raises(ShmemError, match="unknown runtime design"):
        design_spec("warp")
    with pytest.raises(ShmemError, match="choose from"):
        make_selector("warp", P)


def test_registry_derived_views_agree():
    from repro.shmem.designs import design_names, design_spec

    for name in design_names():
        spec = design_spec(name)
        assert spec.caps.design == name
        assert spec.selector.design == name


def test_registry_covers_all_four_designs():
    from repro.shmem.designs import design_names, design_spec

    names = design_names()
    for required in ("naive", "host-pipeline", "enhanced-gdr", "device-initiated"):
        assert required in names
    dev = design_spec("device-initiated")
    assert dev.device_initiated and not dev.host_staging and not dev.proxies
    gdr = design_spec("enhanced-gdr")
    assert gdr.proxies and gdr.registers_gpu_heap and not gdr.device_initiated


FIG_SIZES = [1, 8, 64, 512, 4096, 32768, 262144, 1 << 20, 4 << 20]


def test_all_designs_resolve_identical_route_echo_fields():
    """Every design's selector must echo the (op, config, locality,
    nbytes) it was asked about — the bench runner and span markers key
    on these fields, so a selector that rewrites them would silently
    mislabel Fig 6/8 sweep points."""
    from repro.shmem.designs import design_names

    selectors = [make_selector(name, P) for name in design_names()]
    for op in (Op.PUT, Op.GET):
        for config in Config:
            for loc in (Locality.SELF, Locality.INTRA_NODE, Locality.INTER_NODE):
                for n in FIG_SIZES:
                    for sel in selectors:
                        try:
                            r = sel.select(op, config, loc, n)
                        except UnsupportedConfiguration:
                            continue
                        assert (r.op, r.config, r.locality, r.nbytes) == (
                            op, config, loc, n,
                        ), (sel.design, op, config, loc, n)


@pytest.mark.parametrize("nbytes", [SMALL, LARGE])
def test_runtime_route_memo_agrees_with_fresh_selection(nbytes):
    """``Runtime._route`` memoises ``selector.select``: for every design,
    op, config and locality its answer — first call and memo hit alike —
    equals a fresh selection, and an unsupported configuration raises on
    every call without being cached."""
    from types import SimpleNamespace

    from repro.shmem import Domain, ShmemJob
    from repro.shmem.designs import design_names

    for name in design_names():
        job = ShmemJob(nodes=2, pes_per_node=2, design=name)
        rt = job.runtime
        fresh = make_selector(name, job.params)
        ctx = SimpleNamespace(pe=0)
        for pe in range(job.npes):
            local_ss, remote_ss = rt._socket_flags(ctx, pe)
            for op in (Op.PUT, Op.GET):
                for config in Config:
                    domain = Domain.GPU if config.remote_on_device else Domain.HOST
                    args = (ctx, op, config.local_on_device, domain, nbytes, pe)
                    try:
                        want = fresh.select(
                            op, config, rt.locality(ctx, pe), nbytes,
                            local_same_socket=local_ss, remote_same_socket=remote_ss,
                        )
                    except UnsupportedConfiguration:
                        for _ in range(2):
                            with pytest.raises(UnsupportedConfiguration):
                                rt._route(*args)
                        assert (op, 0, pe, config.local_on_device, domain, nbytes) not in rt._routes
                        continue
                    assert rt._route(*args) == want, (name, op, config, pe)
                    assert rt._route(*args) == want, (name, op, config, pe)
