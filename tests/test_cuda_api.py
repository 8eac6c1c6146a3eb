"""Tests for the simulated CUDA API: malloc, memcpy, memset, kernels."""

import numpy as np
import pytest

from repro.cuda import CudaContext, MemKind, MemorySpace
from repro.errors import CudaError
from repro.hardware import Node, NodeConfig, wilkes_params
from repro.simulator import Simulator
from repro.units import MiB, usec


@pytest.fixture
def env():
    sim = Simulator()
    params = wilkes_params()
    node = Node(sim, 0, NodeConfig(), params)
    space = MemorySpace()
    ctx0 = CudaContext(sim, node, 0, owner=0, space=space)
    ctx1 = CudaContext(sim, node, 1, owner=1, space=space)
    return sim, params, node, ctx0, ctx1


def run(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_malloc_kinds(env):
    sim, params, node, ctx0, _ = env
    d = ctx0.malloc(256)
    h = ctx0.malloc_host(256)
    s = ctx0.malloc_host(256, shm=True)
    assert d.kind is MemKind.DEVICE and d.device_id == 0
    assert h.kind is MemKind.HOST
    assert s.kind is MemKind.SHM


def test_malloc_capacity_enforced(env):
    sim, params, node, ctx0, _ = env
    with pytest.raises(CudaError):
        ctx0.malloc(node.gpus[0].mem_capacity + 1)


def test_free_returns_capacity(env):
    sim, params, node, ctx0, _ = env
    p = ctx0.malloc(1 * MiB)
    ctx0.free(p)
    ctx0.malloc(node.gpus[0].mem_capacity)  # fits again


def test_bad_device_id(env):
    sim, params, node, ctx0, _ = env
    with pytest.raises(CudaError):
        CudaContext(sim, node, 7, owner=9, space=MemorySpace())


def test_memcpy_h2d_moves_bytes_and_time(env):
    sim, params, node, ctx0, _ = env
    h = ctx0.malloc_host(64)
    d = ctx0.malloc(64)
    h.write(b"payload!" * 8)
    run(sim, ctx0.memcpy(d, h, 64))
    assert d.read(64) == b"payload!" * 8
    assert sim.now >= params.cuda_copy_overhead


def test_memcpy_d2h(env):
    sim, params, node, ctx0, _ = env
    d = ctx0.malloc(16)
    h = ctx0.malloc_host(16)
    d.write(b"x" * 16)
    run(sim, ctx0.memcpy(h, d, 16))
    assert h.read(16) == b"x" * 16


def test_memcpy_zero_bytes_is_free(env):
    sim, params, node, ctx0, _ = env
    d = ctx0.malloc(16)
    h = ctx0.malloc_host(16)
    run(sim, ctx0.memcpy(d, h, 0))
    assert sim.now == 0.0


def test_memcpy_large_matches_bandwidth(env):
    sim, params, node, ctx0, _ = env
    n = 16 * MiB
    h = ctx0.malloc_host(n)
    d = ctx0.malloc(n)
    run(sim, ctx0.memcpy(d, h, n))
    expected = params.cuda_copy_overhead + n / params.pcie_h2d_bandwidth
    assert sim.now == pytest.approx(expected, rel=0.01)


def test_memcpy_host_to_host(env):
    sim, params, node, ctx0, _ = env
    a = ctx0.malloc_host(32)
    b = ctx0.malloc_host(32)
    a.write(b"z" * 32)
    run(sim, ctx0.memcpy(b, a, 32))
    assert b.read(32) == b"z" * 32
    assert sim.now < usec(2)  # host memcpy is cheap


def test_memcpy_cross_process_charges_ipc(env):
    sim, params, node, ctx0, ctx1 = env
    # ctx1's buffer copied by ctx0 -> via_ipc overhead applies
    d_own = ctx0.malloc(1024)
    h_own = ctx0.malloc_host(1024)
    run(sim, ctx0.memcpy(d_own, h_own, 1024))
    t_own = sim.now

    sim2 = Simulator()
    node2 = Node(sim2, 0, NodeConfig(), params)
    space2 = MemorySpace()
    c0 = CudaContext(sim2, node2, 0, owner=0, space=space2)
    c1 = CudaContext(sim2, node2, 0, owner=1, space=space2)
    d_other = c1.malloc(1024)
    h_mine = c0.malloc_host(1024)
    p = sim2.process(c0.memcpy(d_other, h_mine, 1024))
    sim2.run()
    assert sim2.now > t_own


def test_memcpy_d2d_cross_gpu_p2p(env):
    sim, params, node, ctx0, ctx1 = env
    src = ctx0.malloc(4096)
    dst = ctx1.malloc(4096)
    src.write(bytes(range(256)) * 16)
    run(sim, ctx0.memcpy(dst, src, 4096))
    assert dst.read(4096) == bytes(range(256)) * 16


def test_memcpy_wrong_node_rejected(env):
    sim, params, node, ctx0, _ = env
    other_node = Node(sim, 1, NodeConfig(), params)
    other_ctx = CudaContext(sim, other_node, 0, owner=5, space=ctx0.space)
    remote = other_ctx.malloc_host(8)
    local = ctx0.malloc_host(8)

    def proc():
        yield from ctx0.memcpy(remote, local, 8)

    p = sim.process(proc())
    p.defuse()
    sim.run()
    assert isinstance(p.exception, CudaError)


def test_memset_device(env):
    sim, params, node, ctx0, _ = env
    d = ctx0.malloc(64)
    run(sim, ctx0.memset(d, 0x7F, 64))
    assert d.read(64) == b"\x7f" * 64


def test_launch_kernel_charges_gpu(env):
    sim, params, node, ctx0, _ = env
    run(sim, ctx0.launch_kernel(usec(50)))
    assert sim.now == pytest.approx(usec(50) + params.kernel_launch_overhead)
