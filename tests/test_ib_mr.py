"""Tests for memory regions and their keys."""

import pytest

from repro.cuda.memory import MemKind, MemorySpace
from repro.errors import RegistrationError
from repro.ib.mr import MemoryRegion


@pytest.fixture
def space():
    return MemorySpace()


def test_keys_are_unique(space):
    a = space.allocate(MemKind.HOST, 64, node_id=0, owner=0)
    b = space.allocate(MemKind.HOST, 64, node_id=0, owner=0)
    mr_a, mr_b = MemoryRegion(a), MemoryRegion(b)
    assert len({mr_a.lkey, mr_a.rkey, mr_b.lkey, mr_b.rkey}) == 4


def test_region_range_checks(space):
    a = space.allocate(MemKind.HOST, 64, node_id=0, owner=0)
    mr = MemoryRegion(a)
    mr.check_range(0, 64)
    mr.check_range(60, 4)
    with pytest.raises(RegistrationError):
        mr.check_range(60, 5)
    with pytest.raises(RegistrationError):
        mr.check_range(-1, 4)
    with pytest.raises(RegistrationError):
        mr.ptr(65)


def test_region_over_device_memory(space):
    d = space.allocate(MemKind.DEVICE, 128, node_id=0, owner=0, device_id=1)
    mr = MemoryRegion(d)
    assert mr.kind is MemKind.DEVICE
    assert mr.alloc.device_id == 1
    assert mr.node_id == 0
