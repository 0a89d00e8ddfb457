"""The supervisor's dispatch by syscall number, against in-memory fakes:
which events touch the registry, and that a number is only decoded for the
arch it belongs to."""

import os
import socket

from b4ns.registry import SocketRegistry, SocketStatus
from b4ns.supervisor import SupervisorInstance
from b4ns.sysnr import NR
from b4ns.targetmem import RemoteFd

from fakes import FakeChannel, FakeMem, make_event

AUDIT_ARCH_I386 = 0x40000003


def supervisor():
    """A supervisor whose fd probes see one unconnected TCP socket."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    mem = FakeMem()
    mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os.dup(srv.fileno()))
    sup = SupervisorInstance(FakeChannel(), env=None, mem=mem,
                             registry=SocketRegistry(), keep_audit=True)
    return sup, srv


class TestForeignArch:
    def test_i386_read_does_not_evict_a_tracked_record(self):
        # i386 nr 3 is read; x86_64 nr 3 is close
        sup, srv = supervisor()
        try:
            rec = sup.registry.ensure_registered(1000, 3, sup.mem)
            assert rec.status is SocketStatus.TRACKABLE
            sup._dispatch(make_event(cookie=7, nr=3, args=(3, 0, 0),
                                     arch=AUDIT_ARCH_I386))
        finally:
            srv.close()
        assert sup.registry.get(1000, 3) is rec
        assert rec.status is SocketStatus.TRACKABLE
        assert sup.chan.last_response().kind == "continue"
        assert sup.audit == [(7, "nr3", "continue")]

    def test_foreign_arch_never_probes(self):
        sup, srv = supervisor()
        try:
            sup._dispatch(make_event(nr=NR["connect"], args=(3, 0, 0),
                                     arch=AUDIT_ARCH_I386))
        finally:
            srv.close()
        assert sup.registry.get(1000, 3) is None
        assert sup.chan.last_response().kind == "continue"

    def test_unhooked_x86_64_syscall_continues(self):
        sup, srv = supervisor()
        try:
            sup._dispatch(make_event(cookie=8, nr=NR["read"], args=(3,)))
        finally:
            srv.close()
        assert sup.registry.get(1000, 3) is None
        assert sup.audit == [(8, f"nr{NR['read']}", "continue")]


class TestStatusCalls:
    def test_getsockopt_and_getsockname_never_probe(self):
        # unhooked: only an older runtime's filter still sends them
        sup, srv = supervisor()
        try:
            for cookie, name in enumerate(("getsockopt", "getsockname")):
                sup._dispatch(make_event(cookie=cookie, nr=NR[name]))
        finally:
            srv.close()
        assert sup.registry.get(1000, 3) is None
        assert [r.kind for _, r in sup.chan.responses] == ["continue"] * 2
        assert sup.audit == [(0, f"nr{NR['getsockopt']}", "continue"),
                             (1, f"nr{NR['getsockname']}", "continue")]

    def test_getpeername_on_unknown_fd_continues_unprobed(self):
        sup, srv = supervisor()
        try:
            sup._dispatch(make_event(nr=NR["getpeername"], args=(3, 0, 0)))
        finally:
            srv.close()
        assert sup.registry.get(1000, 3) is None
        assert sup.chan.last_response().kind == "continue"
