"""The supervisor's dispatch by syscall number, against in-memory fakes:
which events touch the registry, that a number is only decoded for the
arch it belongs to, and what a connect reads and keeps."""

import os
import socket
import struct
import termios

from b4ns.engine import NetEnvironment
from b4ns.errors import ChannelClosed, TargetGone
from b4ns.registry import MAX_OPTIONS, SocketRegistry, SocketStatus
from b4ns.sockaddr import pack_sockaddr_in
from b4ns.supervisor import SupervisorInstance
from b4ns.sysnr import NR
from b4ns.targetmem import RemoteFd

from fakes import FakeChannel, FakeMem, make_event

AUDIT_ARCH_I386 = 0x40000003


def supervisor(env=None):
    """A supervisor whose fd probes see one unconnected TCP socket."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    mem = FakeMem()
    mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os.dup(srv.fileno()))
    sup = SupervisorInstance(FakeChannel(), env=env, mem=mem,
                             registry=SocketRegistry(), keep_audit=True)
    return sup, srv


def connect_event(sup, cookie=1):
    """A connect on fd 3 to an address outside every container CIDR."""
    raw = pack_sockaddr_in("93.184.216.34", 443)
    ptr = sup.mem.place(1000, 0x40, raw)
    return make_event(cookie=cookie, nr=NR["connect"], args=(3, ptr, len(raw)))


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


class TestThreadIds:
    """A notification names a thread; its handler sees the process."""

    def test_handler_gets_the_process_id(self):
        sup, srv = supervisor()
        sup.mem.tgid = lambda tid: 1000
        with srv:
            sup._dispatch(make_event(pid=1001, nr=NR["ioctl"],
                                     args=(3, termios.TIOCOUTQ, 0)))
        assert sup.registry.get(1000, 3).status is SocketStatus.NON_SWITCHABLE
        assert sup.registry.get(1001, 3) is None

    def test_event_of_an_exited_thread_goes_unanswered(self, caplog):
        sup, srv = supervisor()
        events = [connect_event(sup)]

        def next_event():
            if events:
                return events.pop()
            raise ChannelClosed("no more events")

        def exited(tid):
            raise TargetGone(f"thread {tid} exited")

        sup.chan.next_event = next_event
        sup.mem.tgid = exited
        with srv:
            sup.run()
        assert sup.chan.responses == []
        assert "handler error" not in caplog.text


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


def no_duplicate(pid, fd):
    raise AssertionError("a configuration call took a duplicate")


class TestConfiguration:
    """A setsockopt or ioctl is identified by the one fd_inode readlink:
    no duplicate, no probe, and no record for anything but a socket."""

    def test_ioctl_on_non_socket_leaves_no_record_and_no_duplicate(self):
        sup, srv = supervisor()
        srv.close()
        sup.mem.fd_inode = lambda pid, fd: None  # /proc names no socket
        sup.mem.acquire_fd = no_duplicate
        sup._dispatch(make_event(cookie=4, nr=NR["ioctl"],
                                 args=(3, termios.TCSETS, 0)))
        assert sup.registry.snapshot() == []
        assert sup.chan.last_response().kind == "continue"
        assert sup.audit == [(4, "ioctl", "continue")]

    def test_setsockopt_on_socket_records_without_a_duplicate(self):
        sup, srv = supervisor()
        with srv:
            sup.mem.fd_inode = lambda pid, fd: os.fstat(srv.fileno()).st_ino
            sup.mem.acquire_fd = no_duplicate
            sup._dispatch(cork_event(sup))
        rec = sup.registry.get(1000, 3)
        assert rec.status is SocketStatus.TRACKABLE
        assert len(rec.options) == 1
        assert sup.chan.last_response().kind == "continue"

    def test_option_toggles_leave_at_most_the_cap(self):
        sup, srv = supervisor()
        with srv:
            for cookie in range(200):
                sup._dispatch(cork_event(sup, cookie, on=cookie % 2))
        rec = sup.registry.get(1000, 3)
        assert len(rec.options) <= MAX_OPTIONS
        assert rec.status is SocketStatus.NON_SWITCHABLE
        assert [r.kind for _, r in sup.chan.responses] == ["continue"] * 200


def cork_event(sup, cookie=1, on=1):
    """setsockopt(3, IPPROTO_TCP, TCP_CORK, &on, 4)."""
    ptr = sup.mem.place(1000, 0x80, struct.pack("i", on))
    return make_event(cookie=cookie, nr=NR["setsockopt"],
                      args=(3, socket.IPPROTO_TCP, socket.TCP_CORK, ptr, 4))


class TestConnection:
    def test_non_trackable_record_continues_unread(self):
        sup, srv = supervisor()
        try:
            rec = sup.registry.ensure_registered(1000, 3, sup.mem)
            sup.registry.mark_non_switchable(rec)
            ev = connect_event(sup, cookie=5)

            def no_read(*args):
                raise AssertionError("sockaddr read for a marked socket")

            sup.mem.read = no_read
            sup._dispatch(ev)
        finally:
            srv.close()
        assert sup.chan.last_response().kind == "continue"
        assert sup.chan.injections == []
        assert sup.counters.sockets_switched == 0
        assert sup.audit == [(5, "connect", "continue")]

    def test_fresh_socket_switches_without_a_record(self):
        sup, srv = supervisor(NetEnvironment(container_cidrs=["10.4.0.0/24"]))
        try:
            sup._dispatch(connect_event(sup, cookie=6))
        finally:
            srv.close()
        assert sup.counters.sockets_switched == 1
        assert [i[2] for i in sup.chan.injections] == [3]
        # one validate, after the sockaddr read; none before ADDFD
        assert sup.chan.validate_calls == 1
        assert sup.registry.snapshot() == []
        assert sup.audit == [(6, "connect", "switch")]
