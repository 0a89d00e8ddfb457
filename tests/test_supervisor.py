"""The supervisor's dispatch by syscall number, against in-memory fakes:
which events touch the registry, that a number is only decoded for the
arch it belongs to, and what a connect reads and keeps."""

import errno
import logging
import os
import socket
import struct
import termios

import pytest

from b4ns.engine import NetEnvironment, PublishMapping
from b4ns.errors import ChannelClosed, TargetGone
from b4ns.registry import MAX_OPTIONS, SocketStatus
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
    sup = SupervisorInstance(FakeChannel(), env=env, mem=mem, keep_audit=True)
    return sup, srv


def connect_event(sup, cookie=1, addr="93.184.216.34", port=443,
                  name="connect"):
    """A connect (or bind) on fd 3, by default to an address outside every
    container CIDR."""
    raw = pack_sockaddr_in(addr, port)
    ptr = sup.mem.place(1000, 0x40, raw)
    return make_event(cookie=cookie, nr=NR[name], args=(3, ptr, len(raw)))


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


# how each outcome is arranged: (supervisor, the fd's socket, a listening
# socket holding a host port) -> the event to dispatch
def fd_gone(sup, srv, busy):
    sup.mem.fd_probe = None  # pidfd_getfd fails: the fd is not open
    return connect_event(sup)


def non_trackable(sup, srv, busy):
    sup.registry.mark_non_switchable(
        sup.registry.ensure_registered(1000, 3, sup.mem))
    return connect_event(sup)


def not_switchable(sup, srv, busy):
    srv.bind(("127.0.0.1", 0))  # a bound socket cannot be switched
    return connect_event(sup)


def unreadable_sockaddr(sup, srv, busy):
    ev = connect_event(sup)
    sup.mem.fault_addrs.add(ev.args[1])
    return ev


def stale_cookie(sup, srv, busy):
    sup.chan.invalid_cookies.add(1)
    return connect_event(sup)


def ignored(sup, srv, busy):
    return connect_event(sup, addr="10.4.0.9", port=80)  # no mapping


def switched(sup, srv, busy):
    return connect_event(sup)


def rewritten(sup, srv, busy):
    return connect_event(sup, addr="10.4.0.2", port=80)


def in_host_network(sup, srv, busy):
    """The fd's socket lives in this process's network namespace, as a
    host socket injected by a switch does, and the target elsewhere."""
    sup.mem.netns = lambda pid: (0, 0)


def host_socket_bound(sup, srv, busy, addr="10.4.0.9"):
    in_host_network(sup, srv, busy)
    srv.bind(("127.0.0.1", 0))  # as a switched bind leaves it
    return connect_event(sup, addr=addr, port=80)  # ignored by default


def host_socket_rewritten(sup, srv, busy):
    return host_socket_bound(sup, srv, busy, addr="10.4.0.2")


def host_socket_switched(sup, srv, busy):
    return host_socket_bound(sup, srv, busy, addr="93.184.216.34")


def host_socket_unbound(sup, srv, busy):
    # as a rewrite whose connect failed at once leaves it
    in_host_network(sup, srv, busy)
    return connect_event(sup, addr="10.4.0.9", port=80)


def host_socket_bind(sup, srv, busy):
    in_host_network(sup, srv, busy)
    with socket.socket() as gone:
        gone.bind(("127.0.0.1", 0))
        port = gone.getsockname()[1]
    # refused: in TCP_CLOSE again, and no longer unbound
    assert srv.connect_ex(("127.0.0.1", port)) == errno.ECONNREFUSED
    return connect_event(sup, addr="0.0.0.0", port=8080, name="bind")


def published_bind(sup, srv, busy):
    return connect_event(sup, addr="0.0.0.0", port=80, name="bind")


def bind_to_busy_host_port(sup, srv, busy):
    sup.env = NetEnvironment(published_ports=[PublishMapping(
        "10.4.0.2", 80, "127.0.0.1", busy.getsockname()[1])])
    return connect_event(sup, addr="0.0.0.0", port=80, name="bind")


class TestConnection:
    """Each way a connect or bind ends is answered exactly once, by
    ``_dispatch``, with the audit action and counters that say which."""

    # published 10.4.0.2:80 -> 127.0.0.1 on any free port
    ENV = NetEnvironment(
        container_cidrs=["10.4.0.0/24"],
        published_ports=[PublishMapping("10.4.0.2", 80, "127.0.0.1", 0)])

    @pytest.mark.parametrize("arrange,kind,action,switches,rollbacks", [
        (fd_gone, "continue", "continue", 0, 0),
        (non_trackable, "continue", "continue", 0, 0),
        (not_switchable, "continue", "continue", 0, 0),
        (unreadable_sockaddr, "continue", "continue", 0, 0),
        (stale_cookie, "continue", "stale", 0, 0),
        (ignored, "continue", "ignore", 0, 0),
        (switched, "continue", "switch", 1, 0),
        (rewritten, "continue", "rewrite", 1, 0),
        (published_bind, "success", "switch", 1, 0),
        (bind_to_busy_host_port, "continue", "rolled_back", 0, 1),
        (host_socket_bound, "error", "denied", 0, 0),
        (host_socket_rewritten, "error", "denied", 0, 0),
        (host_socket_switched, "continue", "continue", 0, 0),
        (host_socket_unbound, "error", "denied", 0, 0),
        (host_socket_bind, "error", "denied", 0, 0),
    ], ids=["fd-gone", "non-trackable", "not-switchable",
            "unreadable-sockaddr", "stale-cookie", "ignore", "switch",
            "rewrite", "bind", "rollback", "host-socket-ignore",
            "host-socket-rewrite", "host-socket-switch",
            "host-socket-unbound", "host-socket-bind"])
    def test_answered_once(self, arrange, kind, action, switches, rollbacks):
        sup, srv = supervisor(self.ENV)
        with srv, socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            ev = arrange(sup, srv, busy)
            sup._dispatch(ev)
        name = "bind" if ev.syscall_nr == NR["bind"] else "connect"
        assert [(c, r.kind) for c, r in sup.chan.responses] == [(1, kind)]
        assert sup.audit == [(1, name, action)]
        assert (sup.counters.sockets_switched,
                sup.counters.switches_rolled_back) == (switches, rollbacks)
        assert len(sup.chan.injections) == switches

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


class TestLogging:
    def test_a_handler_error_and_a_rollback_are_logged(self, caplog):
        """Logger names, levels and messages as before, though the
        supervisor path imports logging only at its first message."""
        sup, srv = supervisor(TestConnection.ENV)

        def fails(tid):
            raise RuntimeError("handler bug")

        with srv, socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            events = [make_event(cookie=2),
                      bind_to_busy_host_port(sup, srv, busy)]

            def next_event():
                if not events:
                    raise ChannelClosed("no more events")
                ev = events.pop()
                if ev.cookie == 2:
                    sup.mem.tgid = fails
                return ev

            sup.chan.next_event = next_event
            with caplog.at_level(logging.INFO, logger="b4ns"):
                sup.run()
        assert [(c, r.kind) for c, r in sup.chan.responses] == [
            (1, "continue"), (2, "continue")]
        logged = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert logged[0][:2] == ("b4ns.engine", logging.INFO)
        assert logged[0][2].startswith("switch of (1000,3) rolled back: ")
        assert logged[1] == ("b4ns.supervisor", logging.ERROR,
                             "handler error; continuing target syscall")
        assert caplog.records[1].exc_info[0] is RuntimeError
