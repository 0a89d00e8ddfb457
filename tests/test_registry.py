"""Socket registry: lifecycle state machine, option recording, fd reuse,
and the options a switch copies from the kernel."""

import os
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b4ns.errors import FdNotAvailable, ReplayFailed
from b4ns.registry import (
    COPIED_OPTIONS,
    IllegalTransition,
    OptionEvent,
    SocketRecord,
    SocketRegistry,
    SocketStatus,
    copy_options,
    replay_options,
    switchable,
    TCP_CLOSE,
    tcp_state,
)
from b4ns.targetmem import RemoteFd

from fakes import FakeMem


def trackable(pid=1, fd=3):
    rec = SocketRecord(pid=pid, fd=fd)
    rec.transition(SocketStatus.TRACKABLE)
    return rec


class TestTransitions:
    def test_legal_paths(self):
        rec = SocketRecord(pid=1, fd=3)
        rec.transition(SocketStatus.TRACKABLE)
        rec.transition(SocketStatus.SWITCHED)
        rec.transition(SocketStatus.CLOSED)

    def test_unknown_to_non_switchable(self):
        rec = SocketRecord(pid=1, fd=3)
        rec.transition(SocketStatus.NON_SWITCHABLE)
        with pytest.raises(IllegalTransition):
            rec.transition(SocketStatus.TRACKABLE)

    def test_no_resurrection_after_close(self):
        rec = trackable()
        rec.transition(SocketStatus.CLOSED)
        for target in SocketStatus:
            with pytest.raises(IllegalTransition):
                rec.transition(target)

    def test_switched_cannot_revert(self):
        rec = trackable()
        rec.transition(SocketStatus.SWITCHED)
        for target in (SocketStatus.TRACKABLE, SocketStatus.NON_SWITCHABLE,
                       SocketStatus.UNKNOWN, SocketStatus.SWITCHED):
            with pytest.raises(IllegalTransition):
                rec.transition(target)

    def test_unknown_cannot_switch_directly(self):
        rec = SocketRecord(pid=1, fd=3)
        with pytest.raises(IllegalTransition):
            rec.transition(SocketStatus.SWITCHED)


class TestOptionRecording:
    def test_records_in_sequence(self):
        rec = trackable()
        first = OptionEvent("fcntl", (1, 0o4000))
        second = OptionEvent("setsockopt", (1, 2, b"\x01"))
        assert rec.add_option(first)
        assert rec.add_option(second)
        assert rec.options == [first, second]

    def test_non_trackable_records_nothing(self):
        rec = SocketRecord(pid=1, fd=3)
        rec.transition(SocketStatus.NON_SWITCHABLE)
        assert not rec.add_option(OptionEvent("fcntl", (1, 0)))
        assert rec.options == []


class TestEnsureRegistered:
    """A configuration call names the fd: a socket gets a TRACKABLE record
    at once, with no probe, and any other fd gets none.  Whether a socket
    can be switched is read from the live socket at connect and bind."""

    def _registry_with_probe(self, probe):
        mem = FakeMem()
        mem.fd_probe = probe
        return SocketRegistry(), mem

    def test_unconnected_stream_is_trackable(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            reg, mem = self._registry_with_probe(
                lambda pid, fd: RemoteFd(pid, fd, os_dup(srv)))
            rec = reg.ensure_registered(1, 3, mem)
            assert rec.status is SocketStatus.TRACKABLE
        finally:
            srv.close()

    def test_non_socket_fd_is_non_switchable(self, tmp_path):
        f = open(tmp_path / "plain", "w")
        try:
            reg, mem = self._registry_with_probe(
                lambda pid, fd: RemoteFd(pid, fd, os_dup_fd(f.fileno())))
            assert reg.ensure_registered(1, 3, mem) is None
            assert reg.snapshot() == []
        finally:
            f.close()

    def test_datagram_socket_is_non_switchable(self):
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            reg, mem = self._registry_with_probe(
                lambda pid, fd: RemoteFd(pid, fd, os_dup(s)))
            rec = reg.ensure_registered(1, 3, mem)
            assert rec.status is SocketStatus.TRACKABLE
            assert not live_switchable(s)
        finally:
            s.close()

    def test_connected_socket_is_non_switchable(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        cli = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        cli.connect(srv.getsockname())
        acc, _ = srv.accept()
        try:
            reg, mem = self._registry_with_probe(
                lambda pid, fd: RemoteFd(pid, fd, os_dup(cli)))
            rec = reg.ensure_registered(1, 3, mem)
            assert rec.status is SocketStatus.TRACKABLE
            assert not live_switchable(cli)
        finally:
            for s in (acc, cli, srv):
                s.close()

    def test_unix_stream_socket_is_non_switchable(self):
        # not AF_INET: the live probe reads the family, not only the type
        a, b = socket.socketpair()
        try:
            reg, mem = self._registry_with_probe(
                lambda pid, fd: RemoteFd(pid, fd, os_dup(a)))
            rec = reg.ensure_registered(1, 3, mem)
            assert rec.status is SocketStatus.TRACKABLE
            assert not live_switchable(a)
        finally:
            a.close()
            b.close()

    def test_probe_failure_degrades_not_errors(self):
        def probe(pid, fd):
            raise FdNotAvailable("gone")

        reg, mem = self._registry_with_probe(probe)
        assert reg.ensure_registered(1, 3, mem) is None
        assert reg.snapshot() == []

    def test_second_lookup_does_not_reprobe(self):
        calls = []
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            def probe(pid, fd):
                calls.append((pid, fd))
                return RemoteFd(pid, fd, os_dup(srv))

            reg, mem = self._registry_with_probe(probe)
            a = reg.ensure_registered(1, 3, mem)
            b = reg.ensure_registered(1, 3, mem)
            assert a is b
            assert len(calls) == 1
        finally:
            srv.close()


class TestFdReuse:
    def test_close_evicts_and_fresh_fd_starts_clean(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            rec = reg.ensure_registered(1, 3, mem)
            reg.record_option(rec, OptionEvent("fcntl", (1, 0o4000)))
            closed = reg.on_close(1, 3)
            assert closed.status is SocketStatus.CLOSED
            assert reg.get(1, 3) is None
            fresh = reg.ensure_registered(1, 3, mem)
            assert fresh is not rec
            assert fresh.options == []
        finally:
            srv.close()

    def test_fd_holding_another_socket_starts_clean(self):
        # close is not hooked: the reuse shows as another inode
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            rec = reg.ensure_registered(1, 3, mem)
            reg.record_option(rec, OptionEvent("setsockopt", (1, 7, b"")))
            assert reg.ensure_registered(1, 3, mem) is rec
            mem.inodes[(1, 3)] += 1
            fresh = reg.ensure_registered(1, 3, mem)
            assert fresh is not rec and fresh.options == []
            assert rec.status is SocketStatus.CLOSED
        finally:
            srv.close()

    def test_non_socket_never_matches_a_socket(self, tmp_path):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            rec = reg.ensure_registered(1, 3, mem)
            with open(tmp_path / "f", "w") as f:  # the number now holds a file
                dup = RemoteFd(1, 3, os_dup_fd(f.fileno()))
                assert reg.lookup(1, 3, dup) is None
                dup.close()
            mem.inodes[(1, 3)] = None  # as /proc/pid/fd shows the file
            # a file gets no record of its own
            assert reg.ensure_registered(1, 3, mem) is None
            assert reg.get(1, 3) is None
            dup = RemoteFd(1, 3, os_dup(srv))  # a socket again
            assert reg.lookup(1, 3, dup) is None
            dup.close()
            assert rec.status is SocketStatus.CLOSED
        finally:
            srv.close()

    def test_held_duplicate_serves_the_identity_check(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        other = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            rec = reg.ensure_registered(1, 3, mem)
            assert rec.inode == os.fstat(srv.fileno()).st_ino

            def no_fd_inode(pid, fd):
                raise AssertionError("identity read from /proc")

            mem.fd_inode = no_fd_inode
            dup = RemoteFd(1, 3, os_dup(srv))
            assert reg.lookup(1, 3, dup) is rec
            os.fstat(dup.local_fd)  # still open: the caller closes it
            dup.close()
            dup = RemoteFd(1, 3, os_dup(other))
            assert reg.lookup(1, 3, dup) is None
            dup.close()
            assert reg.get(1, 3) is None
            assert rec.status is SocketStatus.CLOSED
        finally:
            srv.close()
            other.close()

    def test_switched_record_holds_the_host_socket(self):
        reg = SocketRegistry()
        rec = trackable()
        reg.mark_switched(rec, inode=4242)
        assert rec.inode == 4242

    def test_close_on_unknown_fd_is_noop(self):
        assert SocketRegistry().on_close(1, 99) is None

    def test_evict_pid_drops_only_that_pid(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            reg.ensure_registered(1, 3, mem)
            reg.ensure_registered(2, 3, mem)
            reg.evict_pid(1)
            assert reg.get(1, 3) is None
            assert reg.get(2, 3) is not None
        finally:
            srv.close()


class TestSwitchable:
    def test_fresh_tcp_socket(self):
        with socket.socket() as s:
            assert live_switchable(s)

    def test_inet6_socket(self):
        with socket.socket(socket.AF_INET6) as s:
            assert not live_switchable(s)

    def test_bound_socket(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            assert not live_switchable(s)

    def test_listening_socket(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            s.listen(1)
            assert not live_switchable(s)

    def test_non_socket(self, tmp_path):
        with open(tmp_path / "f", "w") as f:
            dup = RemoteFd(1, 3, os_dup_fd(f.fileno()))
            assert tcp_state(dup) is None
            dup.close()


class TestKeptRecords:
    """A record is kept only for what the live socket cannot tell."""

    def test_plain_switch_drops_the_record(self):
        with socket.socket() as srv:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            rec = reg.ensure_registered(1, 3, mem)
            reg.mark_switched(rec, inode=4242)
            assert rec.status is SocketStatus.SWITCHED
            assert reg.get(1, 3) is None

    def test_switch_with_options_keeps_the_record(self):
        reg = SocketRegistry()
        rec = trackable()
        rec.add_option(OptionEvent("setsockopt", (1, 7, b"")))
        reg.mark_switched(rec, inode=4242)
        assert reg.get(1, 3) is rec

    def test_spoofed_peer_keeps_an_unkept_record(self):
        reg = SocketRegistry()
        rec = trackable()
        reg.mark_switched(rec, spoofed_peer=("10.4.0.2", 80), inode=4242)
        assert reg.get(1, 3) is rec

    def test_non_switchable_mark_is_kept(self):
        with socket.socket() as srv:
            mem = FakeMem()
            mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os_dup(srv))
            reg = SocketRegistry()
            rec = reg.ensure_registered(1, 3, mem)
            reg.mark_non_switchable(rec)
        assert reg.get(1, 3) is rec
        assert rec.status is SocketStatus.NON_SWITCHABLE


class TestReplay:
    def test_replay_applies_in_recorded_order(self):
        rec = trackable()
        for size in (131072, 65536):  # the last one set must win
            rec.add_option(OptionEvent(
                "setsockopt", (socket.SOL_SOCKET, socket.SO_SNDBUF,
                               size.to_bytes(4, "little"))))
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        control = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            replay_options(rec, s)
            control.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
            assert (s.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                    == control.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF))
        finally:
            s.close()
            control.close()

    def test_replay_failure_raises(self):
        rec = trackable()
        rec.add_option(OptionEvent("setsockopt", (9999, 9999, b"\x01")))
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            with pytest.raises(ReplayFailed):
                replay_options(rec, s)
        finally:
            s.close()

    def test_unreplayable_ioctl_raises(self):
        rec = trackable()
        rec.add_option(OptionEvent("ioctl", (0x1234, 1)))
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            with pytest.raises(ReplayFailed):
                replay_options(rec, s)
        finally:
            s.close()


class TestCopyOptions:
    def test_values_set_on_the_target_are_copied(self):
        values = {(socket.SOL_SOCKET, socket.SO_REUSEADDR): 1,
                  (socket.SOL_SOCKET, socket.SO_REUSEPORT): 1,
                  (socket.SOL_SOCKET, socket.SO_KEEPALIVE): 1,
                  (socket.IPPROTO_TCP, socket.TCP_NODELAY): 1,
                  (socket.IPPROTO_TCP, socket.TCP_KEEPIDLE): 77,
                  (socket.IPPROTO_TCP, socket.TCP_KEEPINTVL): 9,
                  (socket.IPPROTO_TCP, socket.TCP_KEEPCNT): 4}
        assert set(values) == set(COPIED_OPTIONS)
        with socket.socket() as target, socket.socket() as host:
            for (level, name), value in values.items():
                target.setsockopt(level, name, value)
            copy_options(target, host)
            assert {k: host.getsockopt(*k) for k in values} == values
            target.getsockopt(socket.SOL_SOCKET, socket.SO_TYPE)  # still open

    def test_defaults_are_left_alone(self):
        class Untouchable(socket.socket):
            def setsockopt(self, *args):
                raise AssertionError(f"set {args}")

        with socket.socket() as target, Untouchable() as host:
            copy_options(target, host)

    def test_unreadable_option_raises(self):
        # a unix stream socket has no TCP options: the switch rolls back
        a, b = socket.socketpair()
        with a, b, socket.socket() as host:
            with pytest.raises(OSError):
                copy_options(a, host)


_TARGETS = st.sampled_from(list(SocketStatus))


@settings(max_examples=300)
@given(st.lists(_TARGETS, max_size=12))
def test_transition_sequences_never_corrupt_state(seq):
    """Any transition either succeeds along the legal table or raises and
    leaves the record's status untouched."""
    from b4ns.registry import _LEGAL_TRANSITIONS

    rec = SocketRecord(pid=1, fd=3)
    for target in seq:
        before = rec.status
        legal = target in _LEGAL_TRANSITIONS[before]
        if legal:
            rec.transition(target)
            assert rec.status is target
        else:
            with pytest.raises(IllegalTransition):
                rec.transition(target)
            assert rec.status is before


def live_switchable(sock):
    """The switch test on a duplicate of ``sock``, as a connect probes it:
    one TCP-state read, then ``switchable`` on a socket in TCP_CLOSE."""
    dup = RemoteFd(1, 3, os_dup(sock))
    try:
        return tcp_state(dup) == TCP_CLOSE and switchable(dup)
    finally:
        dup.close()


def os_dup(sock):
    import os
    return os.dup(sock.fileno())


def os_dup_fd(fd):
    import os
    return os.dup(fd)
