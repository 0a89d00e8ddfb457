"""Switch decision matrix, sockaddr codec, and status spoofing (all
against in-memory fakes; execution paths are covered end to end in
test_switch_e2e)."""

import _socket
import errno
import fcntl
import ipaddress
import os
import socket
import struct
import types

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from b4ns import engine
from b4ns.engine import NetEnvironment, PublishMapping, SwitchDecision, decide
from b4ns.registry import SocketRecord, SocketStatus
from b4ns.sockaddr import (
    SOCKADDR_IN_SIZE,
    pack_sockaddr_in,
    parse_sockaddr,
)
from b4ns.targetmem import RemoteFd

from fakes import FakeChannel, FakeMem, held_dup, make_event


@pytest.fixture
def dup():
    """The duplicate a connect holds; its caller, not the engine, closes
    it."""
    d = held_dup()
    yield d
    d.close()


def trackable():
    rec = SocketRecord(pid=1000, fd=3)
    rec.transition(SocketStatus.TRACKABLE)
    return rec


def mapping(caddr="10.4.0.2", cport=80, haddr="127.0.0.1", hport=8080):
    return PublishMapping(caddr, cport, haddr, hport)


class StubProbes:
    def __init__(self, answer):
        self.answer = answer
        self.asked = []

    def reachable(self, dst, port):
        self.asked.append((dst, port))
        return self.answer


class StubMultinode:
    def __init__(self, table):
        self.table = table

    def resolve(self, addr, port):
        return self.table.get((addr, port))


class TestSockaddrCodec:
    def test_roundtrip(self):
        raw = pack_sockaddr_in("192.168.7.9", 4242)
        assert len(raw) == SOCKADDR_IN_SIZE == 16
        family, addr, port = parse_sockaddr(raw)
        assert (family, addr, port) == (socket.AF_INET, "192.168.7.9", 4242)

    def test_matches_kernel_layout(self):
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
            raw = pack_sockaddr_in("127.0.0.1", port)
            fam, p = struct.unpack_from("<HH", raw)
            assert fam == socket.AF_INET
            assert socket.ntohs(p) == port
        finally:
            s.close()

    def test_ipv6_parses_with_family(self):
        raw = struct.pack("<HH", socket.AF_INET6, socket.htons(80))
        raw += b"\x00" * 4 + socket.inet_pton(socket.AF_INET6, "::1") + b"\x00" * 4
        family, addr, port = parse_sockaddr(raw)
        assert family == socket.AF_INET6
        assert addr == "::1"


class TestNetEnvironment:
    def test_overlapping_cidrs_rejected(self):
        with pytest.raises(ValueError):
            NetEnvironment(container_cidrs=["10.4.0.0/16", "10.4.1.0/24"])

    def test_duplicate_published_port_rejected(self):
        with pytest.raises(ValueError):
            NetEnvironment(published_ports=[mapping(), mapping(caddr="10.4.0.3")])

    def test_privileged_host_port_rejected_when_unprivileged(self):
        start = engine.unprivileged_port_start()
        if start <= 1:
            pytest.skip(f"ip_unprivileged_port_start is {start}: no host "
                        "port is privileged")
        with pytest.raises(ValueError, match="without privileges"):
            NetEnvironment(published_ports=[mapping(hport=start - 1)])
        # port 0 binds any free port, never a privileged one
        for hport in (0, start):
            NetEnvironment(published_ports=[mapping(hport=hport)])

    def test_parse_publish_flag(self):
        m = PublishMapping.parse("8080:80", container_addr="10.4.0.2",
                                 host_addr="0.0.0.0")
        assert (m.host_port, m.container_port) == (8080, 80)
        with pytest.raises(ValueError):
            PublishMapping.parse("8080")

    def test_records_keep_their_constructors(self):
        m = PublishMapping(**{"container_addr": "10.4.0.2",
                              "container_port": 80, "host_addr": "127.0.0.1",
                              "host_port": 8080})
        assert m == mapping()
        with pytest.raises(AttributeError):
            m.host_port = 1  # immutable
        assert SwitchDecision.IGNORE == SwitchDecision("ignore")
        assert SwitchDecision.SWITCH.new_dest is None
        assert SwitchDecision("rewrite", new_dest=("127.0.0.1", 8080)
                              ).spoof_peer is None

    def test_container_cidr_membership(self):
        env = NetEnvironment(container_cidrs=["10.4.0.0/24"])
        assert decide(("connect", socket.AF_INET, "10.4.0.7", 80),
                      env).verdict == "ignore"
        assert decide(("connect", socket.AF_INET, "10.5.0.7", 80),
                      env).verdict == "switch"


IPV4 = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda i: str(ipaddress.IPv4Address(i))),
    st.sampled_from(["0.0.0.0", "126.255.255.255", "127.0.0.0", "127.0.0.1",
                     "127.255.255.255", "128.0.0.0", "255.255.255.255"]))
CIDR = st.builds(
    lambda i, plen: ipaddress.ip_network((i, plen), strict=False),
    st.integers(0, 2**32 - 1), st.integers(0, 32))


def disjoint(nets):
    kept = []
    for n in nets:
        if not any(n.overlaps(k) for k in kept):
            kept.append(n)
    return kept


class TestIntegerMatchAgreesWithIpaddress:
    @given(addr=IPV4, nets=st.lists(CIDR, max_size=3))
    @example(addr="10.4.0.7", nets=[ipaddress.ip_network("0.0.0.0/0")])
    @example(addr="10.4.0.7", nets=[ipaddress.ip_network("10.4.0.7/32")])
    @example(addr="10.4.0.8", nets=[ipaddress.ip_network("10.4.0.7/32")])
    @example(addr="127.255.255.255",
             nets=[ipaddress.ip_network("127.0.0.0/8")])
    @example(addr="128.0.0.0", nets=[ipaddress.ip_network("127.0.0.0/8")])
    def test_cidr_membership_decides(self, addr, nets):
        nets = disjoint(nets)
        # an IPv6 CIDR never holds an IPv4 address, even ::/0; with host
        # loopback allowed and nothing published, a connect is ignored iff
        # a container CIDR holds its address
        env = NetEnvironment(container_cidrs=nets + ["::/0"],
                             host_loopback_allowed=True)
        ip = ipaddress.ip_address(addr)
        d = decide(("connect", socket.AF_INET, addr, 80), env)
        assert d.verdict == ("ignore" if any(ip in n for n in nets)
                             else "switch")

    @given(addr=IPV4)
    @example(addr="127.255.255.255")
    @example(addr="128.0.0.0")
    @example(addr="126.255.255.255")
    def test_loopback_branch(self, addr):
        env = NetEnvironment(container_cidrs=["::/0"])
        d = decide(("connect", socket.AF_INET, addr, 80), env)
        loopback = ipaddress.ip_address(addr).is_loopback
        assert d.verdict == ("ignore" if loopback else "switch")


class TestDecide:
    ENV = NetEnvironment(container_cidrs=["10.4.0.0/24"],
                         published_ports=[mapping()])

    def test_external_connect_switches(self):
        d = decide(("connect", socket.AF_INET, "93.184.216.34", 443),
                   self.ENV)
        assert d.verdict == "switch"

    def test_ipv6_ignored(self):
        d = decide(("connect", socket.AF_INET6, "::1", 443),
                   self.ENV)
        assert d.verdict == "ignore"

    def test_loopback_ignored_by_default(self):
        d = decide(("connect", socket.AF_INET, "127.0.0.1", 443),
                   self.ENV)
        assert d.verdict == "ignore"

    def test_loopback_switches_when_policy_allows(self):
        env = NetEnvironment(container_cidrs=["10.4.0.0/24"],
                             host_loopback_allowed=True)
        d = decide(("connect", socket.AF_INET, "127.0.0.1", 443),
                   env)
        assert d.verdict == "switch"

    def test_published_container_dest_rewrites(self):
        d = decide(("connect", socket.AF_INET, "10.4.0.2", 80),
                   self.ENV)
        assert d.verdict == "rewrite"
        assert d.new_dest == ("127.0.0.1", 8080)
        assert d.spoof_peer == ("10.4.0.2", 80)

    def test_unpublished_container_dest_ignored(self):
        d = decide(("connect", socket.AF_INET, "10.4.0.9", 80),
                   self.ENV)
        assert d.verdict == "ignore"

    def test_bind_on_published_port_switches(self):
        d = decide(("bind", socket.AF_INET, "0.0.0.0", 80),
                   self.ENV)
        assert d.verdict == "switch"

    def test_bind_on_unpublished_port_ignored(self):
        d = decide(("bind", socket.AF_INET, "0.0.0.0", 81),
                   self.ENV)
        assert d.verdict == "ignore"


class TestProbeGating:
    ENV = TestDecide.ENV
    OP = ("connect", socket.AF_INET, "10.4.0.2", 80)

    def test_fresh_positive_allows_rewrite(self):
        d = decide(self.OP, self.ENV, probes=StubProbes(True))
        assert d.verdict == "rewrite"

    def test_negative_blocks(self):
        d = decide(self.OP, self.ENV, probes=StubProbes(False))
        assert d.verdict == "ignore"

    def test_unknown_blocks(self):
        d = decide(self.OP, self.ENV, probes=StubProbes(None))
        assert d.verdict == "ignore"

    def test_unconfigured_probing_does_not_gate(self):
        d = decide(self.OP, self.ENV, probes=None)
        assert d.verdict == "rewrite"


class TestMultinode:
    ENV = NetEnvironment(container_cidrs=["10.4.0.0/16"],
                         published_ports=[mapping()])

    def test_local_mapping_wins_over_remote(self):
        mn = StubMultinode({("10.4.0.2", 80): ("198.51.100.9", 9999)})
        d = decide(("connect", socket.AF_INET, "10.4.0.2", 80),
                   self.ENV, multinode=mn)
        assert d.new_dest == ("127.0.0.1", 8080)

    def test_remote_mapping_rewrites(self):
        mn = StubMultinode({("10.4.1.5", 80): ("198.51.100.9", 9080)})
        d = decide(("connect", socket.AF_INET, "10.4.1.5", 80),
                   self.ENV, multinode=mn)
        assert d.verdict == "rewrite"
        assert d.new_dest == ("198.51.100.9", 9080)
        assert d.spoof_peer == ("10.4.1.5", 80)

    def test_unknown_remote_ignored(self):
        mn = StubMultinode({})
        d = decide(("connect", socket.AF_INET, "10.4.1.5", 80),
                   self.ENV, multinode=mn)
        assert d.verdict == "ignore"


class TestParseConnectionArgs:
    def test_reads_sockaddr_from_target_memory(self):
        mem = FakeMem()
        raw = pack_sockaddr_in("10.4.0.2", 80)
        ptr = mem.place(1000, 0x40, raw)
        ev = make_event(pid=1000, args=(3, ptr, len(raw)))
        got = engine.parse_connection_args(mem, ev)
        assert got == (socket.AF_INET, "10.4.0.2", 80)

    def test_null_pointer_faults(self):
        from b4ns.errors import MemFault

        ev = make_event(pid=1000, args=(3, 0, 16))
        with pytest.raises(MemFault):
            engine.parse_connection_args(FakeMem(), ev)

    @pytest.mark.parametrize("addrlen,ok", [
        (16, True), (128, True), (129, False), (0, False),
        (0xFFFFFFFF, False),  # -1 as an int
        (16 | 0xDEAD << 32, True),
        (200 | 1 << 32, False),
    ], ids=["16", "128", "129", "0", "negative", "junk-16", "junk-200"])
    def test_addrlen_is_the_kernels_int(self, addrlen, ok):
        # move_addr_to_kernel takes the low word as an int and rejects a
        # negative length or one over sizeof(struct sockaddr_storage)
        from b4ns.errors import MemFault

        mem = FakeMem()
        raw = pack_sockaddr_in("10.4.0.2", 80)
        ev = make_event(pid=1000, args=(3, mem.place(1000, 0x40, raw),
                                        addrlen))
        if ok:
            got = engine.parse_connection_args(mem, ev)
            assert got == (socket.AF_INET, "10.4.0.2", 80)
        else:
            with pytest.raises(MemFault):
                engine.parse_connection_args(mem, ev)


@pytest.fixture
def rewritten():
    """A rewrite's record and a duplicate of its fd, whose socket is
    connected to the host peer the rewrite chose."""
    with socket.socket() as srv, socket.socket() as cli:
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        cli.connect(srv.getsockname())
        rec = trackable()
        rec.transition(SocketStatus.SWITCHED)
        rec.spoofed_peer = ("10.4.0.2", 80)
        rec.host_peer = srv.getsockname()
        d = RemoteFd(1000, 3, os.dup(cli.fileno()))
        yield rec, d
        d.close()


class TestHandleStatus:
    def test_spoofs_peer_for_switched_rewritten_socket(self, rewritten):
        mem = FakeMem()
        addr_ptr = mem.place(1000, 0x40, b"\x00" * 16)
        len_ptr = mem.place(1000, 0x80, struct.pack("<I", 16))
        ev = make_event(pid=1000, args=(3, addr_ptr, len_ptr))
        resp = engine.handle_status(ev, *rewritten, mem)
        assert resp.kind == "success"
        fam, addr, port = parse_sockaddr(mem.peek(1000, addr_ptr, 16))
        assert (addr, port) == ("10.4.0.2", 80)
        (wrote_len,) = struct.unpack("<I", mem.peek(1000, len_ptr, 4))
        assert wrote_len == SOCKADDR_IN_SIZE

    # (addr NULL?, *addrlen or None for a NULL addrlen) -> (errno or 0,
    # *addrlen afterwards, bytes copied), as getpeername(2) on a connected
    # loopback socket gives them on Linux 6.18
    @pytest.mark.parametrize("null_addr,length,err,len_after,copied", [
        (False, 0, 0, 16, 0),
        (False, 8, 0, 16, 8),
        (False, -1, errno.EINVAL, -1, 0),
        (True, 0, 0, 16, 0),
        (True, 16, errno.EFAULT, 16, 0),
        (False, None, errno.EFAULT, None, 0),
        (True, None, errno.EFAULT, None, 0),
    ], ids=["len-0", "len-8", "len-negative", "null-addr-len-0",
            "null-addr-len-16", "null-addrlen", "null-both"])
    def test_arguments_handled_as_the_kernel_does(self, rewritten, null_addr,
                                                   length, err, len_after,
                                                   copied):
        mem = FakeMem()
        addr_ptr = 0 if null_addr else mem.place(1000, 0x40, b"\xee" * 16)
        len_ptr = (0 if length is None
                   else mem.place(1000, 0x80, struct.pack("<i", length)))
        ev = make_event(pid=1000, args=(3, addr_ptr, len_ptr))
        resp = engine.handle_status(ev, *rewritten, mem)
        if err:
            assert (resp.kind, resp.err) == ("error", err)
        else:
            assert resp.kind == "success"
        if length is not None:
            (now,) = struct.unpack("<i", mem.peek(1000, len_ptr, 4))
            assert now == len_after
        if not null_addr:
            peer = pack_sockaddr_in("10.4.0.2", 80)
            assert mem.peek(1000, addr_ptr, 16) == (
                peer[:copied] + b"\xee" * (16 - copied))

    def test_unreadable_addrlen_means_efault(self, rewritten):
        mem = FakeMem()
        bad_ptr = 0xDEAD
        mem.fault_addrs.add(bad_ptr)
        ev = make_event(pid=1000, args=(3, mem.place(1000, 0x40, b"\x00" * 16),
                                        bad_ptr))
        resp = engine.handle_status(ev, *rewritten, mem)
        assert resp.kind == "error"
        assert resp.err == errno.EFAULT

    def test_unswitched_socket_passes_through(self, rewritten):
        ev = make_event(pid=1000, args=(3, 0x1234, 0x5678))
        resp = engine.handle_status(ev, trackable(), rewritten[1], FakeMem())
        assert resp.kind == "continue"

    @pytest.mark.parametrize("peer", [None, ("127.0.0.1", 1)],
                             ids=["disconnected", "connected-elsewhere"])
    def test_spoof_needs_the_host_peer_the_rewrite_chose(self, rewritten,
                                                        dup, peer):
        """A socket connected to nothing gets the ENOTCONN its own
        getpeername gives, as the kernel answers it; one connected
        elsewhere passes through."""
        rec, connected = rewritten
        if peer is None:  # the fd's socket is connected to nothing
            connected = dup
        else:
            rec.host_peer = peer
        ev = make_event(pid=1000, args=(3, 0x1234, 0x5678))
        resp = engine.handle_status(ev, rec, connected, FakeMem())
        if peer is None:
            assert (resp.kind, resp.err) == ("error", errno.ENOTCONN)
        else:
            assert resp.kind == "continue"

    def test_an_ended_connection_is_enotconn(self):
        """After its FIN and then the peer's, the socket names no peer but
        the kernel keeps it: the answer is the kernel's ENOTCONN, neither
        spoofed nor continued."""
        with socket.socket() as srv, socket.socket() as cli:
            srv.bind(("127.0.0.1", 0))
            srv.listen(1)
            cli.connect(srv.getsockname())
            cli.shutdown(socket.SHUT_WR)
            conn, _ = srv.accept()
            with conn:
                assert conn.recv(1) == b""
            assert cli.recv(1) == b""
            with pytest.raises(OSError) as unsupervised:
                cli.getpeername()
            rec = trackable()
            rec.transition(SocketStatus.SWITCHED)
            rec.spoofed_peer = ("10.4.0.2", 80)
            rec.host_peer = srv.getsockname()
            d = RemoteFd(1000, 3, os.dup(cli.fileno()))
            try:
                resp = engine.handle_status(make_event(args=(3, 0x40, 0x80)),
                                            rec, d, FakeMem())
            finally:
                d.close()
        assert unsupervised.value.errno == errno.ENOTCONN
        assert (resp.kind, resp.err) == ("error", errno.ENOTCONN)


class TestExecuteSwitchRollback:
    """Rollback ordering with fakes; positive paths are e2e-tested."""

    def _event_with_sockaddr(self, mem, addr="10.4.0.2", port=80):
        raw = pack_sockaddr_in(addr, port)
        ptr = mem.place(1000, 0x40, raw)
        return make_event(pid=1000, args=(3, ptr, len(raw)))

    def test_replay_failure_rolls_back_before_any_injection(self, dup):
        from b4ns.registry import OptionEvent, SocketRegistry

        mem = FakeMem()
        chan = FakeChannel()
        ev = self._event_with_sockaddr(mem)
        rec = trackable()
        rec.add_option(OptionEvent("setsockopt", (9999, 9999, b"\x01")))
        out = engine.execute_switch(ev, rec, SwitchDecision("switch"), chan,
                                    mem, SocketRegistry(), dup)
        assert out is None
        assert chan.injections == []
        assert chan.responses == []
        assert rec.status is SocketStatus.NON_SWITCHABLE

    def test_bind_to_busy_host_port_rolls_back(self, dup):
        from b4ns.registry import SocketRegistry

        busy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            mem = FakeMem()
            chan = FakeChannel()
            ev = self._event_with_sockaddr(mem, "0.0.0.0", 80)
            rec = trackable()
            decision = decide(("bind", socket.AF_INET, "0.0.0.0", 80),
                              NetEnvironment(published_ports=[mapping(
                                  hport=busy.getsockname()[1])]))
            fds_before = len(os.listdir("/proc/self/fd"))
            out = engine.execute_switch(ev, rec, decision, chan, mem,
                                        SocketRegistry(), dup)
            assert len(os.listdir("/proc/self/fd")) == fds_before
        finally:
            busy.close()
        assert out is None
        assert chan.responses == []
        assert chan.injections == []
        assert rec.status is SocketStatus.TRACKABLE


class TestExecuteSwitchWithoutRecord:
    """A fresh socket has no record: the switch builds one only to keep a
    spoofed peer, and never validates: it writes no target memory."""

    def _event(self, mem):
        raw = pack_sockaddr_in("10.4.0.2", 80)
        return make_event(pid=1000, args=(3, mem.place(1000, 0x40, raw),
                                          len(raw)))

    def test_plain_switch_keeps_no_record(self, monkeypatch, dup):
        from b4ns.registry import SocketRegistry

        def no_fstat(fd):
            raise AssertionError("inode of a socket no record keeps")

        monkeypatch.setattr(engine, "socket_inode", no_fstat)
        mem, chan, reg = FakeMem(), FakeChannel(), SocketRegistry()
        ev = self._event(mem)
        out = engine.execute_switch(ev, None, SwitchDecision.SWITCH, chan,
                                    mem, reg, dup)
        assert out.kind == "continue"
        assert [i[2:] for i in chan.injections] == [(3, True)]
        # nothing written: ADDFD alone fails on a notification gone stale
        assert chan.validate_calls == 0
        assert mem.writes == []
        assert reg.snapshot() == []
        assert chan.responses == []  # the caller sends ``out``

    def test_rewrite_keeps_a_record_for_the_spoofed_peer(self, dup):
        from b4ns.registry import SocketRegistry

        mem, chan, reg = FakeMem(), FakeChannel(), SocketRegistry()
        ev = self._event(mem)
        decision = SwitchDecision("rewrite", new_dest=("127.0.0.1", 8080),
                                  spoof_peer=("10.4.0.2", 80))
        out = engine.execute_switch(ev, None, decision, chan, mem, reg, dup)
        assert out.kind == "continue"
        assert chan.validate_calls == 0  # nothing written
        rec = reg.get(1000, 3)
        assert rec.status is SocketStatus.SWITCHED
        assert rec.spoofed_peer == ("10.4.0.2", 80)
        assert rec.inode is not None

    def test_replay_failure_without_record_rolls_back(self, monkeypatch, dup):
        from b4ns.errors import ReplayFailed
        from b4ns.registry import SocketRegistry

        def fail(rec, host_socket):
            raise ReplayFailed("fault injection")

        monkeypatch.setattr(engine, "replay_options", fail)
        mem, chan, reg = FakeMem(), FakeChannel(), SocketRegistry()
        ev = self._event(mem)
        out = engine.execute_switch(ev, None, SwitchDecision.SWITCH, chan,
                                    mem, reg, dup)
        assert out is None
        assert chan.injections == []
        assert reg.snapshot() == []
        assert chan.responses == []


class _ConnectsAtOnce(_socket.socket):
    """A host socket whose connect completes (or is deferred, as with
    TCP_FASTOPEN_CONNECT) inside the call."""

    def connect_ex(self, address):
        return 0


class TestRewriteAnswer:
    """A rewrite connects the host socket itself, without blocking, injects
    it and answers with that connect's result; it writes no target memory.
    Only a connect in progress on a blocking target continues."""

    @pytest.fixture
    def listener(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            s.listen(1)
            yield s.getsockname()

    def _rewrite(self, dup, dest, target_flags):
        from b4ns.registry import SocketRegistry

        mem, reg = FakeMem(), SocketRegistry()
        mem.fd_flags = lambda pid, fd: target_flags
        injected_flags = []

        class Chan(FakeChannel):
            def inject_fd(self, event, host_fd, target_fd, cloexec=False):
                injected_flags.append(fcntl.fcntl(host_fd, fcntl.F_GETFL))
                return super().inject_fd(event, host_fd, target_fd, cloexec)

        chan = Chan()
        raw = pack_sockaddr_in("10.4.0.2", 80)
        ev = make_event(pid=1000, args=(3, mem.place(1000, 0x40, raw),
                                        len(raw)))
        out = engine.execute_switch(
            ev, None, SwitchDecision("rewrite", new_dest=dest,
                                     spoof_peer=("10.4.0.2", 80)),
            chan, mem, reg, dup)
        # injected with the target's flags; memory read, never written
        assert injected_flags == [target_flags & ~os.O_CLOEXEC]
        assert mem.writes == [] and chan.validate_calls == 0
        assert mem.peek(1000, ev.args[1], len(raw)) == raw
        self.rec = reg.get(1000, 3)
        assert self.rec.spoofed_peer == ("10.4.0.2", 80)
        return out

    def test_in_progress_on_a_blocking_target_continues(self, dup, listener):
        out = self._rewrite(dup, listener, os.O_RDWR | os.O_CLOEXEC)
        assert out.kind == "continue"
        # the peer getpeername must name before the spoof applies
        assert self.rec.host_peer == listener

    def test_in_progress_on_a_nonblocking_target_is_einprogress(
            self, dup, listener):
        out = self._rewrite(dup, listener, os.O_RDWR | os.O_NONBLOCK)
        assert (out.kind, out.err) == ("error", errno.EINPROGRESS)

    @pytest.mark.parametrize("flags", [os.O_RDWR, os.O_RDWR | os.O_NONBLOCK],
                             ids=["blocking", "nonblocking"])
    def test_a_connect_done_at_once_is_success(self, monkeypatch, dup,
                                               listener, flags):
        monkeypatch.setattr(engine, "_socket",
                            types.SimpleNamespace(socket=_ConnectsAtOnce))
        out = self._rewrite(dup, listener, flags)
        assert (out.kind, out.value) == ("success", 0)

    @pytest.mark.parametrize("flags", [os.O_RDWR, os.O_RDWR | os.O_NONBLOCK],
                             ids=["blocking", "nonblocking"])
    def test_an_error_at_once_is_that_error(self, dup, flags):
        # a broadcast destination fails inside connect, never in progress
        out = self._rewrite(dup, ("255.255.255.255", 80), flags)
        assert (out.kind, out.err) == ("error", errno.ENETUNREACH)
        assert self.rec.host_peer is None  # never spoofed
