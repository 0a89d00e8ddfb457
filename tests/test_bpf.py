"""The seccomp filter program, run by a small classic-BPF evaluator, and
the supervisor's agreement with it on which ioctls it consumes."""

import fcntl
import os
import socket
import struct
import termios

import pytest

from b4ns.bpf import (
    BPF_ABS,
    BPF_JEQ,
    BPF_JGE,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_RET,
    BPF_W,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_USER_NOTIF,
    build_notify_filter,
)
from b4ns.registry import (
    COPIED_OPTIONS,
    UNHOOKED_IOCTLS,
    SocketStatus,
)
from b4ns.supervisor import SupervisorInstance
from b4ns.sysnr import AUDIT_ARCH_X86_64, HOOKED_NRS, HOOKED_SYSCALLS, NR
from b4ns.targetmem import RemoteFd

from fakes import FakeChannel, FakeMem, make_event

ALLOW, NOTIF = SECCOMP_RET_ALLOW, SECCOMP_RET_USER_NOTIF
PROG = build_notify_filter()
FIONBIO = termios.FIONBIO
READ_ONLY_IOCTLS = (termios.TCGETS, termios.TIOCGWINSZ, termios.FIONREAD,
                    termios.FIOCLEX, termios.FIONCLEX)


def run_filter(nr, args=(), arch=AUDIT_ARCH_X86_64, prog=PROG):
    """Evaluate the program over a packed struct seccomp_data."""
    args = tuple(args) + (0,) * (6 - len(args))
    data = struct.pack("<iIQ6Q", nr, arch, 0x401000, *args)
    pc, acc = 0, 0
    while True:
        ins = prog[pc]
        if ins.code == BPF_LD | BPF_W | BPF_ABS:
            (acc,) = struct.unpack_from("<I", data, ins.k)
            pc += 1
        elif ins.code == BPF_JMP | BPF_JEQ | BPF_K:
            pc += 1 + (ins.jt if acc == ins.k else ins.jf)
        elif ins.code == BPF_JMP | BPF_JGE | BPF_K:
            pc += 1 + (ins.jt if acc >= ins.k else ins.jf)  # unsigned
        elif ins.code == BPF_RET:
            return ins.k
        else:
            raise AssertionError(f"unexpected opcode {ins.code:#x} at {pc}")


def verdict(name, cmd=0, **kw):
    # args[2] is a whole sockaddr_in's length for connect and bind
    return run_filter(NR[name], args=(3, cmd, 16), **kw)


class TestVerdicts:
    @pytest.mark.parametrize("nr", HOOKED_NRS, ids=HOOKED_SYSCALLS)
    def test_every_hooked_syscall_notifies_for_some_argument(self, nr):
        cmds = (0, fcntl.F_SETFL, FIONBIO)
        assert NOTIF in {run_filter(nr, args=(3, c, 16)) for c in cmds}

    @pytest.mark.parametrize("name", ["getsockopt", "getsockname",
                                      "shutdown"])
    def test_unhooked_status_and_shutdown_calls_pass(self, name):
        # the supervisor would only ever continue them
        assert verdict(name) == ALLOW

    @pytest.mark.parametrize("name,cmd", [
        ("setsockopt", 0), ("ioctl", 0x8913),
        ("connect", 0), ("bind", 0), ("getpeername", 0),
    ])
    def test_kept_syscalls_notify(self, name, cmd):
        assert verdict(name, cmd) == NOTIF

    def test_close_passes(self):
        # a stale record is dropped on the fd's next sight or at exit
        assert verdict("close") == ALLOW

    @pytest.mark.parametrize("cmd", [
        fcntl.F_GETFL, fcntl.F_GETFD, fcntl.F_SETFD, fcntl.F_SETFL,
    ], ids=["F_GETFL", "F_GETFD", "F_SETFD", "F_SETFL"])
    def test_fcntl_never_notifies(self, cmd):
        # the switch reads the fd's flags from the kernel instead
        assert verdict("fcntl", cmd) == ALLOW

    def test_unhooked_ioctls_are_the_read_only_ones_and_fionbio(self):
        assert sorted(UNHOOKED_IOCTLS) == sorted(READ_ONLY_IOCTLS + (FIONBIO,))

    @pytest.mark.parametrize("req", READ_ONLY_IOCTLS, ids=hex)
    def test_read_only_ioctls_pass(self, req):
        assert verdict("ioctl", req) == ALLOW

    def test_fionbio_passes(self):
        # the switch copies O_NONBLOCK from the target's fd
        assert verdict("ioctl", FIONBIO) == ALLOW

    @pytest.mark.parametrize("req", [0x8913, 0xDEAD], ids=hex)
    def test_other_ioctls_notify(self, req):
        assert verdict("ioctl", req) == NOTIF

    def test_unhooked_syscall_passes(self):
        assert run_filter(NR["read"]) == ALLOW
        assert run_filter(NR["socket"]) == ALLOW

    def test_foreign_arch_passes(self):
        # i386's AUDIT_ARCH; its numbers would be misread as x86_64's
        assert verdict("connect", arch=0x40000003) == ALLOW
        assert verdict("ioctl", 0xDEAD, arch=0x40000003) == ALLOW

    @pytest.mark.parametrize("name,cmd", [
        ("fcntl", fcntl.F_SETFL), ("fcntl", fcntl.F_GETFL),
        ("ioctl", termios.FIONREAD), ("ioctl", FIONBIO),
    ])
    def test_upper_half_of_cmd_is_ignored(self, name, cmd):
        # the kernel takes cmd as an unsigned int
        assert verdict(name, cmd | 1 << 32) == verdict(name, cmd)
        assert verdict(name, cmd | 0xFFFFFFFF << 32) == verdict(name, cmd)


def setsockopt(level, optname):
    return run_filter(NR["setsockopt"], args=(3, level, optname, 0, 4))


class TestSetsockoptVerdicts:
    """The options the switch copies from the kernel pass; any other
    (level, optname) pair is recorded by the supervisor."""

    @pytest.mark.parametrize("level,optname", COPIED_OPTIONS,
                             ids=lambda v: str(v))
    def test_copied_options_pass(self, level, optname):
        assert setsockopt(level, optname) == ALLOW

    @pytest.mark.parametrize("level,optname", [
        (socket.IPPROTO_IP, socket.IP_TOS),
        (socket.SOL_SOCKET, socket.SO_DEBUG),
    ], ids=["IP_TOS", "SO_DEBUG"])
    def test_same_optname_under_another_level_notifies(self, level, optname):
        # both are 1, as TCP_NODELAY is
        assert optname == socket.TCP_NODELAY
        assert setsockopt(socket.IPPROTO_TCP, optname) == ALLOW
        assert setsockopt(level, optname) == NOTIF

    def test_sndbuf_notifies(self):
        # setting it locks the buffer size: recorded and replayed instead
        assert setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) == NOTIF

    @pytest.mark.parametrize("junk", [1, 0xFFFFFFFF, socket.IPPROTO_TCP])
    def test_low_words_decide(self, junk):
        # the kernel takes level and optname as ints
        hi = junk << 32
        tcp, nodelay = socket.IPPROTO_TCP, socket.TCP_NODELAY
        assert setsockopt(tcp | hi, nodelay | hi) == ALLOW
        assert setsockopt(socket.SOL_SOCKET | hi,
                          socket.SO_SNDBUF | hi) == NOTIF
        # a listed value in the upper half does not count
        assert setsockopt(hi, nodelay) == NOTIF
        assert setsockopt(tcp, socket.TCP_MAXSEG | nodelay << 32) == NOTIF


class TestAddrlenVerdicts:
    """A connect or bind whose addrlen is below sizeof(struct sockaddr_in)
    fails in the kernel for AF_INET and is never switched: it passes."""

    @pytest.mark.parametrize("name", ["connect", "bind"])
    @pytest.mark.parametrize("addrlen,want", [
        (0, ALLOW), (12, ALLOW), (15, ALLOW), (16, NOTIF), (28, NOTIF),
        (128, NOTIF), (0xFFFFFFFF, NOTIF),
    ], ids=["0", "12-netlink", "15", "16", "28-inet6", "128", "negative"])
    def test_least_addrlen(self, name, addrlen, want):
        assert run_filter(NR[name], args=(3, 0x7FFF0000, addrlen)) == want

    @pytest.mark.parametrize("junk", [1, 0xDEAD, 0xFFFFFFFF])
    def test_upper_half_of_addrlen_is_ignored(self, junk):
        # the kernel takes addrlen as an int
        for name in ("connect", "bind"):
            assert run_filter(NR[name], args=(3, 0, 15 | junk << 32)) == ALLOW
            assert run_filter(NR[name], args=(3, 0, 16 | junk << 32)) == NOTIF


def test_jumps_are_forward_and_land_inside():
    jumps = (BPF_JMP | BPF_JEQ | BPF_K, BPF_JMP | BPF_JGE | BPF_K)
    for pc, ins in enumerate(PROG):
        if ins.code in jumps:
            for off in (ins.jt, ins.jf):
                assert pc + 1 + off < len(PROG)
        else:
            assert ins.jt == ins.jf == 0
    assert PROG[-1].code == BPF_RET


def test_a_jump_longer_than_a_byte_is_refused():
    # jt and jf are one byte: a longer jump would wrap to another target
    with pytest.raises(ValueError, match="exceeds 255"):
        build_notify_filter(range(460))


class TestSupervisorAgrees:
    """A fcntl/ioctl the filter would pass can still arrive through a filter
    an older runtime installed; the supervisor must treat it as harmless."""

    def _dispatch(self, name, cmd):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mem = FakeMem()
        mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os.dup(srv.fileno()))
        sup = SupervisorInstance(FakeChannel(), env=None, mem=mem)
        try:
            sup._dispatch(make_event(nr=NR[name], args=(3, cmd, 0)))
        finally:
            srv.close()
        assert sup.chan.last_response().kind == "continue"
        return sup.registry.get(1000, 3)

    @pytest.mark.parametrize("req", READ_ONLY_IOCTLS, ids=hex)
    def test_read_only_ioctl_keeps_socket_switchable(self, req):
        rec = self._dispatch("ioctl", req)
        assert rec.status is SocketStatus.TRACKABLE
        assert rec.options == []

    def test_unknown_ioctl_marks_non_switchable(self):
        rec = self._dispatch("ioctl", 0xDEAD)
        assert rec.status is SocketStatus.NON_SWITCHABLE

    def test_fionbio_keeps_socket_switchable(self):
        rec = self._dispatch("ioctl", FIONBIO)
        assert rec.status is SocketStatus.TRACKABLE
        assert rec.options == []

    def test_setfl_with_junk_upper_half_is_continued_unrecorded(self):
        # fcntl is unhooked: _dispatch continues it without a probe
        assert self._dispatch("fcntl", fcntl.F_SETFL | 1 << 32) is None
