"""In-memory stand-ins for the notification channel and target memory,
used by unit tests that exercise decision/execution logic without a live
supervised process."""

import os
import socket

from b4ns.errors import FdNotAvailable, MemFault, StaleCookie, TargetGone
from b4ns.notify import NotificationEvent, Response
from b4ns.sockaddr import socket_inode
from b4ns.sysnr import AUDIT_ARCH_X86_64
from b4ns.targetmem import RemoteFd


class FakeMem:
    """Flat per-pid address space; addresses are offsets into one buffer."""

    BASE = 0x10000

    def __init__(self):
        self.spaces = {}  # pid -> bytearray
        self.dead_pids = set()
        self.fault_addrs = set()
        self.writes = []  # (pid, addr, bytes)
        self.fd_probe = None  # callable(pid, fd) -> RemoteFd-like, or raises
        # (pid, fd) -> inode of the socket last duplicated from it: the
        # target's fd holds that socket until a test says otherwise
        self.inodes = {}

    def _space(self, pid):
        return self.spaces.setdefault(pid, bytearray(0x1000))

    def place(self, pid, offset, data):
        """Store bytes and return their fake address."""
        space = self._space(pid)
        space[offset:offset + len(data)] = data
        return self.BASE + offset

    def peek(self, pid, addr, length):
        off = addr - self.BASE
        return bytes(self._space(pid)[off:off + length])

    def _check(self, pid, addr):
        if pid in self.dead_pids:
            raise TargetGone(f"pid {pid} exited")
        if addr == 0 or addr in self.fault_addrs:
            raise MemFault(f"bad address {addr:#x}")

    def read(self, pid, addr, length):
        self._check(pid, addr)
        data = self.peek(pid, addr, length)
        if len(data) != length:
            raise MemFault("short read")
        return data

    def write(self, pid, addr, data):
        self._check(pid, addr)
        off = addr - self.BASE
        self._space(pid)[off:off + len(data)] = data
        self.writes.append((pid, addr, bytes(data)))

    def acquire_fd(self, pid, fd):
        if self.fd_probe is None:
            raise FdNotAvailable(f"no probe configured for ({pid},{fd})")
        dup = self.fd_probe(pid, fd)
        self.inodes[(pid, fd)] = socket_inode(dup.local_fd)
        return dup

    def fd_inode(self, pid, fd):
        """The inode last duplicated from (pid, fd); an fd not yet seen is
        read once through ``fd_probe``, the duplicate closed at once.  None
        if it is not a socket or cannot be read, as from /proc."""
        if (pid, fd) not in self.inodes and self.fd_probe is not None:
            try:
                self.acquire_fd(pid, fd).close()
            except FdNotAvailable:
                return None
        return self.inodes.get((pid, fd))

    def tgid(self, pid):
        """Each fake pid is a process of one thread."""
        return pid

    def netns(self, pid):
        """Each fake process shares this one's network namespace."""
        st = os.stat("/proc/self/ns/net")
        return st.st_dev, st.st_ino

    def fd_flags(self, pid, fd):
        """A fresh socket's flags: read-write, close-on-exec."""
        return os.O_RDWR | os.O_CLOEXEC

    def close(self):
        pass


class FakeChannel:
    """Records every respond/inject; cookie validity is scriptable."""

    def __init__(self):
        self.responses = []  # (cookie, Response)
        self.injections = []  # (cookie, host_fd, target_fd, cloexec)
        self.invalid_cookies = set()
        self.validate_calls = 0
        self.invalid_after = None  # validation count after which all fail

    def validate(self, event):
        self.validate_calls += 1
        if (self.invalid_after is not None
                and self.validate_calls > self.invalid_after):
            return False
        return event.cookie not in self.invalid_cookies

    def inject_fd(self, event, host_fd, target_fd, cloexec=False):
        if event.cookie in self.invalid_cookies:
            raise StaleCookie(f"cookie {event.cookie:#x}")
        self.injections.append((event.cookie, host_fd, target_fd, cloexec))
        return target_fd

    def respond(self, event, response: Response):
        self.responses.append((event.cookie, response))

    def close(self):
        pass

    def last_response(self):
        return self.responses[-1][1]


def held_dup(pid=1000, fd=3):
    """The duplicate a connect holds of the target's fd: here, of a fresh,
    unconnected TCP socket."""
    return RemoteFd(pid, fd, socket.socket().detach())


def make_event(cookie=1, pid=1000, nr=42, args=(3, 0, 0, 0, 0, 0),
               arch=AUDIT_ARCH_X86_64):
    args = tuple(args) + (0,) * (6 - len(args))
    return NotificationEvent(cookie=cookie, pid=pid, syscall_nr=nr, arch=arch,
                             args=args)
