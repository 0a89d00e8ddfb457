"""Remote access to the supervised process: memory and file descriptors.

Memory goes through /proc/<pid>/mem (directly, or via a reduced-privilege
agent that re-opens it with the target's credentials and passes the fd back
over a unix socket).  Fd duplicates come from pidfd_getfd(2), through a
pidfd per process that also tells when the process exits.  An fd's flags
and identity are read through the process's /proc/<pid>/fdinfo and
/proc/<pid>/fd directories, each opened once, and the flags through one
fdinfo file per process, held open while the same fd number is asked.
"""

import _socket
import array
import ctypes
import errno
import functools
import logging
import os
import socket
import struct
import sys
from dataclasses import dataclass, field

from .errors import AgentFailed, FdNotAvailable, MemFault, ReadOnlyMapping, TargetGone

log = logging.getLogger(__name__)

_libc = ctypes.CDLL(None, use_errno=True)

SYS_pidfd_open = 434
SYS_pidfd_getfd = 438

MAX_RW = 4096  # sockaddr-scale transfers only


class MemHandle:
    """Read/write window into one target's address space.

    source is "direct" (we opened /proc/pid/mem ourselves) or "agent"
    (an in-credentials helper opened it for us).
    """

    def __init__(self, pid, mem_fd, source="direct"):
        self.pid = pid
        self.source = source
        self._fd = mem_fd

    def read(self, addr, length):
        if length > MAX_RW:
            raise ValueError(f"read of {length} bytes exceeds {MAX_RW}")
        if addr == 0:
            raise MemFault("null target address")
        try:
            data = os.pread(self._fd, length, addr)
        except OSError as e:
            raise _mem_oserr(e, self.pid)
        if len(data) != length:
            raise MemFault(f"short read at {addr:#x}")
        return data

    def write(self, addr, data):
        if len(data) > MAX_RW:
            raise ValueError(f"write of {len(data)} bytes exceeds {MAX_RW}")
        if addr == 0:
            raise MemFault("null target address")
        try:
            n = os.pwrite(self._fd, data, addr)
        except OSError as e:
            if e.errno == errno.EACCES:
                raise ReadOnlyMapping(f"read-only mapping at {addr:#x}")
            raise _mem_oserr(e, self.pid)
        if n != len(data):
            raise MemFault(f"short write at {addr:#x}")

    def close(self):
        try:
            os.close(self._fd)
        except OSError:
            pass


def _mem_oserr(e, pid):
    if e.errno in (errno.ESRCH, errno.ENOENT):
        return TargetGone(f"pid {pid} exited")
    if e.errno in (errno.EIO, errno.EFAULT):
        return MemFault(str(e))
    if e.errno == errno.EPERM:
        return PermissionError(str(e))
    return e


def open_mem(pid):
    """Open the target's memory directly.  PermissionError propagates so the
    caller can fall back to the agent path."""
    try:
        fd = os.open(f"/proc/{pid}/mem", os.O_RDWR)
    except FileNotFoundError:
        raise TargetGone(f"pid {pid} exited")
    return MemHandle(pid, fd, source="direct")


def _tgid_of(pid):
    """Thread-group leader of pid (pid itself if already the leader)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Tgid:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        raise TargetGone(f"pid {pid} exited")
    return pid


def _pidfd_open(pid):
    fd = _libc.syscall(SYS_pidfd_open, pid, 0)
    if fd < 0:
        e = ctypes.get_errno()
        if e == errno.ESRCH:
            raise TargetGone(f"pid {pid} exited")
        # notifications carry thread ids; pidfd_open wants the group leader
        # (threads share one fd table, so the leader's pidfd is equivalent)
        tgid = _tgid_of(pid)
        if tgid != pid:
            return _pidfd_open(tgid)
        raise OSError(e, "pidfd_open")
    return fd


@dataclass
class RemoteFd:
    """Supervisor-side duplicate of a target fd (same open file description)."""

    pid: int
    remote_fd: int
    local_fd: int
    _sock: object = field(default=None, init=False, repr=False, compare=False)

    def socket(self):
        """The duplicate as a C-level socket object, made once and detached
        when the duplicate closes.  OSError if the fd is not a socket."""
        if self._sock is None:
            # with a fileno, CPython validates it with getsockname, which
            # also yields the family
            self._sock = _socket.socket(-1, _socket.SOCK_STREAM, 0,
                                        self.local_fd)
        return self._sock

    def close(self):
        """Close the duplicate; a second call does nothing."""
        fd, self.local_fd = self.local_fd, -1
        if self._sock is not None:
            self._sock.detach()
            self._sock = None
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass


def _getfd(pidfd, pid, remote_fd):
    local = _libc.syscall(SYS_pidfd_getfd, pidfd, remote_fd, 0)
    if local < 0:
        e = ctypes.get_errno()
        raise FdNotAvailable(
            f"pidfd_getfd(pid={pid}, fd={remote_fd}): {os.strerror(e)}")
    # pidfd_getfd sets FD_CLOEXEC on the new fd
    return RemoteFd(pid, remote_fd, local)


# ---------------------------------------------------------------------------
# privileged-memory agent: re-open /proc/pid/mem with the target's own
# credentials when the supervisor's uid cannot.

def _agent_main(sock_fd, pid):
    """Runs in the forked helper: adopt the target's uid/gid, open its memory,
    pass the fd back.  Exits nonzero on any failure."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM, fileno=sock_fd)
    try:
        with open(f"/proc/{pid}/status") as f:
            fields = dict(
                line.split(":", 1) for line in f if ":" in line)
        uid = int(fields["Uid"].split()[0])
        gid = int(fields["Gid"].split()[0])
        if os.getgid() != gid:
            os.setgid(gid)
        if os.getuid() != uid:
            os.setuid(uid)
        fd = os.open(f"/proc/{pid}/mem", os.O_RDWR)
        s.sendmsg([b"M"], [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                            array.array("i", [fd]))])
        os._exit(0)
    except Exception:
        try:
            s.sendall(b"E")
        except OSError:
            pass
        os._exit(1)


def open_mem_via_agent(pid, spawn=None):
    """Memory handle through a helper running with the target's credentials.

    Used after a direct open failed with a permission error (target setuid'd
    inside its sandbox).  ``spawn`` is injectable for fault tests.
    """
    sup, agent = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        if spawn is None:
            child = os.fork()
            if child == 0:
                sup.close()
                _agent_main(agent.detach(), pid)
                os._exit(1)  # unreachable
            agent.close()
        else:
            spawn(agent, pid)
            agent.close()
        sup.settimeout(5.0)
        try:
            msg, anc, _, _ = sup.recvmsg(1, socket.CMSG_LEN(4))
        except (socket.timeout, OSError) as e:
            raise AgentFailed(f"agent handshake failed for pid {pid}: {e}")
        if msg != b"M":
            raise AgentFailed(f"agent could not open memory of pid {pid}")
        fds = []
        for level, ctype, data in anc:
            if level == socket.SOL_SOCKET and ctype == socket.SCM_RIGHTS:
                fds.extend(array.array("i", data))
        if not fds:
            raise AgentFailed(f"agent reply carried no fd for pid {pid}")
        if spawn is None:
            os.waitpid(child, 0)
        return MemHandle(pid, fds[0], source="agent")
    finally:
        sup.close()


class MemService:
    """Per-target memory handles, pidfds and /proc directory fds, with lazy
    agent fallback.

    With ``chan``, every pidfd opened is watched in the channel's poll: when
    its process exits, ``on_exit(pid)`` runs and the pid is forgotten.
    """

    def __init__(self, chan=None, on_exit=None):
        self._handles = {}
        self.pidfd_cache = {}
        self._dirs = {}  # pid -> (/proc/pid/fd, /proc/pid/fdinfo) fds
        self._fdinfo = {}  # pid -> (fd, open /proc/pid/fdinfo/<fd>)
        self._chan = chan
        self._on_exit = on_exit

    def _pidfd(self, pid):
        pidfd = self.pidfd_cache.get(pid)
        if pidfd is None:
            pidfd = _pidfd_open(pid)
            self.pidfd_cache[pid] = pidfd
            if self._chan is not None:
                self._chan.watch(pidfd, functools.partial(self._exited, pid))
        return pidfd

    def _exited(self, pid):
        if self._on_exit is not None:
            self._on_exit(pid)
        self.forget(pid)

    def handle(self, pid):
        h = self._handles.get(pid)
        if h is not None:
            return h
        self._pidfd(pid)  # watched, so the handle goes when the process does
        try:
            h = open_mem(pid)
        except PermissionError:
            log.info("direct memory open denied for pid %d; using agent", pid)
            h = open_mem_via_agent(pid)
        self._handles[pid] = h
        return h

    def _reopened(self, pid, h):
        """A fresh handle in place of ``h``: after an execve a handle still
        reaches the address space the process left, and reads come back
        short."""
        h.close()
        del self._handles[pid]
        return self.handle(pid)

    def read(self, pid, addr, length):
        h = self.handle(pid)
        try:
            return h.read(addr, length)
        except MemFault:
            return self._reopened(pid, h).read(addr, length)

    def write(self, pid, addr, data):
        h = self.handle(pid)
        try:
            h.write(addr, data)
        except MemFault:
            self._reopened(pid, h).write(addr, data)

    def _proc_dirs(self, pid):
        dirs = self._dirs.get(pid)
        if dirs is None:
            self._pidfd(pid)  # watched, so the fds go when the process does
            dirs = []
            try:
                for name in ("fd", "fdinfo"):
                    dirs.append(os.open(f"/proc/{pid}/{name}",
                                        os.O_RDONLY | os.O_DIRECTORY))
            except OSError:
                for d in dirs:
                    os.close(d)
                raise TargetGone(f"pid {pid} exited")
            dirs = self._dirs[pid] = tuple(dirs)
        return dirs

    def fd_flags(self, pid, fd):
        """Open flags of the target's fd, O_CLOEXEC included when
        close-on-exec is set on it, as /proc/<pid>/fdinfo/<fd> reports
        them."""
        held = self._fdinfo.get(pid)
        if held is None or held[0] != fd:
            held = self._hold_fdinfo(pid, fd)
        try:
            # raw os calls: a text-mode read costs several times as much,
            # and this runs once per switched connect
            text = os.pread(held[1], 256, 0)
        except (FileNotFoundError, ProcessLookupError):
            raise TargetGone(f"fd {fd} of pid {pid} is gone")
        return int(text.split(b"\nflags:", 1)[1].split(None, 1)[0], 8)

    def _hold_fdinfo(self, pid, fd):
        """Open /proc/<pid>/fdinfo/<fd> in place of the one held for the
        process's previous fd.  The kernel looks the fd up by number at
        every read of the file (seq_show in fs/proc/fd.c), so one open
        handle follows the number through close and reuse: a read gives
        ENOENT while no file is open under it, and the flags of whatever
        file is open under it otherwise."""
        self._drop_fdinfo(pid)
        try:
            h = os.open(str(fd), os.O_RDONLY, dir_fd=self._proc_dirs(pid)[1])
        except (FileNotFoundError, ProcessLookupError):
            raise TargetGone(f"fd {fd} of pid {pid} is gone")
        held = self._fdinfo[pid] = (fd, h)
        return held

    def _drop_fdinfo(self, pid):
        held = self._fdinfo.pop(pid, None)
        if held is not None:
            os.close(held[1])

    def fd_inode(self, pid, fd):
        """Inode of the socket the target's fd refers to, as the link
        /proc/<pid>/fd/<fd> names it; None if the fd is not open or not a
        socket."""
        try:
            link = os.readlink(str(fd), dir_fd=self._proc_dirs(pid)[0])
        except (OSError, TargetGone):
            return None
        return int(link[8:-1]) if link.startswith("socket:[") else None

    def acquire_fd(self, pid, remote_fd):
        """Duplicate the target's fd into this process via pidfd_getfd(2).

        Failure is never fatal to the intercepted syscall: callers mark the
        fd non-switchable instead.
        """
        try:
            pidfd = self._pidfd(pid)
        except TargetGone:
            raise FdNotAvailable(f"pid {pid} exited")
        return _getfd(pidfd, pid, remote_fd)

    def forget(self, pid):
        h = self._handles.pop(pid, None)
        if h is not None:
            h.close()
        self._drop_fdinfo(pid)
        for d in self._dirs.pop(pid, ()):
            os.close(d)
        pidfd = self.pidfd_cache.pop(pid, None)
        if pidfd is not None:
            if self._chan is not None:
                self._chan.unwatch(pidfd)
            try:
                os.close(pidfd)
            except OSError:
                pass

    def close(self):
        for pid in set(self._handles) | set(self.pidfd_cache):
            self.forget(pid)
