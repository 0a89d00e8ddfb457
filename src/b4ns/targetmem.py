"""Remote access to the supervised process: memory and file descriptors.

Memory goes through /proc/<pid>/mem.  Fd duplicates come from
pidfd_getfd(2), through a pidfd per process that also tells when the
process exits.  An fd's flags are read through one
/proc/<pid>/fdinfo/<fd> file per process, held open while the same fd
number is asked, and its identity from the link /proc/<pid>/fd/<fd>.  A
process so holds three fds: its pidfd, its memory and that fdinfo file.
A thread id is mapped to its process through the thread's own pidfd.

A path that names the process by its id reaches the process that a held
handle would: while its notification is pending, the calling thread
keeps the thread group alive, and a process's exit callback runs before
any later notification (NotificationChannel.watch), so before its id can
be reused.
"""

import _socket
import ctypes
import errno
import fcntl
import functools
import os
import struct

from .errors import FdNotAvailable, MemFault, TargetGone, UnsupportedKernel

_libc = ctypes.CDLL(None, use_errno=True)

SYS_pidfd_getfd = 438
PIDFD_THREAD = os.O_EXCL
PIDFD_GET_INFO = 0xC040FF0B  # _IOWR(0xFF, 11, struct pidfd_info), 64 bytes

MAX_RW = 4096  # sockaddr-scale transfers only


class MemHandle:
    """Read/write window into one target's address space."""

    def __init__(self, pid, mem_fd):
        self.pid = pid
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
    return e


def open_mem(pid):
    """Open the target's memory.  A denied open (the file is 0600 and
    owned by the target's uid) is a MemFault, which every caller answers
    by leaving the syscall unswitched."""
    try:
        fd = os.open(f"/proc/{pid}/mem", os.O_RDWR)
    except FileNotFoundError:
        raise TargetGone(f"pid {pid} exited")
    except PermissionError as e:
        raise MemFault(f"memory of pid {pid}: {e}")
    return MemHandle(pid, fd)


def _pidfd_open(pid, flags=0):
    try:
        return os.pidfd_open(pid, flags)
    except ProcessLookupError:
        raise TargetGone(f"pid {pid} exited")


def _pidfd_tgid(pidfd):
    """Thread-group id of the task ``pidfd`` pins, not of a reused id."""
    info = bytearray(64)  # struct pidfd_info: mask, cgroupid, pid, tgid, ...
    try:
        fcntl.ioctl(pidfd, PIDFD_GET_INFO, info)
    except ProcessLookupError:
        raise TargetGone("thread exited")
    return struct.unpack_from("<I", info, 20)[0]


def check_kernel():
    """UnsupportedKernel unless this kernel has the pidfd calls that
    ``MemService.process`` makes: ``PIDFD_THREAD`` (Linux 6.9) and
    ``PIDFD_GET_INFO`` (6.13), tried on this process itself."""
    try:
        pidfd = _pidfd_open(os.getpid(), PIDFD_THREAD)
        try:
            _pidfd_tgid(pidfd)
        finally:
            os.close(pidfd)
    except OSError as e:
        raise UnsupportedKernel(f"kernel lacks PIDFD_THREAD or "
                                f"PIDFD_GET_INFO (Linux 6.13): {e}")


class RemoteFd:
    """Supervisor-side duplicate of a target fd (same open file description):
    of fd ``remote_fd`` of process ``pid``, only the duplicate is kept."""

    __slots__ = ("local_fd", "_sock")

    def __init__(self, pid, remote_fd, local_fd):
        self.local_fd = local_fd
        self._sock = None

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


class _Process:
    """One supervised process (thread group), as the memory service holds
    it; all but the pidfds are opened when first needed."""

    __slots__ = ("tgid", "pidfd", "threads", "mem", "fdinfo")

    def __init__(self, tgid, pidfd):
        self.tgid = tgid
        self.pidfd = pidfd
        self.threads = {}  # tid -> its thread pidfd
        self.mem = None  # MemHandle
        self.fdinfo = ()  # (fd number, open /proc/<tgid>/fdinfo/<fd>)


class MemService:
    """Per-process memory handles, pidfds and fdinfo files.  A ``pid``
    argument may name any thread.

    With ``chan``, every pidfd opened is watched in the channel's poll: when
    a process exits, ``on_exit(tgid)`` runs and the process is forgotten;
    when another of its threads exits, that thread's pidfd and id go.
    """

    def __init__(self, chan=None, on_exit=None):
        self._procs = {}  # tgid -> _Process
        self._by_tid = {}  # tid -> _Process, for each live thread seen
        self._chan = chan
        self._on_exit = on_exit

    @property
    def pidfd_cache(self):
        return {tgid: proc.pidfd for tgid, proc in self._procs.items()}

    def process(self, tid):
        """The process thread ``tid`` belongs to: one dict hit for a thread
        seen before.  A new one costs a PIDFD_THREAD pidfd and the
        thread-group id read through it.  TargetGone if it has exited."""
        proc = self._by_tid.get(tid)
        if proc is not None:
            return proc
        pidfd = _pidfd_open(tid, PIDFD_THREAD)
        try:
            tgid = _pidfd_tgid(pidfd)
            proc = self._procs.get(tgid)
            if proc is None:
                proc = _Process(tgid, _pidfd_open(tgid))
                self._procs[tgid] = self._by_tid[tgid] = proc
                self._watch(proc.pidfd, functools.partial(self._exited, proc))
        except BaseException:
            os.close(pidfd)
            raise
        if tid == tgid:
            os.close(pidfd)  # the process's own pidfd tells when it exits
        else:
            proc.threads[tid] = pidfd
            self._by_tid[tid] = proc
            self._watch(pidfd, functools.partial(self._thread_exited, proc,
                                                 tid))
        return proc

    def tgid(self, tid):
        return self.process(tid).tgid

    def _watch(self, pidfd, callback):
        if self._chan is not None:
            self._chan.watch(pidfd, callback)

    def _thread_exited(self, proc, tid):
        del self._by_tid[tid]
        os.close(proc.threads.pop(tid))

    def _exited(self, proc):
        if self._on_exit is not None:
            self._on_exit(proc.tgid)
        self.forget(proc.tgid)

    def handle(self, pid):
        proc = self.process(pid)
        if proc.mem is None:
            proc.mem = open_mem(proc.tgid)
        return proc.mem

    def _reopened(self, pid, h):
        """A fresh handle in place of ``h``: after an execve a handle still
        reaches the address space the process left, and reads come back
        short."""
        h.close()
        self.process(pid).mem = None
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

    def fd_flags(self, pid, fd):
        """Open flags of the target's fd, O_CLOEXEC included when
        close-on-exec is set on it, as /proc/<pid>/fdinfo/<fd> reports
        them.  The process holds one such file, for the last fd number
        read.  The kernel looks the fd up by number at every read of the
        file (seq_show in fs/proc/fd.c), so one open handle follows the
        number through close and reuse: a read gives ENOENT while no file
        is open under it, and the flags of whatever file is open under it
        otherwise."""
        proc = self.process(pid)
        held = proc.fdinfo
        try:
            if held[:1] != (fd,):
                proc.fdinfo = ()
                if held:
                    os.close(held[1])
                held = proc.fdinfo = (fd, os.open(
                    f"/proc/{proc.tgid}/fdinfo/{fd}", os.O_RDONLY))
            # raw os calls: a text-mode read costs several times as much,
            # and this runs once per switched connect
            text = os.pread(held[1], 256, 0)
        except (FileNotFoundError, ProcessLookupError):
            raise TargetGone(f"fd {fd} of pid {pid} is gone")
        return int(text.split(b"\nflags:", 1)[1].split(None, 1)[0], 8)

    def fd_inode(self, pid, fd):
        """Inode of the socket the target's fd refers to, as the link
        /proc/<pid>/fd/<fd> names it; None if the fd is not open or not a
        socket."""
        try:
            link = os.readlink(f"/proc/{self.process(pid).tgid}/fd/{fd}")
        except (OSError, TargetGone):
            return None
        return int(link[8:-1]) if link.startswith("socket:[") else None

    def netns(self, pid):
        """(device, inode) of the network namespace of process ``pid``, a
        thread-group id, as /proc/<pid>/ns/net names it."""
        st = os.stat(f"/proc/{pid}/ns/net")
        return st.st_dev, st.st_ino

    def acquire_fd(self, pid, remote_fd):
        """Duplicate the target's fd into this process via pidfd_getfd(2).

        Failure is never fatal to the intercepted syscall: callers mark the
        fd non-switchable instead.
        """
        try:
            pidfd = self.process(pid).pidfd
        except TargetGone:
            raise FdNotAvailable(f"pid {pid} exited")
        return _getfd(pidfd, pid, remote_fd)

    def forget(self, tgid):
        proc = self._procs.pop(tgid)
        for tid in (tgid, *proc.threads):
            del self._by_tid[tid]
        if proc.mem is not None:
            proc.mem.close()
        for fd in (proc.pidfd, *proc.threads.values(), *proc.fdinfo[1:]):
            if self._chan is not None:
                self._chan.unwatch(fd)  # a pidfd; nothing for the others
            os.close(fd)

    def close(self):
        for tgid in list(self._procs):
            self.forget(tgid)
