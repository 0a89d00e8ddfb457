"""The per-process socket registry, the switchability probe, the check
for a host socket a switch injected, and the seven-class syscall taxonomy.

Whether a socket can be switched is read from the live socket (``switchable``)
at every connect and bind, so a record holds only what the kernel cannot
tell: the options outside COPIED_OPTIONS, recorded for replay onto the
host-side socket at switch time; a non-switchable mark (an unreplayable
ioctl or option, more than MAX_OPTIONS options, or a failed replay); and a
rewritten connection's spoofed peer, with the host peer its rewrite chose.
Creation is never intercepted, so a record starts at the first
configuration call that names a socket fd; any other fd gets none.  Neither
is close: a record holds its socket's inode, and a record whose fd no longer
holds that socket is dropped when the fd is next seen.  The copied options
and the fd's file status flags are read from the kernel at switch time.
"""

import _socket
import enum
import functools
import os
import threading

from .errors import ReplayFailed
from .sockaddr import socket_inode
# the filter's lists live with the filter's syscall numbers; both names
# stay importable from here
from .sysnr import COPIED_OPTIONS, UNHOOKED_IOCTLS  # noqa: F401

# tcp_info.tcpi_state of a socket neither connected, connecting nor listening
TCP_CLOSE = 7
# a socket's network namespace, as a cookie; unlike SIOCGSKNS it needs no
# CAP_NET_ADMIN over that namespace, which a rootless supervisor lacks
# over the host's
SO_NETNS_COOKIE = 71
_UNBOUND = ("0.0.0.0", 0)
# options a record holds; one more marks its socket non-switchable
MAX_OPTIONS = 64


class SyscallClass(enum.Enum):
    CREATION = "creation"
    CONFIGURATION = "configuration"
    CONNECTION = "connection"
    STATUS = "status"
    DERIVATION = "derivation"
    COMMUNICATION = "communication"
    CLOSE = "close"
    NOT_HOOKED = "not_hooked"


_CLASS_TABLE = {
    "socket": SyscallClass.CREATION,
    "fcntl": SyscallClass.CONFIGURATION,
    "setsockopt": SyscallClass.CONFIGURATION,
    "ioctl": SyscallClass.CONFIGURATION,
    "connect": SyscallClass.CONNECTION,
    "bind": SyscallClass.CONNECTION,
    "getsockopt": SyscallClass.STATUS,
    "getsockname": SyscallClass.STATUS,
    "getpeername": SyscallClass.STATUS,
    "accept": SyscallClass.DERIVATION,
    "accept4": SyscallClass.DERIVATION,
    "clone": SyscallClass.DERIVATION,
    "poll": SyscallClass.COMMUNICATION,
    "recvfrom": SyscallClass.COMMUNICATION,
    "sendfile": SyscallClass.COMMUNICATION,
    "write": SyscallClass.COMMUNICATION,
    "select": SyscallClass.COMMUNICATION,
    "read": SyscallClass.COMMUNICATION,
    "listen": SyscallClass.COMMUNICATION,
    "lseek": SyscallClass.COMMUNICATION,
    "readv": SyscallClass.COMMUNICATION,
    "writev": SyscallClass.COMMUNICATION,
    "epoll_ctl": SyscallClass.COMMUNICATION,
    "epoll_wait": SyscallClass.COMMUNICATION,
    "close": SyscallClass.CLOSE,
    "shutdown": SyscallClass.CLOSE,
}


def classify_syscall(name):
    """Total classification: the 26 socket-related syscalls map to their
    class, everything else to NOT_HOOKED."""
    return _CLASS_TABLE.get(name, SyscallClass.NOT_HOOKED)


def tcp_state(dup):
    """The tcpi_state of the socket ``dup`` (a held duplicate of the target's
    fd) holds, from one TCP_INFO read; None if it is not AF_INET TCP, a
    non-socket included.  The two rules below take a socket in TCP_CLOSE
    (what inet_stream_connect and inet_bind require)."""
    try:
        sock = dup.socket()
        return (sock.getsockopt(_socket.IPPROTO_TCP, _socket.TCP_INFO, 1)[0]
                if sock.family == _socket.AF_INET else None)
    except OSError:  # not a socket, or no TCP_INFO: not TCP
        return None


def switchable(dup):
    """True if the socket ``dup`` holds can be replaced by a fresh host
    socket: it is unbound, since a switch cannot carry a bind over."""
    return dup.socket().getsockname() == _UNBOUND


@functools.cache
def _own_netns():
    """(SO_NETNS_COOKIE, nsfs (dev, inode)) of this process's network
    namespace, where the host sockets it injects live."""
    s = _socket.socket()
    try:
        cookie = s.getsockopt(_socket.SOL_SOCKET, SO_NETNS_COOKIE, 8)
    finally:
        s.close()
    st = os.stat("/proc/self/ns/net")
    return cookie, (st.st_dev, st.st_ino)


def injected(dup, pid, mem):
    """True if ``dup`` (a held duplicate of process ``pid``'s fd) holds a
    host socket that could connect or bind again: one living in this
    process's network namespace while ``pid`` lives in another
    (``mem.netns``).  Only a switch puts one there, and what it does next
    happens in the host's network."""
    cookie, netns = _own_netns()
    try:
        return (dup.socket().getsockopt(_socket.SOL_SOCKET, SO_NETNS_COOKIE,
                                        8) == cookie
                and mem.netns(pid) != netns)
    except OSError:  # the process has exited
        return False


class SocketStatus(enum.Enum):
    UNKNOWN = "unknown"
    NON_SWITCHABLE = "non_switchable"
    TRACKABLE = "trackable"
    SWITCHED = "switched"
    CLOSED = "closed"


_LEGAL_TRANSITIONS = {
    SocketStatus.UNKNOWN: {SocketStatus.NON_SWITCHABLE, SocketStatus.TRACKABLE},
    SocketStatus.NON_SWITCHABLE: set(),
    SocketStatus.TRACKABLE: {SocketStatus.SWITCHED, SocketStatus.NON_SWITCHABLE,
                             SocketStatus.CLOSED},
    SocketStatus.SWITCHED: {SocketStatus.CLOSED},
    SocketStatus.CLOSED: set(),
}


class IllegalTransition(Exception):
    pass


class OptionEvent:
    """One recorded configuration syscall, replayable onto a host socket.

    Only kind "setsockopt" (level, optname, optval bytes) replays; any other
    kind raises ReplayFailed.
    """

    __slots__ = ("kind", "args")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.args) == (other.kind, other.args)

    def __repr__(self):
        return f"OptionEvent(kind={self.kind!r}, args={self.args!r})"

    def apply(self, sock):
        if self.kind != "setsockopt":
            raise ReplayFailed(self)
        level, optname, optval = self.args
        sock.setsockopt(level, optname, optval)


class SocketRecord:
    __slots__ = ("pid", "fd", "status", "options", "spoofed_peer", "inode",
                 "host_peer")

    def __init__(self, pid, fd, status=SocketStatus.UNKNOWN, inode=None):
        self.pid = pid
        self.fd = fd
        self.status = status
        self.options = []
        self.spoofed_peer = None  # (addr, port)
        self.inode = inode  # of the socket the fd holds; None if none
        # the (addr, port) a rewrite connected the host socket to, as the
        # kernel names it; None if that connect failed at once
        self.host_peer = None

    def transition(self, new_status):
        if new_status not in _LEGAL_TRANSITIONS[self.status]:
            raise IllegalTransition(
                f"({self.pid},{self.fd}): {self.status.value} -> {new_status.value}")
        self.status = new_status

    def add_option(self, ev: OptionEvent):
        if self.status is not SocketStatus.TRACKABLE:
            return False
        if len(self.options) >= MAX_OPTIONS:
            # a socket that keeps setting options (a connected one toggling
            # TCP_CORK) is not replayed: the record stays bounded
            self.transition(SocketStatus.NON_SWITCHABLE)
            return False
        self.options.append(ev)
        return True


class SocketRegistry:
    """Live socket records, one table ``{fd: record}`` per process
    (thread-group id): a process's exit drops its table in one step.

    Only the supervisor's loop thread writes, under a coarse lock, and it
    reads without it; the lock serves the snapshot the API thread takes.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._tables = {}  # tgid -> {fd: SocketRecord}

    def get(self, pid, fd):
        table = self._tables.get(pid)
        return table.get(fd) if table else None

    def ensure_registered(self, pid, fd, mem):
        """Return the record for (pid, fd), or None if the fd holds no
        socket.  A configuration call names the fd, and the one
        ``mem.fd_inode`` readlink identifies it: nothing is duplicated or
        probed, since connect and bind decide from the live socket.  A
        record whose socket the fd no longer holds is dropped through
        on_close; a socket seen first gets a TRACKABLE record."""
        inode = mem.fd_inode(pid, fd)
        with self._lock:
            rec = self.get(pid, fd)
            if rec is not None:
                if rec.inode == inode:
                    return rec
                self.on_close(pid, fd)
            if inode is None:
                return None
            rec = SocketRecord(pid=pid, fd=fd, inode=inode)
            rec.transition(SocketStatus.TRACKABLE)
            self._tables.setdefault(pid, {})[fd] = rec
            return rec

    def lookup(self, pid, fd, dup):
        """The record for (pid, fd) while the fd still holds its socket, as
        ``dup``, a held duplicate of the fd, shows it; a stale one is
        dropped through on_close and None returned."""
        rec = self.get(pid, fd)  # most fds have none: no identity read
        if rec is not None and rec.inode != socket_inode(dup.local_fd):
            self.on_close(pid, fd)
            return None
        return rec

    def record_option(self, rec: SocketRecord, ev: OptionEvent):
        with self._lock:
            return rec.add_option(ev)

    def mark_non_switchable(self, rec):
        """Mark ``rec``, a stored record, non-switchable: the live socket
        cannot tell."""
        with self._lock:
            if rec.status is SocketStatus.TRACKABLE:
                rec.transition(SocketStatus.NON_SWITCHABLE)

    def mark_switched(self, rec, spoofed_peer=None, inode=None,
                      host_peer=None):
        """``inode`` is the injected host socket's: the fd holds it now, and
        a rewrite connected it to ``host_peer``.  The record is kept only if
        ``must_keep`` says so."""
        with self._lock:
            rec.transition(SocketStatus.SWITCHED)
            rec.spoofed_peer = spoofed_peer
            rec.inode = inode
            rec.host_peer = host_peer
            if must_keep(rec, spoofed_peer):
                self._tables.setdefault(rec.pid, {})[rec.fd] = rec
            elif self.get(rec.pid, rec.fd) is rec:
                del self._tables[rec.pid][rec.fd]

    def on_close(self, pid, fd):
        """Evict the record; the fd number becomes fresh for reuse.  Called
        when the fd turns out to hold another socket than the record's."""
        with self._lock:
            rec = self._tables.get(pid, {}).pop(fd, None)
            if rec is None:
                return None
            if rec.status in (SocketStatus.TRACKABLE, SocketStatus.SWITCHED):
                rec.transition(SocketStatus.CLOSED)
            return rec

    def evict_pid(self, pid):
        """Drop ``pid``'s table (its process exited)."""
        with self._lock:
            self._tables.pop(pid, None)

    def snapshot(self):
        with self._lock:
            return [
                {
                    "pid": rec.pid,
                    "fd": rec.fd,
                    "status": rec.status.value,
                    "options": len(rec.options),
                }
                for table in self._tables.values()
                for rec in table.values()
            ]


def must_keep(rec, spoofed_peer):
    """Whether a switched socket's record holds what the live socket cannot
    tell: a spoofed peer, or options.  Those options are never replayed,
    since only a TRACKABLE record is switched; the kept record keeps the fd
    from being switched again off its own host socket, which would lose
    the options outside COPIED_OPTIONS."""
    return bool(rec.options) or spoofed_peer is not None


def replay_options(rec, host_socket):
    """Apply the options recorded in ``rec`` to a fresh host socket, in the
    order the target set them (one supervisor thread appends them); a
    socket without a record (``rec`` None) has none.

    Any failure raises ReplayFailed and the caller must abort the switch;
    a half-configured switched socket is never acceptable.
    """
    for ev in rec.options if rec is not None else ():
        try:
            ev.apply(host_socket)
        except OSError as e:
            raise ReplayFailed(ev) from e


@functools.cache
def _fresh_socket_options():
    """COPIED_OPTIONS' values on a fresh socket here, read once."""
    s = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
    try:
        return tuple(s.getsockopt(level, name)
                     for level, name in COPIED_OPTIONS)
    finally:
        s.close()


def copy_options(src, host_socket):
    """Set each of COPIED_OPTIONS on ``host_socket`` to its value on the
    socket ``src`` (the view of a held duplicate of the target's), where
    that value differs from a fresh socket's.  An OSError propagates: the
    caller rolls the switch back.
    """
    for (level, name), default in zip(COPIED_OPTIONS, _fresh_socket_options()):
        value = src.getsockopt(level, name)
        if value != default:
            host_socket.setsockopt(level, name, value)
