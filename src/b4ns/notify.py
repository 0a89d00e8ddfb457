"""Seccomp user-space notification channel.

Wraps the kernel's receive-event / send-response / check-id-valid / add-fd
commands and the runtime->supervisor handoff of the notification fd.
"""

import _socket
import errno
import fcntl
import gc
import os
import select
import struct
from collections import namedtuple

from .errors import ChannelClosed, HandoffFailed, StaleCookie, log
from .sysnr import ACK_BYTE

# struct seccomp_notif: id, pid, flags, struct seccomp_data{nr, arch, ip, args[6]}
_NOTIF = struct.Struct("<QIIiIQ6Q")
_NOTIF_SIZE = _NOTIF.size  # 80
# struct seccomp_notif_resp: id, val, error, flags
_RESP = struct.Struct("<QqiI")
# struct seccomp_notif_addfd: id, flags, srcfd, newfd, newfd_flags
_ADDFD_FMT = "<QIIII"
_ADDFD_SIZE = struct.calcsize(_ADDFD_FMT)  # 24


def _ioc(direction, nr, size):
    # _IOC with type '!' (seccomp)
    return (direction << 30) | (size << 16) | (0x21 << 8) | nr


IOCTL_NOTIF_RECV = _ioc(3, 0, _NOTIF_SIZE)
IOCTL_NOTIF_SEND = _ioc(3, 1, _RESP.size)
IOCTL_NOTIF_ID_VALID = _ioc(1, 2, 8)
IOCTL_NOTIF_ADDFD = _ioc(1, 3, _ADDFD_SIZE)

RESP_FLAG_CONTINUE = 1  # SECCOMP_USER_NOTIF_FLAG_CONTINUE
ADDFD_FLAG_SETFD = 1    # SECCOMP_ADDFD_FLAG_SETFD


class NotificationEvent(namedtuple("NotificationEvent",
                                   "cookie pid syscall_nr arch args")):
    """One intercepted syscall, pending a response (a tuple: one is built
    per notification)."""

    __slots__ = ()

    @property
    def fd_arg(self):
        """arg0 as an fd number (all hooked syscalls take the fd first)."""
        return self.args[0] & 0xFFFFFFFF


class Response(namedtuple("Response", "kind value err")):
    """Verdict for one event.

    kind: "continue" lets the kernel execute the (possibly modified) syscall;
    "success" / "error" synthesize a result without executing it.
    """

    __slots__ = ()

    def __new__(cls, kind, value=0, err=0):
        if kind not in ("continue", "success", "error"):
            raise ValueError(f"bad response kind {kind!r}")
        return super().__new__(cls, kind, value, err)

    @classmethod
    def cont(cls):
        return _CONTINUE

    @classmethod
    def success(cls, value=0):
        return cls("success", value=value)

    @classmethod
    def failure(cls, err):
        return cls("error", err=err)


_CONTINUE = Response("continue")  # immutable, so every CONTINUE shares it


class NotificationChannel:
    """Live notification channel to one supervised process tree.

    ``ioctl_fn`` is injectable so tests can simulate misbehaving kernels.
    Once ``stop_fd`` (an eventfd its owner writes) is readable, every
    ``next_event`` raises ChannelClosed.  The same poll watches the
    supervised processes' pidfds (see ``watch``).
    """

    def __init__(self, notify_fd, ioctl_fn=fcntl.ioctl, stop_fd=None):
        self.fd = notify_fd
        self._ioctl = ioctl_fn
        self._answered = None  # the cookie the kernel last took an answer for
        self._stop_fd = stop_fd
        self._poll = select.poll()
        self._poll.register(notify_fd, select.POLLIN)
        if stop_fd is not None:
            self._poll.register(stop_fd, select.POLLIN)
        self._watched = {}  # pidfd -> callback, run once its process exits

    def watch(self, pidfd, callback):
        """Have ``next_event`` run ``callback()`` once, when the process of
        ``pidfd``, a supervised one, has exited: when the pidfd turns
        readable, before any notification from the same poll, or at the
        latest before the ChannelClosed that says every supervised task has
        exited.  The reading thread only."""
        self._watched[pidfd] = callback
        self._poll.register(pidfd, select.POLLIN)

    def unwatch(self, pidfd):
        if self._watched.pop(pidfd, None) is not None:
            self._poll.unregister(pidfd)

    def _exited(self, pidfd):
        callback = self._watched.get(pidfd)  # an earlier one may unwatch it
        if callback is not None:
            self.unwatch(pidfd)
            callback()

    def _all_exited(self):
        # the notify fd hangs up before the exiting tasks' pidfds turn
        # readable, so run the callbacks still pending here
        for pidfd in list(self._watched):
            self._exited(pidfd)
        return ChannelClosed("all supervised tasks exited")

    def next_event(self, timeout=None):
        """Block until the next pending event or channel closure, running
        the callbacks of watched processes that exit meanwhile."""
        ms = None if timeout is None else timeout * 1000
        while True:
            ready = self._poll.poll(ms)
            if not ready:
                raise TimeoutError("no notification within timeout")
            flags = stopped = 0
            for fd, revents in ready:
                if fd == self.fd:
                    flags = revents
                elif fd == self._stop_fd:
                    stopped = 1
                else:
                    self._exited(fd)
            if stopped:
                raise ChannelClosed("supervisor stopped")
            if not flags:
                continue  # only watched fds were ready
            if flags & select.POLLNVAL:
                raise ChannelClosed("notification fd closed")
            if not flags & select.POLLIN:
                # POLLHUP: every supervised task has exited
                raise self._all_exited()
            buf = bytearray(_NOTIF_SIZE)
            try:
                self._ioctl(self.fd, IOCTL_NOTIF_RECV, buf)
            except OSError as e:
                if e.errno == errno.ENOENT:
                    # event vanished between poll and recv (target died mid-
                    # syscall); poll again, EOF shows up as ENOENT+no waiters
                    if self._hup():
                        raise self._all_exited()
                    continue
                if e.errno in (errno.EBADF, errno.EIO):
                    raise ChannelClosed("notification channel closed")
                raise
            n = _NOTIF.unpack_from(buf)
            # keep id, pid, nr, arch and args; drop flags and ip
            return NotificationEvent(n[0], n[1], n[3], n[4], n[6:])

    def _hup(self):
        return any(fd == self.fd and flags & (select.POLLHUP | select.POLLERR)
                   for fd, flags in self._poll.poll(0))

    def validate(self, event):
        """True iff the cookie still denotes a live, pending notification.

        Must be re-checked after every target-memory read that feeds a
        security decision (partial TOCTOU mitigation).
        """
        req = struct.pack("<Q", event.cookie)
        try:
            self._ioctl(self.fd, IOCTL_NOTIF_ID_VALID, req)
        except OSError:
            return False
        return True

    def inject_fd(self, event, host_fd, target_fd, cloexec=False):
        """Install host_fd into the target's fd table at target_fd, replacing
        what is there, close-on-exec if ``cloexec`` (before responding)."""
        req = struct.pack(_ADDFD_FMT, event.cookie, ADDFD_FLAG_SETFD, host_fd,
                          target_fd, os.O_CLOEXEC if cloexec else 0)
        try:
            return self._ioctl(self.fd, IOCTL_NOTIF_ADDFD, bytearray(req))
        except OSError as e:
            if e.errno == errno.ENOENT:
                raise StaleCookie(f"cookie {event.cookie:#x} gone during addfd")
            raise

    def respond(self, event, response: Response):
        """Deliver the verdict, once per event: answering the event answered
        last again raises StaleCookie.  A stale cookie (target died) is
        logged, not raised -- the event loop must survive it."""
        if event.cookie == self._answered:
            raise StaleCookie(f"cookie {event.cookie:#x} already responded")
        flags = RESP_FLAG_CONTINUE if response.kind == "continue" else 0
        err = -response.err if response.kind == "error" else 0
        val = response.value if response.kind == "success" else 0
        buf = _RESP.pack(event.cookie, val, err, flags)
        try:
            self._ioctl(self.fd, IOCTL_NOTIF_SEND, buf)
        except OSError as e:
            if e.errno != errno.ENOENT:
                raise
            log(__name__).warning("stale cookie %#x on respond; target gone",
                                  event.cookie)
        self._answered = event.cookie

    def close(self):
        """Close the notify fd; a second call does nothing."""
        fd, self.fd = self.fd, -1
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass


def attach(handoff_path, timeout=10.0, stop_fd=None):
    """Receive the notification fd over the runtime handoff socket.

    Binds a local stream socket at ``handoff_path``, accepts exactly one
    connection carrying one ancillary fd, acks with 0x4F, and returns a live
    channel that polls ``stop_fd``.  Refuses to start, before it binds, on
    a kernel that lacks what the supervisor uses (UnsupportedKernel).  A
    readable ``stop_fd`` ends the wait for a runtime (HandoffFailed).
    """
    # imported here, not at the top: notify is imported first on the
    # supervisor path, and loading targetmem from its import raised the
    # supervisor's peak RSS by about 70 KB when compiled from source
    from .targetmem import check_kernel
    check_kernel()
    try:
        os.unlink(handoff_path)
    except FileNotFoundError:
        pass
    srv = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
    srv.bind(handoff_path)
    srv.listen(1)
    # no hooked syscall can wait on us yet: collect the start-up heap now,
    # so that the interpreter's next full collection (a few ms) is far off
    # instead of landing inside an early switch
    gc.collect()
    waiting = select.poll()
    waiting.register(srv, select.POLLIN)
    if stop_fd is not None:
        waiting.register(stop_fd, select.POLLIN)
    try:
        ready = dict(waiting.poll(timeout * 1000))
        if stop_fd in ready or not ready:
            raise HandoffFailed(f"no runtime connected to {handoff_path}")
        fd, _ = srv._accept()  # what socket.socket.accept calls
    finally:
        srv.close()
    conn = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM, 0, fd)
    try:
        conn.settimeout(timeout)
        try:
            msg, anc, _, _ = conn.recvmsg(1, _socket.CMSG_LEN(4))
        except TimeoutError:
            raise HandoffFailed("handoff connection sent nothing")
        fds = []
        for level, ctype, data in anc:
            if level == _socket.SOL_SOCKET and ctype == _socket.SCM_RIGHTS:
                fds.extend(memoryview(data[:len(data) // 4 * 4]).cast("i"))
        if not fds:
            raise HandoffFailed("handoff message carried no ancillary fd")
        notify_fd = fds[0]
        for extra in fds[1:]:
            os.close(extra)
        chan = NotificationChannel(notify_fd, stop_fd=stop_fd)
        conn.sendall(ACK_BYTE)
    finally:
        conn.close()
    return chan
