"""Per-container supervisor: the event loop joining the notification
channel, socket registry, switch engine, probes and multi-node cache."""

import errno
import threading

from . import engine
from .errors import (
    ChannelClosed,
    FdNotAvailable,
    MemFault,
    StaleCookie,
    TargetGone,
    log,
)
from .notify import Response
from .registry import (
    OptionEvent,
    SocketRegistry,
    SocketStatus,
    classify_syscall,
    injected,
    switchable,
    SyscallClass,
    TCP_CLOSE,
    tcp_state,
)
from .sysnr import AUDIT_ARCH_X86_64, HOOKED_SYSCALLS, NR, UNHOOKED_IOCTLS
from .targetmem import MemService

MAX_OPTVAL = 256
MAX_AUDIT = 100_000


class Counters:
    def __init__(self):
        self.events_handled = 0
        self.sockets_switched = 0
        self.switches_rolled_back = 0

    def as_dict(self):
        return {
            "events_handled": self.events_handled,
            "sockets_switched": self.sockets_switched,
            "switches_rolled_back": self.switches_rolled_back,
        }


class SupervisorInstance:
    """Single-threaded event loop over one notification channel.

    The channel must already be attached; ``run`` blocks until the target
    tree exits or the channel's stop fd turns readable.  A process's records
    and memory handles go when it exits: the channel's poll watches the
    pidfd the memory service holds for it.  ``audit`` records (cookie,
    syscall, action) per event so tests can assert exactly-once response
    delivery and filter exactness.
    """

    def __init__(self, chan, env, probes=None, multinode=None, mem=None,
                 keep_audit=False):
        self.chan = chan
        self.env = env
        self.probes = probes
        self.multinode = multinode
        self.registry = SocketRegistry()
        self.mem = mem or MemService(chan, on_exit=self.registry.evict_pid)
        self.counters = Counters()
        self.audit = [] if keep_audit else None
        by_class = {
            SyscallClass.CONFIGURATION: self._on_configuration,
            SyscallClass.CONNECTION: self._on_connection,
            SyscallClass.STATUS: self._on_status,
        }
        # x86_64 syscall number -> (name, handler), for the hooked set only
        self._handlers = {NR[name]: (name, by_class[classify_syscall(name)])
                          for name in HOOKED_SYSCALLS}
        self._thread = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(target=self.run, daemon=True,
                                        name="b4ns-supervisor")
        self._thread.start()

    def join(self, timeout=None):
        if self._thread is not None:
            self._thread.join(timeout)

    def run(self):
        try:
            while True:
                try:
                    event = self.chan.next_event()
                except ChannelClosed:
                    break
                self.counters.events_handled += 1
                try:
                    self._dispatch(event)
                except (StaleCookie, TargetGone) as e:
                    log(__name__).warning(
                        "notification gone, not answered: %s", e)
                except Exception:
                    log(__name__).exception(
                        "handler error; continuing target syscall")
                    try:
                        self.chan.respond(event, Response.cont())
                    except Exception:
                        pass
        finally:
            self._teardown()

    def _teardown(self):
        self.mem.close()
        self.chan.close()

    # -- event handling ------------------------------------------------------

    def _audit(self, event, name, action):
        if self.audit is not None and len(self.audit) < MAX_AUDIT:
            self.audit.append((event.cookie, name, action))

    def _dispatch(self, event):
        """Answer ``event``: its handler returns (action, response), and
        this audits it and sends the one response."""
        entry = (self._handlers.get(event.syscall_nr)
                 if event.arch == AUDIT_ARCH_X86_64 else None)
        if entry is None:
            # a foreign arch or an unhooked syscall: only a filter other than
            # ours (an older runtime's) sends these, and a foreign arch's
            # numbers name other syscalls than the x86_64 table's
            name = f"nr{event.syscall_nr}"
            log(__name__).debug("unexpected notification: arch %#x %s",
                                event.arch, name)
            action, response = "continue", Response.cont()
        else:
            name, handler = entry
            # records and memory are per process: handlers get the process's id
            tgid = self.mem.tgid(event.pid)
            action, response = handler(
                event if tgid == event.pid else event._replace(pid=tgid), name)
        self._audit(event, name, action)
        self.chan.respond(event, response)

    def _on_status(self, event, name):
        # getpeername is spoofed only on a rewritten socket, whose record
        # holds its host peer: no other fd is duplicated here
        rec = self.registry.get(event.pid, event.fd_arg)
        if rec is None or rec.host_peer is None:
            return "status", Response.cont()
        try:
            dup = self.mem.acquire_fd(event.pid, event.fd_arg)
        except FdNotAvailable:
            return "status", Response.cont()
        try:
            rec = self.registry.lookup(event.pid, event.fd_arg, dup)
            return "status", engine.handle_status(event, rec, dup, self.mem)
        finally:
            dup.close()

    def _on_configuration(self, event, name):
        """Record replayable options; the syscall always continues so the
        in-namespace socket stays correctly configured for the unswitched
        path (and, post-switch, the continued call configures the host
        socket directly)."""
        rec = self.registry.ensure_registered(event.pid, event.fd_arg, self.mem)
        if rec is not None and rec.status is SocketStatus.TRACKABLE:
            try:
                self._record_configuration(event, name, rec)
            except (MemFault, TargetGone) as e:
                log(__name__).debug("option read failed on (%d,%d): %s",
                                    event.pid, event.fd_arg, e)
        return "continue", Response.cont()

    def _record_configuration(self, event, name, rec):
        if name == "setsockopt":
            level, optname = event.args[1], event.args[2]
            optval_ptr, optlen = event.args[3], event.args[4]
            if optlen > MAX_OPTVAL:
                self.registry.mark_non_switchable(rec)
                return
            optval = (self.mem.read(event.pid, optval_ptr, optlen)
                      if optlen else b"")
            self.registry.record_option(
                rec, OptionEvent("setsockopt", (level, optname, optval)))
        elif event.args[1] & 0xFFFFFFFF not in UNHOOKED_IOCTLS:
            # an ioctl (its request is an unsigned int to the kernel, as to
            # the filter) that cannot be replayed: this socket can no longer
            # be switched faithfully.  An unhooked one arrives only through a
            # filter an older runtime installed, and is harmless
            self.registry.mark_non_switchable(rec)

    def _on_connection(self, event, name):
        """Switch a connect/bind, or let it continue unswitched.  The live
        socket decides; a record, if the fd has one, only adds what it
        cannot tell.  None is created here: a fresh socket is switched with
        ``rec`` None, and gets a record only if the switch leaves one to
        keep.  One duplicate serves the identity check, the probe and the
        option copy; it is closed before the response.  A connect or bind
        on a host socket injected earlier, and in TCP_CLOSE again, goes on
        only where policy would switch it: from the host's network it would
        reach, or listen where, the sandbox cannot."""
        try:
            dup = self.mem.acquire_fd(event.pid, event.fd_arg)
        except FdNotAvailable:  # the fd is not open, or its process exited
            return "continue", Response.cont()
        try:
            rec = self.registry.lookup(event.pid, event.fd_arg, dup)
            if tcp_state(dup) != TCP_CLOSE:
                # not AF_INET TCP, or connected, connecting or listening
                return "continue", Response.cont()
            fresh = ((rec is None or rec.status is SocketStatus.TRACKABLE)
                     and switchable(dup))
            host = not fresh and injected(dup, event.pid, self.mem)
            if not fresh and not host:
                return "continue", Response.cont()
            try:
                family, addr, port = engine.parse_connection_args(
                    self.mem, event)
            except (MemFault, TargetGone):
                return "continue", Response.cont()
            # the sockaddr just read feeds a security decision: revalidate
            if not self.chan.validate(event):
                return "stale", Response.cont()
            decision = engine.decide(
                (name, family, addr, port), self.env,
                probes=self.probes, multinode=self.multinode)
            if decision.verdict == "ignore" and fresh:
                # a host socket never bound, as a rewrite whose connect
                # failed at once leaves it
                host = injected(dup, event.pid, self.mem)
            if host:
                if decision.verdict == "switch":
                    return "continue", Response.cont()
                return "denied", Response.failure(errno.EPERM)
            if decision.verdict == "ignore":
                return "ignore", Response.cont()
            response = engine.execute_switch(event, rec, decision, self.chan,
                                             self.mem, self.registry, dup)
        finally:
            dup.close()
        if response is None:
            self.counters.switches_rolled_back += 1
            return "rolled_back", Response.cont()
        self.counters.sockets_switched += 1
        return decision.verdict, response
