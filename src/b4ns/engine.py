"""Switch decision and execution.

On every Connection-class syscall the engine decides between:

- switch:  destination is an external endpoint (outside the sandbox
  networks) or the bind port is published -- create a host socket,
  replay recorded options, bind it to the host mapping (bind only), and
  inject it under the target's fd number;
- rewrite: destination is another sandbox's published port that is already
  switched -- additionally connect the host socket to the host mapping
  here, answer the target's connect with the result and remember the
  original peer for spoofing;
- ignore:  stay on the in-namespace path (always the safe fallback).

``execute_switch`` runs both as one transaction with one rollback path.  The
injected fd gets the copied options (COPIED_OPTIONS), the file status flags
(O_NONBLOCK) and the close-on-exec flag of the fd it replaces, read from the
kernel, and the target holds the only reference to the host socket, so the
peer sees FIN when the target exits.
"""

import _socket
import errno
import fcntl
import functools
import ipaddress
import os
import struct
from _socket import (AF_INET, SO_REUSEADDR, SOCK_NONBLOCK, SOCK_STREAM,
                     SOL_SOCKET, inet_pton)
from collections import namedtuple

from .errors import B4nsError, MemFault, ReplayFailed, TargetGone, log
from .notify import Response
from .registry import (
    SocketRecord,
    SocketStatus,
    copy_options,
    must_keep,
    replay_options,
)
from .sockaddr import (
    SOCKADDR_IN_SIZE,
    pack_sockaddr_in,
    parse_sockaddr,
    socket_inode,
)

# a fresh socket's file flags, close-on-exec aside: a target fd with these
# needs no F_SETFL on the host socket
_FRESH_FLAGS = os.O_RDWR
# unlike getpeername, names the peer of a connecting or closed socket too
SO_PEERNAME = 28


class PublishMapping(namedtuple(
        "PublishMapping", "container_addr container_port host_addr host_port")):
    """(container address:port) -> (host address:port)."""

    __slots__ = ()

    @classmethod
    def parse(cls, text, container_addr="0.0.0.0", host_addr="0.0.0.0"):
        """Parse the 'host_port:container_port' flag form."""
        host_port, _, container_port = text.partition(":")
        if not container_port:
            raise ValueError(f"publish flag needs host:container, got {text!r}")
        return cls(container_addr, int(container_port), host_addr, int(host_port))


class NetEnvironment:
    def __init__(self, container_cidrs=(), published_ports=(),
                 host_loopback_allowed=False):
        # each CIDR an ip_network or its text
        nets = [ipaddress.ip_network(c) if isinstance(c, str) else c
                for c in container_cidrs]
        self.published_ports = list(published_ports)
        self.host_loopback_allowed = host_loopback_allowed
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(f"overlapping container CIDRs: {a}, {b}")
        # (network, mask) as integers: connect matches without ipaddress
        self._v4_nets = [(int(n.network_address), int(n.netmask))
                         for n in nets if n.version == 4]
        seen = set()
        for m in self.published_ports:
            if m.container_port in seen:
                raise ValueError(f"duplicate published container port {m.container_port}")
            seen.add(m.container_port)
            if 0 < m.host_port < unprivileged_port_start():
                raise ValueError(
                    f"host port {m.host_port} not bindable without privileges")

    def _holds(self, ip):
        for net, mask in self._v4_nets:
            if ip & mask == net:
                return True
        return False

    def find_published(self, port, addr=None):
        for m in self.published_ports:
            if m.container_port == port and (addr is None or m.container_addr == addr):
                return m
        return None


@functools.cache
def unprivileged_port_start():
    """The lowest port this network namespace lets a process bind without
    CAP_NET_BIND_SERVICE, as a rootless supervisor must (read once)."""
    with open("/proc/sys/net/ipv4/ip_unprivileged_port_start") as f:
        return int(f.read())


def _ipv4(addr):
    """Dotted quad -> 32-bit integer (OSError if ``addr`` is not one)."""
    return int.from_bytes(inet_pton(AF_INET, addr), "big")


class SwitchDecision(namedtuple("SwitchDecision",
                                "verdict new_dest spoof_peer",
                                defaults=(None, None))):
    """verdict: "switch" | "ignore" | "rewrite"; new_dest: the host
    (addr, port) to connect or bind to; spoof_peer: the original
    (addr, port), for getpeername."""

    __slots__ = ()

    IGNORE = SWITCH = None  # filled below


SwitchDecision.IGNORE = SwitchDecision("ignore")
SwitchDecision.SWITCH = SwitchDecision("switch")


def decide(op, env: NetEnvironment, probes=None, multinode=None):
    """Verdict for one connect or bind attempt (``op``'s kind) on a socket
    the caller found switchable and not marked otherwise.  Uncertainty
    degrades to ignore: the unswitched path is slow but always correct."""
    kind, family, addr, port = op
    if family != AF_INET or addr is None:
        return SwitchDecision.IGNORE

    if kind == "bind":
        m = env.find_published(port)
        if m is not None:
            return SwitchDecision("switch", new_dest=(m.host_addr, m.host_port))
        return SwitchDecision.IGNORE

    ip = _ipv4(addr)
    if ip >> 24 == 127 and not env.host_loopback_allowed:
        # host loopback (127.0.0.0/8) from inside the sandbox is a policy
        # decision, off by default
        return SwitchDecision.IGNORE
    if not env._holds(ip):
        return SwitchDecision.SWITCH

    # in-sandbox destination: only rewrite toward known switched published ports
    m = env.find_published(port, addr)
    if m is not None:
        if probes is not None and probes.reachable(addr, port) is not True:
            return SwitchDecision.IGNORE
        return SwitchDecision(
            "rewrite", new_dest=(m.host_addr, m.host_port), spoof_peer=(addr, port))
    if multinode is not None:
        remote = multinode.resolve(addr, port)
        if remote is not None:
            return SwitchDecision(
                "rewrite", new_dest=remote, spoof_peer=(addr, port))
    return SwitchDecision.IGNORE


# sizeof(struct sockaddr_storage): the kernel rejects a longer addrlen
_MAX_ADDRLEN = 128


def parse_connection_args(mem, event):
    """Decode the sockaddr of a connect/bind event from target memory.

    Returns (family, addr, port); raises MemFault/TargetGone.
    """
    # addrlen is an int to the kernel, as to the filter: the upper half of
    # the register is ignored, and move_addr_to_kernel rejects a length
    # that is negative or longer than a sockaddr_storage
    addr_ptr, addrlen = event.args[1], event.args[2] & 0xFFFFFFFF
    if addr_ptr == 0 or not 0 < addrlen <= _MAX_ADDRLEN:
        raise MemFault("bad sockaddr pointer or length")
    return parse_sockaddr(mem.read(event.pid, addr_ptr, addrlen))


def execute_switch(event, rec, decision, chan, mem, registry, dup):
    """Carry out a switch/rewrite verdict for a connect or bind as one
    fail-closed transaction: replay the options recorded in ``rec`` (None
    for a socket without a record) onto a host socket, copy the copied ones
    from ``dup`` (the caller's duplicate of the target's fd, which the
    caller closes), bind it to the host endpoint (bind) or connect it to
    the host endpoint without blocking (rewrite), copy the target fd's
    flags onto the host socket where they differ from its own and inject it
    under the target's fd number.  Target memory is only read.  The host
    socket is closed on every path before this returns.

    Returns the response for a switch: success for a bind (the injected
    socket is already bound and would refuse the original bind), continue
    for a plain connect, and for a rewrite the result of its connect; None
    on rollback, for which the original syscall continues unchanged.
    """
    host_sock = host_peer = None
    is_bind = decision.verdict == "switch" and decision.new_dest is not None
    rewrite = decision.verdict == "rewrite"
    # a rewrite's own connect must not block the supervisor
    own_flags = _FRESH_FLAGS | os.O_NONBLOCK if rewrite else _FRESH_FLAGS
    try:
        host_sock = _socket.socket(AF_INET, SOCK_STREAM | (
            SOCK_NONBLOCK if rewrite else 0))
        replay_options(rec, host_sock)
        copy_options(dup.socket(), host_sock)
        if is_bind:
            host_sock.setsockopt(SOL_SOCKET, SO_REUSEADDR, 1)
            host_sock.bind(decision.new_dest)
        flags = mem.fd_flags(event.pid, event.fd_arg)
        response = Response.success(0) if is_bind else Response.cont()
        if rewrite:
            # once connecting, the continued connect ignores the target's
            # sockaddr and waits out the handshake as the kernel would,
            # timeouts and signals included; anything else is answered
            # here (0: connected, or deferred to the first send)
            err = host_sock.connect_ex(decision.new_dest)
            if err != errno.EINPROGRESS or flags & os.O_NONBLOCK:
                response = (Response.failure(err) if err
                            else Response.success(0))
            # None if the connect failed at once: nothing to spoof
            host_peer = _peer_name(host_sock)
        if flags & ~os.O_CLOEXEC != own_flags:
            fcntl.fcntl(host_sock.fileno(), fcntl.F_SETFL, flags)
        if rec is None and decision.spoof_peer is not None:
            rec = SocketRecord(event.pid, event.fd_arg, SocketStatus.TRACKABLE)
        # only a record the registry keeps needs the injected socket's inode
        inode = (socket_inode(host_sock.fileno()) if rec is not None
                 and must_keep(rec, decision.spoof_peer) else None)
        # nothing written, no validate: ADDFD itself fails with ENOENT once
        # the notification is no longer pending (seccomp_unotify(2))
        chan.inject_fd(event, host_sock.fileno(), event.fd_arg,
                       cloexec=bool(flags & os.O_CLOEXEC))
        if rec is not None:
            registry.mark_switched(rec, spoofed_peer=decision.spoof_peer,
                                   inode=inode, host_peer=host_peer)
        return response
    except ReplayFailed as e:
        log(__name__).warning(
            "option replay failed on (%d,%d): %s; staying unswitched",
            event.pid, event.fd_arg, e)
        if rec is not None:
            registry.mark_non_switchable(rec)
        return None
    except (OSError, B4nsError) as e:
        log(__name__).info("switch of (%d,%d) rolled back: %s", event.pid,
                           event.fd_arg, e)
        return None
    finally:
        if host_sock is not None:
            host_sock.close()


def _peer_name(sock):
    """(addr, port) of the peer the kernel keeps for ``sock`` from its
    connect on, until a disconnect (connect with AF_UNSPEC) clears it or
    another connect replaces it; None while there is none."""
    try:
        return parse_sockaddr(sock.getsockopt(
            SOL_SOCKET, SO_PEERNAME, SOCKADDR_IN_SIZE))[1:]
    except OSError:
        return None


def handle_status(event, rec, dup, mem):
    """The response to a getpeername, from one getpeername on ``dup`` (a
    held duplicate of the fd): spoofed while it names the host peer that
    the rewrite ``rec`` chose, the arguments handled as the kernel's
    move_addr_to_user does; where it fails, its errno, the kernel's answer
    now (continued, the call could name the host peer of a handshake done
    meanwhile); else continued.  A response to a notification gone since
    fails with ENOENT, so nothing validates after the writes."""
    try:
        peer = dup.socket().getpeername()
    except OSError as e:
        return Response.failure(e.errno)
    if rec is None or peer != rec.host_peer:
        return Response.cont()
    addr_ptr, addrlen_ptr = event.args[1], event.args[2]
    try:
        (socklen,) = struct.unpack("<i", mem.read(event.pid, addrlen_ptr, 4))
        if socklen < 0:
            return Response.failure(errno.EINVAL)
        # the full length is reported even when the copy is truncated
        mem.write(event.pid, addrlen_ptr, struct.pack("<i", SOCKADDR_IN_SIZE))
        if socklen:
            raw = pack_sockaddr_in(*rec.spoofed_peer)
            mem.write(event.pid, addr_ptr, raw[:socklen])
    except (MemFault, TargetGone):
        return Response.failure(errno.EFAULT)
    return Response.success(0)
