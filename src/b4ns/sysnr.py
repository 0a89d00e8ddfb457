"""x86_64 syscall numbers for the socket-related syscalls we care about, the
filter's lists of what it hooks and lets through, and the handoff's ack.

Both sides of the handoff import this module: the target only needs the
filter, not the supervisor."""

import _socket
import termios

AUDIT_ARCH_X86_64 = 0xC000003E

NR = {
    "read": 0,
    "write": 1,
    "close": 3,
    "poll": 7,
    "lseek": 8,
    "ioctl": 16,
    "readv": 19,
    "writev": 20,
    "select": 23,
    "socket": 41,
    "connect": 42,
    "accept": 43,
    "recvfrom": 45,
    "shutdown": 48,
    "bind": 49,
    "listen": 50,
    "getsockname": 51,
    "getpeername": 52,
    "setsockopt": 54,
    "getsockopt": 55,
    "clone": 56,
    "fork": 57,
    "fcntl": 72,
    "sendfile": 40,
    "epoll_wait": 232,
    "epoll_ctl": 233,
    "accept4": 288,
    "dup": 32,
    "dup2": 33,
    "dup3": 292,
    "seccomp": 317,
    "pidfd_open": 434,
    "pidfd_getfd": 438,
}

# The exact set delivered to the supervisor: the syscalls it acts on, from
# the Configuration, Connection and Status classes.  getsockopt, getsockname
# and shutdown would only ever be continued, the fd flags fcntl sets are read
# from the kernel at switch time, and a closed fd's record is dropped when
# its number is next seen holding another socket or when its process exits,
# so like Creation, Derivation and Communication they are left unfiltered for
# performance.
HOOKED_SYSCALLS = (
    "setsockopt", "ioctl",
    "connect", "bind",
    "getpeername",
)

HOOKED_NRS = tuple(NR[n] for n in HOOKED_SYSCALLS)

# ioctls that change nothing a switch must replay: they read state, or set
# a flag (close-on-exec, O_NONBLOCK) that the switch copies from the
# target's fd.  The filter lets them through without a notification.
UNHOOKED_IOCTLS = (termios.TCGETS, termios.TIOCGWINSZ, termios.FIONREAD,
                   termios.FIOCLEX, termios.FIONCLEX, termios.FIONBIO)

# (level, optname) pairs the switch copies from the target's socket instead
# of recording them.  Each reads back exactly as set, setting it has no
# effect beyond its value, any value the kernel reports can be set
# unprivileged, and the order they were set in does not matter.  The filter
# lets them through without a notification.  Not SO_SNDBUF/SO_RCVBUF:
# setting one locks the buffer size and turns autotuning off.
COPIED_OPTIONS = (
    (_socket.SOL_SOCKET, _socket.SO_REUSEADDR),
    (_socket.SOL_SOCKET, _socket.SO_REUSEPORT),
    (_socket.SOL_SOCKET, _socket.SO_KEEPALIVE),
    (_socket.IPPROTO_TCP, _socket.TCP_NODELAY),
    (_socket.IPPROTO_TCP, _socket.TCP_KEEPIDLE),
    (_socket.IPPROTO_TCP, _socket.TCP_KEEPINTVL),
    (_socket.IPPROTO_TCP, _socket.TCP_KEEPCNT),
)

# the supervisor's one-byte answer once it holds the notification fd
ACK_BYTE = b"\x4f"
