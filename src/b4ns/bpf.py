"""Classic-BPF seccomp filter construction and installation.

Only the target (sandboxed) side uses this module: it installs a filter
that routes the hooked syscall set to user-space notification and returns
the listener fd, which the runtime shim then hands to the supervisor.
"""

import ctypes
import os

from .sockaddr import SOCKADDR_IN_SIZE
from .sysnr import (AUDIT_ARCH_X86_64, COPIED_OPTIONS, HOOKED_NRS, NR,
                    UNHOOKED_IOCTLS)

_libc = ctypes.CDLL(None, use_errno=True)

SYS_seccomp = 317
SECCOMP_SET_MODE_FILTER = 1
SECCOMP_FILTER_FLAG_NEW_LISTENER = 1 << 3
SECCOMP_RET_ALLOW = 0x7FFF0000
SECCOMP_RET_USER_NOTIF = 0x7FC00000
PR_SET_NO_NEW_PRIVS = 38

BPF_LD = 0x00
BPF_W = 0x00
BPF_ABS = 0x20
BPF_JMP = 0x05
BPF_JEQ = 0x10
BPF_JGE = 0x30
BPF_K = 0x00
BPF_RET = 0x06

_OFF_NR = 0     # struct seccomp_data.nr
_OFF_ARCH = 4   # struct seccomp_data.arch
_OFF_ARG1_LO = 24  # low word of struct seccomp_data.args[1] (little-endian)
_OFF_ARG2_LO = 32  # low word of struct seccomp_data.args[2]


class SockFilter(ctypes.Structure):
    _fields_ = [
        ("code", ctypes.c_uint16),
        ("jt", ctypes.c_uint8),
        ("jf", ctypes.c_uint8),
        ("k", ctypes.c_uint32),
    ]


class SockFprog(ctypes.Structure):
    _fields_ = [
        ("len", ctypes.c_uint16),
        ("filter", ctypes.POINTER(SockFilter)),
    ]


# syscall number -> (offsets of the argument words checked, the value
# tuples allowed): a listed tuple is allowed, any other notifies.  The kernel
# takes ioctl's request and setsockopt's level and optname as ints, so the
# low words decide exactly as it does.  Only an ioctl outside
# UNHOOKED_IOCTLS or an option outside COPIED_OPTIONS tells the supervisor
# anything.
_ALLOWED_ARGS = {
    NR["ioctl"]: ((_OFF_ARG1_LO,), tuple((req,) for req in UNHOOKED_IOCTLS)),
    NR["setsockopt"]: ((_OFF_ARG1_LO, _OFF_ARG2_LO), COPIED_OPTIONS),
}

# syscall number -> (offset of an argument word, the least value that
# notifies): a smaller one is allowed.  connect's and bind's addrlen is an
# int to the kernel, and inet_bind and tcp_v4_connect reject one below
# sizeof(struct sockaddr_in), so such a call can never be switched.  The
# unsigned compare lets a negative addrlen through to the supervisor,
# which continues it
_LEAST_ARGS = {NR[name]: (_OFF_ARG2_LO, SOCKADDR_IN_SIZE)
               for name in ("connect", "bind")}

_LD_ABS = BPF_LD | BPF_W | BPF_ABS
_JEQ_K = BPF_JMP | BPF_JEQ | BPF_K
_JGE_K = BPF_JMP | BPF_JGE | BPF_K


def build_notify_filter(hooked_nrs=HOOKED_NRS):
    """Filter program: hooked syscalls -> USER_NOTIF, everything else ALLOW;
    a syscall in _ALLOWED_ARGS is allowed for a listed argument tuple, and
    one in _LEAST_ARGS for an argument below its least value.

    Wrong-arch syscalls are allowed rather than killed: the supervisor is a
    performance aid, not a security boundary, and must never break the target.
    Every jump is forward, as the kernel's verifier requires, and at most
    255 instructions long, or ValueError.
    """
    nrs = list(hooked_nrs)
    # (code, k, jt, jf) with jump targets as labels, resolved at the end: a
    # verdict labels its final RET, a tuple (nr, *values) the block checking
    # the next argument word of nr after those values
    prog = [
        (_LD_ABS, _OFF_ARCH, None, None),
        (_JEQ_K, AUDIT_ARCH_X86_64, None, SECCOMP_RET_ALLOW),
        (_LD_ABS, _OFF_NR, None, None),
    ]
    prog += [(_JEQ_K, nr, (nr,) if nr in _ALLOWED_ARGS or nr in _LEAST_ARGS
              else SECCOMP_RET_USER_NOTIF, None) for nr in nrs]
    prog.append((BPF_RET, SECCOMP_RET_ALLOW, None, None))
    labels = {}
    for nr in nrs:
        if nr in _ALLOWED_ARGS:
            _append_arg_checks(prog, labels, (nr,), *_ALLOWED_ARGS[nr])
        elif nr in _LEAST_ARGS:
            off, least = _LEAST_ARGS[nr]
            labels[(nr,)] = len(prog)
            prog += [(_LD_ABS, off, None, None),
                     (_JGE_K, least, SECCOMP_RET_USER_NOTIF,
                      SECCOMP_RET_ALLOW)]
    for verdict in (SECCOMP_RET_ALLOW, SECCOMP_RET_USER_NOTIF):
        labels[verdict] = len(prog)
        prog.append((BPF_RET, verdict, None, None))

    def offset(pc, label):
        off = 0 if label is None else labels[label] - pc - 1
        if off > 255:  # jt and jf are one byte each
            raise ValueError(f"jump of {off} at instruction {pc} exceeds 255")
        return off

    return [SockFilter(code, offset(pc, jt), offset(pc, jf), k)
            for pc, (code, k, jt, jf) in enumerate(prog)]


def _append_arg_checks(prog, labels, label, offsets, allowed):
    """Append the block ``label``: load the word at ``offsets[0]`` and jump
    on each first value of ``allowed`` to ALLOW, or, while words remain, to
    the block checking the rest of its tuples; any other value notifies."""
    labels[label] = len(prog)
    prog.append((_LD_ABS, offsets[0], None, None))
    firsts = list(dict.fromkeys(t[0] for t in allowed))
    last = len(offsets) == 1
    prog += [(_JEQ_K, v, SECCOMP_RET_ALLOW if last else label + (v,), None)
             for v in firsts]
    prog.append((BPF_RET, SECCOMP_RET_USER_NOTIF, None, None))
    if not last:
        for v in firsts:
            _append_arg_checks(prog, labels, label + (v,), offsets[1:],
                               [t[1:] for t in allowed if t[0] == v])


def install_notify_filter(hooked_nrs=HOOKED_NRS):
    """Install the notification filter on the calling process.

    Returns the new listener fd.  Requires no privileges beyond
    PR_SET_NO_NEW_PRIVS (or CAP_SYS_ADMIN).
    """
    insns = build_notify_filter(hooked_nrs)
    arr = (SockFilter * len(insns))(*insns)
    prog = SockFprog(len(insns), arr)
    if _libc.prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(NO_NEW_PRIVS)")
    fd = _libc.syscall(
        SYS_seccomp,
        SECCOMP_SET_MODE_FILTER,
        SECCOMP_FILTER_FLAG_NEW_LISTENER,
        ctypes.byref(prog),
    )
    if fd < 0:
        raise OSError(ctypes.get_errno(), "seccomp(SET_MODE_FILTER)")
    # no ioctl on the fd here: ioctl is already being filtered and nobody
    # is consuming notifications yet
    return fd
