"""sockaddr packing/parsing and raw-fd socket interrogation helpers."""

import ctypes
import errno
import os
import socket
import stat
import struct

_libc = ctypes.CDLL(None, use_errno=True)

SOCKADDR_IN_SIZE = 16
SO_TYPE = 3


def pack_sockaddr_in(addr, port):
    """AF_INET sockaddr bytes, 16 bytes with zero padding."""
    return struct.pack("<H", socket.AF_INET) + struct.pack(
        "!H4s", port, socket.inet_aton(addr)) + b"\x00" * 8


def parse_sockaddr(raw):
    """Decode a sockaddr blob.

    Returns (family, addr, port); addr/port are None for families we do not
    decode (only AF_INET and AF_INET6 carry them here).
    """
    if len(raw) < 2:
        return None, None, None
    (family,) = struct.unpack_from("<H", raw)
    if family == socket.AF_INET and len(raw) >= 8:
        port, packed = struct.unpack_from("!H4s", raw, 2)
        return family, socket.inet_ntoa(packed), port
    if family == socket.AF_INET6 and len(raw) >= 24:
        port = struct.unpack_from("!H", raw, 2)[0]
        addr = socket.inet_ntop(socket.AF_INET6, raw[8:24])
        return family, addr, port
    return family, None, None


def raw_getsockopt_int(fd, level, optname):
    val = ctypes.c_int(0)
    length = ctypes.c_uint(4)
    r = _libc.getsockopt(fd, level, optname, ctypes.byref(val),
                         ctypes.byref(length))
    if r != 0:
        raise OSError(ctypes.get_errno(), "getsockopt")
    return val.value


def raw_getpeername(fd):
    """Peer sockaddr bytes of a raw fd, or None if not connected."""
    buf = ctypes.create_string_buffer(128)
    length = ctypes.c_uint(128)
    r = _libc.getpeername(fd, buf, ctypes.byref(length))
    if r != 0:
        e = ctypes.get_errno()
        if e in (errno.ENOTCONN, errno.EINVAL):
            return None
        raise OSError(e, "getpeername")
    return buf.raw[: length.value]


def probe_socket_kind(fd):
    """(is_socket, type, connected) for a raw fd."""
    try:
        sotype = raw_getsockopt_int(fd, socket.SOL_SOCKET, SO_TYPE)
    except OSError:
        return False, None, False
    connected = raw_getpeername(fd) is not None
    return True, sotype, connected


def socket_inode(fd):
    """Inode of the socket a raw fd refers to, None if it is not a socket."""
    st = os.fstat(fd)
    return st.st_ino if stat.S_ISSOCK(st.st_mode) else None
