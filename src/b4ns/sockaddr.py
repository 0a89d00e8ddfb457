"""sockaddr packing/parsing, and the inode of a socket fd."""

import _socket
import os
import stat
import struct

SOCKADDR_IN_SIZE = 16


def pack_sockaddr_in(addr, port):
    """AF_INET sockaddr bytes, 16 bytes with zero padding."""
    return struct.pack("<H", _socket.AF_INET) + struct.pack(
        "!H4s", port, _socket.inet_aton(addr)) + b"\x00" * 8


def parse_sockaddr(raw):
    """Decode a sockaddr blob.

    Returns (family, addr, port); addr/port are None for families we do not
    decode (only AF_INET and AF_INET6 carry them here), and for an AF_INET
    blob shorter than a sockaddr_in, which connect and bind reject.
    """
    if len(raw) < 2:
        return None, None, None
    (family,) = struct.unpack_from("<H", raw)
    if family == _socket.AF_INET and len(raw) >= SOCKADDR_IN_SIZE:
        port, packed = struct.unpack_from("!H4s", raw, 2)
        return family, _socket.inet_ntoa(packed), port
    if family == _socket.AF_INET6 and len(raw) >= 24:
        port = struct.unpack_from("!H", raw, 2)[0]
        addr = _socket.inet_ntop(_socket.AF_INET6, raw[8:24])
        return family, addr, port
    return family, None, None


def socket_inode(fd):
    """Inode of the socket a raw fd refers to, None if it is not a socket."""
    st = os.fstat(fd)
    return st.st_ino if stat.S_ISSOCK(st.st_mode) else None
