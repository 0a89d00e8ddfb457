"""Target memory and fd acquisition against real cooperative children."""

import collections
import os
import signal
import struct
import subprocess
import sys

import pytest

from b4ns.errors import FdNotAvailable, MemFault, TargetGone
from b4ns.notify import NotificationChannel
from b4ns.registry import TCP_CLOSE, switchable, tcp_state
from b4ns.targetmem import (
    MAX_RW,
    MemService,
    open_mem,
)

CHILD_SRC = r"""
import ctypes, socket, sys
buf = ctypes.create_string_buffer(b"hello-target-mem", 64)
srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
print(ctypes.addressof(buf))
print(srv.fileno())
sys.stdout.flush()
sys.stdin.readline()
print(bytes(buf.value).decode())
sys.stdout.flush()
"""


# a child with a PROT_READ private anonymous page and a PROT_READ shared
# file page: prints their addresses, then, after a line on stdin, what
# each begins with
READ_ONLY_CHILD_SRC = r"""
import ctypes, mmap, sys, tempfile
libc = ctypes.CDLL(None, use_errno=True)
libc.mmap.restype = ctypes.c_void_p
libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                      ctypes.c_int, ctypes.c_int, ctypes.c_long)
f = tempfile.TemporaryFile()
f.write(b"x" * 4096)
f.flush()
private = libc.mmap(None, 4096, mmap.PROT_READ,
                    mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS, -1, 0)
shared = libc.mmap(None, 4096, mmap.PROT_READ, mmap.MAP_SHARED,
                   f.fileno(), 0)
print(private, shared, flush=True)
sys.stdin.readline()
print(ctypes.string_at(private, 4).decode(),
      ctypes.string_at(shared, 4).decode(), flush=True)
"""


THREADED_CHILD_SRC = r"""
import sys, threading
def run():
    print(threading.get_native_id(), flush=True)
    sys.stdin.readline()
t = threading.Thread(target=run)
t.start()
t.join()
print("joined", flush=True)
sys.stdin.readline()
"""


def held_links():
    """What each fd of this process names, counted."""
    links = collections.Counter()
    for name in os.listdir("/proc/self/fd"):
        try:
            links[os.readlink(f"/proc/self/fd/{name}")] += 1
        except FileNotFoundError:  # the listing's own fd, closed by now
            pass
    return links


@pytest.fixture
def threaded_child():
    """A child parked with a second thread; yields (proc, the thread's id).
    A line on its stdin ends the thread, a second one the process."""
    proc = subprocess.Popen([sys.executable, "-c", THREADED_CHILD_SRC],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    yield proc, int(proc.stdout.readline())
    proc.kill()
    proc.communicate()  # and close the pipes


@pytest.fixture
def child():
    proc = subprocess.Popen([sys.executable, "-c", CHILD_SRC],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    addr = int(proc.stdout.readline())
    sock_fd = int(proc.stdout.readline())
    yield proc, addr, sock_fd
    if proc.poll() is None:
        proc.kill()
    proc.communicate()  # and close the pipes


class TestMemHandle:
    def test_read_roundtrip(self, child):
        proc, addr, _ = child
        h = open_mem(proc.pid)
        try:
            assert h.read(addr, 16) == b"hello-target-mem"
        finally:
            h.close()

    def test_write_is_visible_to_target(self, child):
        proc, addr, _ = child
        h = open_mem(proc.pid)
        try:
            h.write(addr, b"WRITTEN-BY-TESTS")
        finally:
            h.close()
        proc.stdin.write("\n")
        proc.stdin.flush()
        assert proc.stdout.readline().strip() == "WRITTEN-BY-TESTS"

    def test_read_only_mappings(self):
        """A write through the memory file forces its way into read-only
        private memory (README Limitations); a read-only shared file
        mapping refuses it with EIO, a MemFault."""
        proc = subprocess.Popen(
            [sys.executable, "-c", READ_ONLY_CHILD_SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            private, shared = map(int, proc.stdout.readline().split())
            h = open_mem(proc.pid)
            try:
                h.write(private, b"ABCD")
                with pytest.raises(MemFault):
                    h.write(shared, b"ABCD")
            finally:
                h.close()
            proc.stdin.write("\n")
            proc.stdin.flush()
            assert proc.stdout.readline().split() == ["ABCD", "xxxx"]
        finally:
            proc.kill()
            proc.communicate()  # and close the pipes

    def test_null_address_faults(self, child):
        proc, _, _ = child
        h = open_mem(proc.pid)
        try:
            with pytest.raises(MemFault):
                h.read(0, 4)
            with pytest.raises(MemFault):
                h.write(0, b"x")
        finally:
            h.close()

    def test_unmapped_address_faults(self, child):
        proc, _, _ = child
        h = open_mem(proc.pid)
        try:
            with pytest.raises(MemFault):
                h.read(0x10, 4)
        finally:
            h.close()

    def test_oversized_transfer_rejected(self, child):
        proc, addr, _ = child
        h = open_mem(proc.pid)
        try:
            with pytest.raises(ValueError):
                h.read(addr, MAX_RW + 1)
            with pytest.raises(ValueError):
                h.write(addr, b"x" * (MAX_RW + 1))
        finally:
            h.close()

    def test_dead_target(self, child):
        proc, addr, _ = child
        h = open_mem(proc.pid)
        proc.kill()
        proc.wait()
        try:
            with pytest.raises((TargetGone, MemFault)):
                h.read(addr, 4)
        finally:
            h.close()

    def test_open_of_dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        with pytest.raises(TargetGone):
            open_mem(proc.pid)


def acquire_fd(pid, fd):
    svc = MemService()
    try:
        return svc.acquire_fd(pid, fd)
    finally:
        svc.close()  # its pidfd; the duplicate stays open


class TestAcquireFd:
    def test_socket_fd_duplicates_and_probes(self, child):
        proc, _, sock_fd = child
        dup = acquire_fd(proc.pid, sock_fd)
        try:
            assert not os.get_inheritable(dup.local_fd)
            # an unconnected TCP socket: AF_INET, TCP_CLOSE and unbound
            assert tcp_state(dup) == TCP_CLOSE and switchable(dup)
        finally:
            dup.close()

    def test_nonexistent_fd(self, child):
        proc, _, _ = child
        with pytest.raises(FdNotAvailable):
            acquire_fd(proc.pid, 777)

    def test_dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        with pytest.raises(FdNotAvailable):
            acquire_fd(proc.pid, 0)


class TestMemService:
    def test_handles_are_cached_per_pid(self, child):
        proc, addr, _ = child
        svc = MemService()
        try:
            assert svc.read(proc.pid, addr, 5) == b"hello"
            h1 = svc.handle(proc.pid)
            h2 = svc.handle(proc.pid)
            assert h1 is h2
        finally:
            svc.close()

    def test_denied_memory_open_is_a_fault(self, child, monkeypatch):
        # a supervisor that may duplicate the target's fds but not open its
        # 0600 /proc/<pid>/mem leaves the call unswitched, with no helper
        proc, addr, _ = child
        real_open = os.open

        def deny_mem(path, *args, **kwargs):
            if str(path).endswith("/mem"):
                raise PermissionError(13, "Permission denied", path)
            return real_open(path, *args, **kwargs)

        def no_fork():
            raise AssertionError("forked a helper")

        monkeypatch.setattr(os, "open", deny_mem)
        monkeypatch.setattr(os, "fork", no_fork)
        svc = MemService()
        try:
            with pytest.raises(MemFault):
                svc.read(proc.pid, addr, 5)
        finally:
            svc.close()

    def test_exit_forgets_the_process(self, child):
        proc, addr, sock_fd = child
        r, w = os.pipe()
        chan = NotificationChannel(r)
        exited = []
        svc = MemService(chan, on_exit=exited.append)
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            svc.read(proc.pid, addr, 4)
            svc.acquire_fd(proc.pid, sock_fd).close()
            assert list(svc.pidfd_cache) == [proc.pid]
            proc.kill()
            proc.wait()
            with pytest.raises(TimeoutError):
                chan.next_event(timeout=0.5)
            assert exited == [proc.pid]
            # the pidfd and the memory handle are closed
            assert svc.pidfd_cache == {}
            assert len(os.listdir("/proc/self/fd")) == fds_before
        finally:
            svc.close()
            chan.close()
            os.close(w)

    def test_thread_exit_drops_its_pidfd(self, threaded_child):
        proc, tid = threaded_child
        r, w = os.pipe()
        chan = NotificationChannel(r)
        svc = MemService(chan)
        try:
            leader = svc.process(proc.pid)
            fds_before = len(os.listdir("/proc/self/fd"))
            assert svc.process(tid) is leader
            assert svc.tgid(tid) == proc.pid
            # the thread's own pidfd, watched in the channel's poll
            assert len(os.listdir("/proc/self/fd")) == fds_before + 1
            proc.stdin.write("\n")
            proc.stdin.flush()
            assert proc.stdout.readline() == "joined\n"
            with pytest.raises(TimeoutError):
                chan.next_event(timeout=0.3)
            assert len(os.listdir("/proc/self/fd")) == fds_before
            assert list(svc.pidfd_cache) == [proc.pid]  # the process lives
            with pytest.raises(TargetGone):
                svc.process(tid)  # the id is no longer mapped
        finally:
            svc.close()
            chan.close()
            os.close(w)

    def test_process_exit_drops_its_threads(self, threaded_child):
        proc, tid = threaded_child
        r, w = os.pipe()
        chan = NotificationChannel(r)
        exited = []
        svc = MemService(chan, on_exit=exited.append)
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            assert svc.tgid(tid) == proc.pid
            # the process's pidfd and the thread's
            assert len(os.listdir("/proc/self/fd")) == fds_before + 2
            proc.kill()
            proc.wait()
            with pytest.raises(TimeoutError):
                chan.next_event(timeout=0.3)
            assert exited == [proc.pid]
            assert svc.pidfd_cache == {}
            assert len(os.listdir("/proc/self/fd")) == fds_before
        finally:
            svc.close()
            chan.close()
            os.close(w)

    def test_bad_pointer_still_faults(self, child):
        proc, _, _ = child
        svc = MemService()
        try:
            with pytest.raises(MemFault):
                svc.read(proc.pid, 0x1000, 4)  # never mapped
        finally:
            svc.close()

    def test_fd_flags_and_inode_by_path(self, child):
        proc, _, sock_fd = child
        svc = MemService()
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            link = os.readlink(f"/proc/{proc.pid}/fd/{sock_fd}")
            assert svc.fd_inode(proc.pid, sock_fd) == int(link[8:-1])
            assert svc.fd_inode(proc.pid, 777) is None  # not open
            flags = svc.fd_flags(proc.pid, sock_fd)
            assert flags & os.O_ACCMODE == os.O_RDWR
            with pytest.raises(TargetGone):
                svc.fd_flags(proc.pid, 777)
            # the pidfd alone: the failed read held no fdinfo file, and
            # the identity is read by path
            svc.fd_inode(proc.pid, sock_fd)
            assert len(os.listdir("/proc/self/fd")) == fds_before + 1
        finally:
            svc.close()
        assert len(os.listdir("/proc/self/fd")) == fds_before

    def test_a_process_holds_three_fds(self, child):
        proc, addr, sock_fd = child
        svc = MemService()
        before = held_links()
        try:
            svc.read(proc.pid, addr, 4)
            svc.fd_flags(proc.pid, sock_fd)
            svc.fd_inode(proc.pid, sock_fd)
            # the pidfd, the memory handle and the fdinfo file: no
            # /proc directory
            assert held_links() - before == collections.Counter([
                "anon_inode:[pidfd]", f"/proc/{proc.pid}/mem",
                f"/proc/{proc.pid}/fdinfo/{sock_fd}"])
        finally:
            svc.close()
        assert held_links() == before

    def test_one_fdinfo_handle_per_process(self, child, monkeypatch):
        proc, _, sock_fd = child
        svc = MemService()
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            flags = svc.fd_flags(proc.pid, sock_fd)
            # a pidfd and the held fdinfo file
            assert len(os.listdir("/proc/self/fd")) == fds_before + 2
            opened = []
            real_open = os.open

            def counting_open(*args, **kwargs):
                opened.append(args[0])
                return real_open(*args, **kwargs)

            monkeypatch.setattr(os, "open", counting_open)
            assert svc.fd_flags(proc.pid, sock_fd) == flags
            assert opened == []  # the same fd number: one pread
            # another fd number takes the handle's place
            assert svc.fd_flags(proc.pid, 0) & os.O_ACCMODE == os.O_RDONLY
            assert opened == [f"/proc/{proc.pid}/fdinfo/0"]
            monkeypatch.undo()
            assert len(os.listdir("/proc/self/fd")) == fds_before + 2
            svc.forget(proc.pid)
            assert len(os.listdir("/proc/self/fd")) == fds_before
            svc.fd_flags(proc.pid, sock_fd)
        finally:
            svc.close()
        assert len(os.listdir("/proc/self/fd")) == fds_before

    def test_forget_drops_handle(self, child):
        proc, addr, _ = child
        svc = MemService()
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            svc.read(proc.pid, addr, 4)
            # a pidfd and the memory handle
            assert len(os.listdir("/proc/self/fd")) == fds_before + 2
            svc.forget(proc.pid)
            assert svc.pidfd_cache == {}
            assert len(os.listdir("/proc/self/fd")) == fds_before
        finally:
            svc.close()
