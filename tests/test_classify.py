"""Seven-class taxonomy: totality and exact class membership."""

from b4ns.registry import SyscallClass, classify_syscall
from b4ns.sysnr import HOOKED_SYSCALLS, NR

from oracle_fdtable import ORACLE_CLASSES

EXPECTED = {
    "creation": {"socket"},
    "configuration": {"fcntl", "setsockopt", "ioctl"},
    "connection": {"connect", "bind"},
    "status": {"getsockopt", "getsockname", "getpeername"},
    "derivation": {"accept", "accept4", "clone"},
    "communication": {"poll", "recvfrom", "sendfile", "write", "select",
                      "read", "listen", "lseek", "readv", "writev",
                      "epoll_ctl", "epoll_wait"},
    "close": {"close", "shutdown"},
}


def test_taxonomy_covers_exactly_26_syscalls():
    names = set().union(*EXPECTED.values())
    assert len(names) == 26
    for cls_name, members in EXPECTED.items():
        for name in members:
            assert classify_syscall(name).value == cls_name, name


def test_taxonomy_matches_independent_oracle():
    oracle = {n: c for n, c in ORACLE_CLASSES.items()}
    impl = {n: classify_syscall(n).value for n in oracle}
    assert impl == oracle
    # and nothing extra sneaks in
    assert set(oracle) == set().union(*EXPECTED.values())


def test_unknown_names_are_not_hooked():
    for name in ("openat", "mmap", "futex", "", "socketpair", "recvmsg"):
        assert classify_syscall(name) is SyscallClass.NOT_HOOKED


def test_hooked_set_is_config_connection_status_only():
    hooked_classes = {classify_syscall(n) for n in HOOKED_SYSCALLS}
    assert hooked_classes == {
        SyscallClass.CONFIGURATION, SyscallClass.CONNECTION,
        SyscallClass.STATUS,
    }
    # creation, derivation, the data path and close stay un-intercepted
    for name in ("socket", "accept4", "read", "write", "sendfile", "close"):
        assert name not in HOOKED_SYSCALLS


def test_hooked_set_is_what_the_supervisor_acts_on():
    # getsockopt, getsockname and shutdown would only ever be continued, the
    # fd flags fcntl sets are read from the kernel at switch time, and a
    # closed fd's record goes on its next sight or when its process exits
    assert len(HOOKED_SYSCALLS) == 5
    assert set(HOOKED_SYSCALLS) == {"setsockopt", "ioctl", "connect", "bind",
                                    "getpeername"}


def test_every_hooked_syscall_has_a_number():
    for name in HOOKED_SYSCALLS:
        assert name in NR
