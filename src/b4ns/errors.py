"""Exception hierarchy shared across the supervisor suite."""


class B4nsError(Exception):
    pass


# notification channel
class HandoffFailed(B4nsError):
    """The handoff message carried no ancillary notification fd."""


class UnsupportedKernel(B4nsError):
    """Kernel lacks the fd-injection notification command."""


class ChannelClosed(B4nsError):
    """Target exited and no notifications remain."""


class StaleCookie(B4nsError):
    """Notification id no longer valid (target died or event canceled)."""


# target memory
class TargetGone(B4nsError):
    pass


class MemFault(B4nsError):
    """Bad address in the target; maps to EFAULT for the syscall."""


class ReadOnlyMapping(B4nsError):
    pass


class FdNotAvailable(B4nsError):
    """Target fd closed or acquisition denied; socket is non-switchable."""


# socket state
class ReplayFailed(B4nsError):
    def __init__(self, option):
        super().__init__(f"option replay failed: {option}")


# probes / multinode
class NamespaceUnavailable(B4nsError):
    pass


class KvsUnavailable(B4nsError):
    pass


# daemon
class DuplicateContainer(B4nsError):
    pass


class UnknownContainer(B4nsError):
    pass


# traces / bench
class EmptyTrace(B4nsError):
    pass


class SetupFailed(B4nsError):
    pass


class SwitchDidNotHappen(B4nsError):
    """Bypass benchmark guard: counters show no switched socket."""


def log(name):
    """The logger ``name``: a process loads logging at its first message."""
    import logging
    return logging.getLogger(name)
