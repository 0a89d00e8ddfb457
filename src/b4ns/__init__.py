"""b4ns: accelerates TCP communication of sandboxed processes by switching
in-namespace sockets to host-side sockets via seccomp user-space notification.

Subpackages of note:

- ``notify``      seccomp notification channel (events, responses, fd injection)
- ``targetmem``   remote process memory access and fd acquisition
- ``registry``    per-(process, fd) socket state machine and syscall classifier
- ``engine``      switch/ignore/rewrite decisions and switch execution
- ``probe``       in-namespace connectivity probe agents
- ``kvs``         multi-node published-port mapping store and cache
- ``supervisor``  per-container event loop tying the above together
- ``daemon``      lifecycle manager with a local management API
- ``traces``      syscall-trace lifecycle reconstruction and reports
- ``bench``       relay / bypass / direct loopback benchmarks
"""

__version__ = "0.1.0"
