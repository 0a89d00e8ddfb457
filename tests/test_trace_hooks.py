"""The names perfbench's ``--trace 1`` wraps still exist and are still
called: a run under its ``Tracer`` records a span for each layer.

``perfbench/tracing.py`` patches b4ns functions and methods by name, and a
name that no longer exists or is no longer called leaves its span out with
no error.  The module is loaded from the checkout without writing there.
"""

import os
import pathlib
import socket
import struct
import types

from b4ns import engine
from b4ns.engine import NetEnvironment, PublishMapping
from b4ns.sockaddr import pack_sockaddr_in
from b4ns.supervisor import SupervisorInstance
from b4ns.sysnr import NR
from b4ns.targetmem import RemoteFd

from fakes import FakeChannel, FakeMem, make_event

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), TRACING, "exec"), module.__dict__)
    return module


def test_every_layer_records_its_span(monkeypatch):
    for name in ("parse_connection_args", "decide", "handle_status",
                 "replay_options", "execute_switch"):
        # the tracer patches the module: put each function back afterwards
        monkeypatch.setattr(engine, name, getattr(engine, name))
    with socket.socket() as srv, socket.socket() as host:
        host.bind(("127.0.0.1", 0))
        host.listen(1)
        mem = FakeMem()
        mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd, os.dup(srv.fileno()))
        env = NetEnvironment(
            container_cidrs=["10.4.0.0/24"],
            published_ports=[PublishMapping("10.4.0.2", 80,
                                            *host.getsockname())])
        sup = SupervisorInstance(FakeChannel(), env, mem=mem)
        tracer = load_tracing().Tracer()
        tracer.instrument(sup)

        def connect(cookie, addr, port):
            raw = pack_sockaddr_in(addr, port)
            return make_event(cookie=cookie, nr=NR["connect"],
                              args=(3, mem.place(1000, 0x40, raw), len(raw)))

        on = mem.place(1000, 0x80, struct.pack("i", 1))
        events = [
            make_event(cookie=1, nr=NR["setsockopt"],
                       args=(3, socket.IPPROTO_TCP, socket.TCP_CORK, on, 4)),
            connect(2, "93.184.216.34", 443),  # a plain switch
            connect(3, "10.4.0.2", 80),  # a rewrite
            make_event(cookie=4, nr=NR["getpeername"],
                       args=(3, mem.place(1000, 0xc0, bytes(16)),
                             mem.place(1000, 0xe0, struct.pack("i", 16)))),
        ]
        for ev in events:
            sup._dispatch(ev)
    assert sup.counters.sockets_switched == 2
    names = {span[0] for span in tracer.spans if span is not None}
    for name in ("engine.execute_switch", "notify.inject_fd",
                 "engine.handle_status", "registry.ensure_registered",
                 "registry.record_option"):
        assert name in names, name
    switches = [span[5] for span in tracer.spans
                if span[0] == "engine.execute_switch"]
    assert switches == [True, True]
