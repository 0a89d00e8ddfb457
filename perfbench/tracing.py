"""In-memory spans around the b4ns calls a supervisor makes per notification.

``instrument`` wraps public functions and methods from outside the package:
the channel's methods, the engine's module functions (the supervisor calls
them through the module) and the registry's and memory service's methods.
Each span is ``(name, start_ns, end_ns, parent_index, cookie, extra)``; the
notification cookie is the request id and ``supervisor.event`` is the root
span of one notification, from ``next_event`` returning to ``respond``
returning.  Spans stay in a list until ``write`` at the end of the run.
"""

import json
import os
import time

from b4ns import engine
from b4ns.errors import ChannelClosed

clock = time.monotonic_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.cookie = 0
        self.event = None   # index of the open supervisor.event span
        self.gauges = None  # supervisor state when the channel closed

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.cookie,
                              extra(result) if extra else None)
        return traced

    def close_event(self, end):
        if self.event is not None:
            _, start, _, _, cookie, nr = self.spans[self.event]
            self.spans[self.event] = ("supervisor.event", start, end, -1,
                                      cookie, nr)
            self.event = None

    def instrument(self, sup):
        """Wrap everything ``sup`` calls per notification."""
        chan, registry, mem = sup.chan, sup.registry, sup.mem
        next_event = chan.next_event

        def traced_next_event(*args, **kwargs):
            start = clock()
            self.close_event(start)  # an event that was never responded to
            try:
                ev = next_event(*args, **kwargs)
            except ChannelClosed:
                self.gauges = {
                    "open_fds": len(os.listdir("/proc/self/fd")) - 1,
                    "pidfds": len(mem.pidfd_cache),
                    "records": len(registry.snapshot()),
                }
                raise
            end = clock()
            self.spans.append(("notify.next_event", start, end, -1,
                               self.cookie, None))
            self.cookie = ev.cookie
            self.event = len(self.spans)
            self.spans.append(("supervisor.event", end, None, -1, ev.cookie,
                               ev.syscall_nr))
            self.stack[:] = [self.event]
            return ev

        respond = self.wrap("notify.respond", chan.respond)

        def traced_respond(*args, **kwargs):
            try:
                return respond(*args, **kwargs)
            finally:
                self.close_event(clock())

        chan.next_event = traced_next_event
        chan.respond = traced_respond
        chan.validate = self.wrap("notify.validate", chan.validate)
        chan.inject_fd = self.wrap("notify.inject_fd", chan.inject_fd)
        for name in ("parse_connection_args", "decide", "handle_status",
                     "replay_options"):
            setattr(engine, name, self.wrap(f"engine.{name}",
                                            getattr(engine, name)))
        engine.execute_switch = self.wrap(
            "engine.execute_switch", engine.execute_switch,
            extra=lambda sock: sock is not None)
        registry.ensure_registered = self.wrap(
            "registry.ensure_registered", registry.ensure_registered)
        registry.record_option = self.wrap(
            "registry.record_option", registry.record_option)
        mem.read = self.wrap("targetmem.read", mem.read)
        mem.write = self.wrap("targetmem.write", mem.write)
        mem.acquire_fd = self.wrap("targetmem.acquire_fd", mem.acquire_fd)

    def write(self, path):
        self.close_event(clock())
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))
