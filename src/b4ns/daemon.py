"""Lifecycle manager: one supervisor instance per container, plus a local
management API for runtimes and operators.

The API is JSON over HTTP on a unix stream socket:

    POST   /containers         start an instance from a ContainerSpec body
    GET    /containers         all instance statuses
    GET    /containers/{id}    one status
    GET    /containers/{id}/registry   socket registry debug dump
    DELETE /containers/{id}    stop the instance
"""

import http.client
import json
import logging
import os
import socket
import socketserver
import threading
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import Optional

from . import kvs as kvs_mod
from . import notify, probe
from .engine import NetEnvironment, PublishMapping
from .errors import (
    DuplicateContainer,
    HandoffFailed,
    NamespaceUnavailable,
    UnknownContainer,
    UnsupportedKernel,
)
from .supervisor import SupervisorInstance

log = logging.getLogger(__name__)


@dataclass
class ContainerSpec:
    container_id: str
    seccomp_handoff_path: str
    publish: list = field(default_factory=list)       # PublishMapping
    container_cidrs: list = field(default_factory=list)
    netns_ref: Optional[str] = None
    multinode_enabled: bool = False
    host_loopback_allowed: bool = False
    probe_enabled: bool = False
    probe_bind_addr: str = "0.0.0.0"

    @classmethod
    def from_dict(cls, d):
        """ValueError, KeyError or TypeError for a spec it cannot take."""
        if not isinstance(d, dict):
            raise TypeError(f"a spec is a JSON object, not {type(d).__name__}")
        entries = d.get("publish", [])
        multinode = bool(d.get("multinode_enabled", False))
        if multinode and not all(isinstance(m, dict) for m in entries):
            # the short form's addresses are 0.0.0.0: no other node could
            # resolve the mapping's key or reach its host address
            raise ValueError("a multi-node spec needs each publish entry as "
                             "an object with container_addr and host_addr")
        publish = [
            PublishMapping(**m) if isinstance(m, dict) else PublishMapping.parse(m)
            for m in entries
        ]
        spec = cls(
            container_id=d["container_id"],
            seccomp_handoff_path=d["seccomp_handoff_path"],
            publish=publish,
            container_cidrs=list(d.get("container_cidrs", [])),
            netns_ref=d.get("netns_ref"),
            multinode_enabled=multinode,
            host_loopback_allowed=bool(d.get("host_loopback_allowed", False)),
            probe_enabled=bool(d.get("probe_enabled", False)),
            probe_bind_addr=d.get("probe_bind_addr", "0.0.0.0"),
        )
        # the environment the instance will run with, checked before anything
        # starts: past the handoff, a failure would leave the target blocked
        # in its first hooked syscall
        NetEnvironment(container_cidrs=spec.container_cidrs,
                       published_ports=publish)
        return spec


@dataclass
class InstanceStatus:
    container_id: str
    state: str  # starting | running | stopping | stopped | failed
    counters: dict = field(default_factory=dict)
    error: Optional[str] = None

    def as_dict(self):
        return {
            "container_id": self.container_id,
            "state": self.state,
            "counters": self.counters,
            "error": self.error,
        }


class ManagedInstance:
    """One container's supervisor, probe agent and published mappings."""

    def __init__(self, spec: ContainerSpec, publisher=None, mirror=None,
                 attach_timeout=10.0):
        self.spec = spec
        self.publisher = publisher
        self.mirror = mirror
        self.attach_timeout = attach_timeout
        self.state = "starting"
        self.error = None
        self.supervisor = None
        # the one stop signal: readable, it ends the handoff wait or the
        # supervisor's loop; open while the state is not final
        self._stop_fd = os.eventfd(0, os.EFD_CLOEXEC)
        self._thread = None
        self._lock = threading.Lock()

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"b4ns-{self.spec.container_id}")
        self._thread.start()

    def _run(self):
        error = "supervisor thread raised"
        try:
            error = self._supervise()
        finally:
            self._ended(error)

    def _supervise(self):
        """Attach and supervise until the target tree exits or a stop; the
        error that ended it before the handoff, or None."""
        spec = self.spec
        try:
            # built before the handoff: past it, a failure would leave the
            # target blocked in its first hooked syscall
            env = NetEnvironment(
                container_cidrs=spec.container_cidrs,
                published_ports=spec.publish,
                host_loopback_allowed=spec.host_loopback_allowed,
            )
        except (ValueError, TypeError, AttributeError) as e:
            # a spec built in code: from_dict checks its own
            return f"{type(e).__name__}: {e}"
        try:
            chan = notify.attach(spec.seccomp_handoff_path,
                                 timeout=self.attach_timeout,
                                 stop_fd=self._stop_fd)
        except (HandoffFailed, UnsupportedKernel, OSError) as e:
            return f"AttachFailed: {e}"
        if self.state != "starting":  # stop() came during attach
            chan.close()  # nothing started and nothing published yet
            return None

        probes = None
        if spec.probe_enabled:
            control = spec.seccomp_handoff_path + ".probe"
            try:
                agent = probe.start_agent(
                    spec.netns_ref, [m.container_port for m in spec.publish],
                    control, bind_addr=spec.probe_bind_addr)
                probes = probe.ProbeCache(agent, src=spec.container_id)
                probes.start_background()
            except NamespaceUnavailable as e:
                log.warning("probing disabled for %s: %s", spec.container_id, e)
                probes = probe.ProbeCache(None, src=spec.container_id)

        if self.publisher is not None:
            for m in spec.publish:
                self.publisher.publish(m)

        sup = SupervisorInstance(
            chan, env, probes=probes,
            multinode=self.mirror if spec.multinode_enabled else None)
        with self._lock:
            self.supervisor = sup
            if self.state == "starting":  # a later stop() ends the loop
                self.state = "running"
        try:
            sup.run()  # until the target tree exits or the stop fd is read
        finally:
            if probes is not None:
                probes.stop()
            if self.publisher is not None:
                for m in spec.publish:
                    self.publisher.withdraw(m)
        return None

    def _ended(self, error):
        """Take the final state and close the stop eventfd, once: when the
        thread has stopped using it, or in place of starting the thread."""
        with self._lock:
            os.close(self._stop_fd)
            if error is not None and self.state != "stopping":
                self.state, self.error = "failed", error
            else:  # the target tree exited, or stop() came first
                self.state = "stopped"

    def stop(self):
        """The same in every phase: the stop fd turns readable, which ends
        the handoff wait or the loop, and the thread is joined."""
        with self._lock:
            if self.state in ("stopped", "failed"):
                return
            self.state = "stopping"
            os.eventfd_write(self._stop_fd, 1)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def status(self):
        with self._lock:
            counters = (self.supervisor.counters.as_dict()
                        if self.supervisor else {})
            return InstanceStatus(self.spec.container_id, self.state,
                                  counters, self.error)

    def registry_dump(self):
        if self.supervisor is None:
            return []
        return self.supervisor.registry.snapshot()


class Daemon:
    """Holds all live instances; per-container operations are serialized,
    distinct containers are independent."""

    def __init__(self, kvs_endpoint=None, node_id=None):
        self.node_id = node_id or f"node-{uuid.uuid4().hex[:8]}"
        self._lock = threading.Lock()
        self._instances = {}
        self.publisher = None
        self.mirror = None
        if kvs_endpoint:
            client = kvs_mod.open_kvs(kvs_endpoint)
            self.publisher = kvs_mod.MappingPublisher(client, self.node_id)
            self.publisher.start_background()
            self.mirror = kvs_mod.MirrorCache(client)
            self.mirror.refresh_now()
            self.mirror.start_background()

    def start_instance(self, spec: ContainerSpec):
        with self._lock:
            existing = self._instances.get(spec.container_id)
            if existing is not None and existing.state not in ("stopped", "failed"):
                raise DuplicateContainer(spec.container_id)
            handoff_dir = os.path.dirname(spec.seccomp_handoff_path) or "."
            if not os.path.isdir(handoff_dir):
                inst = ManagedInstance(spec)
                inst._ended(f"AttachFailed: no such directory {handoff_dir}")
                self._instances[spec.container_id] = inst
                return inst.status()
            inst = ManagedInstance(
                spec,
                publisher=self.publisher if spec.multinode_enabled else None,
                mirror=self.mirror)
            self._instances[spec.container_id] = inst
        inst.start()
        return inst.status()

    def stop_instance(self, container_id):
        with self._lock:
            inst = self._instances.get(container_id)
        if inst is None:
            raise UnknownContainer(container_id)
        inst.stop()
        return inst.status()

    def status(self, container_id=None):
        with self._lock:
            if container_id is None:
                return [i.status() for i in self._instances.values()]
            inst = self._instances.get(container_id)
        if inst is None:
            raise UnknownContainer(container_id)
        return [inst.status()]

    def registry_dump(self, container_id):
        with self._lock:
            inst = self._instances.get(container_id)
        if inst is None:
            raise UnknownContainer(container_id)
        return inst.registry_dump()

    def shutdown(self):
        with self._lock:
            instances = list(self._instances.values())
        for inst in instances:
            inst.stop()
        if self.publisher is not None:
            self.publisher.stop()
        if self.mirror is not None:
            self.mirror.stop()


# ---------------------------------------------------------------------------
# management API plumbing (HTTP over a unix stream socket)

class _UnixHTTPServer(kvs_mod.PromptShutdown,
                      socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True

    def get_request(self):
        request, _ = super().get_request()
        return request, ("local", 0)

    def server_close(self):
        """Also remove the socket's path, which socketserver leaves."""
        super().server_close()
        os.unlink(self.server_address)


def serve_api(daemon: Daemon, api_socket_path):
    """Expose the daemon on its management socket; returns the server."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def _reply(self, status, obj):
            body = json.dumps(obj).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _dispatch(self, method):
            parts = [p for p in self.path.split("/") if p]
            try:
                if method == "POST" and parts == ["containers"]:
                    n = int(self.headers.get("Content-Length", 0))
                    try:
                        spec = ContainerSpec.from_dict(
                            json.loads(self.rfile.read(n)))
                    except (ValueError, KeyError, TypeError) as e:
                        # bad JSON is a ValueError too
                        self._reply(400, {"error": f"bad spec: {e!r}"})
                        return
                    st = daemon.start_instance(spec)
                    self._reply(201, st.as_dict())
                elif method == "GET" and parts == ["containers"]:
                    self._reply(200, [s.as_dict() for s in daemon.status()])
                elif method == "GET" and len(parts) == 2 and parts[0] == "containers":
                    self._reply(200, daemon.status(parts[1])[0].as_dict())
                elif (method == "GET" and len(parts) == 3
                      and parts[0] == "containers" and parts[2] == "registry"):
                    self._reply(200, daemon.registry_dump(parts[1]))
                elif method == "DELETE" and len(parts) == 2 and parts[0] == "containers":
                    self._reply(200, daemon.stop_instance(parts[1]).as_dict())
                else:
                    self._reply(404, {"error": "no such endpoint"})
            except DuplicateContainer as e:
                self._reply(409, {"error": f"DuplicateContainer: {e}"})
            except UnknownContainer as e:
                self._reply(404, {"error": f"UnknownContainer: {e}"})
            except Exception as e:
                log.exception("management API error")
                self._reply(500, {"error": str(e)})

        def do_GET(self):
            self._dispatch("GET")

        def do_POST(self):
            self._dispatch("POST")

        def do_DELETE(self):
            self._dispatch("DELETE")

    try:
        os.unlink(api_socket_path)
    except FileNotFoundError:
        pass
    srv = _UnixHTTPServer(api_socket_path, Handler)
    threading.Thread(target=srv.serve_forever, daemon=True,
                     name="b4ns-api").start()
    return srv


class _UnixHTTPConnection(http.client.HTTPConnection):
    def __init__(self, path, timeout=10.0):
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect(self._path)


class DaemonClient:
    """Thin client for the management API."""

    def __init__(self, api_socket_path, timeout=10.0):
        self.path = api_socket_path
        self.timeout = timeout

    def _request(self, method, url, body=None):
        conn = _UnixHTTPConnection(self.path, timeout=self.timeout)
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, url, body=data,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read() or b"null")
            return resp.status, payload
        finally:
            conn.close()

    def start(self, spec_dict):
        return self._request("POST", "/containers", spec_dict)

    def stop(self, container_id):
        return self._request("DELETE", f"/containers/{container_id}")

    def status(self, container_id=None):
        url = "/containers" if container_id is None else f"/containers/{container_id}"
        return self._request("GET", url)

    def registry(self, container_id):
        return self._request("GET", f"/containers/{container_id}/registry")
