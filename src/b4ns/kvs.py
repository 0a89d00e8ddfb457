"""Multi-node published-port mapping store.

Supervisors on each host publish (container address:port -> host
address:port) under a versioned key prefix; peers mirror the prefix into a
local cache so destination resolution never blocks a syscall on a network
round trip.  Two store backends: a directory-backed store for tests and
single-host use, and an HTTP/JSON client speaking a minimal REST protocol
(an etcd-style adapter can be layered behind the same interface).
"""

import json
import logging
import os
import socket
import threading
import time
import urllib.parse
import urllib.request
import urllib.error
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Protocol

from .engine import PublishMapping
from .errors import KvsUnavailable

log = logging.getLogger(__name__)

KEY_PREFIX = "b4ns/v1/"
DEFAULT_LEASE_TTL = 30.0
DEFAULT_HEARTBEAT = 10.0


class KvsClient(Protocol):
    def put(self, key: str, value: str) -> None: ...
    def get(self, key: str) -> Optional[str]: ...
    def list(self, prefix: str) -> dict: ...
    def delete(self, key: str) -> None: ...


class FileKvs:
    """Directory-backed store; one file per key, atomic replace on put."""

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.root, urllib.parse.quote(key, safe=""))

    def put(self, key, value):
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as f:
            f.write(value)
        os.replace(tmp, self._path(key))

    def get(self, key):
        try:
            with open(self._path(key)) as f:
                return f.read()
        except FileNotFoundError:
            return None

    def list(self, prefix):
        out = {}
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return out
        for name in names:
            if name.endswith(".tmp"):
                continue
            key = urllib.parse.unquote(name)
            if key.startswith(prefix):
                val = self.get(key)
                if val is not None:
                    out[key] = val
        return out

    def delete(self, key):
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass


class HttpKvs:
    """Client for the REST wire format: PUT/GET/DELETE /kv/{key},
    GET /kv?prefix=."""

    def __init__(self, endpoint, timeout=2.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout

    def _url(self, key):
        return f"{self.endpoint}/kv/{urllib.parse.quote(key, safe='')}"

    def _request(self, method, url, body=None):
        req = urllib.request.Request(url, data=body, method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as e:
            return e.code, e.read()
        except (urllib.error.URLError, OSError, TimeoutError) as e:
            raise KvsUnavailable(f"{method} {url}: {e}")

    def put(self, key, value):
        status, _ = self._request("PUT", self._url(key), value.encode())
        if status not in (200, 201, 204):
            raise KvsUnavailable(f"put {key}: HTTP {status}")

    def get(self, key):
        status, body = self._request("GET", self._url(key))
        if status == 404:
            return None
        if status != 200:
            raise KvsUnavailable(f"get {key}: HTTP {status}")
        return body.decode()

    def list(self, prefix):
        url = f"{self.endpoint}/kv?prefix={urllib.parse.quote(prefix, safe='')}"
        status, body = self._request("GET", url)
        if status != 200:
            raise KvsUnavailable(f"list {prefix}: HTTP {status}")
        return json.loads(body.decode())

    def delete(self, key):
        status, _ = self._request("DELETE", self._url(key))
        if status not in (200, 204, 404):
            raise KvsUnavailable(f"delete {key}: HTTP {status}")


class PromptShutdown:
    """For a ``socketserver`` server run by ``serve_forever``: ``shutdown``
    shuts the listening socket down first.  That makes it readable, so the
    loop sees the request at once instead of at its next 0.5 s poll."""

    def shutdown(self):
        self.socket.shutdown(socket.SHUT_RDWR)
        super().shutdown()


class _HTTPServer(PromptShutdown, ThreadingHTTPServer):
    pass


def serve_kvs(backing: KvsClient, host="127.0.0.1", port=0):
    """Serve the REST wire format over a backing store.  Returns the running
    server (call .shutdown() to stop); .server_address gives the bound port."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def _key(self):
            path = urllib.parse.urlparse(self.path)
            if not path.path.startswith("/kv/"):
                return None
            return urllib.parse.unquote(path.path[len("/kv/"):])

        def do_PUT(self):
            key = self._key()
            if key is None:
                self.send_error(404)
                return
            n = int(self.headers.get("Content-Length", 0))
            backing.put(key, self.rfile.read(n).decode())
            self.send_response(204)
            self.end_headers()

        def do_GET(self):
            parsed = urllib.parse.urlparse(self.path)
            if parsed.path == "/kv":
                q = urllib.parse.parse_qs(parsed.query)
                prefix = q.get("prefix", [""])[0]
                body = json.dumps(backing.list(prefix)).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            key = self._key()
            val = backing.get(key) if key else None
            if val is None:
                self.send_error(404)
                return
            body = val.encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_DELETE(self):
            key = self._key()
            if key is None:
                self.send_error(404)
                return
            backing.delete(key)
            self.send_response(204)
            self.end_headers()

    srv = _HTTPServer((host, port), Handler)
    threading.Thread(target=srv.serve_forever, daemon=True,
                     name="b4ns-kvs-server").start()
    return srv


def open_kvs(endpoint):
    """Endpoint string to client: http(s) URL -> REST client, anything else
    is a directory path for the file-backed store."""
    if endpoint.startswith(("http://", "https://")):
        return HttpKvs(endpoint)
    return FileKvs(endpoint)


def mapping_key(container_addr, container_port):
    return f"{KEY_PREFIX}{container_addr}:{container_port}"


def _entry(value):
    """A stored mapping value as the dict ``MappingPublisher`` writes, or
    None if there is none: no value, or one that is not JSON, not an
    object, or lacks a string host address, an integer host port or a
    numeric lease expiry."""
    try:
        entry = json.loads(value)
    except (ValueError, TypeError):  # TypeError: None, or not a string
        return None
    if (isinstance(entry, dict) and isinstance(entry.get("host_addr"), str)
            and type(entry.get("host_port")) is int
            and type(entry.get("lease_expiry")) in (int, float)):
        return entry
    return None


class MappingPublisher:
    """Publishes this node's mappings with a lease and re-publishes on a
    heartbeat so dead hosts never black-hole rewrites."""

    def __init__(self, kvs: KvsClient, node_id, ttl=DEFAULT_LEASE_TTL,
                 heartbeat=DEFAULT_HEARTBEAT, time_fn=time.time):
        self.kvs = kvs
        self.node_id = node_id
        self.ttl = ttl
        self.heartbeat = heartbeat
        self._time = time_fn
        self._lock = threading.Lock()
        self._mappings = {}
        self._stop = threading.Event()
        self._thread = None

    def publish(self, m: PublishMapping):
        with self._lock:
            self._mappings[mapping_key(m.container_addr, m.container_port)] = m
        self._put(m)

    def _put(self, m):
        key = mapping_key(m.container_addr, m.container_port)
        value = json.dumps({
            "host_addr": m.host_addr,
            "host_port": m.host_port,
            "node_id": self.node_id,
            "lease_expiry": self._time() + self.ttl,
        })
        try:
            existing = _entry(self.kvs.get(key))
            if existing is not None:
                owner = existing.get("node_id")
                if owner not in (None, self.node_id):
                    log.warning("mapping %s already claimed by node %s; "
                                "overwriting (last writer wins)", key, owner)
            self.kvs.put(key, value)
        except KvsUnavailable as e:
            log.warning("KVS unavailable while publishing %s: %s "
                        "(local switching unaffected)", key, e)

    def withdraw(self, m: PublishMapping):
        key = mapping_key(m.container_addr, m.container_port)
        with self._lock:
            self._mappings.pop(key, None)
        try:
            self.kvs.delete(key)
        except KvsUnavailable:
            pass  # lease lapses on its own

    def start_background(self):
        def loop():
            while not self._stop.wait(self.heartbeat):
                with self._lock:
                    mappings = list(self._mappings.values())
                for m in mappings:
                    self._put(m)  # logs a store outage itself

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="b4ns-kvs-heartbeat")
        self._thread.start()

    def stop(self):
        """End the heartbeat and withdraw every mapping published."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        with self._lock:
            mappings = list(self._mappings.values())
        for m in mappings:
            self.withdraw(m)


class MirrorCache:
    """Local mirror of the mapping prefix.

    A single background refresher lists the prefix periodically; resolution
    reads the latest snapshot only, so a blackholed store can never stall a
    syscall handler.  Expired leases are invisible.
    """

    def __init__(self, kvs: KvsClient, period=2.0, time_fn=time.time):
        self.kvs = kvs
        self.period = period
        self._time = time_fn
        self._snapshot = {}
        self._stop = threading.Event()
        self._thread = None

    def refresh_now(self):
        try:
            raw = self.kvs.list(KEY_PREFIX)
        except KvsUnavailable as e:
            log.warning("KVS mirror refresh failed: %s", e)
            return False
        snap = {}
        for key, value in raw.items():
            entry = _entry(value)
            if entry is None:
                log.warning("malformed mapping value under %s", key)
            else:
                snap[key] = entry
        self._snapshot = snap  # atomic swap
        return True

    def resolve(self, container_addr, container_port):
        """Mapping lookup from the cache snapshot only; None on miss or
        expired lease."""
        entry = self._snapshot.get(mapping_key(container_addr, container_port))
        if entry is None:
            return None
        if entry.get("lease_expiry", 0) <= self._time():
            return None
        return entry["host_addr"], entry["host_port"]

    def start_background(self):
        def loop():
            while not self._stop.wait(self.period):
                self.refresh_now()

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="b4ns-kvs-mirror")
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
