"""Mapping store backends, lease-based publishing, and the local mirror."""

import json
import threading
import time

import pytest

from b4ns.engine import PublishMapping
from b4ns.errors import KvsUnavailable
from b4ns.kvs import (
    KEY_PREFIX,
    FileKvs,
    HttpKvs,
    MappingPublisher,
    MirrorCache,
    mapping_key,
    open_kvs,
    serve_kvs,
)


def mapping(caddr="10.4.0.3", cport=80, haddr="198.51.100.7", hport=8080):
    return PublishMapping(caddr, cport, haddr, hport)


class FrozenClock:
    def __init__(self, t=1_700_000_000.0):
        self.t = t

    def __call__(self):
        return self.t


class CountingKvs(FileKvs):
    """FileKvs that counts operations, for blackhole/inline-access checks."""

    def __init__(self, root):
        super().__init__(root)
        self.ops = []
        self.blackholed = False

    def _guard(self, op, key=""):
        self.ops.append((op, key))
        if self.blackholed:
            raise KvsUnavailable(f"{op} blackholed")

    def put(self, key, value):
        self._guard("put", key)
        super().put(key, value)

    def get(self, key):
        self._guard("get", key)
        return super().get(key)

    def list(self, prefix):
        self._guard("list", prefix)
        return super().list(prefix)

    def delete(self, key):
        self._guard("delete", key)
        super().delete(key)


class TestFileKvs:
    def test_put_get_delete(self, tmp_path):
        kvs = FileKvs(tmp_path / "store")
        kvs.put("b4ns/v1/10.4.0.3:80", "hello")
        assert kvs.get("b4ns/v1/10.4.0.3:80") == "hello"
        kvs.delete("b4ns/v1/10.4.0.3:80")
        assert kvs.get("b4ns/v1/10.4.0.3:80") is None
        kvs.delete("b4ns/v1/10.4.0.3:80")  # idempotent

    def test_list_by_prefix(self, tmp_path):
        kvs = FileKvs(tmp_path / "store")
        kvs.put(KEY_PREFIX + "a:1", "1")
        kvs.put(KEY_PREFIX + "b:2", "2")
        kvs.put("other/c:3", "3")
        listed = kvs.list(KEY_PREFIX)
        assert set(listed) == {KEY_PREFIX + "a:1", KEY_PREFIX + "b:2"}

    def test_keys_with_slashes_are_safe_filenames(self, tmp_path):
        kvs = FileKvs(tmp_path / "store")
        kvs.put("b4ns/v1/../../etc:80", "v")
        names = list((tmp_path / "store").iterdir())
        assert len(names) == 1
        assert "/" not in names[0].name  # no traversal outside the store dir
        assert names[0].parent == tmp_path / "store"
        assert kvs.get("b4ns/v1/../../etc:80") == "v"


class TestHttpKvs:
    @pytest.fixture
    def served(self, tmp_path):
        backing = FileKvs(tmp_path / "store")
        srv = serve_kvs(backing)
        host, port = srv.server_address
        yield HttpKvs(f"http://{host}:{port}"), backing
        srv.shutdown()
        srv.server_close()

    def test_roundtrip_through_rest_server(self, served):
        client, backing = served
        client.put(KEY_PREFIX + "10.4.0.3:80", '{"host_port": 8080}')
        assert client.get(KEY_PREFIX + "10.4.0.3:80") == '{"host_port": 8080}'
        assert backing.get(KEY_PREFIX + "10.4.0.3:80") is not None
        assert client.list(KEY_PREFIX) == {
            KEY_PREFIX + "10.4.0.3:80": '{"host_port": 8080}'}
        client.delete(KEY_PREFIX + "10.4.0.3:80")
        assert client.get(KEY_PREFIX + "10.4.0.3:80") is None

    def test_stop_returns_at_once(self, tmp_path):
        srv = serve_kvs(FileKvs(tmp_path / "store"))
        host, port = srv.server_address
        assert HttpKvs(f"http://{host}:{port}").get("k") is None  # serving
        t0 = time.monotonic()
        srv.shutdown()
        # not after serve_forever's next 0.5 s poll
        assert time.monotonic() - t0 < 0.1
        srv.server_close()

    def test_unreachable_endpoint_raises(self):
        client = HttpKvs("http://127.0.0.1:1", timeout=0.3)
        with pytest.raises(KvsUnavailable):
            client.get("k")

    def test_open_kvs_picks_backend(self, tmp_path):
        assert isinstance(open_kvs("http://x:1"), HttpKvs)
        assert isinstance(open_kvs(str(tmp_path / "dir")), FileKvs)


# stored values that are no mapping: not JSON, not an object, or an object
# without a usable host address, port or lease
MALFORMED = {
    "not-json": "{not json",
    "array": "[1]",
    "string": '"text"',
    "null": "null",
    "no-host": '{"lease_expiry": 1e12}',
    "string-port": '{"host_addr": "198.51.100.7", "host_port": "8080",'
                   ' "lease_expiry": 1e12}',
    "string-lease": '{"host_addr": "198.51.100.7", "host_port": 8080,'
                    ' "lease_expiry": "soon"}',
}


class TestPublisher:
    def test_publish_writes_lease(self, tmp_path):
        clock = FrozenClock()
        kvs = FileKvs(tmp_path / "s")
        pub = MappingPublisher(kvs, "node-a", ttl=30.0, time_fn=clock)
        pub.publish(mapping())
        entry = json.loads(kvs.get(mapping_key("10.4.0.3", 80)))
        assert entry["host_addr"] == "198.51.100.7"
        assert entry["host_port"] == 8080
        assert entry["node_id"] == "node-a"
        assert entry["lease_expiry"] == pytest.approx(clock.t + 30.0)

    def test_conflicting_owner_warns_but_wins(self, tmp_path, caplog):
        kvs = FileKvs(tmp_path / "s")
        MappingPublisher(kvs, "node-a").publish(mapping())
        with caplog.at_level("WARNING", logger="b4ns.kvs"):
            MappingPublisher(kvs, "node-b").publish(mapping())
        assert any("last writer wins" in r.message for r in caplog.records)
        entry = json.loads(kvs.get(mapping_key("10.4.0.3", 80)))
        assert entry["node_id"] == "node-b"

    @pytest.mark.parametrize("value", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_value_is_overwritten(self, tmp_path, value):
        kvs = FileKvs(tmp_path / "s")
        kvs.put(mapping_key("10.4.0.3", 80), value)
        MappingPublisher(kvs, "node-a").publish(mapping())
        entry = json.loads(kvs.get(mapping_key("10.4.0.3", 80)))
        assert (entry["node_id"], entry["host_port"]) == ("node-a", 8080)

    def test_withdraw_removes_key(self, tmp_path):
        kvs = FileKvs(tmp_path / "s")
        pub = MappingPublisher(kvs, "node-a")
        pub.publish(mapping())
        pub.withdraw(mapping())
        assert kvs.get(mapping_key("10.4.0.3", 80)) is None

    def test_store_outage_does_not_raise(self, tmp_path):
        kvs = CountingKvs(tmp_path / "s")
        kvs.blackholed = True
        pub = MappingPublisher(kvs, "node-a")
        pub.publish(mapping())  # logged, not raised
        pub.withdraw(mapping())

    def test_heartbeat_republishes(self, tmp_path):
        kvs = CountingKvs(tmp_path / "s")
        pub = MappingPublisher(kvs, "node-a", heartbeat=0.05)
        pub.publish(mapping())
        puts_before = sum(1 for op, _ in kvs.ops if op == "put")
        pub.start_background()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            if sum(1 for op, _ in kvs.ops if op == "put") >= puts_before + 2:
                break
            time.sleep(0.02)
        pub.stop()
        assert sum(1 for op, _ in kvs.ops if op == "put") >= puts_before + 2


class TestMirror:
    def _seed(self, kvs, clock, expiry_offset=30.0):
        kvs.put(mapping_key("10.4.0.3", 80), json.dumps({
            "host_addr": "198.51.100.7", "host_port": 8080,
            "node_id": "node-b", "lease_expiry": clock.t + expiry_offset,
        }))

    def test_resolve_from_snapshot(self, tmp_path):
        clock = FrozenClock()
        kvs = FileKvs(tmp_path / "s")
        self._seed(kvs, clock)
        mirror = MirrorCache(kvs, time_fn=clock)
        assert mirror.refresh_now()
        assert mirror.resolve("10.4.0.3", 80) == ("198.51.100.7", 8080)
        assert mirror.resolve("10.4.0.9", 80) is None

    def test_expired_lease_is_invisible(self, tmp_path):
        clock = FrozenClock()
        kvs = FileKvs(tmp_path / "s")
        self._seed(kvs, clock, expiry_offset=-1.0)
        mirror = MirrorCache(kvs, time_fn=clock)
        mirror.refresh_now()
        assert mirror.resolve("10.4.0.3", 80) is None

    def test_resolve_never_touches_store_inline(self, tmp_path):
        clock = FrozenClock()
        kvs = CountingKvs(tmp_path / "s")
        self._seed(kvs, clock)
        mirror = MirrorCache(kvs, time_fn=clock)
        mirror.refresh_now()
        kvs.blackholed = True
        kvs.ops.clear()
        t0 = time.perf_counter()
        for _ in range(100):
            assert mirror.resolve("10.4.0.3", 80) == ("198.51.100.7", 8080)
        elapsed = time.perf_counter() - t0
        assert kvs.ops == []  # zero store traffic during resolution
        assert elapsed / 100 < 0.001  # well under a millisecond each

    def test_failed_refresh_keeps_last_snapshot(self, tmp_path):
        clock = FrozenClock()
        kvs = CountingKvs(tmp_path / "s")
        self._seed(kvs, clock)
        mirror = MirrorCache(kvs, time_fn=clock)
        mirror.refresh_now()
        kvs.blackholed = True
        assert mirror.refresh_now() is False
        assert mirror.resolve("10.4.0.3", 80) == ("198.51.100.7", 8080)

    def test_malformed_values_are_skipped(self, tmp_path):
        clock = FrozenClock()
        kvs = FileKvs(tmp_path / "s")
        kvs.put(mapping_key("10.4.0.3", 80), "{not json")
        self._seed(kvs, clock)  # overwrites with a good value? no: same key
        mirror = MirrorCache(kvs, time_fn=clock)
        mirror.refresh_now()
        # the well-formed overwrite wins; a solely-malformed key resolves None
        kvs.put(mapping_key("10.4.0.9", 80), "{still not json")
        mirror.refresh_now()
        assert mirror.resolve("10.4.0.9", 80) is None

    @pytest.mark.parametrize("value", MALFORMED.values(), ids=MALFORMED)
    def test_value_that_is_no_mapping_is_skipped(self, tmp_path, value,
                                                 caplog):
        kvs = FileKvs(tmp_path / "s")
        kvs.put(mapping_key("10.4.0.9", 80), value)
        mirror = MirrorCache(kvs, time_fn=FrozenClock())
        with caplog.at_level("WARNING", logger="b4ns.kvs"):
            assert mirror.refresh_now()
        assert any("malformed" in r.message for r in caplog.records)
        assert mirror.resolve("10.4.0.9", 80) is None
