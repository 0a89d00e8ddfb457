"""Benchmark harness: configuration guards, the sink's check of every
stream against the pattern, switch guard, and report shape (small
payloads; the performance comparison itself lives in the acceptance
suite)."""

import json
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest

from b4ns import bench
from b4ns.bench import (
    BenchConfig,
    BenchResult,
    MODES,
    report,
    run_mode,
)
from b4ns.errors import SetupFailed, SwitchDidNotHappen
from b4ns.target_shim import BLOCK

SMALL = {"payload_bytes": 1 << 20, "parallel_streams": 1}


class TestConfig:
    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(payload_bytes=0)

    def test_sub_mib_payload_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(payload_bytes=(1 << 20) - 1)

    def test_latency_runs_skip_payload_floor(self):
        BenchConfig(payload_bytes=0, latency=True)

    def test_stream_bounds(self):
        with pytest.raises(ValueError):
            BenchConfig(payload_bytes=1 << 20, parallel_streams=0)
        with pytest.raises(ValueError):
            BenchConfig(payload_bytes=1 << 20, parallel_streams=9)
        BenchConfig(payload_bytes=1 << 20, parallel_streams=8)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(payload_bytes=1 << 20, mode="turbo")


def pattern(nbytes):
    """The first ``nbytes`` of the shim's ``send_pattern`` stream."""
    return (BLOCK * (nbytes // len(BLOCK) + 1))[:nbytes]


class TestPatternSink:
    """Each stream is checked block by block as it arrives; one wrong byte
    or a wrong length discards the run."""

    # two full blocks and a partial third
    PAYLOAD = 2 * len(BLOCK) + 17

    def _result(self, stream):
        cfg = BenchConfig(payload_bytes=self.PAYLOAD)
        sink = bench._PatternSink(1, self.PAYLOAD)
        try:
            with socket.create_connection(("127.0.0.1", sink.port)) as c:
                c.sendall(stream)
            sink.wait(10.0)
        finally:
            sink.close()
        return bench._throughput_result("direct", cfg, sink, 0.0, 1.0)

    def test_exact_pattern_passes(self):
        r = self._result(pattern(self.PAYLOAD))
        assert r.digest_ok
        assert r.per_stream_bps and r.throughput_bps > 0

    @pytest.mark.parametrize("offset", [len(BLOCK) + 5, 2 * len(BLOCK) + 16])
    def test_flipped_byte_in_a_later_block_fails(self, offset):
        stream = bytearray(pattern(self.PAYLOAD))
        stream[offset] ^= 0xFF
        with pytest.raises(SetupFailed, match="does not match"):
            self._result(bytes(stream))

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_wrong_length_fails(self, delta):
        with pytest.raises(SetupFailed, match="does not match"):
            self._result(pattern(self.PAYLOAD + delta))

    def test_missing_stream_fails(self):
        cfg = BenchConfig(payload_bytes=2 << 20, parallel_streams=2)
        sink = bench._PatternSink(2, 1 << 20)
        try:
            with socket.create_connection(("127.0.0.1", sink.port)) as c:
                c.sendall(pattern(1 << 20))
            sink.wait(0.5)
        finally:
            sink.close()
        with pytest.raises(SetupFailed):
            bench._throughput_result("direct", cfg, sink, 0.0, 1.0)

    def test_memory_stays_bounded(self):
        """The sink holds one block per stream, not the stream."""
        tracemalloc.start()
        try:
            r = run_mode("direct", {"payload_bytes": 64 << 20})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.digest_ok
        assert peak < 8 << 20


class TestModes:
    def test_direct_small(self):
        r = run_mode("direct", SMALL)
        assert r.mode == "direct"
        assert r.digest_ok
        assert r.throughput_bps > 0

    def test_relay_small(self):
        r = run_mode("relay", SMALL)
        assert r.digest_ok
        assert r.throughput_bps > 0

    def test_bypass_small(self):
        r = run_mode("bypass", SMALL)
        assert r.digest_ok
        assert r.throughput_bps > 0

    def test_bypass_leaves_no_temp_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_mode("bypass", SMALL)
        assert list(tmp_path.iterdir()) == []

    def test_multi_stream_direct(self):
        r = run_mode("direct", {"payload_bytes": 2 << 20,
                                "parallel_streams": 2})
        assert len(r.per_stream_bps) == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_latency(self, mode, monkeypatch):
        """The latency is the one the client process measured."""
        finished = []

        def spy(*args):
            finished.append(finish(*args))
            return finished[-1]

        finish = bench._finish_client
        monkeypatch.setattr(bench, "_finish_client", spy)
        r = run_mode(mode, {"payload_bytes": 0, "latency": True,
                            "latency_count": 50})
        [lines] = finished
        assert lines["pingpong"]["count"] == 50
        assert r.mean_latency_us == lines["pingpong"]["mean_latency_us"] > 0

    def test_relay_latency_leaves_no_threads(self):
        # each closed listener must wake the thread blocked in its accept
        before = set(threading.enumerate())
        run_mode("relay", {"payload_bytes": 0, "latency": True,
                           "latency_count": 10})
        deadline = time.monotonic() + 5.0
        while (set(threading.enumerate()) - before
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert set(threading.enumerate()) <= before

    def test_bypass_refuses_unswitched_run(self, monkeypatch):
        """If no socket was actually switched the number is meaningless and
        the run must fail loudly rather than report a bogus figure."""
        from b4ns.engine import SwitchDecision

        monkeypatch.setattr("b4ns.engine.decide",
                            lambda *a, **kw: SwitchDecision.IGNORE)
        with pytest.raises((SwitchDidNotHappen, SetupFailed)):
            run_mode("bypass", SMALL)

    def test_cpu_counts_reaped_clients(self):
        cpu0 = bench._cpu_window()
        subprocess.run([sys.executable, "-c",
                        "import time\n"
                        "t = time.process_time()\n"
                        "while time.process_time() - t < 0.3: pass"],
                       check=True)
        assert bench._cpu_window() - cpu0 >= 0.25


class TestMedianResults:
    def _fake_run_mode(self, monkeypatch, results):
        calls = []

        def fake(mode, cfg_kwargs):
            calls.append(mode)
            return results.pop(0)

        monkeypatch.setattr(bench, "run_mode", fake)
        return calls

    def test_latency_median_by_mean_latency(self, monkeypatch):
        results = [BenchResult(mode="direct", throughput_bps=0.0,
                               mean_latency_us=us, cpu_self_fraction=0.0,
                               payload_bytes=0, streams=1)
                   for us in (30.0, 10.0, 20.0)]
        self._fake_run_mode(monkeypatch, results)
        got = bench.median_results(
            ("direct",), {"payload_bytes": 0, "latency": True}, runs=3)
        assert got["direct"].mean_latency_us == 20.0

    def test_modes_run_round_robin(self, monkeypatch):
        results = [BenchResult(mode=m, throughput_bps=float(i),
                               mean_latency_us=None, cpu_self_fraction=0.0,
                               payload_bytes=1 << 20, streams=1)
                   for i in range(3) for m in MODES]
        calls = self._fake_run_mode(monkeypatch, results)
        got = bench.median_results(MODES, SMALL, runs=3)
        assert calls == list(MODES) * 3
        assert {m: r.throughput_bps for m, r in got.items()} == {
            m: 1.0 for m in MODES}

    def test_cli_rejects_zero_runs(self):
        from b4ns.cli import main_bench

        with pytest.raises(SystemExit) as e:
            main_bench(["--runs", "0", "--mode", "direct"])
        assert e.value.code == 2


class TestReport:
    def _result(self, mode, bps):
        return BenchResult(mode=mode, throughput_bps=bps, mean_latency_us=None,
                           cpu_self_fraction=0.5, payload_bytes=1 << 20,
                           streams=1, per_stream_bps=[bps])

    def test_ratios_and_json_shape(self):
        results = [self._result("relay", 1e9), self._result("bypass", 3e9),
                   self._result("direct", 4e9)]
        text, payload = report(results)
        assert payload["ratios"]["bypass/relay"] == pytest.approx(3.0)
        assert payload["ratios"]["bypass/direct"] == pytest.approx(0.75)
        assert [r["mode"] for r in payload["results"]] == list(MODES)
        assert "bypass/relay: 3.00x" in text
        json.dumps(payload)  # serializable as-is

    def test_missing_modes_render(self):
        text, payload = report([self._result("direct", 1e9)])
        assert payload["ratios"] == {}
        assert "relay" in text
