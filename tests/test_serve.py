"""Tests for the scale-out sweep fabric (:mod:`repro.serve`).

The contract under test is the same one the whole bench stack rests on:
**serial == parallel == remote, bit-identical payloads**. Concurrency
here is real — services run on a background event-loop thread, clients
are OS threads, workers speak the wire protocol over sockets — and the
assertions are exact: each unique task key computed exactly once no
matter how many clients race, every client's stream equal to a serial
``run_tasks`` run, died workers requeued without duplicate results.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.bench.figures import UpdateExperiment
from repro.bench.parallel import (
    FootprintTask,
    ResultCache,
    code_version,
    result_to_payload,
    run_tasks,
    set_code_version,
    task_key,
)
from repro.params import ZEC12
from repro.serve import protocol
from repro.serve.client import ServiceError, SweepClient, wait_ready
from repro.serve.protocol import ProtocolError
from repro.serve.service import ServiceThread
from repro.serve.store import ResultStore, atomic_write_json
from repro.serve.worker import WorkerAgent, WorkerRejected
from repro.workloads.hashtable import HashtableExperiment
from repro.workloads.stamp import VacationExperiment

# A small but heterogeneous sweep: three task kinds, including a
# contended lock point and a scalar footprint point.
SWEEP = [
    ("update", UpdateExperiment("tbegin", 2, 10, 1, iterations=5)),
    ("update", UpdateExperiment("coarse", 3, 10, 4, iterations=4)),
    ("hashtable", HashtableExperiment(2, elide=True, operations=6)),
    ("vacation", VacationExperiment(2, use_tx=True, sessions=3)),
    ("footprint", FootprintTask(120, False, trials=3)),
]


def canonical(payloads):
    return [json.dumps(payload, sort_keys=True) for payload in payloads]


def serial_payloads(tasks, metrics=False):
    results = run_tasks(tasks, metrics=metrics)
    out = []
    for (kind, _experiment), result in zip(tasks, results):
        if kind == "footprint":
            out.append({"type": "scalar", "value": result})
        else:
            out.append(result_to_payload(result))
    return out


@pytest.fixture()
def host():
    with ServiceThread(local_workers=2) as service_host:
        yield service_host


# ----------------------------------------------------------------------
# store tiering
# ----------------------------------------------------------------------


class TestResultStore:
    PAYLOAD = {"type": "scalar", "value": 42}

    def test_memory_tier_hit(self):
        store = ResultStore(root=None)
        store.put("k", self.PAYLOAD)
        assert store.get("k") == self.PAYLOAD
        assert store.stats.memory_hits == 1
        assert store.get("absent") is None
        assert store.stats.misses == 1

    def test_disk_tier_survives_memory_eviction(self, tmp_path):
        store = ResultStore(root=str(tmp_path), memory_entries=1)
        store.put("a", self.PAYLOAD)
        store.put("b", {"type": "scalar", "value": 7})  # evicts "a"
        assert store.get("a") == self.PAYLOAD
        assert store.stats.disk_hits == 1
        # The hit was promoted back into memory.
        assert store.get("a") == self.PAYLOAD
        assert store.stats.memory_hits == 1

    def test_lru_eviction_order(self):
        store = ResultStore(root=None, memory_entries=2)
        store.put("a", self.PAYLOAD)
        store.put("b", self.PAYLOAD)
        store.get("a")                      # refresh "a"
        store.put("c", self.PAYLOAD)        # evicts "b", not "a"
        assert store.get("a") is not None
        assert store.get("b") is None

    def test_remote_tier_read_through_promotes(self, tmp_path):
        local = tmp_path / "local"
        remote = tmp_path / "remote"
        producer = ResultStore(root=None, memory_entries=0,
                               remote_root=str(remote))
        producer.put("k", self.PAYLOAD)
        consumer = ResultStore(root=str(local), remote_root=str(remote))
        assert consumer.get("k") == self.PAYLOAD
        assert consumer.stats.remote_hits == 1
        assert consumer.stats.promotions == 1
        # Promoted into the local disk tier: a remote-less reader now hits.
        assert ResultStore(root=str(local),
                           remote_root="").get("k") == self.PAYLOAD

    def test_remote_tier_from_environment(self, tmp_path, monkeypatch):
        remote = tmp_path / "shared"
        monkeypatch.setenv("REPRO_BENCH_CACHE_REMOTE", str(remote))
        ResultStore(root=None).put("k", self.PAYLOAD)
        assert ResultStore(root=None, memory_entries=0).get("k") \
            == self.PAYLOAD

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = ResultStore(root=str(tmp_path), memory_entries=0)
        store.put("k", self.PAYLOAD)
        (tmp_path / "k.json").write_text("{ torn mid-wri")
        assert store.get("k") is None
        assert store.stats.corrupt_entries == 1

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        store = ResultStore(root=str(tmp_path), memory_entries=0)
        (tmp_path / "k.json").write_text('["not", "a", "payload"]')
        assert store.get("k") is None

    def test_atomic_write_leaves_no_tmp_droppings(self, tmp_path):
        path = str(tmp_path / "x.json")
        atomic_write_json(path, self.PAYLOAD)
        atomic_write_json(path, self.PAYLOAD)
        assert os.listdir(tmp_path) == ["x.json"]

    def test_concurrent_same_key_writers(self, tmp_path):
        """Racing writers (threads) never leave a torn entry."""
        store = ResultStore(root=str(tmp_path), memory_entries=0)
        payload = {"type": "scalar", "value": list(range(500))}
        threads = [threading.Thread(target=store.put, args=("k", payload))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.get("k") == payload
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []


class TestResultCacheHardening:
    def test_put_is_atomic_and_unique_tmp(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"type": "scalar", "value": 1})
        cache.put("k", {"type": "scalar", "value": 2})
        assert cache.get("k") == {"type": "scalar", "value": 2}
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []

    def test_get_tolerates_torn_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "k.json").write_text('{"type": "sim", "cycles": 12')
        assert cache.get("k") is None

    def test_get_tolerates_wrong_shape(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "k.json").write_text("[1, 2, 3]")
        assert cache.get("k") is None


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_task_round_trip_every_kind(self):
        for task in SWEEP:
            assert protocol.task_from_wire(protocol.task_to_wire(task)) \
                == task

    def test_params_round_trip(self):
        assert protocol.params_from_wire(
            protocol.params_to_wire(ZEC12)) == ZEC12

    def test_job_round_trip_preserves_key(self):
        kind, experiment = SWEEP[0]
        wire = protocol.job_to_wire(kind, experiment, ZEC12, False)
        wire = json.loads(json.dumps(wire))  # through the wire
        kind2, experiment2, params2, metrics2 = protocol.job_from_wire(wire)
        assert task_key(kind, experiment, ZEC12) \
            == task_key(kind2, experiment2, params2, metrics=metrics2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.task_from_wire({"kind": "bogus", "experiment": {}})

    def test_encode_is_canonical_one_line(self):
        blob = protocol.encode({"b": 1, "a": {"y": 2, "x": 3}})
        assert blob == b'{"a":{"x":3,"y":2},"b":1}\n'

    def test_parse_address(self):
        assert protocol.parse_address("unix:/tmp/x.sock") \
            == ("unix", "/tmp/x.sock")
        assert protocol.parse_address("127.0.0.1:8637") \
            == ("tcp", ("127.0.0.1", 8637))
        assert protocol.parse_address(":0") == ("tcp", ("127.0.0.1", 0))
        with pytest.raises(ProtocolError):
            protocol.parse_address("no-port")


# ----------------------------------------------------------------------
# service: determinism and single-flight
# ----------------------------------------------------------------------


class TestServiceDeterminism:
    def test_service_bit_identical_to_serial(self, host):
        expected = canonical(serial_payloads(SWEEP))
        with SweepClient(host.address) as client:
            assert canonical(client.run_payloads(SWEEP)) == expected

    def test_store_round_trip_stays_identical(self, host):
        expected = canonical(serial_payloads(SWEEP))
        with SweepClient(host.address) as client:
            assert canonical(client.run_payloads(SWEEP)) == expected
            # Second submission: all served from the store, same bytes.
            assert canonical(client.run_payloads(SWEEP)) == expected
            stats = client.stats()["service"]
        assert stats["computed"] == len(SWEEP)
        assert stats["store_served"] == len(SWEEP)

    def test_metrics_sweep_matches_serial(self, host):
        tasks = SWEEP[:2]
        expected = canonical(serial_payloads(tasks, metrics=True))
        with SweepClient(host.address) as client:
            assert canonical(client.run_payloads(tasks, metrics=True)) \
                == expected

    def test_metrics_merge_service_matches_serial(self, host):
        # The ROADMAP sweep-fabric follow-on: metrics JSONL streamed
        # through the service path must aggregate bit-identically to a
        # serial sweep — same summaries, same submission order, same
        # pure merge.
        from repro.sim.metrics import merge_summaries

        tasks = SWEEP[:3]
        expected = merge_summaries(
            r.metrics for r in run_tasks(tasks, metrics=True)
        )
        with SweepClient(host.address) as client:
            remote = client.run_tasks(tasks, metrics=True)
        merged = merge_summaries(r.metrics for r in remote)
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_sched_counters_ride_the_wire(self, host):
        # The scheduler counter block must survive the payload
        # round-trip so service sweeps expose the same
        # self-observability as local runs.
        tasks = SWEEP[:2]
        serial = run_tasks(tasks)
        with SweepClient(host.address) as client:
            remote = client.run_tasks(tasks)
        for local, wire in zip(serial, remote):
            assert wire.sched == local.sched
        assert remote[1].sched["events"] > 0
        assert set(remote[1].sched) == {
            "events", "parks", "wakes", "retry_parks", "retry_wakes",
            "retry_ticks", "spin_steps", "heap_elides", "heap_elided_steps",
            "pushpop_fusions", "broadcast_stops",
        }

    def test_metrics_and_plain_are_distinct_keys(self, host):
        tasks = SWEEP[:1]
        with SweepClient(host.address) as client:
            client.run_payloads(tasks)
            client.run_payloads(tasks, metrics=True)
            stats = client.stats()["service"]
        assert stats["computed"] == 2  # no false store hit across modes

    def test_duplicate_points_within_one_request(self, host):
        tasks = [SWEEP[0], SWEEP[1], SWEEP[0], SWEEP[0]]
        expected = canonical(serial_payloads(tasks))
        with SweepClient(host.address) as client:
            assert canonical(client.run_payloads(tasks)) == expected
            stats = client.stats()["service"]
        assert stats["computed"] == 2
        assert stats["coalesced"] == 2

    def test_concurrent_identical_sweeps_single_flight(self, host):
        """The duplicate storm: N clients, each key computed once."""
        n_clients = 8
        expected = canonical(serial_payloads(SWEEP))
        streams = [None] * n_clients
        errors = []

        def one_client(slot):
            try:
                with SweepClient(host.address) as client:
                    streams[slot] = canonical(client.run_payloads(SWEEP))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for stream in streams:
            assert stream == expected
        stats = host.service.counters
        assert stats["computed"] == len(SWEEP)
        assert stats["points_requested"] == n_clients * len(SWEEP)

    def test_concurrent_overlapping_sweeps(self, host):
        """Different-but-overlapping task lists still dedupe exactly."""
        sweeps = [SWEEP, SWEEP[1:] + SWEEP[:1], SWEEP[:3], SWEEP[2:]]
        expected = [canonical(serial_payloads(tasks)) for tasks in sweeps]
        outcomes = [None] * len(sweeps)

        def one_client(slot):
            with SweepClient(host.address) as client:
                outcomes[slot] = canonical(
                    client.run_payloads(sweeps[slot]))

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(len(sweeps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == expected
        assert host.service.counters["computed"] == len(SWEEP)

    def test_empty_sweep(self, host):
        with SweepClient(host.address) as client:
            assert client.run_payloads([]) == []

    def test_bad_task_reports_error(self, host):
        with SweepClient(host.address) as client:
            client._request_seq += 1
            client._connected().send({
                "type": "sweep", "id": "bad", "params": {},
                "metrics": False,
                "tasks": [{"kind": "bogus", "experiment": {}}],
            })
            reply = client._connected().recv()
        assert reply["type"] == "error"

    def test_stream_log_records_points(self, host, tmp_path):
        log_path = str(tmp_path / "stream.jsonl")
        with SweepClient(host.address, stream_log=log_path) as client:
            client.run_payloads(SWEEP[:2])
        records = [json.loads(line)
                   for line in open(log_path).read().splitlines()]
        assert len(records) == 2
        assert {record["index"] for record in records} == {0, 1}
        assert all(record["record"] == "point" for record in records)


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------


class TestCancellation:
    def test_cancel_unblocks_and_drops_pending(self):
        # No execution lanes at all: everything stays pending forever,
        # so cancel is the only way the request ends.
        with ServiceThread(local_workers=0) as host:
            with SweepClient(host.address) as client:
                stream = client._connected()
                stream.send({
                    "type": "sweep", "id": "r1",
                    "params": protocol.params_to_wire(ZEC12),
                    "metrics": False,
                    "tasks": [protocol.task_to_wire(task)
                              for task in SWEEP[:2]],
                })
                stream.send({"type": "cancel", "id": "r1"})
                reply = stream.recv()
                assert reply == {"type": "cancelled", "id": "r1"}
                # The service remains fully usable afterwards.
                assert client.ping()["type"] == "pong"
                stats = client.stats()["service"]
            assert stats["cancelled"] == 1

    def test_disconnect_acts_as_cancel(self):
        with ServiceThread(local_workers=0) as host:
            client = SweepClient(host.address)
            client._connected().send({
                "type": "sweep", "id": "r1",
                "params": protocol.params_to_wire(ZEC12),
                "metrics": False,
                "tasks": [protocol.task_to_wire(SWEEP[0])],
            })
            client.close()
            # A worker now connecting and leasing must find the pending
            # point dropped (no waiters) rather than computing it.
            with SweepClient(host.address) as probe:
                wait_ready(host.address)
                deadline = 50
                while probe.stats()["service"]["cancelled"] == 0 \
                        and deadline:
                    deadline -= 1
                    threading.Event().wait(0.05)
                assert probe.stats()["service"]["cancelled"] == 1


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------


class TestWorkers:
    def test_worker_serves_sweep_bit_identically(self):
        expected = canonical(serial_payloads(SWEEP))
        with ServiceThread(local_workers=0) as host:
            agent = WorkerAgent(host.address, name="w0", batch=2)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            with SweepClient(host.address) as client:
                assert canonical(client.run_payloads(SWEEP)) == expected
                stats = client.stats()["service"]
            assert stats["computed"] == len(SWEEP)
            assert stats["leases"] >= 1
            assert stats["workers_seen"] == 1

    def test_version_mismatch_rejected(self):
        with ServiceThread(local_workers=0) as host:
            with pytest.raises(WorkerRejected):
                WorkerAgent(host.address, version="stale-code").run()
            assert host.service.counters["version_rejects"] == 1

    def test_worker_death_mid_lease_requeues(self):
        """A worker that takes a lease and dies never loses the task —
        and the eventual result is computed exactly once."""
        tasks = SWEEP[:2]
        expected = canonical(serial_payloads(tasks))
        with ServiceThread(local_workers=0) as host:
            outcome = {}

            def client_side():
                with SweepClient(host.address, timeout=60) as client:
                    outcome["payloads"] = canonical(
                        client.run_payloads(tasks))

            client_thread = threading.Thread(target=client_side,
                                             daemon=True)
            client_thread.start()

            # A doomed worker: hello, take the lease, drop dead.
            doomed = protocol.connect(host.address, timeout=30)
            doomed.send({"type": "worker-hello", "name": "doomed",
                         "code_version": code_version(), "batch": 4})
            assert doomed.recv()["type"] == "welcome"
            lease = doomed.recv()
            assert lease["type"] == "lease"
            assert len(lease["jobs"]) >= 1
            doomed.close()

            # A live worker picks up the requeued tasks.
            survivor = WorkerAgent(host.address, name="survivor")
            survivor_thread = threading.Thread(target=survivor.run,
                                               daemon=True)
            survivor_thread.start()
            client_thread.join(timeout=120)
            assert not client_thread.is_alive()
            assert outcome["payloads"] == expected
            stats = host.service.counters
            assert stats["requeues"] >= 1
            # Exactly one completion per key despite the requeue.
            assert stats["computed"] == len(tasks)

    def test_worker_result_count_mismatch_is_protocol_error(self):
        with ServiceThread(local_workers=0) as host:
            done = {}

            def client_side():
                with SweepClient(host.address, timeout=60) as client:
                    done["payloads"] = client.run_payloads(SWEEP[:1])

            thread = threading.Thread(target=client_side, daemon=True)
            thread.start()
            bad = protocol.connect(host.address, timeout=30)
            bad.send({"type": "worker-hello", "name": "bad",
                      "code_version": code_version(), "batch": 4})
            assert bad.recv()["type"] == "welcome"
            lease = bad.recv()
            bad.send({"type": "result", "lease": lease["lease"],
                      "payloads": []})  # wrong count
            # The service must requeue and eventually serve via a good
            # worker.
            good = WorkerAgent(host.address, name="good")
            threading.Thread(target=good.run, daemon=True).start()
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert done["payloads"]
            bad.close()


# ----------------------------------------------------------------------
# code-version seeding (satellite)
# ----------------------------------------------------------------------


class TestCodeVersionSeeding:
    def test_set_code_version_short_circuits(self):
        import repro.bench.parallel as parallel_module
        saved = parallel_module._CODE_VERSION
        try:
            set_code_version("feedfacecafebeef")
            assert code_version() == "feedfacecafebeef"
        finally:
            parallel_module._CODE_VERSION = saved

    def test_environment_seed_wins(self, monkeypatch):
        import repro.bench.parallel as parallel_module
        saved = parallel_module._CODE_VERSION
        try:
            parallel_module._CODE_VERSION = None
            monkeypatch.setenv("REPRO_CODE_VERSION", "0123456789abcdef")
            assert code_version() == "0123456789abcdef"
        finally:
            parallel_module._CODE_VERSION = saved

    def test_worker_agent_computes_version_once(self):
        agent = WorkerAgent.__new__(WorkerAgent)
        agent.version = code_version()
        assert agent.version == code_version()  # cached, not re-hashed


# ----------------------------------------------------------------------
# run_figures integration: the --service path is the same math
# ----------------------------------------------------------------------


class TestSweepThroughService:
    def test_parallel_sweep_runner_matches_local(self, host):
        from repro.bench.parallel import parallel_sweep

        schemes, grid = ["coarse", "tbeginc"], (2, 4)
        reference = parallel_sweep(schemes, grid, 10, 4, iterations=6)
        with SweepClient(host.address) as client:
            via_service = parallel_sweep(schemes, grid, 10, 4,
                                         iterations=6,
                                         runner=client.run_tasks)
        assert via_service == reference
