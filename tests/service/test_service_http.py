"""End-to-end service tests over localhost HTTP.

Every test starts a real :class:`ChaseService` on an ephemeral port and
talks to it through :class:`ChaseServiceClient` — the same path
``python -m repro serve`` exercises.
"""

import json
import threading
import urllib.error

import pytest

from repro.generators.families import sl_lower_bound
from repro.generators.workloads import mixed_workload_jobs
from repro.model.parser import parse_database, parse_program
from repro.runtime import BatchExecutor, ChaseJob, ResultCache
from repro.runtime.jobs import manifest_entry
from repro.service import ChaseService, ChaseServiceClient, ServiceError


def make_job(tag: str = "a", job_id: str = "") -> ChaseJob:
    return ChaseJob(
        program=parse_program(f"R_{tag}(x, y) -> exists z . S_{tag}(y, z)"),
        database=parse_database(f"R_{tag}(a, b)."),
        job_id=job_id,
    )


@pytest.fixture()
def service():
    with ChaseService(workers=2, max_queue=64) as running:
        yield running


@pytest.fixture()
def client(service):
    client = ChaseServiceClient(service.url, timeout=30.0)
    client.wait_until_healthy()
    return client


class TestHealthAndStats:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2 and health["max_queue"] == 64

    def test_accepted_sockets_disable_nagle(self, service, monkeypatch):
        # Nagle's algorithm holds a keep-alive response's second segment
        # until the client's delayed ACK (~40 ms per request); pin the
        # socket option rather than a timing.
        import http.client
        import socket

        from repro.service import server

        flags = []
        setup = server._ChaseRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            flags.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(server._ChaseRequestHandler, "setup", recording_setup)
        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10.0)
        try:
            for _ in range(2):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
        assert len(flags) == 1 and flags[0] != 0

    def test_stats_shape(self, client):
        client.run_job(make_job("stats"), timeout=60.0)
        stats = client.stats()
        assert stats["scheduler"]["executed"] == 1
        assert stats["registry"]["jobs"] == 1
        assert stats["scheduler"]["cache"]["stores"] == 1
        assert "by_class" in stats["scheduler"]

    def test_compile_memos_stop_growing_on_a_resubmitted_job(self, client):
        client.run_job(make_job("memos", job_id="memos-1"), timeout=60.0)
        memos = client.stats()["compile_memos"]
        assert set(memos) == {"kernels", "rule_templates", "canonical_labels"}
        assert all(count > 0 for count in memos.values())
        client.run_job(make_job("memos", job_id="memos-2"), timeout=60.0)
        assert client.stats()["compile_memos"] == memos

    def test_unknown_routes_404(self, client):
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            with pytest.raises(ServiceError) as excinfo:
                client._json(method, path, b"" if method == "POST" else None)
            assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.job("j-999999")
        assert excinfo.value.status == 404


class TestSingleJobs:
    def test_round_trip_byte_identical_to_direct_executor(self, client):
        jobs = mixed_workload_jobs(job_count=10, seed=7)
        direct = {r.job_id: r for r in BatchExecutor(workers=1).run_all(jobs)}
        compared = 0
        for job in jobs:
            record = client.run_job(job, timeout=120.0)
            served = record["result"]
            expected = direct[job.job_id]
            assert served["budget"] == expected.budget_provenance
            if expected.status != "ok":
                continue  # a timeout's summary is not deterministic
            compared += 1
            assert json.dumps(served["summary"], sort_keys=True) == expected.summary_json()
        assert compared >= 8

    def test_long_poll_returns_terminal_state(self, client):
        submitted = client.submit_job(make_job("poll"))
        record = client.job(submitted["job_id"], wait=30.0)
        assert record["state"] == "done"
        assert record["result"]["outcome"] == "terminated"

    def test_resubmission_is_served_from_cache(self, client):
        job = make_job("warm")
        cold = client.run_job(job, timeout=60.0)
        warm = client.run_job(job, timeout=60.0)
        assert cold["result"]["cache"]["hit"] is False
        assert warm["result"]["cache"]["hit"] is True
        assert json.dumps(warm["result"]["summary"], sort_keys=True) == json.dumps(
            cold["result"]["summary"], sort_keys=True
        )

    def test_cache_hit_is_ten_times_faster_than_the_cold_run(self, client):
        # Per-job execution time, not HTTP round trips: a ~0.3 s chase
        # (24k-atom SL family) against a cache replay of its summary.
        database, tgds = sl_lower_bound(2, 3, 32)
        job = ChaseJob(program=tgds, database=database, job_id="slow")
        cold = client.run_job(job, timeout=120.0)["result"]
        warm = client.run_job(job, timeout=120.0)["result"]
        assert cold["cache"]["hit"] is False and warm["cache"]["hit"] is True
        assert warm["wall_seconds"] <= cold["wall_seconds"] / 10, (cold, warm)

    def test_bad_bodies_are_400(self, client):
        for body in (b"not json", b'{"program": "R(x) -> "}'):
            with pytest.raises(ServiceError) as excinfo:
                client._json("POST", "/jobs", body)
            assert excinfo.value.status == 400

    def test_path_based_entries_are_refused(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job({"rules": "/etc/passwd", "database": "R(a)."})
        assert excinfo.value.status == 400
        assert "path-based" in str(excinfo.value)

    def test_hostile_explicit_budget_is_bounded_by_the_daemon_timeout(self):
        # An explicit budget with astronomical limits and no timeout
        # must not pin a worker forever: the daemon's per-job ceiling
        # stops it.
        with ChaseService(workers=1, max_queue=4, per_job_timeout=0.2) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            record = client.run_job(
                {
                    "id": "hostile",
                    "program": "R(x, y) -> exists z . R(y, z)",
                    "database": "R(a, b).",
                    "budget": {"max_atoms": 10**12, "max_rounds": 10**12},
                },
                timeout=60.0,
            )
            assert record["result"]["status"] == "timeout"
            assert record["result"]["outcome"] == "time_budget_exceeded"

    def test_oversized_body_is_413(self):
        with ChaseService(workers=1, max_queue=4, max_body_bytes=1024) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            huge = {"program": "R(x, y) -> S(y, x)", "database": "R(a, b).", "id": "x" * 2048}
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job(huge)
            assert excinfo.value.status == 413
            # The daemon is still healthy for normally-sized requests.
            assert client.run_job(make_job("after"), timeout=60.0)["state"] == "done"

    def test_negative_content_length_is_400_not_a_hung_thread(self, service):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10.0)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            connection.close()

    def test_unknown_budget_fields_are_400_not_500(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job(
                {"program": "R(x, y) -> S(y, x)", "database": "R(a, b).", "budget": {"bogus": 1}}
            )
        assert excinfo.value.status == 400
        assert "invalid job entry" in str(excinfo.value)

    def test_error_responses_keep_the_connection_in_sync(self, service):
        # A POST whose handler errors before consuming the body must
        # still drain it, or the next request on a keep-alive
        # connection parses the leftover bytes as its request line.
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10.0)
        try:
            body = json.dumps({"x": 1})
            connection.request("POST", "/nope", body=body)
            assert connection.getresponse().read() and True  # 404, body drained
            connection.request("POST", "/batches?admit_wait=bogus", body="{}")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            # The same reused connection still serves a clean request.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestBatches:
    def test_streamed_batch_matches_direct_run(self, client):
        jobs = mixed_workload_jobs(job_count=12, seed=7)
        direct = {
            r.job_id: r.summary_json()
            for r in BatchExecutor(workers=1).run_all(jobs)
            if r.status == "ok"  # timeouts have non-deterministic summaries
        }
        rows, trailer = client.run_batch(jobs, wait=120.0)
        assert trailer["complete"] and trailer["rows"] == len(jobs)
        served = {
            str(r["id"]): json.dumps(r["summary"], sort_keys=True)
            for r in rows
            if r["status"] == "ok"
        }
        assert direct == {job_id: served[job_id] for job_id in direct}
        assert len(direct) >= 10

    def test_bad_manifest_lines_become_error_rows(self, client):
        text = (
            json.dumps(manifest_entry(make_job("good", job_id="good"))) + "\n"
            "this is not json\n"
            '{"program": "R(x, y) -> S(y)"}\n'  # no database
        )
        rows, trailer = client.run_batch(text, wait=60.0)
        assert trailer["complete"]
        by_status = {str(r["id"]): r["status"] for r in rows}
        assert by_status["good"] == "ok"
        assert by_status["line-2"] == "error" and by_status["line-3"] == "error"

    def test_empty_batch_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_batch("")
        assert excinfo.value.status == 400

    def test_unknown_batch_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.batch_results("b-999999")
        assert excinfo.value.status == 404

    def test_manifest_larger_than_queue_streams_with_admit_wait(self):
        with ChaseService(workers=2, max_queue=4) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            jobs = [make_job(f"bp{i}") for i in range(12)]  # 3× the queue bound
            # Atomic admission refuses the oversized manifest...
            with pytest.raises(ServiceError) as excinfo:
                client.submit_batch(jobs)
            assert excinfo.value.status == 429
            assert "admit_wait" in str(excinfo.value)
            # ...backpressure admission streams it through the bound.
            rows, trailer = client.run_batch(jobs, wait=120.0, admit_wait=120.0)
            assert trailer["complete"] and trailer["rows"] == 12
            assert all(r["status"] == "ok" for r in rows)

    def test_duplicate_jobs_within_batch_share_results(self, client):
        entries = [
            manifest_entry(make_job("dup", job_id="one")),
            manifest_entry(make_job("dup", job_id="two")),
        ]
        rows, trailer = client.run_batch(entries, wait=60.0)
        assert trailer["complete"]
        summaries = {json.dumps(r["summary"], sort_keys=True) for r in rows}
        assert len(summaries) == 1


class TestSaturationAndDedup:
    def test_saturated_queue_returns_429(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        with ChaseService(workers=1, max_queue=1) as service:
            service.scheduler.before_execute = hold
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            client.submit_job(make_job("blocker"))
            assert started.wait(timeout=30.0)
            client.submit_job(make_job("queued"))  # fills the single slot
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job(make_job("overflow"))
            assert excinfo.value.status == 429
            assert "queue" in str(excinfo.value)
            # An oversized batch is refused atomically.
            with pytest.raises(ServiceError) as excinfo:
                client.submit_batch([make_job("b1"), make_job("b2")])
            assert excinfo.value.status == 429
            gate.set()

    def test_concurrent_identical_submissions_execute_once(self):
        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        with ChaseService(workers=1, max_queue=64) as service:
            service.scheduler.before_execute = hold
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            client.submit_job(make_job("blocker"))
            assert started.wait(timeout=30.0)
            entry = manifest_entry(make_job("dup"))
            submissions = []
            lock = threading.Lock()

            def submit():
                response = ChaseServiceClient(service.url, timeout=30.0).submit_job(entry)
                with lock:
                    submissions.append(response)

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            gate.set()
            records = [client.job(str(s["job_id"]), wait=60.0) for s in submissions]
            assert all(r["state"] == "done" for r in records)
            summaries = {
                json.dumps(r["result"]["summary"], sort_keys=True) for r in records
            }
            assert len(summaries) == 1
            stats = service.scheduler.stats()
            real_executions = stats["executed"] - stats["cache_hits"]
            assert real_executions == 2  # the blocker + exactly one dup run
            assert stats["deduped"] == 5
            dispositions = {str(s["disposition"]) for s in submissions}
            assert dispositions == {"accepted", "deduped"}


class TestConnectionBound:
    def test_over_cap_connections_get_503(self):
        import http.client

        gate, started = threading.Event(), threading.Event()

        def hold(job):
            started.set()
            gate.wait(timeout=30.0)

        with ChaseService(workers=1, max_queue=8, max_connections=2) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            service.scheduler.before_execute = hold
            submitted = client.submit_job(make_job("pinned"))
            assert started.wait(timeout=30.0)
            job_id = submitted["job_id"]
            # A closed connection frees its slot only once the server's
            # handler thread has read the EOF: synchronise on the slot
            # counts instead of racing that teardown.
            assert service._httpd.wait_open(0, timeout=30.0)
            statuses = []

            def long_poll():
                connection = http.client.HTTPConnection(
                    "127.0.0.1", service.port, timeout=30.0
                )
                try:
                    connection.request("GET", f"/jobs/{job_id}?wait=20")
                    response = connection.getresponse()
                    statuses.append(response.status)
                    response.read()
                finally:
                    connection.close()

            pollers = [threading.Thread(target=long_poll, daemon=True) for _ in range(2)]
            for poller in pollers:
                poller.start()
            # Both long-polls hold their slots until the gate opens.
            assert service._httpd.wait_open(2, timeout=30.0)
            third = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10.0)
            try:
                third.request("GET", "/healthz")
                response = third.getresponse()
                status, body = response.status, response.read()
            finally:
                third.close()
            assert status == 503
            assert b"connection limit" in body
            gate.set()
            for poller in pollers:
                poller.join(timeout=30.0)
            assert statuses == [200, 200]
            # Slots freed: the daemon serves normally again.
            assert service._httpd.wait_open(0, timeout=30.0)
            assert client.healthz()["status"] == "ok"


class TestShutdown:
    def test_graceful_shutdown_drains_inflight_jobs(self):
        service = ChaseService(workers=1, max_queue=64).start()
        try:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            submitted = [client.submit_job(make_job(f"drain{i}")) for i in range(5)]
            response = client.shutdown()
            assert response["draining"] is True
            assert service.wait_stopped(timeout=60.0)
            # Every accepted job finished with a result before the stop.
            for s in submitted:
                record = service.registry.job(str(s["job_id"]))
                assert record is not None and record.terminal
                assert record.result["status"] == "ok"
            # The daemon is really gone.
            with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
                client.healthz()
        finally:
            service.stop()

    def test_draining_daemon_rejects_submissions(self):
        with ChaseService(workers=1, max_queue=64) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            service.scheduler.shutdown(timeout=30.0)
            assert client.healthz()["status"] == "draining"
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job(make_job())
            assert excinfo.value.status == 429


class TestDaemonCacheBehaviour:
    def test_bounded_cache_evicts_across_requests(self):
        cache = ResultCache(max_entries=2)
        with ChaseService(workers=1, max_queue=64, cache=cache) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            for tag in ("a", "b", "c"):
                client.run_job(make_job(tag), timeout=60.0)
            assert len(cache) == 2 and cache.evictions == 1
            # "a" was evicted: resubmission misses and re-executes.
            record = client.run_job(make_job("a"), timeout=60.0)
            assert record["result"]["cache"]["hit"] is False
            # "c" is still resident and replays.
            record = client.run_job(make_job("c"), timeout=60.0)
            assert record["result"]["cache"]["hit"] is True

    def test_daemon_skips_stale_cache_versions_on_start(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            json.dumps({"key": "old", "summary": {"size": 1}, "schema_version": 0}) + "\n"
        )
        with pytest.warns(UserWarning, match="schema version"):
            cache = ResultCache(path)
        with ChaseService(workers=1, max_queue=64, cache=cache) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            record = client.run_job(make_job("fresh"), timeout=60.0)
            assert record["result"]["cache"]["hit"] is False
            assert client.stats()["scheduler"]["cache"]["version_skipped"] == 1
        # Drain compacted the spill: only current-version lines remain.
        lines = [
            json.loads(line.rpartition("\tcrc32=")[0] or line)
            for line in path.read_text().strip().splitlines()
        ]
        assert all(line["schema_version"] != 0 for line in lines)
        reloaded = ResultCache(path)
        assert reloaded.version_skipped == 0 and len(reloaded) == 1


class TestAdmissionAnalysis:
    def diverging_job(self, job_id: str = "div") -> ChaseJob:
        return ChaseJob(
            program=parse_program("R(x, y) -> exists z . R(y, z)"),
            database=parse_database("R(a, b)."),
            job_id=job_id,
        )

    def test_default_service_accepts_diverging_jobs(self, client, service):
        # Admission analysis is opt-in: the stock daemon keeps the seed
        # behaviour and runs diverging programs under the default budget.
        submitted = client.submit_job(self.diverging_job())
        assert submitted["state"] in ("queued", "running", "done")
        assert "admission_analysis" not in client.stats()

    def test_analysis_service_rejects_diverging_jobs_with_422(self):
        with ChaseService(workers=1, max_queue=8, admission_analysis=True) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job(self.diverging_job())
            assert excinfo.value.status == 422
            document = excinfo.value.document
            assert document["error"] == "diverging-program"
            assert document["analysis"]["verdict"] == "diverging"
            assert document["analysis"]["trace"]
            # Terminating jobs pass admission and run to completion.
            record = client.run_job(make_job("fine"), timeout=60.0)
            assert record["result"]["outcome"] == "terminated"
            assert record["result"]["budget"]["verdict"]["value"] == "terminating"
            stats = client.stats()
            assert stats["admission_analysis"] == {"enabled": True, "rejections": 1}

    def test_batches_accept_diverging_jobs_under_the_clamp(self):
        # POST /batches is the explicit "run it anyway" path: the job is
        # admitted but the analysis-aware policy clamps its budget far
        # below the default million atoms.
        with ChaseService(workers=1, max_queue=8, admission_analysis=True) as service:
            client = ChaseServiceClient(service.url, timeout=30.0)
            client.wait_until_healthy()
            rows, _trailer = client.run_batch([self.diverging_job("div-batch")], wait=60.0)
            (row,) = [r for r in rows if r["id"] == "div-batch"]
            budget = row["budget"]
            assert budget["verdict"]["value"] == "diverging"
            assert budget["source"] == "analysis-clamp"
            assert budget["max_atoms"]["value"] == 50_000
            assert row["outcome"] != "terminated"
