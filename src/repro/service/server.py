"""HTTP front end of the chase service daemon (stdlib-only).

``ChaseService`` owns the registry, the scheduler, and a
``ThreadingHTTPServer``; ``python -m repro serve`` is its CLI wrapper.
One request thread per connection, worker threads per the scheduler —
the HTTP layer never executes a chase itself.

Endpoints (all JSON unless noted)::

    POST /jobs            submit one job (manifest-entry body) → 202
                          {"job_id", "disposition"}; 429 when saturated
    POST /batches         submit a JSONL manifest body → 202
                          {"batch_id", "jobs", "manifest_errors"};
                          429 unless every line fits the queue
    GET  /jobs/<id>       job record; ``?wait=S`` long-polls up to S
                          seconds for a terminal state
    GET  /batches/<id>    streams result rows as JSONL in submission
                          order as jobs finish, then a trailer line
    GET  /healthz         liveness + queue depth
    GET  /stats           cache hit rate, queue depth, per-class and
                          per-outcome counts, budget stops, retention
    POST /shutdown        drain accepted work, then stop the daemon

Job bodies are the JSONL manifest-entry format of
:mod:`repro.runtime.jobs`, restricted to inline ``program`` /
``database`` text: the path-based ``rules`` / ``facts`` forms would
read files on the *server*, which a network-facing daemon must not do
on behalf of a client.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.chase.store_plan import compile_memo_sizes
from repro.core.termination_analysis import DIVERGING, TerminationAnalyzer
from repro.obs.conformance import record_conformance
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.trace import TraceRecorder
from repro.runtime.budget_policy import BudgetPolicy
from repro.runtime.cache import SCHEMA_VERSION, ResultCache
from repro.runtime.executor import BatchExecutor
from repro.runtime.faults import get_injector
from repro.runtime.jobs import (
    ChaseJob,
    ManifestError,
    job_from_manifest_entry,
    parse_manifest_text,
)

from repro.service.queue import REJECTED, ChaseScheduler
from repro.service.state import DEFAULT_TTL_SECONDS, JobRegistry

logger = logging.getLogger("repro.service")


class _BodyTooLarge(Exception):
    """Request body exceeds the daemon's buffering cap (HTTP 413)."""

    def __init__(self, length: int, cap: int) -> None:
        super().__init__(f"request body of {length} bytes exceeds the {cap}-byte limit")


class _LengthRequired(Exception):
    """Chunked transfer encoding is not supported (HTTP 411)."""


class _BoundedThreadingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` with a cap on concurrent connections.

    Long-polls, batch streams, and backpressure admissions each pin a
    request thread; without a cap a connection flood grows threads and
    file descriptors without limit regardless of the job-queue bound.
    Over-cap connections get an immediate 503 and are closed.

    A slot is held until the connection's handler thread returns, which
    is *after* the client closed its socket: the keep-alive handler
    first has to read the EOF.  :meth:`wait_open` lets callers that
    must not race admission or that teardown synchronise on the count.
    """

    def __init__(self, address, handler, max_connections: int) -> None:
        super().__init__(address, handler)
        self._max_connections = max_connections
        self._open_connections = 0
        self._connections_changed = threading.Condition()

    def wait_open(self, count: int, timeout: Optional[float] = None) -> bool:
        """Block until exactly ``count`` admitted connections are open;
        False on timeout."""
        with self._connections_changed:
            return self._connections_changed.wait_for(
                lambda: self._open_connections == count, timeout
            )

    def process_request(self, request, client_address):  # noqa: ANN001
        with self._connections_changed:
            admitted = self._open_connections < self._max_connections
            if admitted:
                self._open_connections += 1
                self._connections_changed.notify_all()
        if not admitted:
            body = b'{"error": "connection limit reached"}\n'
            head = (
                "HTTP/1.1 503 Service Unavailable\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Retry-After: 1\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            try:
                request.sendall(head + body)
            except OSError:  # client already gone
                pass
            finally:
                self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):  # noqa: ANN001
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_changed:
                self._open_connections -= 1
                self._connections_changed.notify_all()


def _parse_job_entry(entry: Dict[str, object]) -> ChaseJob:
    """A manifest entry restricted to inline texts (no server-side paths)."""
    if not isinstance(entry, dict):
        raise ValueError("job body must be a JSON object")
    if "rules" in entry or "facts" in entry:
        raise ValueError(
            "path-based manifest entries ('rules'/'facts') are not accepted "
            "over HTTP; inline 'program' and 'database' text instead"
        )
    try:
        return job_from_manifest_entry(entry)
    except (TypeError, KeyError) as exc:
        # e.g. a budget object with unknown fields: a client input
        # error (400), not a daemon fault (500).
        raise ValueError(f"invalid job entry: {type(exc).__name__}: {exc}") from exc


class ChaseService:
    """The daemon: registry + scheduler + HTTP server, one object.

    Usable as a context manager (binds on ``__enter__``, drains and
    stops on ``__exit__``); ``port=0`` binds an ephemeral port, read
    back from :attr:`port` / :attr:`url`.
    """

    #: Default request-body cap: the queue bound limits *executed* work,
    #: this limits what a single request may make the daemon buffer and
    #: parse before admission control ever runs.
    DEFAULT_MAX_BODY_BYTES = 32 * 1024 * 1024

    #: Default LRU bound when the service creates its own cache — a
    #: long-running daemon must not grow memory with every distinct
    #: job it has ever served (matches the CLI's --cache-max-entries).
    DEFAULT_CACHE_MAX_ENTRIES = 10_000

    #: Default per-job wall-clock ceiling.  Clients may send explicit
    #: budgets with astronomical atom/round limits and no timeout; the
    #: daemon's floor bounds every execution regardless, which is what
    #: keeps a worker thread from being pinned forever (and drain from
    #: hanging) on a hostile submission.  ``per_job_timeout=None``
    #: disables it for trusted embedded use.
    DEFAULT_PER_JOB_TIMEOUT = 60.0

    #: Default access-log rotation cap.  The access log grows with every
    #: request a long-running daemon serves; at the cap the file rolls
    #: over to a single ``<path>.1`` sibling (the previous generation is
    #: replaced), bounding disk at ~2× the cap.
    DEFAULT_ACCESS_LOG_MAX_BYTES = 16 * 1024 * 1024

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue: int = 64,
        cache: Optional[ResultCache] = None,
        materialize: bool = False,
        per_job_timeout: Optional[float] = DEFAULT_PER_JOB_TIMEOUT,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        policy: Optional[BudgetPolicy] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_connections: int = 128,
        admission_analysis: bool = False,
        metrics: bool = False,
        access_log: Optional[str] = None,
        access_log_max_bytes: int = DEFAULT_ACCESS_LOG_MAX_BYTES,
        trace_path: Optional[str] = None,
        conformance: bool = False,
        checkpoint_every_rounds: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.host = host
        self.max_body_bytes = max_body_bytes
        self.max_connections = max_connections
        self._requested_port = port
        # Telemetry is strictly opt-in: with metrics=False the registry
        # is the shared no-op singleton and every instrumented call site
        # reduces to two attribute lookups; with trace_path=None no
        # tracer exists and span code paths are skipped entirely.
        self.metrics = MetricsRegistry() if metrics else NULL_REGISTRY
        self.trace_path = trace_path
        self.tracer = TraceRecorder() if trace_path is not None else None
        self.access_log_path = access_log
        self.access_log_max_bytes = access_log_max_bytes
        self._access_log_handle = None
        self._access_log_bytes = 0
        self._access_log_lock = threading.Lock()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(max_entries=self.DEFAULT_CACHE_MAX_ENTRIES)
        )
        # Opt-in static termination analysis: POST /jobs rejects provably
        # diverging submissions with a structured 422, and (unless the
        # caller supplied a policy) budgets become analysis-aware, which
        # clamps diverging batch jobs and lifts the wall ceiling for
        # provably terminating ones.  Off by default: the seed admission
        # behaviour accepts everything.
        self.admission_analysis = admission_analysis
        self.analyzer = TerminationAnalyzer() if admission_analysis else None
        self.analysis_rejections = 0
        if policy is None:
            policy = BudgetPolicy(analyzer=self.analyzer) if admission_analysis else BudgetPolicy()
        # Opt-in paper-bound conformance: every SL/L/G result carries a
        # ``conformance`` block, and (when metrics are also on) the
        # utilizations and violation counter surface at /metrics.  A
        # violation means the classifier or an engine is wrong — the one
        # service condition that is a bug by construction.
        self.conformance = conformance
        executor = BatchExecutor(
            workers=1,
            policy=policy,
            cache=self.cache,
            materialize=materialize,
            per_job_timeout=per_job_timeout,
            tracer=self.tracer,
            conformance=conformance,
            # With checkpointing configured, long-running jobs write
            # periodic round checkpoints: a SIGTERM drain (or a crash)
            # leaves resumable state on disk instead of losing the run.
            checkpoint_every_rounds=checkpoint_every_rounds,
            checkpoint_dir=checkpoint_dir,
        )
        self.cache.tracer = self.tracer
        self.registry = JobRegistry(ttl_seconds=ttl_seconds)
        self.registry.tracer = self.tracer
        self.scheduler = ChaseScheduler(
            self.registry, executor=executor, workers=workers, max_queue=max_queue,
            on_result=self._observe_result if conformance else None,
        )
        self.started_at = time.time()
        # Wall-clock start is kept for display, but uptime arithmetic
        # anchors on the monotonic clock: time.time() jumps under NTP
        # steps and manual clock changes, and a negative or wildly
        # wrong uptime breaks dashboards that alert on restarts.
        self._started_monotonic = time.monotonic()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._stopped_event = threading.Event()

    def _observe_result(self, result) -> None:
        """Mirror a finished job's conformance block into ``/metrics``."""
        if result.summary is None:
            return
        record_conformance(self.metrics, result.summary.get("conformance"))

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ChaseService":
        if self._httpd is not None:
            raise RuntimeError("service already started")
        if self.access_log_path is not None:
            self._access_log_handle = open(self.access_log_path, "a")
            # Seed the rotation counter from what a previous daemon left
            # behind so restarts keep honouring the cap.
            self._access_log_bytes = self._access_log_handle.tell()
        handler = type("BoundHandler", (_ChaseRequestHandler,), {"service": self})
        self._httpd = _BoundedThreadingHTTPServer(
            (self.host, self._requested_port), handler, self.max_connections
        )
        self._httpd.daemon_threads = True
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="chase-http", daemon=True
        )
        self._serve_thread.start()
        logger.info("chase service listening on %s", self.url)
        return self

    def stop(self, timeout: Optional[float] = None, requeue_queued: bool = False) -> bool:
        """Drain the scheduler, stop the HTTP server; True on clean drain.

        With ``requeue_queued`` (the SIGTERM path) queued-but-unstarted
        jobs are returned to the registry as requeueable instead of
        being executed: only already-running jobs are waited for, so
        termination stays prompt under a deep queue while no accepted
        job is silently dropped.

        A concurrent second caller (e.g. Ctrl-C while an HTTP-initiated
        shutdown is draining) blocks until the first caller's stop
        completes rather than returning mid-drain.
        """
        with self._stop_lock:
            already = self._stopped
            self._stopped = True
        if already:
            return self._stopped_event.wait(timeout)
        if requeue_queued:
            drained = self.scheduler.quiesce(timeout)["drained"]
        else:
            drained = self.scheduler.shutdown(timeout)
        if self.cache.path is not None:
            self.cache.compact()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout)
        if self.tracer is not None and self.trace_path is not None:
            try:
                self.tracer.export_jsonl(self.trace_path)
            except OSError:
                logger.exception("failed to export trace to %s", self.trace_path)
        with self._access_log_lock:
            if self._access_log_handle is not None:
                self._access_log_handle.close()
                self._access_log_handle = None
        logger.info("chase service stopped (drained=%s)", drained)
        self._stopped_event.set()
        return drained

    @property
    def stopped(self) -> bool:
        return self._stopped_event.is_set()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` completes (foreground ``serve`` loop)."""
        return self._stopped_event.wait(timeout)

    def __enter__(self) -> "ChaseService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- documents the handler serves -------------------------------------

    def health_document(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.scheduler.draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "workers": self.scheduler.workers,
            "queue_depth": self.scheduler.queue_depth(),
            "max_queue": self.scheduler.max_queue,
        }

    def admission_rejection(self, job: ChaseJob) -> Optional[Dict[str, object]]:
        """The structured 422 body for a provably diverging job, or
        ``None`` to admit.

        Only ``POST /jobs`` consults this; ``POST /batches`` always
        admits (batch manifests routinely mix known-diverging rows in
        on purpose, and the analysis-aware budget clamp already keeps
        them cheap).  Analysis failures admit — a broken analyzer must
        never turn into a denial of service.
        """
        if not self.admission_analysis or self.analyzer is None:
            return None
        try:
            report = self.analyzer.analyze(job.database, job.program, job.variant)
        except Exception:  # noqa: BLE001
            return None
        if report.verdict != DIVERGING:
            return None
        self.analysis_rejections += 1
        return {
            "error": "diverging-program",
            "detail": (
                "static termination analysis proves the "
                f"{job.variant} chase of this job diverges; "
                "submit via POST /batches to run it under a clamped budget"
            ),
            "job_id": job.job_id,
            "analysis": report.as_dict(),
        }

    def stats_document(self) -> Dict[str, object]:
        self.registry.maybe_sweep()  # a /stats scraper must not pay O(records) per poll
        scheduler = self.scheduler.stats()
        cache_stats = scheduler.get("cache") or {}
        lookups = int(cache_stats.get("hits", 0)) + int(cache_stats.get("misses", 0))
        hit_rate = round(int(cache_stats.get("hits", 0)) / lookups, 4) if lookups else None
        document: Dict[str, object] = {
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            "schema_version": SCHEMA_VERSION,
            "scheduler": scheduler,
            "cache_hit_rate": hit_rate,
            "registry": self.registry.counts(),
            "ttl_seconds": self.registry.ttl_seconds,
            "compile_memos": compile_memo_sizes(),
        }
        if self.admission_analysis:
            document["admission_analysis"] = {
                "enabled": True,
                "rejections": self.analysis_rejections,
            }
        return document

    def write_access_log(self, record: Dict[str, object]) -> None:
        """Append one JSONL access-log line (no-op when not configured).

        Size-rotated: once the file reaches
        :attr:`access_log_max_bytes` it is rolled to ``<path>.1``
        (replacing the previous rollover) and a fresh file started, so
        the daemon's disk use stays bounded at roughly twice the cap.
        """
        with self._access_log_lock:
            handle = self._access_log_handle
            if handle is None:
                return
            line = json.dumps(record, sort_keys=True) + "\n"
            handle.write(line)
            handle.flush()
            self._access_log_bytes += len(line)
            if self._access_log_bytes >= self.access_log_max_bytes:
                handle.close()
                try:
                    os.replace(self.access_log_path, self.access_log_path + ".1")
                except OSError:
                    # Rotation failing (exotic filesystems) must not
                    # take down request handling; keep appending.
                    logger.exception(
                        "failed to rotate access log %s", self.access_log_path
                    )
                self._access_log_handle = open(self.access_log_path, "a")
                self._access_log_bytes = self._access_log_handle.tell()

    def metrics_text(self) -> str:
        """The ``/metrics`` body: live metrics plus mirrored stats.

        Request latency histograms and request counters are maintained
        live by the handler; scheduler, cache, registry, and admission
        counters already exist as plain integers on their owners, so
        they are *mirrored* into the registry at scrape time
        (``Counter.set_to``) instead of double-instrumenting those hot
        paths.
        """
        metrics = self.metrics
        scheduler = self.scheduler.stats()
        for key in (
            "submitted", "accepted", "deduped", "rejected",
            "requeued", "executed", "cache_hits", "budget_stops",
        ):
            metrics.counter(
                f"repro_jobs_{key}_total",
                f"Scheduler lifetime total of {key.replace('_', ' ')} jobs.",
            ).set_to(int(scheduler[key]))
        metrics.gauge(
            "repro_queue_depth", "Execution groups waiting in the scheduler queue.",
        ).set(int(scheduler["queue_depth"]))
        metrics.gauge(
            "repro_running_jobs", "Execution groups currently executing.",
        ).set(int(scheduler["running"]))
        metrics.gauge(
            "repro_inflight_groups", "Distinct dedup groups queued or running.",
        ).set(int(scheduler["inflight_groups"]))
        cache_stats = scheduler.get("cache") or {}
        for key in ("hits", "misses", "stores", "evictions"):
            metrics.counter(
                f"repro_cache_{key}_total", f"Result cache lifetime {key}.",
            ).set_to(int(cache_stats.get(key, 0)))
        metrics.gauge(
            "repro_cache_entries", "Result cache resident entries.",
        ).set(int(cache_stats.get("entries", 0)))
        metrics.gauge(
            "repro_cache_degraded",
            "1 when a spill-write failure degraded the result cache to "
            "memory-only, 0 otherwise.",
        ).set(int(cache_stats.get("degraded", 0)))
        fault_stats = getattr(self.scheduler.executor, "fault_stats", {}) or {}
        metrics.counter(
            "repro_job_retries_total",
            "Job executions retried after a transient failure.",
        ).set_to(int(fault_stats.get("retries", 0)))
        metrics.counter(
            "repro_checkpoint_resumes_total",
            "Retried jobs that resumed from a mid-run round checkpoint.",
        ).set_to(int(fault_stats.get("checkpoint_resumes", 0)))
        metrics.counter(
            "repro_faults_injected_total",
            "Faults fired by the opt-in injection layer (REPRO_FAULTS).",
        ).set_to(get_injector().fired_total())
        metrics.counter(
            "repro_admission_rejections_total",
            "Jobs rejected at admission by static termination analysis.",
        ).set_to(self.analysis_rejections)
        counts = self.registry.counts()
        for state in ("queued", "running", "done"):
            metrics.gauge(
                "repro_registry_jobs", "Registry job records by state.",
                labels={"state": state},
            ).set(int(counts.get(state, 0)))
        metrics.gauge(
            "repro_uptime_seconds", "Seconds since daemon start (monotonic clock).",
        ).set(round(time.monotonic() - self._started_monotonic, 3))
        return metrics.render()


class _ChaseRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the bound :class:`ChaseService`."""

    service: ChaseService  # bound by ChaseService.start via a subclass
    protocol_version = "HTTP/1.1"
    #: Socket read timeout: a client stalling mid-request (slow-loris
    #: partial body, idle keep-alive) releases its connection slot
    #: after this many seconds instead of pinning it forever.  Server-
    #: side long-poll waits are unaffected — they do not read.
    timeout = 60.0

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._last_status = code  # for metrics/access-log labels
        super().send_response(code, message)

    @staticmethod
    def _normalize_route(path: str) -> str:
        """Collapse per-resource paths so metric label sets stay bounded."""
        if path.startswith("/jobs/"):
            return "/jobs/{id}"
        if path.startswith("/batches/"):
            return "/batches/{id}"
        if path in ("/healthz", "/stats", "/metrics", "/jobs", "/batches", "/shutdown"):
            return path
        return "other"

    def _instrumented(self, method: str, inner) -> None:
        """Run one request handler under latency/status instrumentation."""
        service = self.service
        self._last_status: Optional[int] = None
        start = time.perf_counter()
        tracer = service.tracer
        mark = tracer.now() if tracer is not None else 0.0
        try:
            inner()
        finally:
            elapsed = time.perf_counter() - start
            route = self._normalize_route(self._query()[0])
            status = self._last_status if self._last_status is not None else 0
            metrics = service.metrics
            if metrics.enabled:
                metrics.histogram(
                    "repro_http_request_seconds",
                    "HTTP request handling latency in seconds.",
                    labels={"method": method, "route": route},
                    buckets=DEFAULT_LATENCY_BUCKETS,
                ).observe(elapsed)
                metrics.counter(
                    "repro_http_requests_total",
                    "HTTP requests served, by method, route, and status.",
                    labels={"method": method, "route": route, "status": str(status)},
                ).inc()
            if tracer is not None:
                tracer.add_span(
                    "request", mark, tracer.now(),
                    args={"method": method, "route": route, "status": status},
                )
            service.write_access_log(
                {
                    "ts": round(time.time(), 6),
                    "remote": self.address_string(),
                    "method": method,
                    "path": self.path,
                    "status": status,
                    "seconds": round(elapsed, 6),
                }
            )

    def _send_json(
        self,
        status: int,
        document: Dict[str, object],
        retry_after: Optional[int] = None,
    ) -> None:
        # Chaos hook: "delay" sleeps inside fire(); "drop" closes the
        # connection with no response at all — the signature of a
        # response lost on the wire, which the client's retry loop must
        # absorb.
        if get_injector().fire("http.response", key=self.path) == "drop":
            self.close_connection = True
            return
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # Backpressure statuses (429/503) tell the client *when* to
            # come back; ChaseServiceClient honours this.
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        if self.headers.get("Transfer-Encoding"):
            # We only read Content-Length-delimited bodies; silently
            # treating a chunked body as empty would desync keep-alive.
            self.close_connection = True
            raise _LengthRequired(
                "chunked transfer encoding is not supported; send a "
                "Content-Length-delimited body"
            )
        raw_length = self.headers.get("Content-Length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True  # the unread body desyncs keep-alive
            raise ValueError(f"invalid Content-Length {raw_length!r}") from None
        if length < 0:
            # read(-1) would block on the open socket until EOF.
            self.close_connection = True
            raise ValueError(f"invalid Content-Length {length}")
        if length > self.service.max_body_bytes:
            # Refuse without buffering the oversized body; the unread
            # bytes make the connection unusable, so close it.
            self.close_connection = True
            raise _BodyTooLarge(length, self.service.max_body_bytes)
        return self.rfile.read(length) if length else b""

    def _query(self) -> Tuple[str, Dict[str, List[str]]]:
        parsed = urlparse(self.path)
        return parsed.path.rstrip("/") or "/", parse_qs(parsed.query)

    @staticmethod
    def _wait_seconds(query: Dict[str, List[str]]) -> Optional[float]:
        values = query.get("wait")
        if not values:
            return None
        try:
            return max(0.0, float(values[0]))
        except ValueError as exc:
            raise ValueError(f"invalid wait value {values[0]!r}") from exc

    # -- GET --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._instrumented("GET", self._handle_get)

    def _handle_get(self) -> None:
        try:
            path, query = self._query()
            if path == "/healthz":
                self._send_json(200, self.service.health_document())
            elif path == "/stats":
                self._send_json(200, self.service.stats_document())
            elif path == "/metrics":
                self._get_metrics()
            elif path.startswith("/jobs/"):
                self._get_job(path[len("/jobs/"):], query)
            elif path.startswith("/batches/"):
                self._stream_batch(path[len("/batches/"):], query)
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        except ConnectionError:  # client hung up (reset or broken pipe)
            pass
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the daemon
            logger.exception("GET %s failed", self.path)
            self.close_connection = True  # request state is unknown: don't reuse
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _get_metrics(self) -> None:
        if not self.service.metrics.enabled:
            self._send_json(
                404, {"error": "metrics disabled; start the daemon with --metrics"}
            )
            return
        body = self.service.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_job(self, job_id: str, query: Dict[str, List[str]]) -> None:
        wait = self._wait_seconds(query)
        if wait:
            record = self.service.registry.wait_for_job(job_id, timeout=wait)
        else:
            record = self.service.registry.job(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
        else:
            self._send_json(200, record.as_dict())

    def _stream_batch(self, batch_id: str, query: Dict[str, List[str]]) -> None:
        wait = self._wait_seconds(query)
        batch = self.service.registry.batch(batch_id)
        if batch is None:
            self._send_json(404, {"error": f"unknown batch {batch_id!r}"})
            return
        # Close-delimited JSONL: rows flush as jobs finish, in
        # submission order, so a slow client reads a live stream rather
        # than polling N job endpoints.
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Connection", "close")
        self.end_headers()

        def emit(document: Dict[str, object]) -> None:
            self.wfile.write((json.dumps(document, sort_keys=True) + "\n").encode("utf-8"))
            self.wfile.flush()

        # Headers are out: from here on, any failure must end the
        # close-delimited stream silently — a 500 status line written
        # mid-body would corrupt the JSONL the client is parsing.
        try:
            deadline = None if wait is None else time.monotonic() + wait
            rows = 0
            complete = True
            for error_row in batch.manifest_errors:
                emit(error_row)
                rows += 1
            for job_id in batch.job_ids:
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                record = self.service.registry.wait_for_job(job_id, timeout=remaining)
                if record is None:
                    emit({"id": job_id, "status": "error", "error": "record expired (TTL)"})
                    rows += 1
                    complete = False
                elif record.terminal and record.result is not None:
                    emit(record.result)
                    rows += 1
                else:  # deadline hit first
                    complete = False
                    break
            emit(
                {
                    "batch_id": batch_id,
                    "complete": complete,
                    "rows": rows,
                    "jobs": len(batch.job_ids) + len(batch.manifest_errors),
                }
            )
        except ConnectionError:  # client hung up mid-stream
            pass
        except Exception:  # noqa: BLE001 - truncate the stream, keep the daemon
            logger.exception("batch stream %s failed", batch_id)
        finally:
            self.close_connection = True

    # -- POST -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._instrumented("POST", self._handle_post)

    def _handle_post(self) -> None:
        try:
            # Drain the body *before* any routing or validation: an
            # error response that leaves body bytes unread on a
            # keep-alive connection desyncs the next request on it.
            body = self._read_body()
            path, query = self._query()
            if path == "/jobs":
                self._post_job(body)
            elif path == "/batches":
                self._post_batch(query, body)
            elif path == "/shutdown":
                self._post_shutdown()
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})
        except _BodyTooLarge as exc:
            self._send_json(413, {"error": str(exc)})
        except _LengthRequired as exc:
            self._send_json(411, {"error": str(exc)})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        except ConnectionError:  # client hung up mid-request
            pass
        except Exception as exc:  # noqa: BLE001 - see do_GET
            logger.exception("POST %s failed", self.path)
            # The body may be partially read (e.g. a stalled client
            # timing out mid-upload): the stream position is unknown,
            # so the connection must not serve another request.
            self.close_connection = True
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _post_job(self, body: bytes) -> None:
        try:
            entry = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc
        job = _parse_job_entry(entry)
        rejection = self.service.admission_rejection(job)
        if rejection is not None:
            self._send_json(422, rejection)
            return
        record, disposition = self.service.scheduler.submit(job)
        if disposition == REJECTED:
            self._send_json(
                429,
                {
                    "error": "queue saturated" if not self.service.scheduler.draining
                    else "daemon draining",
                    "queue_depth": self.service.scheduler.queue_depth(),
                    "max_queue": self.service.scheduler.max_queue,
                },
                retry_after=1,
            )
            return
        assert record is not None
        self._send_json(
            202,
            {
                "job_id": record.job_id,
                "client_id": record.client_id,
                "disposition": disposition,
                "state": record.state,
            },
        )

    def _post_batch(self, query: Dict[str, List[str]], body: bytes) -> None:
        admit_values = query.get("admit_wait")
        try:
            admit_wait = float(admit_values[0]) if admit_values else 0.0
        except ValueError as exc:
            raise ValueError(f"invalid admit_wait value {admit_values[0]!r}") from exc
        # The batch record is only created after admission finishes, so
        # early-admitted jobs' results must survive the whole wait:
        # cap the admission window at half the record TTL.  The
        # effective value is reported in the 202 response so a clamped
        # client can see its window was shortened.
        admit_wait = min(admit_wait, self.service.registry.ttl_seconds / 2)
        def error_row(job_id: str, message: str) -> Dict[str, object]:
            """One shape for every non-result row a batch stream emits."""
            return {
                "id": job_id,
                "status": "error",
                "outcome": None,
                "summary": None,
                "error": message,
            }

        items = parse_manifest_text(body.decode("utf-8"), entry_parser=_parse_job_entry)
        jobs: List[ChaseJob] = [item for item in items if not isinstance(item, ManifestError)]
        manifest_errors: List[Dict[str, object]] = [
            error_row(item.job_id, f"manifest line {item.line_number}: {item.error}")
            for item in items
            if isinstance(item, ManifestError)
        ]
        if not jobs and not manifest_errors:
            raise ValueError("empty batch: body must be JSONL, one job per line")
        # Two admission modes.  Default (admit_wait=0): atomic — the
        # whole manifest is admitted under one scheduler lock or none
        # of it is (429), so racing submissions can never split it.
        # With ?admit_wait=S the handler instead streams jobs through
        # the bound with backpressure, blocking this request thread
        # for a free slot so manifests larger than --queue-depth are
        # still servable; jobs that find no slot within the shared
        # deadline become error rows.
        scheduler = self.service.scheduler
        job_ids: List[str] = []
        if admit_wait <= 0:
            admitted = scheduler.submit_atomic(jobs)
            if admitted is None:
                self._send_json(
                    429,
                    {
                        "error": f"batch of {len(jobs)} exceeds free queue capacity"
                        " (retry with ?admit_wait=S to queue with backpressure)",
                        "queue_depth": scheduler.queue_depth(),
                        "max_queue": scheduler.max_queue,
                    },
                    retry_after=1,
                )
                return
            job_ids = [record.job_id for record, _ in admitted]
        else:
            deadline = time.monotonic() + admit_wait
            for job in jobs:
                record, disposition = scheduler.submit_waiting(
                    job, timeout=max(0.0, deadline - time.monotonic())
                )
                if record is None:  # no slot within the deadline, or draining
                    manifest_errors.append(error_row(job.job_id, f"rejected: {disposition}"))
                else:
                    job_ids.append(record.job_id)
        batch = self.service.registry.create_batch(job_ids, manifest_errors)
        self._send_json(
            202,
            {
                "batch_id": batch.batch_id,
                "jobs": len(job_ids),
                "manifest_errors": len(manifest_errors),
                "admit_wait_effective": admit_wait,
            },
        )

    def _post_shutdown(self) -> None:
        self._send_json(202, {"draining": True})
        # Stop from a helper thread: this handler thread belongs to the
        # HTTP server being stopped.
        threading.Thread(target=self.service.stop, name="chase-stop", daemon=True).start()
