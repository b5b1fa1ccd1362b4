"""The four workloads: what an op is, how inputs are made, how outputs
are verified.

Every workload turns ``--seed`` into its inputs and runs whole cycles
of a fixed op mix, so a run's op mix does not depend on how fast the
machine is.  Verification happens between ops, outside the timed
latency of each op.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.chase import VARIANT_RUNNERS
from repro.core import classify, decision, termination_analysis
from repro.core.bounds import depth_bound_within, size_bound_within
from repro.generators.families import guarded_lower_bound, linear_lower_bound, sl_lower_bound
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.generators.scenarios import university_ontology_scenario
from repro.generators.workloads import mixed_workload_jobs, restricted_heavy
from repro.runtime import BatchExecutor
from repro.runtime.jobs import manifest_entry
from repro.service import ChaseServiceClient
from repro.service.client import ServiceError

from stackbench.common import (
    HostSpeed,
    Tally,
    own_peak_rss_mb,
    percentile,
    process_peak_rss_mb,
)

#: Executor processes and daemon worker threads (the reference box has
#: two cores).
WORKERS = 2
#: Seed of the mixed manifest behind ``batch-mixed`` and ``service-mixed``.
#: It is fixed so that every ``--seed`` sees the same job population (the
#: seed only orders it); at this seed no job runs into its wall budget.
MANIFEST_SEED = 11
#: Jobs drawn from that manifest for the daemon's job pool.
SERVICE_MANIFEST_JOBS = 4500
#: Summary fields fixed by the chase result itself.  Digests cover only
#: these, so null relabelling and engine changes that alter trigger
#: enumeration or round structure leave them intact.  Trigger counts are
#: left out: on multi-atom heads (the university scenario) the applied
#: count depends on the hash seed.  Budget-stopped runs keep only the
#: outcome, since where a budget trips depends on the engine's order.
RESULT_FIELDS = (
    "outcome", "terminated", "size", "database_size", "max_depth",
    "depth_truncated", "atoms_created",
)
STOPPED_FIELDS = ("outcome", "terminated", "database_size")


def summary_digest(summary: Dict[str, object]) -> str:
    fields = RESULT_FIELDS if summary.get("terminated") else STOPPED_FIELDS
    canonical = json.dumps({k: summary.get(k) for k in fields}, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Context:
    seed: int
    seconds: float
    reference: Dict[str, object]
    out_dir: Path
    root: Path
    smoke: bool = False


@dataclass
class OpLog:
    """What a timed region produced.  ``latencies`` and ``wall`` are
    scaled to the reference host (see :class:`HostSpeed`); ``raw_wall``
    is the timed wall as the clock read it."""

    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    raw_wall: float = 0.0
    atoms: int = 0
    tally: Tally = field(default_factory=Tally)
    peak_rss_mb: float = 0.0
    speed: Optional[HostSpeed] = None
    #: Extra per-layer numbers that come from records, not spans.
    layer: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.speed is None:
            self.speed = HostSpeed()

    def close_segment(self, first_op: int, raw_wall: float) -> float:
        """Scale the ops logged from ``first_op`` on, and a segment wall of
        ``raw_wall``, by the host speed the segment ran at."""
        factor = self.speed.scale()
        self.latencies[first_op:] = [x * factor for x in self.latencies[first_op:]]
        self.raw_wall += raw_wall
        self.wall += raw_wall * factor
        return factor


def _cycle_order(count: int, seed: int, cycle: int, block: Optional[int] = None) -> List[int]:
    """A seeded permutation of ``range(count)``; with ``block``, items
    only move within consecutive blocks of that size."""
    rng = random.Random(seed * 7919 + cycle)
    block = block or count
    order: List[int] = []
    for low in range(0, count, block):
        chunk = list(range(low, min(low + block, count)))
        rng.shuffle(chunk)
        order.extend(chunk)
    return order


class CycleWorkload:
    """A workload whose op runs on one input; a cycle runs every input
    once, in a seeded order.  The timed wall is the sum of op latencies,
    so verification between ops is not timed.  Consecutive ops are
    scaled to the reference host in groups that take at least
    ``segment_s``.  Garbage is collected before each cycle, so a cycle
    pays for its own collections and not for the previous cycle's."""

    segment_s = 0.05

    def _op(self, item, ctx: Context, log: OpLog) -> None:
        raise NotImplementedError

    def _cycles(self, inputs, ctx: Context, cycles: Optional[int] = None) -> OpLog:
        log = OpLog()
        cycle = 0
        while log.raw_wall < ctx.seconds if cycles is None else cycle < cycles:
            gc.collect()
            first = len(log.latencies)
            for index in _cycle_order(len(inputs), ctx.seed, cycle):
                self._op(inputs[index], ctx, log)
                if sum(log.latencies[first:]) >= self.segment_s:
                    log.close_segment(first, sum(log.latencies[first:]))
                    first = len(log.latencies)
            if first < len(log.latencies):
                log.close_segment(first, sum(log.latencies[first:]))
            cycle += 1
        return log

    def run(self, inputs, ctx: Context) -> OpLog:
        log = self._cycles(inputs, ctx)
        log.peak_rss_mb = own_peak_rss_mb()
        return log

    def trace_pass(self, inputs, ctx: Context, traced: bool) -> OpLog:
        return self._cycles(inputs, ctx, cycles=3)

    def teardown(self, inputs) -> None:
        pass


# -- materialize --------------------------------------------------------------


def _university(students: int) -> Tuple:
    scenario = university_ontology_scenario(
        students=students, courses=max(3, students // 10),
        professors=max(2, students // 40), seed=3,
    )
    return scenario.database, scenario.tgds


#: name -> (variant, full-size input, smoke-size input)
MATERIALIZE_INPUTS: Dict[str, Tuple[str, Callable, Callable]] = {
    "so-sl": ("semi-oblivious", lambda: sl_lower_bound(2, 3, 16), lambda: sl_lower_bound(2, 2, 1)),
    "so-linear": (
        "semi-oblivious", lambda: linear_lower_bound(2, 2, 64), lambda: linear_lower_bound(2, 2, 1),
    ),
    "so-guarded": (
        "semi-oblivious", lambda: guarded_lower_bound(1, 1, 4), lambda: guarded_lower_bound(1, 1, 1),
    ),
    "so-university": ("semi-oblivious", lambda: _university(3000), lambda: _university(40)),
    "ob-sl": ("oblivious", lambda: sl_lower_bound(2, 3, 16), lambda: sl_lower_bound(2, 2, 1)),
    "re-heavy": ("restricted", lambda: restricted_heavy(100, 40), lambda: restricted_heavy(20, 5)),
}


class Materialize(CycleWorkload):
    """Op: one in-process chase of one input, decoded to an instance."""

    name = "materialize"
    tail_pct = 90

    def setup(self, ctx: Context):
        pick = 2 if ctx.smoke else 1
        return [
            (name, spec[0], *spec[pick]()) for name, spec in MATERIALIZE_INPUTS.items()
        ]

    def _op(self, item, ctx: Context, log: OpLog) -> None:
        name, variant, database, tgds = item
        runner = VARIANT_RUNNERS[variant]
        log.tally.attempted += 1
        start = time.perf_counter()
        try:
            result = runner(database, tgds, record_derivation=False)
            atoms = len(result.instance)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            log.tally.fail("errors", f"{name}: {type(exc).__name__}: {exc}")
            return
        finally:
            log.latencies.append(time.perf_counter() - start)
        log.atoms += result.statistics.atoms_created
        self._verify(name, variant, database, tgds, result, atoms, ctx, log)

    def _verify(self, name, variant, database, tgds, result, atoms, ctx, log) -> None:
        reference = ctx.reference["materialize"]["smoke" if ctx.smoke else "full"][name]
        observed = {
            "size": atoms,
            "database_size": result.database_size,
            "max_depth": result.max_depth,
            "terminated": result.terminated,
        }
        if observed != reference:
            log.tally.fail("mismatches", f"{name}: {observed} != {reference}")
            return
        tgd_class = classify(tgds)
        if variant == "semi-oblivious" and tgd_class.has_paper_bounds:
            # Theorems 6.4/7.5/8.3: |chase| <= f_C(Σ)·|D| and maxdepth <= d_C(Σ).
            cap = 10**18
            size_cap = size_bound_within(len(database), tgds, cap, tgd_class)
            depth_cap = depth_bound_within(tgds, cap, tgd_class)
            if (size_cap is not None and atoms > size_cap) or (
                depth_cap is not None and result.max_depth > depth_cap
            ):
                log.tally.fail("mismatches", f"{name}: exceeds the paper's bounds")


# -- batch-mixed ----------------------------------------------------------------


def _mixed_jobs(count: int, reference: Dict[str, object]):
    digests = reference["jobs"]
    return [job for job in mixed_workload_jobs(count, MANIFEST_SEED) if job.job_id in digests]


def _check_job_row(job_id: str, status: str, summary, error, ctx: Context, tally: Tally) -> None:
    if status == "timeout":
        tally.fail("timeouts", job_id)
    elif status != "ok" or summary is None:
        tally.fail("errors", f"{job_id}: {status} {error}")
    elif summary_digest(summary) != ctx.reference["jobs"].get(job_id):
        tally.fail("mismatches", f"{job_id}: summary digest differs from the serial reference")


class BatchMixed:
    """Op: one job of a serial ``BatchExecutor`` batch, no cache.

    The timed batches run serially in this process: on a shared 2-core
    host the speed a 2-process pool gets swings by 20-30% from batch to
    batch, and no probe from outside the pool tracks it.  The pool's own
    costs are measured in the traced run (:meth:`pool_layer`)."""

    name = "batch-mixed"
    tail_pct = 99
    #: Results are scaled to the reference host in groups of jobs that
    #: take at least this long (serial batches only).
    segment_s = 0.05

    def setup(self, ctx: Context):
        return _mixed_jobs(20 if ctx.smoke else 200, ctx.reference)

    @staticmethod
    def _order(jobs, ctx: Context, cycle: int) -> List[int]:
        # The manifest deals its ten families round-robin; shuffling only
        # within blocks of ten keeps heavy families spread over the batch.
        return _cycle_order(len(jobs), ctx.seed, cycle, block=10)

    def _batch(self, jobs, ctx: Context, log: OpLog, workers: int, order: List[int],
               segmented: bool = False) -> None:
        """One batch; ``segmented`` (serial only) scales its results in
        groups, else the batch is one ``run_all`` call and one segment."""
        # Fresh job objects: a job caches its fingerprint and snapshot,
        # and every batch must pay those per-job costs again.
        batch = [dataclasses.replace(jobs[i]) for i in order]
        log.tally.attempted += len(batch)
        raw_wall = log.raw_wall
        first = len(log.latencies)
        start = time.perf_counter()
        if segmented:
            results = []
            for result in BatchExecutor(workers=1).run(batch):
                results.append(result)
                log.latencies.append(result.wall_seconds)
                elapsed = time.perf_counter() - start
                if elapsed >= self.segment_s:
                    log.close_segment(first, elapsed)
                    first = len(log.latencies)
                    start = time.perf_counter()
        else:
            results = BatchExecutor(workers=workers).run_all(batch)
            log.latencies.extend(result.wall_seconds for result in results)
        log.close_segment(first, time.perf_counter() - start)
        # Executor overhead: the part of the batch wall its workers did
        # not spend inside a job (dispatch, pickling, IPC, idle tails).
        busy = sum(result.worker_seconds or 0.0 for result in results)
        log.layer["runtime.executor.overhead_s"] = (
            log.layer.get("runtime.executor.overhead_s", 0.0)
            + log.raw_wall - raw_wall - busy / workers
        )
        for result in results:
            if result.summary is not None:
                log.atoms += int(result.summary.get("atoms_created", 0))
            _check_job_row(result.job_id, result.status, result.summary, result.error, ctx, log.tally)
            log.layer["runtime.executor.retries"] = (
                log.layer.get("runtime.executor.retries", 0) + result.retries
            )
            if result.status == "timeout":
                log.layer["runtime.executor.timeouts"] = (
                    log.layer.get("runtime.executor.timeouts", 0) + 1
                )

    def run(self, jobs, ctx: Context) -> OpLog:
        log = OpLog()
        cycle = 0
        while log.raw_wall < ctx.seconds:
            self._batch(jobs, ctx, log, 1, self._order(jobs, ctx, cycle), segmented=True)
            cycle += 1
        log.peak_rss_mb = own_peak_rss_mb()
        return log

    def trace_pass(self, jobs, ctx: Context, traced: bool) -> OpLog:
        # Serial like the timed batches, so every layer call happens in
        # this process where the shims can see it.
        log = OpLog()
        self._batch(jobs, ctx, log, 1, self._order(jobs, ctx, 0))
        return log

    def pool_layer(self, jobs, ctx: Context) -> OpLog:
        """One untraced pool batch: executor overhead, retries, timeouts."""
        log = OpLog()
        self._batch(jobs, ctx, log, WORKERS, self._order(jobs, ctx, 0))
        return log

    def teardown(self, jobs) -> None:
        pass


# -- service-mixed --------------------------------------------------------------


class Daemon:
    """``python -m repro serve`` in its own process, stopped through HTTP."""

    def __init__(self, ctx: Context, trace_path: Optional[Path] = None) -> None:
        env = dict(os.environ)
        paths = [str(ctx.root / "src"), str(ctx.root / "perfbench")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", str(WORKERS)]
        if trace_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, "-m", "stackbench.serve_traced", str(trace_path), *serve_args]
        self.log_path = ctx.out_dir / f"daemon-{uuid.uuid4().hex[:12]}.log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=env, cwd=str(ctx.root),
            )
        try:
            self.url = self._wait_for_url(timeout=60.0)
            self.client = ChaseServiceClient(self.url)
            self.client.wait_until_healthy(timeout=30.0)
        except BaseException:
            self._kill()
            raise

    def _wait_for_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on (http://\S+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                return match.group(1)
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_path.read_text()}")
            time.sleep(0.005)
        raise TimeoutError("daemon did not report its address")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def _kill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.process.wait(timeout=60)
        except Exception:  # noqa: BLE001 - whatever happened, the process must go
            if self.process.poll() is None:
                self._kill()
        self.log_path.unlink(missing_ok=True)


@dataclass
class ServiceInputs:
    entries: List[Dict[str, object]]
    sequence: List[int]
    daemon: Optional[Daemon] = None


def request_sequence(pool_size: int, length: int, seed: int, repeat_share: float = 0.7) -> List[int]:
    """Indices into the job pool: ~70% repeats of earlier jobs, skewed
    towards the earliest (most popular) ones, and ~30% first-seen jobs."""
    rng = random.Random(seed)
    seen = 0
    sequence = []
    for _ in range(length):
        if seen == 0 or (seen < pool_size and rng.random() >= repeat_share):
            sequence.append(seen)
            seen += 1
        else:
            sequence.append(int(seen * rng.random() ** 3))
    return sequence


class ServiceMixed:
    """Op: one ``ChaseServiceClient.run_job`` round trip to the daemon."""

    name = "service-mixed"
    tail_pct = 99
    #: Client threads of the closed loop.
    clients = 2
    #: Length of one host-speed segment of the loop.
    window_s = 1.0

    def _sizes(self, ctx: Context) -> Tuple[int, int, int]:
        """(manifest jobs, sequence length, traced-pass requests)."""
        return (60, 60, 30) if ctx.smoke else (SERVICE_MANIFEST_JOBS, 12000, 500)

    def setup(self, ctx: Context) -> ServiceInputs:
        manifest, length, _ = self._sizes(ctx)
        entries, seen = [], set()
        for job in _mixed_jobs(manifest, ctx.reference):
            entry = manifest_entry(job)
            content = json.dumps(
                {k: v for k, v in entry.items() if k not in ("id", "tags")}, sort_keys=True
            )
            if content not in seen:  # identical content would be a cache hit
                seen.add(content)
                entries.append(entry)
        inputs = ServiceInputs(entries, request_sequence(len(entries), length, ctx.seed))
        inputs.daemon = Daemon(ctx)
        return inputs

    def _loop(self, url: str, inputs: ServiceInputs, requests: List[int], seconds: float,
              ctx: Context, log: OpLog) -> List[Tuple[float, Dict[str, object]]]:
        """Closed loop in windows of ``window_s``, each its own host-speed
        segment: the clients drain at a window's end, the host speed is
        probed, and the loop goes on.  Returns (unscaled latency, record)
        of each completed op."""
        cursor = [0]
        done: List[Tuple[float, Dict[str, object]]] = []
        while log.raw_wall < seconds and cursor[0] < len(requests):
            first = len(log.latencies)
            began = time.perf_counter()
            stop_at = began + min(self.window_s, seconds - log.raw_wall)
            self._window(url, inputs, requests, cursor, stop_at, ctx, log, done)
            log.close_segment(first, time.perf_counter() - began)
        return done

    def _window(self, url: str, inputs: ServiceInputs, requests: List[int], cursor: List[int],
                stop_at: float, ctx: Context, log: OpLog,
                done: List[Tuple[float, Dict[str, object]]]) -> None:
        lock = threading.Lock()

        def client_thread() -> None:
            client = ChaseServiceClient(url)
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests) or time.perf_counter() >= stop_at:
                        return
                    cursor[0] += 1
                    log.tally.attempted += 1
                entry = inputs.entries[requests[index]]
                start = time.perf_counter()
                try:
                    record = client.run_job(entry, timeout=60.0)
                except ServiceError as exc:
                    kind = "refusals" if exc.status in (429, 503) or exc.status >= 500 else "errors"
                    with lock:
                        log.tally.fail(kind, f"{entry['id']}: {exc}")
                    continue
                except TimeoutError as exc:
                    with lock:
                        log.tally.fail("timeouts", f"{entry['id']}: {exc}")
                    continue
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    with lock:
                        log.tally.fail("errors", f"{entry['id']}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - start
                row = record.get("result") or {}
                with lock:
                    done.append((latency, record))
                    log.latencies.append(latency)
                    summary = row.get("summary")
                    executed = not (row.get("cache") or {}).get("hit") and "deduped_of" not in record
                    if summary and executed:  # replays derive no atoms
                        log.atoms += int(summary.get("atoms_created", 0))
                    _check_job_row(
                        str(entry["id"]), str(row.get("status")), summary, row.get("error"),
                        ctx, log.tally,
                    )

        threads = [threading.Thread(target=client_thread) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def run(self, inputs: ServiceInputs, ctx: Context) -> OpLog:
        log = OpLog()
        self._loop(inputs.daemon.url, inputs, inputs.sequence, ctx.seconds, ctx, log)
        log.peak_rss_mb = inputs.daemon.peak_rss_mb()
        return log

    def trace_pass(self, inputs: ServiceInputs, ctx: Context, traced: bool) -> OpLog:
        """The first requests of the sequence against a fresh daemon;
        a traced pass runs the daemon under the layer shims too."""
        trace_path = ctx.out_dir / f"daemon-{uuid.uuid4().hex[:12]}.trace.jsonl"
        # The set-up daemon has served nothing yet, so the untraced pass
        # can use it as its fresh daemon.
        daemon, inputs.daemon = inputs.daemon, None
        if traced or daemon is None:
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(ctx, trace_path if traced else None)
        log = OpLog()
        try:
            requests = inputs.sequence[: self._sizes(ctx)[2]]
            done = self._loop(daemon.url, inputs, requests, 1e9, ctx, log)
            stats = daemon.client.stats()
        finally:
            daemon.stop()
        if traced:
            log.layer["daemon_trace"] = str(trace_path)
        log.layer.update(self._record_layers(done, stats))
        return log

    @staticmethod
    def _record_layers(done, stats: Dict[str, object]) -> Dict[str, float]:
        waits, execs, overheads, executor = [], [], [], 0.0
        for latency, record in done:
            submitted, started, finished = (
                record.get("submitted_at"), record.get("started_at"), record.get("finished_at")
            )
            if None not in (submitted, started, finished):
                waits.append((started - submitted) * 1e3)
                execs.append((finished - started) * 1e3)
                overheads.append((latency - (finished - submitted)) * 1e3)
            row = record.get("result") or {}
            if row.get("worker_seconds") is not None:
                executor += float(row["wall_seconds"]) - float(row["worker_seconds"])
        scheduler = stats.get("scheduler") or {}
        cache = scheduler.get("cache") or {}
        hits, misses = int(cache.get("hits", 0)), int(cache.get("misses", 0))
        return {
            "service.queue.wait_ms_p50": percentile(waits, 50) if waits else 0.0,
            "service.server.exec_ms_p50": percentile(execs, 50) if execs else 0.0,
            "service.server.overhead_ms_p50": percentile(overheads, 50) if overheads else 0.0,
            "service.queue.deduped": float(scheduler.get("deduped", 0)),
            "service.queue.rejected": float(scheduler.get("rejected", 0)),
            "runtime.cache.hits": float(hits),
            "runtime.cache.misses": float(misses),
            "runtime.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.executor.overhead_s": executor,
        }

    def teardown(self, inputs: ServiceInputs) -> None:
        if inputs.daemon is not None:
            inputs.daemon.stop()
            inputs.daemon = None


# -- decide -----------------------------------------------------------------------

#: class -> (generator, program seeds, database sizes).  Seeds are picked
#: for a mix of verdicts; random guarded seed 38 terminates on the
#: smallest database and diverges on larger ones (non-uniform termination).
#: There are 35 inputs, so that in a run of whole cycles the p50 and the
#: p90 op both fall in the middle of one input's ops, never between two.
DECIDE_PROGRAMS = {
    "sl": (random_simple_linear_program, (0, 3, 5, 7), (64, 512, 4096)),
    "l": (random_linear_program, (0, 3, 4, 6, 8), (64, 512, 2048)),
    "g": (random_guarded_program, (2, 8, 38, 56), (8, 32)),
}
DECIDE_SMOKE = {"sl": ((0, 3), (16,)), "l": ((0, 3), (16,)), "g": ((2, 24), (8,))}


def decide_inputs(smoke: bool) -> List[Tuple[str, str, object, object]]:
    inputs = []
    for kind, (generator, seeds, sizes) in DECIDE_PROGRAMS.items():
        if smoke:
            seeds, sizes = DECIDE_SMOKE[kind]
        for seed in seeds:
            program = generator(seed)
            for size in sizes:
                database = random_database(
                    program, 1000 + seed, fact_count=size, constant_count=max(4, size // 8)
                )
                inputs.append((f"{kind}-{seed}-{size}", kind, program, database))
    return inputs


class Decide(CycleWorkload):
    """Op: the syntactic verdict, the layered analysis and, for SL and L,
    the UCQ verdict of one (program, database) pair."""

    name = "decide"
    tail_pct = 90

    def setup(self, ctx: Context):
        return decide_inputs(ctx.smoke)

    def _op(self, item, ctx: Context, log: OpLog) -> None:
        name, kind, program, database = item
        log.tally.attempted += 1
        start = time.perf_counter()
        try:
            # Looked up on the modules at call time, so the traced run's
            # shims see these calls.
            verdict = decision.decide_termination(database, program, method="syntactic")
            report = termination_analysis.analyze_termination(database, program)
            ucq = (
                decision.decide_termination(database, program, method="ucq")
                if kind != "g" else None
            )
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            log.tally.fail("errors", f"{name}: {type(exc).__name__}: {exc}")
            return
        finally:
            log.latencies.append(time.perf_counter() - start)
        log.atoms += len(database)
        expected = ctx.reference["decide"].get(name)
        contradicts = {True: "diverging", False: "terminating"}[bool(verdict.terminates)]
        if verdict.terminates is not expected:
            log.tally.fail("mismatches", f"{name}: terminates={verdict.terminates}, table {expected}")
        elif report.verdict == contradicts:
            log.tally.fail("mismatches", f"{name}: analysis says {report.verdict}")
        elif ucq is not None and ucq.terminates is not verdict.terminates:
            log.tally.fail("mismatches", f"{name}: UCQ verdict disagrees")



WORKLOADS = {w.name: w for w in (Materialize(), BatchMixed(), ServiceMixed(), Decide())}
