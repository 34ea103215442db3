"""``serve-mixed``: the statistics service under a closed-loop client.

Set-up (repeated; ``setup_s`` is the median) contains: the aggregate of
``benchmarks/bench_serve.py::build_aggregate``, the submit variants, a
reference :class:`~repro.serve.store.AggregateStore` holding every
document a response may be checked against, a server process (a fresh
interpreter, so its peak RSS is its own) that ingests
:data:`N_CAMPAIGNS` campaigns into an in-memory SQLite store, starts
:func:`~repro.serve.http.make_server` and reports its port, and an
untimed warm-up sweep of :data:`WARMUP_REQUESTS` requests.

Load: one client, one request at a time, one TCP connection per request.
A *pass* is one sweep of :data:`SWEEP_REQUESTS` requests over
``bench_serve.request_plan``'s read mix, every :data:`SUBMIT_EVERY`-th
request being a token-authenticated ``POST /v1/submit`` that replaces one
of a few campaigns with the next pre-built variant, so the store keeps
its size.  The client closes each connection with an RST (``SO_LINGER``
0) after reading the whole response, so no socket is left in TIME_WAIT
and back-to-back runs see the same socket tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection

from . import common

#: Campaign entries in the store: ``bench_serve``'s full-mode store size
#: (``FULL_CAMPAIGNS``).
N_CAMPAIGNS = 64

#: Requests per pass; every SUBMIT_EVERY-th one is a submit.  No measured
#: workload share exists for the service, so the ratio is set to give
#: reads and submits about half of the pass each: a submit's mean
#: latency measured 12-15 times a read's on the reference host, both in
#: quiet stretches (2.9 ms against 0.22 ms) and in loaded ones (4.5-5.8
#: ms against 0.37-0.39 ms), so thirteen reads per submit.  A change to
#: either side then moves ``pass_s`` by about half its size; the traced
#: run reports the two shares (``share.serve_reads``,
#: ``share.serve_submits``).
SWEEP_REQUESTS = 2000
SUBMIT_EVERY = 14

#: Requests of the untimed warm-up sweep that ends each set-up: enough
#: to cross every route and submits a few times before timing starts.
WARMUP_REQUESTS = 500

#: Campaigns that submits replace, and distinct variants cycled per name.
#: Two or more variants make every submit change the stored digest; the
#: variants fold the same sketches, so their payloads, and the cost of a
#: submit, do not grow with the counts.
SUBMIT_TARGETS = 4
VARIANTS = 4

#: Page size of the plan's listing reads (``/v1/campaigns?limit=25``).
LISTING_PAGE = 25

#: Upper bound on connections one run opens, far inside the ephemeral
#: port range even if the peer kept TIME_WAIT sockets.
MAX_CONNECTIONS = 24_000

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Bearer token of the submit endpoint.
TOKEN = "perfbench-submit-token"

#: ``SO_LINGER`` on, zero timeout: close() sends RST, no TIME_WAIT.
_ABORT_ON_CLOSE = struct.pack("ii", 1, 0)

#: Routes whose 200 body is a stored document, and its family.
DOCUMENT_FAMILIES = {
    "/v1/services/shares": "services/shares",
    "/v1/pdf/volume": "pdf/volume",
    "/v1/pdf/duration": "pdf/duration",
    "/v1/fidelity": "fidelity",
}


def sockstat_tw() -> int:
    """Sockets in TIME_WAIT, from ``/proc/net/sockstat`` (-1 if absent)."""
    try:
        with open("/proc/net/sockstat", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("TCP:"):
                    fields = line.split()
                    return int(fields[fields.index("tw") + 1])
    except (OSError, ValueError):
        pass
    return -1


def cpu_pair() -> tuple[int, int] | None:
    """(client CPU, server CPU) when this process may run on two or more.

    Client and server then each own a CPU for the whole run instead of
    being placed afresh by the scheduler at every request's wake-up, which
    varied the per-request cost from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) >= 2 else None


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def install_wrappers(tracer) -> None:
    """Time the public functions of every layer a request crosses."""
    import repro.campaign.fidelity as fidelity
    import repro.obs.expose as expose
    import repro.serve.views as views
    from repro.campaign.sketches import CampaignAggregate
    from repro.serve import AggregateStore, ServeApp

    tracer.wrap(ServeApp, "__call__", "serve.app")
    tracer.wrap(AggregateStore, "document", "store.document")
    tracer.wrap(AggregateStore, "campaigns", "store.campaigns")
    tracer.wrap(AggregateStore, "listing_etag", "store.listing_etag")
    tracer.wrap(AggregateStore, "trace", "store.trace")
    tracer.wrap(AggregateStore, "submit", "store.submit")
    tracer.wrap(views, "build_aggregate_documents", "views.documents")
    tracer.wrap(fidelity, "evaluate_aggregate", "fidelity.evaluate")
    tracer.wrap(CampaignAggregate, "digest", "sketches.digest")
    tracer.wrap(expose, "render_exposition", "expose.render")


def server_main(conn) -> None:
    """Server process: ingest, serve until told to stop, report back.

    The first message on ``conn`` is ``(payload, names, baseline_path,
    run_id, cpu)``; ``cpu``, when not None, is the one CPU the server
    runs on.  Later control messages: ``"trace"`` installs the timing
    wrappers (acknowledged with ``"traced"``), ``"stop"`` shuts the
    server down, as does the parent closing its end; the process then
    sends ``("done", peak_rss_mb, spans, span names, counts)`` and exits.
    """
    from perfbench.tracing import Tracer
    from repro.serve import AggregateStore, ServeApp, make_server
    from repro.verify import Baseline

    payload, names, baseline_path, run_id, cpu = conn.recv()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    store = AggregateStore(":memory:", baseline=Baseline.load(baseline_path))
    for name in names:
        store.ingest_aggregate(name, payload)
    server = make_server("127.0.0.1", 0, ServeApp(store, token=TOKEN))
    tracer = Tracer(run_id)

    def control() -> None:
        while True:
            try:
                message = conn.recv()
            except (OSError, EOFError):
                message = "stop"  # the parent is gone
            if message == "trace":
                install_wrappers(tracer)
                conn.send("traced")
            elif message == "stop":
                server.shutdown()
                return

    threading.Thread(target=control, daemon=True).start()
    conn.send(("ready", server.server_port))
    server.serve_forever(poll_interval=0.05)
    server.server_close()
    tracer.restore()
    try:
        conn.send((
            "done", common.peak_rss_mb(), tracer.spans, tracer.names,
            tracer.totals(tracer.counts),
        ))
    except OSError:
        pass  # the parent is gone
    store.close()
    conn.close()


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
def _request_bytes(path: str, body: bytes | None = None) -> bytes:
    if body is None:
        return (
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
    return (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Authorization: Bearer {TOKEN}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body


def exchange(port: int, raw: bytes) -> tuple[float, int, bytes]:
    """One request on a fresh connection: (seconds, status, body)."""
    start = time.perf_counter()
    sock = socket.create_connection(("127.0.0.1", port))
    try:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(262144)
            if not chunk:
                break
            chunks.append(chunk)
        elapsed = time.perf_counter() - start
    finally:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT_ON_CLOSE)
        sock.close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head[9:12])
    except ValueError:
        status = 0
    return elapsed, status, body


class Serve:
    """Set-up state, request plan and output checks of ``serve-mixed``."""

    def __init__(self, seed: int, run_id: str):
        self.seed = seed
        self.run_id = run_id
        self.process = None
        self.conn = None
        self.port = 0
        self.cpus = cpu_pair()
        self.warmups: list[dict] = []  # checked like timed sweeps

    # -- set-up -----------------------------------------------------------
    def setup(self) -> float:
        """One full set-up, ending with a ready server; returns seconds."""
        from benchmarks.bench_serve import build_aggregate, request_plan
        from repro.campaign.sketches import CampaignAggregate
        from repro.pipeline.context import mint_trace_id
        from repro.serve import AggregateStore
        from repro.verify import Baseline

        self.stop()
        start = time.perf_counter()
        base = build_aggregate()
        payload = base.to_dict()
        payload["provenance"] = {"trace_id": mint_trace_id(self.seed)}
        rng = random.Random(self.seed)
        names = [f"region-{index:03d}" for index in range(N_CAMPAIGNS)]
        rng.shuffle(names)
        # Targets sort into the first listing page, so listing reads
        # see every submitted digest.
        targets = rng.sample(sorted(names)[:LISTING_PAGE], SUBMIT_TARGETS)

        # Distinct variants: the base aggregate folded into itself k times.
        variants = []
        for copies in range(2, 2 + VARIANTS):
            variant = CampaignAggregate.from_dict(payload)
            for _ in range(copies - 1):
                variant.merge(base)
            variants.append(variant)

        baseline_path = str(common.ROOT / "baselines" / "paper_claims.json")
        reference = AggregateStore(
            ":memory:", baseline=Baseline.load(baseline_path)
        )
        # expected[name][state] = (digest, {family: sha256 of body});
        # state 0 is the ingested base, state k >= 1 variant k - 1.
        self.expected = {}
        for name in names:
            reference.ingest_aggregate(name, payload)
            self.expected[name] = [self._documents(reference, name)]
        submissions = {}
        for name in targets:
            for index, variant in enumerate(variants):
                line = {
                    "type": "aggregate",
                    "campaign": name,
                    "digest": variant.digest(),
                    "payload": variant.to_dict(),
                }
                reference.ingest_aggregate(name, line["payload"])
                self.expected[name].append(self._documents(reference, name))
                body = (json.dumps(line) + "\n").encode("utf-8")
                submissions[name, index] = _request_bytes("/v1/submit", body)
        reference.close()

        # The sweep: the read mix with a submit in every SUBMIT_EVERY-th
        # slot, the targets and their variants in a seed-dependent order.
        reads = request_plan(names, SWEEP_REQUESTS)
        offset = rng.randrange(VARIANTS)
        self.plan = []
        n_submits = 0
        for index in range(SWEEP_REQUESTS):
            if index % SUBMIT_EVERY == SUBMIT_EVERY - 1:
                name = targets[n_submits % SUBMIT_TARGETS]
                variant = (n_submits // SUBMIT_TARGETS + offset) % VARIANTS
                self.plan.append(
                    ("submit", name, variant, submissions[name, variant])
                )
                n_submits += 1
            else:
                route, path = reads[index]
                self.plan.append((route, path, None, _request_bytes(path)))
        self.state = {name: 0 for name in names}
        self.n_campaigns = len(names)

        # A plain child process that stop() always waits for: a fresh
        # interpreter, like ``multiprocessing``'s spawn start method, but
        # without the resource tracker process that spawn leaves behind.
        parent_sock, child_sock = socket.socketpair()
        self.conn = Connection(parent_sock.detach())
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "perfbench.serve",
                 str(child_sock.fileno())],
                cwd=common.ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, pass_fds=(child_sock.fileno(),),
            )
        finally:
            child_sock.close()
        self.conn.send((
            payload, names, baseline_path, self.run_id,
            self.cpus[1] if self.cpus else None,
        ))
        if not self.conn.poll(120):
            raise RuntimeError("server did not come up")
        tag, self.port = self.conn.recv()
        if tag != "ready":
            raise RuntimeError(f"server sent {tag!r} instead of its port")
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[0]})
        self.warmups.append(self.sweep(WARMUP_REQUESTS))
        return time.perf_counter() - start

    @staticmethod
    def _documents(store, name: str) -> tuple[str, dict]:
        digest = next(
            entry["digest"] for entry in store.campaigns()
            if entry["name"] == name
        )
        hashes = {}
        for family in DOCUMENT_FAMILIES.values():
            _, body = store.document(name, family)
            hashes[family] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return digest, hashes

    def trace_on(self) -> None:
        self.conn.send("trace")
        if self.conn.recv() != "traced":
            raise RuntimeError("server did not install the wrappers")

    def stop(self) -> tuple[float, list, set, dict] | None:
        """Stop the server; returns (peak RSS MiB, spans, names, counts)."""
        if self.process is None:
            return None
        outcome = None
        try:
            self.conn.send("stop")
            if self.conn.poll(60):
                tag, *outcome = self.conn.recv()
        except (OSError, EOFError):
            pass  # the server died; the caller reports the missing outcome
        finally:
            self.conn.close()
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None
        return outcome

    # -- the timed operation ----------------------------------------------
    def sweep(self, requests: int = SWEEP_REQUESTS) -> dict:
        """One pass over the plan's first ``requests`` entries.

        Only the exchanges are timed; the responses are checked after
        the clock stops, in request order, so the client's own hashing
        and parsing stay out of ``seconds``.
        """
        plan = self.plan[:requests]
        responses = []
        start = time.perf_counter()
        for entry in plan:
            responses.append(exchange(self.port, entry[3]))
        seconds = time.perf_counter() - start

        checked = time.perf_counter()
        latencies, reads, submits, problems = [], [], [], []
        for (route, path, variant, _), (latency, status, body) in zip(
            plan, responses
        ):
            latencies.append(latency)
            if route == "submit":
                submits.append(latency)
                problem = self._check_submit(path, variant, status, body)
            else:
                reads.append(latency)
                problem = self._check_read(route, path, status, body)
            if problem:
                problems.append(f"{route} {path}: {problem}")
        return {
            "seconds": seconds,
            "check_seconds": time.perf_counter() - checked,
            "latencies": latencies,
            "reads": reads,
            "submits": submits,
            "problems": problems,
        }

    def _check_submit(self, name, variant, status, body) -> str | None:
        if status != 200:
            return f"HTTP {status}"
        outcome = json.loads(body)
        if outcome.get("campaigns") != [name] or outcome.get("ingested") != 1:
            return f"unexpected outcome {outcome}"
        self.state[name] = variant + 1
        return None

    def _check_read(self, route, path, status, body) -> str | None:
        if status == 304:
            return None
        if status != 200:
            return f"HTTP {status}"
        family = DOCUMENT_FAMILIES.get(route)
        if family is not None:
            name = path.rsplit("campaign=", 1)[1]
            _, hashes = self.expected[name][self.state[name]]
            if hashlib.sha256(body).hexdigest() != hashes[family]:
                return "body differs from the stored document"
            return None
        if route == "/v1/campaigns":
            listing = json.loads(body)
            if listing.get("count") != self.n_campaigns:
                return f"listing counts {listing.get('count')} campaigns"
            for entry in listing["campaigns"]:
                digest, _ = self.expected[entry["name"]][self.state[entry["name"]]]
                if entry["digest"] != digest:
                    return f"listing digest of {entry['name']} is stale"
            return None
        if route == "/metrics":
            if b"serve_requests" not in body:
                return "exposition lacks serve_requests"
            return None
        return f"unchecked route {route}"


if __name__ == "__main__":
    # The server process: ``python -m perfbench.serve <fd>`` from the
    # checkout root, ``fd`` being its end of the control socket.
    common.prepare_imports()
    server_main(Connection(int(sys.argv[1])))
