"""Live metrics export: a read-only HTTP plane beside the simulation.

The engine is single-threaded and deterministic; dashboards want HTTP.
This module keeps the two from ever touching: the simulation thread
*publishes* point-in-time renderings of its registry (byte-identical to
the ``metrics.prom``/``metrics.json`` artifact encoders), and a
:class:`LiveMetricsServer` — a stdlib :class:`~http.server.ThreadingHTTPServer`
on an ephemeral or configured port — serves the last published snapshot.
Handler threads never see the registry, only immutable rendered strings
swapped atomically under a lock, so a scrape observes one consistent
point in time and the engine never blocks on, or learns about, the
network.  Lint rule DBP016 enforces the boundary from the other side: no
socket/thread/signal imports in engine scope.

Routes:

``/metrics``
    Prometheus text exposition (version 0.0.4) — exactly the bytes
    :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus` writes to
    the ``metrics.prom`` artifact for the same registry state.
``/snapshot.json``
    The byte-stable ``to_json`` snapshot of the same published state.
``/healthz``
    Liveness: 200 as soon as the server thread is up.
``/readyz``
    Readiness: 503 until the first snapshot is published, 200 after.

:class:`LiveExportObserver` is the glue for streamed runs: an observer
that republishes every ``publish_every`` events and drives an optional
:class:`Heartbeat` progress line from the injectable clock.  It keeps no
checkpointable state (its ``checkpoint_state`` stays ``None``), so
attaching it leaves summaries, traces, metrics, and resume behaviour
byte-identical.
"""

from __future__ import annotations

import http.client
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, TYPE_CHECKING, Any, Sequence

from ..core.numeric import Num
from ..core.telemetry import SimulationObserver
from .clock import Clock, MonotonicClock
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..algorithms.base import Arrival
    from ..core.bin import Bin

__all__ = [
    "Heartbeat",
    "LiveExportObserver",
    "LiveMetricsServer",
    "scrape",
]

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class LiveMetricsServer:
    """Serve published registry snapshots over HTTP; never touch the run.

    The server owns no registry.  Producers call :meth:`publish` (or
    :meth:`publish_registry`) from whichever thread owns the metrics —
    rendering happens on the producer side, so what the handler threads
    share is a pair of immutable strings.  Start with :meth:`start` or as
    a context manager; ``port=0`` binds an ephemeral port, read back via
    :attr:`port` / :attr:`url`.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lock = threading.Lock()
        self._prom: str | None = None
        self._json: str | None = None
        self._published = 0
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            # handler threads read only the atomically-swapped snapshot
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                if path == "/healthz":
                    self._send(200, "text/plain; charset=utf-8", "ok\n")
                    return
                if path == "/readyz":
                    if outer.published:
                        self._send(200, "text/plain; charset=utf-8", "ready\n")
                    else:
                        self._send(503, "text/plain; charset=utf-8", "no snapshot published yet\n")
                    return
                if path == "/metrics":
                    prom, _ = outer._snapshot_pair()
                    if prom is None:
                        self._send(503, "text/plain; charset=utf-8", "no snapshot published yet\n")
                    else:
                        self._send(200, _PROM_CONTENT_TYPE, prom)
                    return
                if path == "/snapshot.json":
                    _, body = outer._snapshot_pair()
                    if body is None:
                        self._send(503, "text/plain; charset=utf-8", "no snapshot published yet\n")
                    else:
                        self._send(200, "application/json; charset=utf-8", body)
                    return
                self._send(404, "text/plain; charset=utf-8", "not found\n")

            def _send(self, status: int, content_type: str, body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format: str, *args: Any) -> None:
                pass  # scrapes must not spam the run's stderr

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # ---------------------------------------------------------- lifecycle

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]  # type: ignore[return-value]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveMetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="live-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "LiveMetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # --------------------------------------------------------- publishing

    @property
    def published(self) -> int:
        """How many snapshots have been published so far."""
        with self._lock:
            return self._published

    def publish(self, prom: str, json_body: str) -> None:
        """Swap in pre-rendered snapshot bodies (producer-side render)."""
        with self._lock:
            self._prom = prom
            self._json = json_body
            self._published += 1

    def publish_registry(self, registry: MetricsRegistry) -> None:
        """Render and publish a registry — call from the thread that owns it."""
        self.publish(registry.to_prometheus(), registry.to_json() + "\n")

    def _snapshot_pair(self) -> tuple[str | None, str | None]:
        with self._lock:
            return self._prom, self._json


def scrape(
    port: int,
    path: str = "/metrics",
    *,
    host: str = "127.0.0.1",
    timeout: float = 10.0,
) -> bytes:
    """One loopback GET against a :class:`LiveMetricsServer`; returns the body.

    Raises :class:`ConnectionError` on any non-200 status, so callers that
    byte-compare scrapes against artifacts fail loudly instead of diffing
    an error page.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise ConnectionError(
                f"GET {path} on port {port}: {response.status} "
                f"{body.decode('utf-8', 'replace').strip()}"
            )
        return body
    finally:
        conn.close()


class Heartbeat:
    """Periodic one-line progress report, driven by the injectable clock.

    The line carries the signals an operator watches a long dispatch for:
    events processed, open bins, items placed (with ETA against
    ``total_items`` when known).  Cadence comes from the injected clock —
    a :class:`~repro.obs.clock.ManualClock` makes the output exactly
    reproducible in tests; the engine itself still never reads time.
    """

    def __init__(
        self,
        stream: IO[str],
        *,
        clock: Clock | None = None,
        interval: float = 5.0,
        total_items: int | None = None,
        label: str = "live",
    ) -> None:
        self.stream = stream
        self.clock = clock if clock is not None else MonotonicClock()
        self.interval = float(interval)
        self.total_items = total_items
        self.label = label
        self._started: float | None = None
        self._last: float | None = None
        self.beats = 0

    def beat(
        self, *, events: int, open_bins: int, placed: int, force: bool = False
    ) -> bool:
        """Emit a line if ``interval`` has elapsed; returns whether it did."""
        now = self.clock.now()
        if self._started is None:
            self._started = self._last = now
            if not force:
                return False
        assert self._last is not None and self._started is not None
        if not force and now - self._last < self.interval:
            return False
        self._last = now
        self.beats += 1
        elapsed = now - self._started
        parts = [
            f"{self.label}: events={events}",
            f"open_bins={open_bins}",
        ]
        if self.total_items is not None and self.total_items > 0:
            parts.append(f"placed={placed}/{self.total_items}")
            if 0 < placed < self.total_items and elapsed > 0:
                eta = elapsed * (self.total_items - placed) / placed
                parts.append(f"eta={eta:.1f}s")
        else:
            parts.append(f"placed={placed}")
        self.stream.write(" ".join(parts) + "\n")
        self.stream.flush()
        return True


class LiveExportObserver(SimulationObserver):
    """Observer that republishes the registry and drives the heartbeat.

    Rides in ``extra_observers`` beside the session's deterministic
    observers, after the :class:`~repro.obs.observer.MetricsObserver` that
    feeds ``registry``.  It keeps no tally of its own: each engine event it
    reads that observer's ``dbp_events_processed_total``,
    ``dbp_sessions_started_total`` and ``dbp_open_bins`` (looked up, never
    created, so the registry's layout is that observer's alone; a registry
    no such observer feeds raises ``KeyError`` at the first event).  Each
    ``publish_every``-th event re-renders the registry into the server
    (producer-side, point-in-time), and the heartbeat reports the run's
    totals — a resumed run continues from its checkpoint's.  Keeps no
    checkpointable state, so resume semantics and all deterministic
    artifacts are unaffected.  Call :meth:`publish` after the run for the
    final, artifact-equal snapshot.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        server: LiveMetricsServer | None = None,
        *,
        publish_every: int = 1000,
        heartbeat: Heartbeat | None = None,
    ) -> None:
        if publish_every < 1:
            raise ValueError(f"publish_every must be >= 1, got {publish_every}")
        self.registry = registry
        self.server = server
        self.publish_every = publish_every
        self.heartbeat = heartbeat

    # ------------------------------------------------------------------ hooks

    def on_arrival(self, time: Num, item: "Arrival", bin: "Bin", opened: bool) -> None:
        self._tick()

    def on_departure(self, time: Num, item: "Arrival", bin: "Bin", closed: bool) -> None:
        self._tick()

    def on_server_failure(
        self, time: Num, bin: "Bin", evicted: Sequence["Arrival"]
    ) -> None:
        self._tick()

    def _tick(self) -> None:
        registry = self.registry
        events = registry["dbp_events_processed_total"].value
        if self.server is not None and events % self.publish_every == 0:
            self.server.publish_registry(registry)
        if self.heartbeat is not None:
            self.heartbeat.beat(
                events=events,
                open_bins=registry["dbp_open_bins"].value,
                placed=registry["dbp_sessions_started_total"].value,
            )

    # ------------------------------------------------------------------ final

    def publish(self) -> None:
        """Force-publish the current registry state (call at end of run)."""
        if self.server is not None:
            self.server.publish_registry(self.registry)
