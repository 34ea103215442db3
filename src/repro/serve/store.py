"""SQLite-backed aggregate store: the serving layer's single source of truth.

The store ingests the artifacts a campaign run leaves behind — spooled
per-shard checkpoints (cache kind ``campaign-shard``), merged aggregate
JSON (``repro-traffic campaign --output``), model releases and telemetry
manifests — and persists, per campaign, the canonical aggregate bytes,
their SHA-256 digest and the precomputed query documents of every
endpoint family (:mod:`repro.serve.views`).  Queries never touch sketches
or the generator: they read finished documents.

Consistency model
-----------------
One SQLite connection, guarded by one lock; every ingest runs as a single
transaction that replaces a campaign's aggregate row *and* all its
documents together.  A reader therefore observes either the complete old
snapshot or the complete new one — never a torn mix — and a crashed
ingest rolls back to the previous snapshot (SQLite atomicity).

Digest discipline
-----------------
Every aggregate entering the store is re-parsed through
:meth:`~repro.campaign.sketches.CampaignAggregate.from_dict` and its
digest recomputed from the canonical serialization.  Submissions carry
the digest their producer computed; a mismatch raises
:class:`DigestMismatchError` (HTTP 409) and nothing is stored.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..campaign.driver import CHECKPOINT_KIND, CHECKPOINT_SUFFIX
from ..campaign.sketches import CampaignAggregate, SketchError
from ..io.cache import ArtifactCache
from ..io.params import load_release
from .schema import SubmitSchemaError, validate_submissions
from .views import (
    RELEASE_SCOPE,
    arrivals_document,
    build_aggregate_documents,
    canonical_body,
    document_etag,
)

#: Bump when the store's on-disk layout changes incompatibly.
STORE_FORMAT_VERSION = 1

#: Family key of the release-level arrival-deciles document.
ARRIVALS_FAMILY = "arrivals/deciles"


class StoreError(ValueError):
    """Raised on malformed ingests or an incompatible store file."""


class DigestMismatchError(StoreError):
    """A submitted digest does not match the payload's canonical bytes."""


class AggregateStore:
    """Campaign aggregates, documents and manifests in one SQLite file.

    Parameters
    ----------
    path:
        SQLite database path; created on first open.  ``":memory:"`` is
        supported (tests, single-process ingest-and-serve).
    baseline:
        The :class:`~repro.verify.baseline.Baseline` fidelity documents
        are judged under; defaults to the checked-in golden baseline.
    """

    def __init__(self, path: str | Path, baseline=None):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._baseline = baseline
        self._init_schema()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _init_schema(self) -> None:
        with self._lock, self._conn as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS campaigns ("
                " name TEXT PRIMARY KEY,"
                " digest TEXT NOT NULL,"
                " aggregate TEXT NOT NULL,"
                " sessions INTEGER NOT NULL,"
                " units INTEGER NOT NULL,"
                " shards INTEGER NOT NULL,"
                " trace_id TEXT)"
            )
            # Additive migration: stores created before trace provenance
            # landed lack the column; ALTER is idempotent per open, cheap,
            # and keeps the format version at 1 (old readers still work).
            columns = {
                row[1]
                for row in conn.execute("PRAGMA table_info(campaigns)")
            }
            if "trace_id" not in columns:
                conn.execute(
                    "ALTER TABLE campaigns ADD COLUMN trace_id TEXT"
                )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS documents ("
                " scope TEXT NOT NULL,"
                " family TEXT NOT NULL,"
                " etag TEXT NOT NULL,"
                " body TEXT NOT NULL,"
                " PRIMARY KEY (scope, family))"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS manifests ("
                " campaign TEXT PRIMARY KEY,"
                " body TEXT NOT NULL)"
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'format'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('format', ?)",
                    (str(STORE_FORMAT_VERSION),),
                )
            elif int(row[0]) != STORE_FORMAT_VERSION:
                raise StoreError(
                    f"store format {row[0]} unsupported "
                    f"(this build reads {STORE_FORMAT_VERSION})"
                )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()

    @property
    def baseline(self):
        """The fidelity baseline, lazily loaded from the golden file."""
        with self._lock:
            if self._baseline is None:
                from ..verify import Baseline, default_baseline_path

                self._baseline = Baseline.load(default_baseline_path())
            return self._baseline

    # ------------------------------------------------------------------
    # Ingestion (each public method = one atomic snapshot swap)
    # ------------------------------------------------------------------
    def _write_campaign(
        self, conn: sqlite3.Connection, name: str,
        aggregate: CampaignAggregate, shards: int,
        trace_id: str | None = None,
    ) -> str:
        """Replace one campaign's aggregate row and all its documents."""
        digest = aggregate.digest()
        documents = build_aggregate_documents(name, aggregate, self.baseline)
        conn.execute(
            "INSERT OR REPLACE INTO campaigns "
            "(name, digest, aggregate, sessions, units, shards, trace_id) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                name,
                digest,
                aggregate.canonical_json(),
                aggregate.n_sessions,
                aggregate.n_units,
                shards,
                trace_id,
            ),
        )
        for family, document in documents.items():
            conn.execute(
                "INSERT OR REPLACE INTO documents "
                "(scope, family, etag, body) VALUES (?, ?, ?, ?)",
                (
                    name,
                    family,
                    document_etag(digest, family),
                    canonical_body(document),
                ),
            )
        return digest

    @staticmethod
    def _parse_aggregate(payload: Mapping[str, Any]) -> CampaignAggregate:
        try:
            return CampaignAggregate.from_dict(dict(payload))
        except SketchError as exc:
            raise StoreError(f"invalid aggregate payload: {exc}") from exc

    @staticmethod
    def _extract_trace(payload: Mapping[str, Any]) -> str | None:
        """The ``provenance.trace_id`` a producer rode on the payload.

        Campaign checkpoints and ``campaign --output`` files carry a
        ``provenance`` envelope key outside the aggregate's own
        serialization (``from_dict`` ignores it); absence is fine —
        provenance is additive, never required.
        """
        provenance = payload.get("provenance")
        if isinstance(provenance, Mapping):
            trace = provenance.get("trace_id")
            if isinstance(trace, str) and trace:
                return trace
        return None

    def ingest_aggregate(
        self,
        name: str,
        payload: Mapping[str, Any],
        *,
        expect_digest: str | None = None,
        shards: int = 0,
        trace_id: str | None = None,
    ) -> str:
        """Ingest one merged aggregate payload; returns its digest.

        ``expect_digest`` is the digest the producer computed; when given,
        it must equal the digest of the re-serialized canonical payload
        (:class:`DigestMismatchError` otherwise — nothing is stored).
        ``trace_id`` overrides the payload's own ``provenance.trace_id``
        when given.
        """
        if not name:
            raise StoreError("campaign name must be non-empty")
        aggregate = self._parse_aggregate(payload)
        if trace_id is None:
            trace_id = self._extract_trace(payload)
        digest = aggregate.digest()
        if expect_digest is not None and expect_digest != digest:
            raise DigestMismatchError(
                f"digest mismatch for campaign {name!r}: "
                f"submitted {expect_digest}, canonical bytes give {digest}"
            )
        with self._lock, self._conn as conn:
            self._write_campaign(conn, name, aggregate, shards, trace_id)
        return digest

    def ingest_aggregate_file(self, name: str, path: str | Path) -> str:
        """Ingest a ``repro-traffic campaign --output`` JSON file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read aggregate at {path}: {exc}") from exc
        return self.ingest_aggregate(name, payload)

    def ingest_checkpoints(
        self, name: str, cache_root: str | Path
    ) -> tuple[str, int]:
        """Merge and ingest a cache's spooled shard checkpoints.

        Scans ``<cache_root>/campaign-shard/*.json`` — the checkpoint
        layout of :mod:`repro.campaign.driver` — folds every checkpoint
        into one aggregate (merge order is irrelevant: sketch merges are
        exact) and ingests the result.  Returns ``(digest, n_shards)``.
        """
        paths = ArtifactCache(cache_root).artifacts(
            CHECKPOINT_KIND, CHECKPOINT_SUFFIX
        )
        if not paths:
            raise StoreError(
                f"no {CHECKPOINT_KIND} checkpoints under "
                f"{Path(cache_root) / CHECKPOINT_KIND}"
            )
        total: CampaignAggregate | None = None
        trace_id: str | None = None
        for path in paths:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                shard = CampaignAggregate.from_dict(payload)
            except (OSError, json.JSONDecodeError, SketchError) as exc:
                raise StoreError(
                    f"cannot load checkpoint {path}: {exc}"
                ) from exc
            if trace_id is None and isinstance(payload, Mapping):
                trace_id = self._extract_trace(payload)
            total = shard if total is None else total.merge(shard)
        assert total is not None
        with self._lock, self._conn as conn:
            digest = self._write_campaign(
                conn, name, total, len(paths), trace_id
            )
        return digest, len(paths)

    def ingest_release(self, path: str | Path) -> str:
        """Ingest a model release's decile arrival parameters.

        The release is a store-wide document (deciles describe the model,
        not one campaign); its ETag derives from the release file bytes.
        Returns the document's ETag.
        """
        bank, arrivals = load_release(path)
        del bank  # deciles only; service models stay in the release
        release_digest = hashlib.sha256(
            Path(path).read_bytes()
        ).hexdigest()
        document = arrivals_document(arrivals, release_digest)
        etag = document_etag(release_digest, ARRIVALS_FAMILY)
        with self._lock, self._conn as conn:
            conn.execute(
                "INSERT OR REPLACE INTO documents "
                "(scope, family, etag, body) VALUES (?, ?, ?, ?)",
                (
                    RELEASE_SCOPE,
                    ARRIVALS_FAMILY,
                    etag,
                    canonical_body(document),
                ),
            )
        return etag

    def ingest_manifest(
        self, name: str, payload: Mapping[str, Any]
    ) -> None:
        """Attach one telemetry run manifest to a campaign."""
        if not name:
            raise StoreError("campaign name must be non-empty")
        with self._lock, self._conn as conn:
            conn.execute(
                "INSERT OR REPLACE INTO manifests (campaign, body) "
                "VALUES (?, ?)",
                (name, canonical_body(payload)),
            )

    def ingest_manifest_file(self, name: str, path: str | Path) -> None:
        """Attach a ``manifest.json`` (or its telemetry directory)."""
        target = Path(path)
        if target.is_dir():
            target = target / "manifest.json"
        try:
            payload = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read manifest at {target}: {exc}") from exc
        if not isinstance(payload, dict):
            raise StoreError(f"manifest at {target} is not a JSON object")
        self.ingest_manifest(name, payload)

    def submit(self, text: str) -> dict[str, Any]:
        """Apply one schema-validated JSONL submission atomically.

        Every line is validated against :mod:`repro.serve.schema` and
        every aggregate digest re-verified *before* anything is written;
        the whole submission then lands in a single transaction, so a
        rejected line means nothing of the submission is visible.
        """
        lines: list[Any] = []
        for raw in text.splitlines():
            if not raw.strip():
                continue
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError as exc:
                raise SubmitSchemaError(
                    f"line #{len(lines)}: not valid JSON: {exc}"
                ) from exc
        counts = validate_submissions(lines)
        aggregates: list[tuple[str, CampaignAggregate, str | None]] = []
        manifests: list[tuple[str, Any]] = []
        campaigns: list[str] = []
        for line in lines:
            if line["type"] == "aggregate":
                aggregate = self._parse_aggregate(line["payload"])
                digest = aggregate.digest()
                if line["digest"] != digest:
                    raise DigestMismatchError(
                        f"digest mismatch for campaign {line['campaign']!r}:"
                        f" submitted {line['digest']},"
                        f" canonical bytes give {digest}"
                    )
                aggregates.append(
                    (
                        line["campaign"],
                        aggregate,
                        self._extract_trace(line["payload"]),
                    )
                )
            else:
                manifests.append((line["campaign"], line["payload"]))
            if line["campaign"] not in campaigns:
                campaigns.append(line["campaign"])
        with self._lock, self._conn as conn:
            for name, aggregate, trace_id in aggregates:
                self._write_campaign(conn, name, aggregate, 0, trace_id)
            for name, payload in manifests:
                conn.execute(
                    "INSERT OR REPLACE INTO manifests (campaign, body) "
                    "VALUES (?, ?)",
                    (name, canonical_body(payload)),
                )
        return {"ingested": len(lines), "campaigns": campaigns, **counts}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def campaign_names(self) -> list[str]:
        """All ingested campaign names, sorted."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM campaigns ORDER BY name"
            ).fetchall()
        return [row[0] for row in rows]

    def campaigns(self) -> list[dict[str, Any]]:
        """One listing entry per campaign, sorted by name."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT c.name, c.digest, c.sessions, c.units, c.shards,"
                " c.trace_id, m.body FROM campaigns c"
                " LEFT JOIN manifests m ON m.campaign = c.name"
                " ORDER BY c.name"
            ).fetchall()
        entries = []
        for name, digest, sessions, units, shards, trace, manifest in rows:
            entry: dict[str, Any] = {
                "name": name,
                "digest": digest,
                "sessions": sessions,
                "units": units,
                "shards": shards,
                "trace": trace,
                "manifest": (
                    json.loads(manifest) if manifest is not None else None
                ),
            }
            entries.append(entry)
        return entries

    def listing_etag(self) -> str:
        """ETag of the campaign listing: a hash over every digest."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, digest FROM campaigns ORDER BY name"
            ).fetchall()
        material = ";".join(f"{name}={digest}" for name, digest in rows)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]

    def document(self, scope: str, family: str) -> tuple[str, str] | None:
        """A stored document's ``(etag, canonical body)``, if present."""
        with self._lock:
            row = self._conn.execute(
                "SELECT etag, body FROM documents "
                "WHERE scope = ? AND family = ?",
                (scope, family),
            ).fetchone()
        return (row[0], row[1]) if row is not None else None

    def aggregate(self, name: str) -> CampaignAggregate | None:
        """Rehydrate one campaign's stored aggregate (exact round trip)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT aggregate FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            return None
        return CampaignAggregate.from_dict(json.loads(row[0]))

    def trace(self, name: str) -> str | None:
        """One campaign's trace id, if its producer recorded provenance."""
        with self._lock:
            row = self._conn.execute(
                "SELECT trace_id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        return row[0] if row is not None else None

    def manifest(self, name: str) -> dict[str, Any] | None:
        """One campaign's attached run manifest, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT body FROM manifests WHERE campaign = ?", (name,)
            ).fetchone()
        return json.loads(row[0]) if row is not None else None


def iter_submission_lines(paths: Iterable[str | Path]) -> Iterable[str]:
    """Concatenate JSONL submission files into one line stream."""
    for path in paths:
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            if raw.strip():
                yield raw
