"""Content-keyed artifact cache: skip recomputation of unchanged stages.

A pipeline stage's product is fully determined by its configuration and the
run's root seed, so both are folded into a canonical digest — the *content
key* — and the artifact is persisted under it.  A later run with the same
key loads the artifact instead of recomputing it; any change to the
configuration, the seed, or the artifact-format version produces a
different key and a clean miss (stale entries are simply never read).

Layout on disk: ``<root>/<kind>/<key><suffix>``, e.g.
``.repro-cache/campaign/1f0c9a….npz``.  Writes go through a temporary file
plus atomic rename, so a crashed run can never leave a truncated artifact
behind that a later run would trust.  A writer killed before the rename
leaves its ``.tmp-<pid>-…`` file; :meth:`ArtifactCache.sweep` removes the
ones whose writer is gone.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import os
import threading
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataset.records import SessionTable
    from ..obs.telemetry import Telemetry

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump when a cached artifact's on-disk format changes incompatibly.
CACHE_FORMAT_VERSION = 1

#: Monotonic counter making concurrent same-process writes collision-free.
_TMP_COUNTER = itertools.count()

#: Name prefix of a write in flight: ``.tmp-<pid>-<thread>-<n>-<final name>``.
TMP_PREFIX = ".tmp-"


class CacheError(ValueError):
    """Raised on invalid cache keys or unreadable cached artifacts."""


class Described:
    """A value canonicalized once by :func:`describe`, for reuse in many keys.

    Only the description's canonical JSON text is kept:
    :func:`content_key` splices it straight into the key payload, so a
    large part shared by many content keys (a model bank, say) is walked
    and serialized once rather than once per key.  Wrapping never changes
    a key: the text is exactly what describing and serializing the
    original would produce.
    """

    __slots__ = ("text",)

    def __init__(self, value: Any):
        self.text = _canonical_json(describe(value))


#: Encoder of canonical key text (``json.dumps`` would build one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_json(described: Any) -> str:
    """Sorted-key, compact JSON text of a described value."""
    return _ENCODER.encode(described)


#: Exact types :func:`describe` returns as they are (checked first: the
#: values of a large configuration are mostly these).
_PLAIN = frozenset({type(None), bool, int, float, str})


def describe(value: Any) -> Any:
    """Canonical JSON-able description of a configuration value.

    Dataclasses become ``{"__type__": name, **fields}``, enums their value,
    numpy scalars plain Python numbers, mappings and sequences recurse;
    a :class:`Described` value is already canonical.  Used to build stable
    content keys from configuration objects without each of them having
    to implement a serialization protocol.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Described):
        return json.loads(value.text)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        described = {
            field.name: describe(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        described["__type__"] = type(value).__name__
        return described
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): describe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CacheError(
        f"cannot build a content key from a {type(value).__name__} value"
    )


def content_key(parts: Mapping[str, Any]) -> str:
    """Stable hexadecimal digest of a configuration mapping.

    The mapping is canonicalized with :func:`describe`, serialized with
    sorted keys and hashed with SHA-256; the first 20 hex characters are
    plenty against accidental collisions.
    """
    payload = dict(parts, cache_format=CACHE_FORMAT_VERSION)
    text = _key_text(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _key_text(value: Any) -> str:
    """``_canonical_json(describe(value))``, splicing in described texts.

    Mappings are written member by member in sorted key order — the order
    ``json.dumps(sort_keys=True)`` gives their string keys, so ``"10"``
    precedes ``"9"`` — and every :class:`Described` member contributes its
    stored text instead of being serialized again.
    """
    if isinstance(value, Described):
        return value.text
    if isinstance(value, Mapping) and not dataclasses.is_dataclass(value):
        members = {str(k): v for k, v in value.items()}
        return "{" + ",".join(
            f"{json.dumps(name)}:{_key_text(members[name])}"
            for name in sorted(members)
        ) + "}"
    return _canonical_json(describe(value))


def default_cache_root() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def _writer_alive(tmp_name: str) -> bool:
    """Whether the process named in a temporary file's name may still write it.

    Unparseable names count as alive, so only a file whose writer is
    known to be gone is ever removed.
    """
    try:
        pid = int(tmp_name[len(TMP_PREFIX):].split("-", 1)[0])
    except ValueError:
        return True
    if pid <= 0 or os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # alive, but owned by another user
        pass
    return True


class ArtifactCache:
    """Directory of cached artifacts addressed by (kind, content key).

    The cache root is assumed to be written from one host: :meth:`sweep`
    judges a temporary file's writer by its pid in this host's process
    table.

    With a :class:`~repro.obs.telemetry.Telemetry` attached, every probe,
    load and store increments the run's cache metrics (``cache.hit``,
    ``cache.miss``, ``cache.error``, ``cache.stores``, ``cache.bytes_read``,
    ``cache.bytes_written``) — purely observational, artifact contents and
    keys are untouched.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        telemetry: "Telemetry | None" = None,
    ):
        self.root = Path(root) if root is not None else default_cache_root()
        self.telemetry = telemetry

    def _count(self, name: str, amount: int | float = 1) -> None:
        """Increment one cache metric when telemetry is attached."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(amount)

    def _directory(self, kind: str) -> Path:
        """Directory the artifacts of ``kind`` live in."""
        if not kind or any(sep in kind for sep in "/\\"):
            raise CacheError(f"invalid artifact kind {kind!r}")
        return self.root / kind

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        """Path an artifact of ``kind`` with content ``key`` lives at."""
        directory = self._directory(kind)
        if not key:
            raise CacheError("empty content key")
        return directory / f"{key}{suffix}"

    def artifacts(self, kind: str, suffix: str) -> list[Path]:
        """The complete artifacts of ``kind``, sorted; writes in flight excluded."""
        return sorted(
            path for path in self._directory(kind).glob(f"*{suffix}")
            if not path.name.startswith(TMP_PREFIX)
        )

    def sweep(self, kind: str) -> int:
        """Remove the temporary files of ``kind`` whose writer is gone.

        A writer killed between its ``save`` and the rename never runs
        its cleanup, so its temporary file would stay forever.  Files
        whose writer pid is still alive on this host are kept: they may
        be a store in flight.  Returns the number of files removed.
        """
        removed = 0
        for path in self._directory(kind).glob(f"{TMP_PREFIX}*"):
            if not _writer_alive(path.name):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def has(self, kind: str, key: str, suffix: str) -> bool:
        """Whether an artifact is present for this content key.

        A negative probe counts as one ``cache.miss`` — this is the
        question every caller asks before deciding to recompute.
        """
        present = self.path_for(kind, key, suffix).exists()
        if not present:
            self._count("cache.miss")
        return present

    def store(
        self,
        kind: str,
        key: str,
        suffix: str,
        save: Callable[[Path], None],
    ) -> Path:
        """Persist an artifact atomically via the ``save(path)`` callback.

        ``save`` writes to a temporary path; the file is renamed into place
        only after the write completed, so concurrent or crashed runs never
        expose partial artifacts.  The temporary name is unique per process,
        thread *and* store call, so concurrent writers of the same key never
        step on each other's half-written file — the last rename wins and
        every intermediate state of the final path is a complete artifact.
        """
        final = self.path_for(kind, key, suffix)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(
            f"{TMP_PREFIX}{os.getpid()}-{threading.get_ident()}-"
            f"{next(_TMP_COUNTER)}-{final.name}"
        )
        try:
            save(tmp)
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)
        self._count("cache.stores")
        try:
            self._count("cache.bytes_written", final.stat().st_size)
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        return final

    def fetch(
        self,
        kind: str,
        key: str,
        suffix: str,
        load: Callable[[Path], Any],
    ) -> Any:
        """Load a cached artifact via the ``load(path)`` callback."""
        path = self.path_for(kind, key, suffix)
        if not path.exists():
            self._count("cache.miss")
            raise CacheError(f"no cached {kind} artifact for key {key}")
        try:
            value = load(path)
        except Exception as exc:
            self._count("cache.error")
            raise CacheError(f"cannot load cached {kind} at {path}: {exc}") from exc
        self._count("cache.hit")
        try:
            self._count("cache.bytes_read", path.stat().st_size)
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        return value


def save_table(path: str | Path, table: "SessionTable") -> None:
    """Persist a :class:`SessionTable` as a compressed ``.npz`` archive."""
    from ..dataset.records import SessionTable

    np.savez_compressed(
        str(path), **{col: getattr(table, col) for col in SessionTable.COLUMNS}
    )


def load_table(path: str | Path) -> "SessionTable":
    """Inverse of :func:`save_table`.

    Any way the archive can be broken — truncated zip, missing columns,
    arrays that fail :class:`SessionTable` validation — surfaces as
    :class:`CacheError`, so callers have a single corruption signal.
    """
    import zipfile

    from ..dataset.records import SessionTable

    try:
        with np.load(str(path)) as archive:
            return SessionTable(
                *(archive[col] for col in SessionTable.COLUMNS)
            )
    except (OSError, KeyError, ValueError, zipfile.BadZipFile, EOFError) as exc:
        raise CacheError(f"cannot read session table at {path}: {exc}") from exc
