"""Content-addressed cache transport: the stores behind the point cache.

PR 8 made every compute unit preemption-proof; this module makes the
*results* shareable.  A :class:`CacheStore` is a tiny object protocol —
``get``/``put``/``exists``/``list_keys`` over opaque byte payloads keyed
by hex digests — with one invariant across every implementation: **a
reader sees either nothing or a complete, digest-verified payload, never
a torn or silently corrupted one.**  Four stores implement it:

:class:`LocalStore`
    Today's on-disk point-cache layout (``<dir>/<key>.json``), extracted
    verbatim.  Entries are *self-verifying* canonical JSON (an embedded
    ``digest`` field over the rest of the entry), so files written
    through a :class:`LocalStore` are byte-identical to what
    :class:`~repro.yieldsim.scheduler.PointCache` always wrote, and every
    legacy cache directory reads back unchanged.  Corrupt files are
    quarantined (renamed ``*.corrupt``, counted, event-logged).  The
    point cache's fold checkpoints (``<dir>/<key>.ckpt.json``) go
    through a second :class:`LocalStore` with that suffix.
:class:`SharedFSStore`
    A content-addressed ``objects/<key[:2]>/<key>`` tree on a shared
    filesystem.  Payloads are wrapped in a one-line envelope carrying
    their SHA-256, writes are atomic put-if-absent (tmp file +
    ``os.link``), so any number of concurrent writers converge on
    exactly one object per key and readers never observe a partial
    write.
:class:`HTTPStore`
    A stdlib ``urllib`` client speaking GET/PUT/HEAD against the
    ``/cache/objects/{key}`` endpoint ``repro cache-serve`` (or any
    ``repro serve`` with ``--cache-objects``) mounts.  Transfers carry
    the payload digest in an ``X-Repro-Digest`` header; the server
    refuses uploads whose body does not hash to the declared digest, and
    the client re-verifies downloads, so a truncated or garbled transfer
    can never be mistaken for an object.
:class:`MemoryStore`
    A dict.  The local tier when no cache directory is configured, and
    the workhorse of the test suite.

:class:`TieredCache` composes a local tier in front of a remote store:
reads go through the local tier, fall back to the remote, and write the
remote's answer back locally; writes land in both.  Every remote failure
— connection refused, timeout, HTTP 5xx, a corrupt payload — degrades to
a **miss plus a logged incident** (``StoreStats.remote_errors``, folded
into :class:`~repro.yieldsim.resilience.ResilienceStats` and the manifest
provenance), never an exception: a dead remote costs recomputation, not
the run.

:class:`FaultInjectingStore` is the chaos harness for all of the above —
a deterministic wrapper injecting failed calls, garbage bodies, truncated
uploads and slow reads, mirroring
:class:`~repro.yieldsim.resilience.FaultInjectingExecutor`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable

from repro.errors import StoreError
from repro.obs.counters import ResilienceStats, StoreStats
from repro.obs.events import get_logger, log_event

__all__ = [
    "CacheStore",
    "FaultInjectingStore",
    "HTTPStore",
    "LocalStore",
    "MemoryStore",
    "SharedFSStore",
    "StoreStats",
    "TieredCache",
    "content_digest",
    "decode_entry",
    "encode_entry",
    "entry_digest",
    "store_from_url",
]

log = get_logger("cachestore")

#: Envelope magic for content-addressed objects: format name + version.
ENVELOPE_MAGIC = b"repro-cas/1 "

#: Keys are hex digests (the point cache uses full SHA-256; bundle
#: indexes and tests may use shorter prefixes).
_KEY_ALPHABET = frozenset("0123456789abcdef")
_KEY_MIN, _KEY_MAX = 6, 128


def valid_key(key: str) -> bool:
    """True iff ``key`` is plain lowercase hex of sane length.

    This is the only shape a store accepts — it is what makes a key safe
    to splice into a filesystem path or a URL (no separators, no dots,
    no traversal).
    """
    return (
        isinstance(key, str)
        and _KEY_MIN <= len(key) <= _KEY_MAX
        and not set(key) - _KEY_ALPHABET
    )


def _check_key(key: str) -> str:
    if not valid_key(key):
        raise StoreError(f"invalid cache key {key!r}")
    return key


def content_digest(data: bytes) -> str:
    """SHA-256 hex digest of a raw payload."""
    return hashlib.sha256(data).hexdigest()


# -- self-verifying JSON entries ----------------------------------------------
#
# The point cache's on-disk format, unchanged since PR 1: a canonical
# JSON object whose "digest" field is the SHA-256 of the rest.  The same
# bytes are valid in every tier, which is what keeps LocalStore files
# byte-identical to the historical layout and lets any tier detect rot.

def entry_digest(entry: Dict[str, object]) -> str:
    """Content digest of an entry (excluding its own ``digest`` field)."""
    blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def encode_entry(entry: Dict[str, object]) -> bytes:
    """Canonical self-verifying bytes of ``entry`` (digest embedded)."""
    entry = dict(entry)
    entry.pop("digest", None)
    entry["digest"] = entry_digest(entry)
    return json.dumps(entry, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def decode_entry(blob: bytes) -> Optional[Dict[str, object]]:
    """Parse and verify a self-verifying entry; ``None`` on any defect.

    Truncated, non-JSON, non-object, digest-less or digest-mismatched
    payloads all read as ``None`` — the caller treats them as a miss.
    """
    try:
        data = json.loads(blob)
    except (ValueError, TypeError):
        return None
    if not isinstance(data, dict):
        return None
    stored = data.pop("digest", None)
    if stored != entry_digest(data):
        return None
    return data


def entry_validator(key: str, blob: bytes) -> bool:
    """Tier validator for point-cache traffic: the blob must be a valid
    self-verifying entry.  Garbage from a faulty remote fails here and is
    counted as a remote error instead of being written back locally."""
    return decode_entry(blob) is not None


# -- the protocol -------------------------------------------------------------

@runtime_checkable
class CacheStore(Protocol):
    """Byte store keyed by hex digests, safe against torn reads.

    ``get`` returns a complete verified payload or ``None`` — it never
    raises on corrupt data (local stores quarantine and miss; transports
    may raise on *transport* failure, which :class:`TieredCache` absorbs).
    ``put`` atomically stores a payload and returns ``True`` iff this
    call wrote it; on shared media it is put-if-absent, so concurrent
    writers of the same key converge on one object.
    """

    name: str

    def get(self, key: str) -> Optional[bytes]: ...

    def put(self, key: str, data: bytes) -> bool: ...

    def exists(self, key: str) -> bool: ...

    def list_keys(self) -> List[str]: ...


# -- implementations ----------------------------------------------------------

class MemoryStore:
    """In-process dict store: the zero-configuration local tier."""

    name = "memory"

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}

    def get(self, key: str) -> Optional[bytes]:
        return self._objects.get(_check_key(key))

    def put(self, key: str, data: bytes) -> bool:
        self._objects[_check_key(key)] = bytes(data)
        return True

    def exists(self, key: str) -> bool:
        return _check_key(key) in self._objects

    def list_keys(self) -> List[str]:
        return sorted(self._objects)


class LocalStore:
    """The historical per-run cache directory, as a store.

    Layout and bytes are exactly what :class:`PointCache` always wrote:
    ``<dir>/<key><suffix>`` holding a self-verifying canonical JSON entry.
    The point cache keeps its entries under the default ``.json`` suffix
    and journals its fold checkpoints through a second store over the
    same directory with ``suffix=".ckpt.json"``; the two key families
    never list each other (a key is plain hex, so ``<key>.ckpt`` is not
    one).  ``get`` verifies the embedded digest and quarantines anything
    else (renamed ``*.corrupt``, counted in ``stats.quarantined`` and
    logged as a ``quarantine`` event), so a legacy cache directory
    behaves identically through this class.  ``put`` is an atomic
    overwrite (tmp + rename): the local tier is single-writer-per-run and
    a recomputed entry must be able to replace a quarantine survivor.
    """

    name = "local"

    def __init__(self, root: str,
                 stats: Optional[ResilienceStats] = None,
                 suffix: str = ".json") -> None:
        if os.path.exists(root) and not os.path.isdir(root):
            raise StoreError(
                f"cache path {root!r} exists and is not a directory"
            )
        self.root = root
        self.stats = stats if stats is not None else ResilienceStats()
        self.suffix = suffix

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{_check_key(key)}{self.suffix}")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt file aside so it is recomputed, never re-read."""
        self.stats.quarantined += 1
        log_event(
            log, "quarantine", level=logging.WARNING,
            msg=f"quarantined corrupt cache file {path}", path=path,
        )
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass

    def get(self, key: str) -> Optional[bytes]:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        if decode_entry(raw) is None:
            self._quarantine(path)
            return None
        return raw

    def put(self, key: str, data: bytes) -> bool:
        path = self._path(key)
        os.makedirs(self.root, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def delete(self, key: str) -> None:
        """Remove the entry for ``key`` if present (never raises)."""
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def exists(self, key: str) -> bool:
        return os.path.isfile(self._path(key))

    def list_keys(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        cut = len(self.suffix)
        return sorted(
            name[:-cut]
            for name in names
            if name.endswith(self.suffix) and valid_key(name[:-cut])
        )


def _envelope(data: bytes) -> bytes:
    return ENVELOPE_MAGIC + content_digest(data).encode("ascii") + b"\n" + data


def _unwrap(blob: bytes) -> Optional[bytes]:
    """The payload of an envelope iff its digest verifies; else ``None``."""
    if not blob.startswith(ENVELOPE_MAGIC):
        return None
    head, sep, payload = blob.partition(b"\n")
    if not sep:
        return None
    declared = head[len(ENVELOPE_MAGIC):].decode("ascii", "replace")
    if content_digest(payload) != declared:
        return None
    return payload


class SharedFSStore:
    """Content-addressed object tree on a shared filesystem.

    ``<root>/objects/<key[:2]>/<key>`` holds an enveloped payload
    (``repro-cas/1 <sha256>\\n<bytes>``).  ``put`` writes a private tmp
    file and links it into place: ``os.link`` fails with ``EEXIST`` if
    another writer won, which is exactly put-if-absent — no lock, no
    window where a reader can see a partial object (rename/link are
    atomic on POSIX).  Corrupt objects (a torn write would need a kernel
    bug, but disks rot) quarantine like local entries.
    """

    name = "sharedfs"

    def __init__(self, root: str) -> None:
        if os.path.exists(root) and not os.path.isdir(root):
            raise StoreError(
                f"shared store path {root!r} exists and is not a directory"
            )
        self.root = root
        self.corrupt = 0

    def _path(self, key: str) -> str:
        key = _check_key(key)
        return os.path.join(self.root, "objects", key[:2], key)

    def get(self, key: str) -> Optional[bytes]:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"shared store read failed: {exc}") from exc
        payload = _unwrap(blob)
        if payload is None:
            self.corrupt += 1
            try:
                os.replace(path, f"{path}.corrupt")
            except OSError:
                pass
            return None
        return payload

    def put(self, key: str, data: bytes) -> bool:
        path = self._path(key)
        if os.path.exists(path):
            return False
        parent = os.path.dirname(path)
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"shared store mkdir failed: {exc}") from exc
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_envelope(data))
            try:
                os.link(tmp, path)
                return True
            except FileExistsError:
                return False
            except OSError:
                # Filesystems without hard links (some network mounts):
                # fall back to an atomic rename.  Last writer wins, but
                # both writers wrote identical bytes for a given key, so
                # readers still only ever see one complete object.
                os.replace(tmp, path)
                tmp = None
                return True
        except OSError as exc:
            raise StoreError(f"shared store write failed: {exc}") from exc
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def exists(self, key: str) -> bool:
        return os.path.isfile(self._path(key))

    def list_keys(self) -> List[str]:
        objects = os.path.join(self.root, "objects")
        found: List[str] = []
        try:
            shards = os.listdir(objects)
        except OSError:
            return []
        for shard in shards:
            try:
                names = os.listdir(os.path.join(objects, shard))
            except OSError:
                continue
            found.extend(name for name in names if valid_key(name))
        return sorted(found)


class HTTPStore:
    """Stdlib HTTP client for the ``/cache/objects/{key}`` endpoint.

    Conditional on digests in both directions: ``put`` HEADs first and
    skips the upload when the object is already present (the common case
    in a warm fleet), and declares the payload digest in
    ``X-Repro-Digest`` so the server can reject a truncated body;
    ``get`` re-hashes the downloaded bytes against the digest the server
    declared.  Transport and server failures raise :class:`StoreError`
    (for :class:`TieredCache` to absorb); a 404 is a plain miss.
    """

    name = "http"

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise StoreError(f"not an http(s) url: {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, key: str) -> str:
        return f"{self.base_url}/cache/objects/{_check_key(key)}"

    def _request(self, method: str, url: str,
                 data: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None):
        req = urllib.request.Request(
            url, data=data, method=method, headers=headers or {}
        )
        try:
            return urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                exc.close()
                return None
            raise StoreError(
                f"{method} {url} failed: HTTP {exc.code}"
            ) from exc
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise StoreError(f"{method} {url} failed: {exc}") from exc

    def get(self, key: str) -> Optional[bytes]:
        response = self._request("GET", self._url(key))
        if response is None:
            return None
        with response:
            body = response.read()
            declared = response.headers.get("X-Repro-Digest")
        if declared is not None and content_digest(body) != declared:
            raise StoreError(
                f"download of {key} corrupt: digest mismatch"
            )
        return body

    def put(self, key: str, data: bytes) -> bool:
        if self.exists(key):
            return False
        response = self._request(
            "PUT", self._url(key), data=data,
            headers={
                "X-Repro-Digest": content_digest(data),
                "Content-Type": "application/octet-stream",
            },
        )
        if response is None:
            raise StoreError(f"PUT {key} rejected")
        with response:
            return response.status == 201

    def exists(self, key: str) -> bool:
        response = self._request("HEAD", self._url(key))
        if response is None:
            return False
        response.close()
        return True

    def list_keys(self) -> List[str]:
        response = self._request("GET", f"{self.base_url}/cache/keys")
        if response is None:
            return []
        with response:
            try:
                payload = json.loads(response.read())
            except ValueError as exc:
                raise StoreError("cache key listing corrupt") from exc
        keys = payload.get("keys", []) if isinstance(payload, dict) else []
        return sorted(k for k in keys if valid_key(k))


# -- the tiered cache ---------------------------------------------------------

class TieredCache:
    """Local read-through tier in front of a remote store.

    * ``get``: local hit wins; on a local miss the remote is consulted
      and its (validated) answer written back to the local tier.
    * ``put``: lands in the local tier and is uploaded to the remote
      (put-if-absent, so a warm fleet uploads each object once).
    * Every remote failure — transport error, server error, corrupt
      payload — is caught, counted (``stats.remote_errors``, folded into
      ``resilience.remote_errors``) and logged; the call degrades to a
      miss.  The compute path never sees an exception from the remote.

    ``validator(key, blob) -> bool`` guards what the remote may inject
    into the local tier; the engine passes :func:`entry_validator` so a
    garbage body can never be written back as a point entry.
    """

    name = "tiered"

    def __init__(
        self,
        local: CacheStore,
        remote: CacheStore,
        *,
        stats: Optional[StoreStats] = None,
        resilience: Optional[ResilienceStats] = None,
        validator: Optional[Callable[[str, bytes], bool]] = None,
    ) -> None:
        self.local = local
        self.remote = remote
        self.stats = stats if stats is not None else StoreStats()
        self.resilience = resilience
        self.validator = validator

    def _incident(self, op: str, key: str, detail: str) -> None:
        self.stats.remote_errors += 1
        if self.resilience is not None:
            self.resilience.remote_errors += 1
        store = getattr(self.remote, "name", "store")
        log_event(
            log, "remote_error", level=logging.WARNING,
            msg=(
                f"remote cache {store} {op} on {key} "
                f"degraded to miss: {detail}"
            ),
            store=store, op=op, key=key[:16], error=detail,
        )

    def _valid(self, key: str, blob: bytes) -> bool:
        return self.validator is None or self.validator(key, blob)

    def get(self, key: str) -> Optional[bytes]:
        blob = self.local.get(key)
        if blob is not None and self._valid(key, blob):
            self.stats.local_hits += 1
            return blob
        self.stats.local_misses += 1
        try:
            blob = self.remote.get(key)
        except Exception as exc:
            self._incident("get", key, repr(exc))
            return None
        if blob is None:
            self.stats.remote_misses += 1
            return None
        if not self._valid(key, blob):
            self._incident("get", key, "payload failed validation")
            return None
        self.stats.remote_hits += 1
        self.stats.bytes_down += len(blob)
        self.local.put(key, blob)
        return blob

    def put(self, key: str, data: bytes) -> bool:
        stored = self.local.put(key, data)
        try:
            if self.remote.put(key, data):
                self.stats.uploads += 1
                self.stats.bytes_up += len(data)
        except Exception as exc:
            self._incident("put", key, repr(exc))
        return stored

    def exists(self, key: str) -> bool:
        if self.local.exists(key):
            return True
        try:
            return self.remote.exists(key)
        except Exception as exc:
            self._incident("exists", key, repr(exc))
            return False

    def list_keys(self) -> List[str]:
        keys = set(self.local.list_keys())
        try:
            keys.update(self.remote.list_keys())
        except Exception as exc:
            self._incident("list", "*", repr(exc))
        return sorted(keys)


# -- chaos harness ------------------------------------------------------------

class FaultInjectingStore:
    """Deterministic transport-fault wrapper for the chaos lane.

    Mirrors :class:`~repro.yieldsim.resilience.FaultSchedule`: every
    fault fires on a fixed cadence of calls, so a chaos test is exactly
    reproducible.  ``*_every=n`` fires on the n-th, 2n-th, ... call of
    that operation:

    * ``get_error_every`` — the read raises :class:`StoreError`
      (connection refused, 500, timeout — the transport died).
    * ``get_garbage_every`` — the read returns a garbage body (a proxy
      mangled it; digests must catch it downstream).
    * ``get_slow_every`` — the read sleeps ``slow_seconds`` first (a
      saturated remote; correctness must not depend on latency).
    * ``put_error_every`` — the upload raises :class:`StoreError`.
    * ``put_truncate_every`` — only a prefix of the payload is uploaded
      (a dropped connection mid-PUT).

    ``injected`` counts fired faults by mode.
    """

    name = "faulty"

    def __init__(
        self,
        inner: CacheStore,
        *,
        get_error_every: Optional[int] = None,
        get_garbage_every: Optional[int] = None,
        get_slow_every: Optional[int] = None,
        put_error_every: Optional[int] = None,
        put_truncate_every: Optional[int] = None,
        slow_seconds: float = 0.01,
    ) -> None:
        self.inner = inner
        self.get_error_every = get_error_every
        self.get_garbage_every = get_garbage_every
        self.get_slow_every = get_slow_every
        self.put_error_every = put_error_every
        self.put_truncate_every = put_truncate_every
        self.slow_seconds = slow_seconds
        self.gets = 0
        self.puts = 0
        self.injected: Dict[str, int] = {
            "get_error": 0, "get_garbage": 0, "get_slow": 0,
            "put_error": 0, "put_truncate": 0,
        }

    @staticmethod
    def _fires(every: Optional[int], count: int) -> bool:
        return every is not None and every > 0 and count % every == 0

    def get(self, key: str) -> Optional[bytes]:
        self.gets += 1
        if self._fires(self.get_slow_every, self.gets):
            self.injected["get_slow"] += 1
            time.sleep(self.slow_seconds)
        if self._fires(self.get_error_every, self.gets):
            self.injected["get_error"] += 1
            raise StoreError("injected transport failure on get")
        if self._fires(self.get_garbage_every, self.gets):
            self.injected["get_garbage"] += 1
            return b"\x00\xffinjected garbage body\x00"
        return self.inner.get(key)

    def put(self, key: str, data: bytes) -> bool:
        self.puts += 1
        if self._fires(self.put_error_every, self.puts):
            self.injected["put_error"] += 1
            raise StoreError("injected transport failure on put")
        if self._fires(self.put_truncate_every, self.puts):
            self.injected["put_truncate"] += 1
            data = data[: max(1, len(data) // 2)]
        return self.inner.put(key, data)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def list_keys(self) -> List[str]:
        return self.inner.list_keys()


# -- URL dispatch -------------------------------------------------------------

def store_from_url(url: str, timeout: float = 10.0) -> CacheStore:
    """The store a ``--cache-url`` names.

    ``http://`` / ``https://`` → :class:`HTTPStore`;
    ``file:///path`` or a bare path → :class:`SharedFSStore`;
    ``memory://`` → :class:`MemoryStore` (tests and demos).
    """
    if not isinstance(url, str) or not url:
        raise StoreError(f"invalid cache url {url!r}")
    if url.startswith(("http://", "https://")):
        return HTTPStore(url, timeout=timeout)
    if url.startswith("memory://"):
        return MemoryStore()
    if url.startswith("file://"):
        url = url[len("file://"):]
        if not url:
            raise StoreError("file:// cache url needs a path")
    return SharedFSStore(url)
