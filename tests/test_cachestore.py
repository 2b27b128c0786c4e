"""The cache transport layer: stores, tiers, keys, and byte identity.

Three contracts are under test here:

* **Store conformance** — every :class:`CacheStore` implementation
  (memory, local, shared-FS, HTTP) agrees on get/put semantics, and a
  reader sees either nothing or a complete digest-verified payload; the
  point cache's tiers read through, write back and upload once.
* **Key discipline** — point-cache keys are canonical: equal idents
  collide, any differing ident field separates, and the entry encoding
  round-trips while any byte flip reads as a miss (Hypothesis-driven).
* **Byte identity** — a legacy cache directory written by the historical
  ``PointCache`` reads back byte-identically through :class:`LocalStore`,
  and an engine warmed purely from a shared store recomputes nothing and
  produces the same numbers as an uncached run.
"""

from __future__ import annotations

import http.server
import json
import os
import threading
import urllib.error

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.serve import BackgroundServer, ServeConfig
from repro.yieldsim.cachestore import (
    HTTPStore,
    LocalStore,
    MemoryStore,
    SharedFSStore,
    StoreStats,
    content_digest,
    decode_entry,
    encode_entry,
    entry_digest,
    store_from_url,
    valid_key,
)
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.executors import InlineExecutor
from repro.yieldsim.kernel import PointSpec
from repro.yieldsim.resilience import ResilienceStats
from repro.yieldsim import scheduler
from repro.yieldsim.scheduler import PointCache
from repro.yieldsim.stats import StopRule

GRID = [(0.92 + 0.01 * i, 13 + i) for i in range(4)]
RUNS = 200


def entry_bytes(i: int) -> bytes:
    return encode_entry({"successes": i, "trials": i + 3, "tag": "conformance"})


def key_of(data: bytes) -> str:
    return content_digest(data)


def flat_estimates(chip, engine=None):
    engine = engine if engine is not None else SweepEngine()
    return [
        (e.successes, e.trials)
        for e in engine.survival_estimates(chip, GRID, RUNS)
    ]


# -- store conformance --------------------------------------------------------

@pytest.fixture(params=["memory", "local", "sharedfs", "http"])
def store(request, tmp_path):
    """Each CacheStore implementation, behind one protocol."""
    kind = request.param
    if kind == "memory":
        yield MemoryStore()
    elif kind == "local":
        yield LocalStore(str(tmp_path / "local"))
    elif kind == "sharedfs":
        yield SharedFSStore(str(tmp_path / "shared"))
    else:
        config = ServeConfig(port=0, cache_objects=str(tmp_path / "objects"))
        with BackgroundServer(config) as server:
            yield HTTPStore(f"http://127.0.0.1:{server.port}")


class TestConformance:
    def test_absent_key_is_a_plain_miss(self, store):
        key = key_of(b"never stored")
        assert store.get(key) is None

    def test_round_trip_is_byte_exact(self, store):
        payloads = {key_of(entry_bytes(i)): entry_bytes(i) for i in range(4)}
        for key, data in payloads.items():
            assert store.put(key, data)
        for key, data in payloads.items():
            assert store.get(key) == data

    def test_repeat_put_never_changes_the_object(self, store):
        data = entry_bytes(7)
        key = key_of(data)
        assert store.put(key, data)
        store.put(key, data)  # idempotent whatever the return value
        assert store.get(key) == data

    def test_keys_are_validated_not_spliced(self, store):
        for bad in ("../escape", "UPPER0", "short", "x" * 200, "0123/6789ab"):
            with pytest.raises(StoreError):
                store.put(bad, b"data")
            with pytest.raises(StoreError):
                store.get(bad)


class TestPutIfAbsent:
    """Shared media are put-if-absent: first writer wins, byte-stably."""

    @pytest.fixture(params=["sharedfs", "http"])
    def shared(self, request, tmp_path):
        if request.param == "sharedfs":
            yield SharedFSStore(str(tmp_path / "shared"))
        else:
            config = ServeConfig(port=0, cache_objects=str(tmp_path / "objects"))
            with BackgroundServer(config) as server:
                yield HTTPStore(f"http://127.0.0.1:{server.port}")

    def test_second_writer_loses_and_bytes_stay_first(self, shared):
        data = entry_bytes(1)
        key = key_of(data)
        assert shared.put(key, data) is True
        assert shared.put(key, data) is False
        assert shared.get(key) == data


class TestSharedFSIntegrity:
    def test_objects_are_enveloped_and_sharded(self, tmp_path):
        store = SharedFSStore(str(tmp_path))
        data = entry_bytes(2)
        key = key_of(data)
        store.put(key, data)
        path = os.path.join(str(tmp_path), "objects", key[:2], key)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(b"repro-cas/1 ")
        assert blob.endswith(data)

    def test_corrupt_object_reads_as_miss_and_quarantines(self, tmp_path):
        store = SharedFSStore(str(tmp_path))
        data = entry_bytes(3)
        key = key_of(data)
        store.put(key, data)
        path = os.path.join(str(tmp_path), "objects", key[:2], key)
        with open(path, "wb") as fh:
            fh.write(b"repro-cas/1 " + b"0" * 64 + b"\ntorn")
        assert store.get(key) is None
        assert store.corrupt == 1
        assert os.path.exists(f"{path}.corrupt")
        # The slot is free again: a correct writer can repopulate it.
        assert store.put(key, data) is True
        assert store.get(key) == data

    def test_truncated_envelope_reads_as_miss(self, tmp_path):
        store = SharedFSStore(str(tmp_path))
        data = entry_bytes(4)
        key = key_of(data)
        store.put(key, data)
        path = os.path.join(str(tmp_path), "objects", key[:2], key)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert store.get(key) is None


class TestHTTPStore:
    def test_server_refuses_digest_mismatch(self, tmp_path):
        config = ServeConfig(port=0, cache_objects=str(tmp_path))
        data = entry_bytes(5)
        key = key_of(data)
        with BackgroundServer(config) as server:
            store = HTTPStore(f"http://127.0.0.1:{server.port}")
            import urllib.request

            req = urllib.request.Request(
                f"{store.base_url}/cache/objects/{key}",
                data=data[: len(data) // 2],  # truncated body...
                method="PUT",
                headers={"X-Repro-Digest": content_digest(data)},  # ...full digest
            )
            with pytest.raises(Exception):
                urllib.request.urlopen(req, timeout=5)
            assert store.exists(key) is False
            # An honest upload then lands.
            assert store.put(key, data) is True
            assert store.get(key) == data

    def test_dead_remote_raises_store_error(self):
        store = HTTPStore("http://127.0.0.1:9", timeout=0.5)
        key = key_of(b"anything")
        with pytest.raises(StoreError):
            store.get(key)
        with pytest.raises(StoreError):
            store.put(key, b"anything")

    def test_error_responses_release_their_socket(self):
        class Busy(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(503)
                self.send_header("Content-Length", "4")
                self.end_headers()
                self.wfile.write(b"busy")

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Busy)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            store = HTTPStore(f"http://127.0.0.1:{server.server_address[1]}")
            with pytest.raises(StoreError) as excinfo:
                store.get(key_of(b"anything"))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        response = excinfo.value.__cause__
        assert isinstance(response, urllib.error.HTTPError)
        assert response.code == 503
        assert response.closed

    def test_server_tree_is_a_plain_sharedfs_store(self, tmp_path):
        config = ServeConfig(port=0, cache_objects=str(tmp_path))
        data = entry_bytes(6)
        key = key_of(data)
        with BackgroundServer(config) as server:
            HTTPStore(f"http://127.0.0.1:{server.port}").put(key, data)
        assert SharedFSStore(str(tmp_path)).get(key) == data


class TestStoreFromUrl:
    def test_dispatch(self, tmp_path):
        assert isinstance(store_from_url("http://host:1"), HTTPStore)
        assert isinstance(store_from_url("https://host:1"), HTTPStore)
        assert isinstance(store_from_url("memory://"), MemoryStore)
        assert isinstance(store_from_url(str(tmp_path / "s")), SharedFSStore)
        assert isinstance(
            store_from_url(f"file://{tmp_path / 's'}"), SharedFSStore
        )

    def test_rejects_nonsense(self):
        with pytest.raises(StoreError):
            store_from_url("")
        with pytest.raises(StoreError):
            store_from_url("file://")


# -- the point cache's tiers --------------------------------------------------

SPEC = PointSpec(kind="survival", param=0.93, runs=200, seed=5)


def tiered(remote, **kwargs):
    """A point cache with an in-memory local tier in front of ``remote``."""
    cache = PointCache(None, "float32", remote=remote, **kwargs)
    return cache, cache.key("ab" * 8, SPEC)


class DeadStore:
    name = "dead"

    def get(self, key):
        raise StoreError("connection refused")

    def put(self, key, data):
        raise StoreError("connection refused")


class TestPointCacheTiers:
    """The point cache's local tier in front of a remote store."""

    def test_read_through_writes_back_once(self):
        remote = MemoryStore()
        writer, key = tiered(remote)
        writer.store(key, SPEC, 37, 200)
        data = remote.get(key)

        cache, _ = tiered(remote)
        assert cache.load(key, SPEC) == (37, 200)  # remote hit, written back
        assert cache.local.get(key) == data
        assert cache.load(key, SPEC) == (37, 200)  # now a local hit
        assert cache.store_stats.as_dict() == {
            "local_hits": 1, "local_misses": 1, "remote_hits": 1,
            "remote_misses": 0, "remote_errors": 0, "uploads": 0,
            "bytes_up": 0, "bytes_down": len(data),
        }
        assert (cache.hits, cache.misses) == (2, 0)

    def test_put_uploads_once_per_object(self, tmp_path):
        cache, key = tiered(SharedFSStore(str(tmp_path)))
        cache.store(key, SPEC, 37, 200)
        cache.store(key, SPEC, 37, 200)  # already remote: no second upload
        assert cache.store_stats.uploads == 1
        assert cache.store_stats.bytes_up == len(cache.local.get(key))

    def test_validator_blocks_garbage_write_back(self):
        remote = MemoryStore()
        resilience = ResilienceStats()
        cache, key = tiered(remote, stats=resilience)
        remote.put(key, b"\x00not an entry")
        assert cache.load(key, SPEC) is None
        assert cache.local.get(key) is None  # never written back
        assert cache.store_stats.remote_errors == 1
        assert resilience.remote_errors == 1
        assert cache.misses == 1

    def test_remote_exceptions_degrade_to_miss(self):
        cache, key = tiered(DeadStore())
        assert cache.load(key, SPEC) is None
        cache.store(key, SPEC, 37, 200)  # the local write still lands
        assert cache.load(key, SPEC) == (37, 200)  # remote never consulted
        assert cache.store_stats.remote_errors == 2  # get + put
        assert cache.stats.remote_errors == 2
        assert (cache.hits, cache.misses) == (1, 1)

    def test_remote_entry_for_another_budget_is_a_miss(self):
        remote = MemoryStore()
        writer, key = tiered(remote)
        writer.store(key, SPEC, 37, 200)
        cache, _ = tiered(remote)
        other = PointSpec(kind="survival", param=0.93, runs=300, seed=5)
        # A valid entry: fetched and written back, then refused for the
        # point it was asked for.
        assert cache.load(key, other) is None
        assert cache.local.get(key) == remote.get(key)
        assert cache.store_stats.remote_hits == 1
        assert (cache.hits, cache.misses) == (0, 1)

    def test_peek_local_never_contacts_the_remote(self):
        cache, key = tiered(DeadStore())
        assert cache.peek_local(key, SPEC) is None
        assert cache.store_stats.as_dict() == StoreStats().as_dict()
        cache.store(key, SPEC, 37, 200)
        assert cache.peek_local(key, SPEC) == (37, 200)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_a_remote_hit_decodes_its_body_once(self, monkeypatch):
        remote = MemoryStore()
        writer, key = tiered(remote)
        writer.store(key, SPEC, 37, 200)
        calls = []

        def counting(blob):
            calls.append(blob)
            return decode_entry(blob)

        monkeypatch.setattr(scheduler, "decode_entry", counting)
        cache, _ = tiered(remote)
        assert cache.load(key, SPEC) == (37, 200)
        assert len(calls) == 1

    def test_delta_reports_only_growth(self):
        stats = StoreStats(local_hits=5, uploads=2)
        before = stats.as_dict()
        stats.local_hits += 3
        stats.bytes_down += 100
        assert StoreStats.delta(before, stats.as_dict()) == {
            "local_hits": 3, "bytes_down": 100,
        }


# -- key and entry discipline (Hypothesis) ------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
entries = st.dictionaries(
    st.text(
        st.characters(min_codepoint=97, max_codepoint=122), min_size=1,
        max_size=10,
    ),
    json_scalars,
    max_size=6,
)


class TestEntryEncoding:
    @given(entries)
    @settings(max_examples=120, deadline=None)
    def test_encode_decode_round_trip(self, entry):
        blob = encode_entry(entry)
        decoded = decode_entry(blob)
        assert decoded == {k: v for k, v in entry.items() if k != "digest"}
        # Canonical: re-encoding the decoded entry is byte-identical.
        assert encode_entry(decoded) == blob

    @given(entries, st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_byte_flip_reads_as_a_miss(self, entry, data):
        blob = bytearray(encode_entry(entry))
        idx = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob[idx] ^= flip
        mutated = bytes(blob)
        if mutated != encode_entry(entry):
            assert decode_entry(mutated) is None

    @given(entries)
    @settings(max_examples=60, deadline=None)
    def test_digest_is_order_independent(self, entry):
        items = sorted(entry.items())
        assert entry_digest(dict(items)) == entry_digest(dict(reversed(items)))


# Ident axes for point-cache keys: every field that may legally differ
# between two points that must never share a cache entry.
key_idents = st.fixed_dictionaries({
    "digest": st.sampled_from(["d0" * 8, "d1" * 8, "d2" * 8]),
    "kind": st.sampled_from(["survival", "fixed"]),
    "param": st.sampled_from([0.9, 0.91, 11.0]),
    "runs": st.sampled_from([100, 200]),
    "seed": st.sampled_from([None, 0, 1, "s"]),
    "dtype": st.sampled_from(["float64", "float32"]),
    "batch": st.sampled_from([None, 50, 100]),
})


class TestKeyDiscipline:
    @staticmethod
    def _key(ident):
        cache = PointCache(None, ident["dtype"])
        spec = PointSpec(
            kind=ident["kind"], param=ident["param"], runs=ident["runs"],
            seed=ident["seed"],
        )
        stop = StopRule(0.02) if ident["batch"] else None
        return cache.key(
            ident["digest"], spec, stop=stop, batch=ident["batch"]
        )

    @given(key_idents, key_idents)
    @settings(max_examples=200, deadline=None)
    def test_keys_collide_iff_idents_agree(self, a, b):
        ka, kb = self._key(a), self._key(b)
        assert valid_key(ka) and len(ka) == 64
        assert (ka == kb) == (a == b)

    def test_full_grid_has_no_collisions(self):
        idents = [
            {
                "digest": d, "kind": k, "param": p, "runs": r,
                "seed": s, "dtype": t, "batch": batch,
            }
            for d in ("d0" * 8, "d1" * 8)
            for k in ("survival", "fixed")
            for p in (0.9, 0.95)
            for r in (100, 200)
            for s in (None, 7)
            for t in ("float64", "float32")
            for batch in (None, 50)
        ]
        keys = [self._key(i) for i in idents]
        assert len(set(keys)) == len(keys)

    def test_stop_rule_digest_separates_batched_keys(self):
        cache = PointCache(None, "float64")
        spec = PointSpec(kind="survival", param=0.9, runs=200, seed=3)
        key_a = cache.key("ab" * 8, spec, stop=StopRule(0.02), batch=50)
        key_b = cache.key("ab" * 8, spec, stop=StopRule(0.01), batch=50)
        assert key_a != key_b


# -- legacy byte identity -----------------------------------------------------

class TestLegacyCompatibility:
    def test_historical_entry_reads_back_byte_identically(self, tmp_path):
        # An entry written the way PointCache always wrote them: plain
        # json.dump with sorted keys and the embedded digest.
        entry = {
            "successes": 37, "trials": 200, "kind": "survival",
            "param": 0.93, "seed": 5, "version": 3,
        }
        entry["digest"] = entry_digest(entry)
        key = "ab" * 32
        path = tmp_path / f"{key}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
        raw = path.read_bytes()

        store = LocalStore(str(tmp_path))
        assert store.get(key) == raw
        assert decode_entry(raw) == {
            k: v for k, v in entry.items() if k != "digest"
        }

    def test_localstore_writes_what_pointcache_wrote(self, dtmb26_chip, tmp_path):
        """A cache_dir engine and a LocalStore-backed write are byte-equal."""
        plain_dir = tmp_path / "plain"
        engine = SweepEngine(cache_dir=str(plain_dir))
        flat_estimates(dtmb26_chip, engine)
        files = sorted(os.listdir(plain_dir))
        assert files
        store = LocalStore(str(plain_dir))
        for name in files:
            key = name[:-5]
            blob = store.get(key)
            assert blob == (plain_dir / name).read_bytes()
            # A put of the same entry is a byte-stable overwrite.
            assert store.put(key, blob)
            assert (plain_dir / name).read_bytes() == blob

    def test_corrupt_legacy_entry_quarantines(self, tmp_path):
        key = "cd" * 32
        path = tmp_path / f"{key}.json"
        path.write_text("{not json")
        stats = ResilienceStats()
        store = LocalStore(str(tmp_path), stats=stats)
        assert store.get(key) is None
        assert stats.quarantined == 1
        assert (tmp_path / f"{key}.json.corrupt").exists()

    def test_suffix_stores_share_a_directory_without_crosstalk(self, tmp_path):
        entries = LocalStore(str(tmp_path))
        journals = LocalStore(str(tmp_path), suffix=".ckpt.json")
        key = "ef" * 32
        entries.put(key, encode_entry({"kind": "entry"}))
        journals.put(key, encode_entry({"kind": "journal"}))
        assert sorted(os.listdir(tmp_path)) == [f"{key}.ckpt.json", f"{key}.json"]
        assert decode_entry(journals.get(key)) == {"kind": "journal"}
        journals.delete(key)
        journals.delete(key)  # deleting an absent entry is a no-op
        assert journals.get(key) is None
        assert decode_entry(entries.get(key)) == {"kind": "entry"}


# -- engine integration -------------------------------------------------------

class TestEngineIntegration:
    def test_numbers_identical_across_every_store_config(
        self, dtmb26_chip, tmp_path
    ):
        baseline = flat_estimates(dtmb26_chip)
        shared = str(tmp_path / "shared")

        local_only = SweepEngine(cache_dir=str(tmp_path / "c1"))
        cold = SweepEngine(
            cache_dir=str(tmp_path / "c2"),
            cache_store=SharedFSStore(shared),
        )
        warm = SweepEngine(
            cache_dir=str(tmp_path / "c3"),  # fresh local tier
            cache_store=SharedFSStore(shared),
        )
        memory_tier = SweepEngine(cache_store=SharedFSStore(shared))

        assert flat_estimates(dtmb26_chip, local_only) == baseline
        assert flat_estimates(dtmb26_chip, cold) == baseline
        assert flat_estimates(dtmb26_chip, warm) == baseline
        assert flat_estimates(dtmb26_chip, memory_tier) == baseline

        assert cold.store_stats.uploads == len(GRID)
        assert warm.store_stats.remote_hits == len(GRID)
        assert warm.store_stats.uploads == 0

    def test_warm_shared_store_computes_nothing(self, dtmb26_chip, tmp_path):
        shared = str(tmp_path / "shared")
        seed_engine = SweepEngine(cache_store=SharedFSStore(shared))
        baseline = flat_estimates(dtmb26_chip, seed_engine)

        executor = InlineExecutor()
        warm = SweepEngine(
            executor=executor, cache_store=SharedFSStore(shared)
        )
        assert flat_estimates(dtmb26_chip, warm) == baseline
        assert executor.submitted == 0  # every point came from the store
        assert warm.cache_hits == len(GRID)
        assert warm.cache_misses == 0

    def test_local_tier_files_byte_identical_with_and_without_remote(
        self, dtmb26_chip, tmp_path
    ):
        plain_dir = tmp_path / "plain"
        tiered_dir = tmp_path / "tiered"
        flat_estimates(dtmb26_chip, SweepEngine(cache_dir=str(plain_dir)))
        flat_estimates(
            dtmb26_chip,
            SweepEngine(
                cache_dir=str(tiered_dir),
                cache_store=SharedFSStore(str(tmp_path / "shared")),
            ),
        )
        plain = sorted(os.listdir(plain_dir))
        tiered = sorted(os.listdir(tiered_dir))
        assert plain == tiered
        for name in plain:
            assert (plain_dir / name).read_bytes() == (
                tiered_dir / name
            ).read_bytes()

    def test_http_store_end_to_end(self, dtmb26_chip, tmp_path):
        baseline = flat_estimates(dtmb26_chip)
        config = ServeConfig(port=0, cache_objects=str(tmp_path / "objects"))
        with BackgroundServer(config) as server:
            url = f"http://127.0.0.1:{server.port}"
            cold = SweepEngine(cache_store=HTTPStore(url))
            assert flat_estimates(dtmb26_chip, cold) == baseline
            assert cold.store_stats.uploads == len(GRID)

            executor = InlineExecutor()
            warm = SweepEngine(executor=executor, cache_store=HTTPStore(url))
            assert flat_estimates(dtmb26_chip, warm) == baseline
            assert executor.submitted == 0
            assert warm.store_stats.remote_hits == len(GRID)
