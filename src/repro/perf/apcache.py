"""Persistent access point / pattern cache (warm-start Steps 1-2).

Cell libraries change far less often than placements: the Step 1/2
output of a unique instance depends only on its signature (master,
orientation, track offset class) and on the technology + config the
framework ran with.  This cache stores that output on disk, keyed by

* a **fingerprint** over the technology, the track grid and every
  result-affecting :class:`~repro.core.config.PaafConfig` field
  (perf-only knobs -- ``cache_dir``, ``profile``, the check modes --
  are excluded so they never invalidate entries), and
* the **unique-instance signature**.

Entries are stored *relative to the representative's origin*, which is
exactly the coordinate class the signature guarantees: any later
representative with the same signature sees the same geometry up to
translation, so a cached entry re-translates to its origin.  A warm
run therefore skips Step 1 and Step 2 entirely; a config or tech
change lands in a different fingerprint directory and misses cleanly.

The on-disk format is one pickle per signature under
``<cache_dir>/<fingerprint prefix>/<signature hash>.pkl``, written
atomically (temp file + rename) so concurrent runs never observe a
torn entry.  Corrupt or unreadable entries count as misses.

Every entry additionally records the cache **fingerprint** it was
written under and a **content digest** (the qa layer's canonical
digest of the entry's APs and patterns).  Both are re-checked on
load: an entry that unpickles fine but no longer matches -- bit rot,
a file copied between fingerprint directories or signature slots, a
stale generation -- is flagged via the ``apcache.stale`` counter and
degrades to a miss instead of silently corrupting a warm run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile

from repro.qa.fingerprint import entry_digest

CACHE_FORMAT_VERSION = 3

# Knobs that change how the flow executes but never what it computes.
# ``paircheck_mode`` qualifies because the pair kernel is provably
# equivalent to the engine (verify mode raises on any divergence), so
# switching backends must keep hitting the same cache entries.
PERF_ONLY_FIELDS = frozenset(
    {
        "cache_dir",
        "profile",
        "paircheck_mode",
        # ``apcheck_mode`` likewise: the array kernel is provably
        # equivalent to the engine path (verify mode raises on any
        # divergence), so the backend choice must not split the cache.
        "apcheck_mode",
        # Observability knobs: telemetry only, results are identical
        # with any combination enabled.
        "trace",
        "trace_out",
        "metrics_out",
        "explain",
    }
)


def paaf_fingerprint(design, config) -> str:
    """Hash everything Steps 1-2 results depend on besides the signature.

    The track component uses each pattern's full (layer, direction,
    start, step, count) tuple: the signature's per-pattern offset class
    covers the common case, but absolute track extents can clip
    candidate coordinates near the die edge, so the conservative
    fingerprint keeps entries design-grid-specific.
    """
    relevant = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in PERF_ONLY_FIELDS
    }
    tracks = tuple(
        (p.layer_name, str(p.direction), p.start, p.step, p.count)
        for p in design.track_patterns
    )
    payload = pickle.dumps(
        (CACHE_FORMAT_VERSION, design.tech, sorted(relevant.items()), tracks),
        protocol=4,
    )
    return hashlib.sha256(payload).hexdigest()


def signature_key(signature) -> str:
    """Return a stable filename-safe key for a unique-instance signature."""
    master, orient, offsets = signature
    orient_name = getattr(orient, "name", None) or str(orient)
    text = f"{master}|{orient_name}|{tuple(offsets)!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class AccessCache:
    """Disk-backed Step 1/2 results, origin-relative per signature."""

    def __init__(self, cache_dir: str, fingerprint: str):
        self.fingerprint = fingerprint
        self.root = os.path.join(cache_dir, fingerprint[:16])
        # Fail at construction, not mid-flow, if the directory is
        # unusable (e.g. cache_dir names an existing regular file).
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.stale = 0

    # -- lookup ------------------------------------------------------------

    def load(self, ui):
        """Return ``(aps_by_pin, patterns)`` for ``ui``, or None on miss.

        Results are translated into the representative's design
        coordinates and pattern access points are re-linked to the
        ``aps_by_pin`` objects, matching what a fresh Step 1 + 2 run
        produces.
        """
        path = self._path(ui.signature)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # A torn or corrupt entry can make pickle raise nearly
            # anything (UnpicklingError, EOFError, ValueError, ...).
            # A cache must degrade to a miss, never crash the flow.
            self.misses += 1
            return None
        if not isinstance(entry, dict) or (
            entry.get("version") != CACHE_FORMAT_VERSION
        ):
            self.misses += 1
            return None
        if not self._entry_intact(entry):
            # Unpickles fine but is not the entry we wrote: stale
            # generation, cross-fingerprint copy, or tampered payload.
            self.stale += 1
            self.misses += 1
            return None
        origin = ui.representative.location
        aps_by_pin = {
            pin: [ap.translated(origin.x, origin.y) for ap in aps]
            for pin, aps in entry["aps_by_pin"].items()
        }
        linked = {
            (pin, ap.x, ap.y): ap
            for pin, aps in aps_by_pin.items()
            for ap in aps
        }
        patterns = [
            _shift_pattern(p, origin.x, origin.y, linked)
            for p in entry["patterns"]
        ]
        self.hits += 1
        return aps_by_pin, patterns

    def store(self, ui, aps_by_pin, patterns) -> None:
        """Persist one unique instance's Step 1/2 output."""
        origin = ui.representative.location
        rel_aps = {
            pin: [ap.translated(-origin.x, -origin.y) for ap in aps]
            for pin, aps in aps_by_pin.items()
        }
        rel_patterns = [
            _shift_pattern(p, -origin.x, -origin.y) for p in patterns
        ]
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "signature": ui.signature,
            "fingerprint": self.fingerprint,
            "content_digest": entry_digest(rel_aps, rel_patterns),
            "aps_by_pin": rel_aps,
            "patterns": rel_patterns,
        }
        if self._write(self._path(ui.signature), entry):
            self.stores += 1

    def stats(self) -> dict:
        """Return hit/miss/store counters for ``PinAccessResult.stats``."""
        return {
            "apcache.hit": self.hits,
            "apcache.miss": self.misses,
            "apcache.store": self.stores,
            "apcache.stale": self.stale,
        }

    def entry_count(self) -> int:
        """Count the per-signature entries under this root.

        The ``repro serve`` daemon reports this at startup so an
        operator can tell a warm start (restart ≈ cache load) from a
        cold analysis at a glance.
        """
        try:
            return sum(
                1 for name in os.listdir(self.root) if name.endswith(".pkl")
            )
        except OSError:
            return 0

    # -- internals ---------------------------------------------------------

    def _write(self, path: str, entry: dict) -> bool:
        """Pickle ``entry`` to ``path`` atomically (temp file + rename).

        Returns False, leaving no temp file behind, when the write
        fails: a cache that cannot store degrades to misses.
        """
        os.makedirs(self.root, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=4)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        return True

    def _entry_intact(self, entry) -> bool:
        """Check an entry's recorded identity against its payload."""
        if entry.get("fingerprint") != self.fingerprint:
            return False
        try:
            digest = entry_digest(entry["aps_by_pin"], entry["patterns"])
        except Exception:
            # A payload mangled enough to break canonicalization is by
            # definition not intact.
            return False
        return entry.get("content_digest") == digest

    def _path(self, signature) -> str:
        return os.path.join(self.root, signature_key(signature) + ".pkl")


def _shift_pattern(pattern, dx, dy, linked: dict = None):
    """Translate a pattern by ``(dx, dy)``; re-link APs via ``linked``."""
    aps = {}
    for pin, ap in pattern.aps.items():
        moved = ap.translated(dx, dy)
        if linked is not None:
            moved = linked.get((pin, moved.x, moved.y), moved)
        aps[pin] = moved
    violations = [
        (a, b, dataclasses.replace(v, marker=v.marker.translated(dx, dy)))
        for a, b, v in pattern.violations
    ]
    return dataclasses.replace(pattern, aps=aps, violations=violations)
