"""Canonical, version-stamped digests of a full PAAF result.

The fingerprint is the identity contract every perf feature promises
to preserve: for a fixed design + algorithmic config, the digest is
the same for any ``paircheck_mode`` and ``apcheck_mode``, a cold or a
warm AP cache, and any Python version (every container is sorted
before serialization, so set/dict iteration order and hash
randomization cannot leak in).

``canonical_result`` reduces a :class:`PinAccessResult` to plain JSON
types (dicts keyed by strings, lists, ints, strings) in three
sections -- ``step1`` (per-pin access points), ``step2``
(per-unique-instance patterns + DRC verdict counts), ``step3``
(per-instance selections, boundary conflicts, failed pins).
``result_fingerprint`` hashes each section separately and combines the
sub-digests, so a drift report localizes to the step that moved before
any detailed diffing happens.

Nothing here imports the rest of ``repro``: the functions duck-type
over the result object, which keeps the module importable from
low-level code (the AP cache stamps entries with
:func:`entry_digest`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

FINGERPRINT_VERSION = 1

#: Section names, in flow order, hashed into the combined digest.
STEPS = ("step1", "step2", "step3")


@dataclass(frozen=True)
class ResultFingerprint:
    """The combined digest plus one sub-digest per step."""

    version: int
    digest: str
    steps: dict

    def drifted_steps(self, other: "ResultFingerprint") -> list:
        """Return the step names whose sub-digests differ from ``other``."""
        return [
            step
            for step in STEPS
            if self.steps.get(step) != other.steps.get(step)
        ]

    def to_json(self) -> dict:
        """Return the JSON form stored in golden records."""
        return {
            "version": self.version,
            "digest": self.digest,
            "steps": dict(self.steps),
        }

    @staticmethod
    def from_json(payload: dict) -> "ResultFingerprint":
        """Rebuild a fingerprint from its golden-record JSON form."""
        return ResultFingerprint(
            version=payload["version"],
            digest=payload["digest"],
            steps=dict(payload["steps"]),
        )


def canonical_json(payload) -> str:
    """Serialize to the canonical JSON text that gets hashed."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(payload) -> str:
    """Return the sha256 hex digest of a canonical payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def canonical_result(result) -> dict:
    """Reduce a :class:`PinAccessResult` to sorted plain-JSON form."""
    return {
        "version": FINGERPRINT_VERSION,
        "design": result.design.name,
        "step1": _canonical_step1(result),
        "step2": _canonical_step2(result),
        "step3": _canonical_step3(result),
    }


def result_fingerprint(result, canonical: dict = None) -> ResultFingerprint:
    """Digest a result (or its precomputed canonical form)."""
    if canonical is None:
        canonical = canonical_result(result)
    return fingerprint_of_canonical(canonical)


def fingerprint_of_canonical(canonical: dict) -> ResultFingerprint:
    """Digest an already-canonicalized result."""
    steps = {step: digest_of(canonical[step]) for step in STEPS}
    combined = digest_of({"version": canonical["version"], "steps": steps})
    return ResultFingerprint(
        version=canonical["version"], digest=combined, steps=steps
    )


def entry_digest(aps_by_pin: dict, patterns: list) -> str:
    """Digest one unique instance's Step 1/2 output.

    The AP cache stamps every stored entry with this digest and
    re-derives it on load: an entry whose payload no longer matches its
    recorded digest (bit rot, a partial overwrite that still unpickles,
    a file copied between signature slots) is flagged stale and treated
    as a miss instead of silently corrupting a warm run.
    """
    return digest_of(
        {
            "aps": canonical_aps_by_pin(aps_by_pin),
            "patterns": [canonical_pattern(p) for p in patterns],
        }
    )


# -- per-section canonicalizers ---------------------------------------------


def canonical_ap(ap) -> dict:
    """Reduce one :class:`AccessPoint` to plain JSON types."""
    return {
        "x": ap.x,
        "y": ap.y,
        "layer": ap.layer_name,
        "pref": int(ap.pref_type),
        "nonpref": int(ap.nonpref_type),
        # Via order is meaningful: the first entry is the primary via.
        "vias": list(ap.valid_vias),
        "planar": sorted(ap.planar_dirs),
    }


def canonical_aps_by_pin(aps_by_pin: dict) -> dict:
    """Reduce one pin->APs mapping, APs sorted into canonical order."""
    return {
        pin: sorted(
            (canonical_ap(ap) for ap in aps),
            key=lambda a: (a["x"], a["y"], a["layer"]),
        )
        for pin, aps in aps_by_pin.items()
    }


def canonical_pattern(pattern) -> dict:
    """Reduce one :class:`AccessPattern` (pin order is meaningful)."""
    return {
        "pins": [
            [pin, ap.x, ap.y, ap.primary_via]
            for pin, ap in pattern.aps.items()
        ],
        "cost": pattern.cost,
        "violations": sorted(
            _canonical_pattern_violation(a, b, v)
            for a, b, v in pattern.violations
        ),
    }


def _canonical_pattern_violation(pin_a, pin_b, violation) -> list:
    marker = violation.marker
    return [
        pin_a,
        pin_b,
        violation.rule,
        violation.layer_name,
        [marker.xlo, marker.ylo, marker.xhi, marker.yhi],
    ]


def _unique_instance_key(ui) -> str:
    """A stable, human-readable key for a unique instance."""
    master, orient, offsets = ui.signature
    orient_name = getattr(orient, "name", None) or str(orient)
    offset_text = ",".join(str(o) for o in offsets)
    return f"{master}|{orient_name}|({offset_text})"


def _canonical_step1(result) -> dict:
    out = {}
    for ua in result.unique_accesses:
        key = _unique_instance_key(ua.unique_instance)
        out[key] = canonical_aps_by_pin(ua.aps_by_pin)
    return out


def _canonical_step2(result) -> dict:
    patterns = {}
    verdicts = {}
    for ua in result.unique_accesses:
        key = _unique_instance_key(ua.unique_instance)
        patterns[key] = [canonical_pattern(p) for p in ua.patterns]
        for pattern in ua.patterns:
            for _, _, violation in pattern.violations:
                rule = violation.rule
                verdicts[rule] = verdicts.get(rule, 0) + 1
    return {"patterns": patterns, "verdicts": verdicts}


def _canonical_step3(result) -> dict:
    selection = {}
    conflicts = []
    if result.selection is not None:
        for inst_name, selected in result.selection.selection.items():
            if selected.pattern is None:
                selection[inst_name] = None
                continue
            selection[inst_name] = {
                pin: [ap.x, ap.y, ap.primary_via]
                for pin, ap in selected.access_points().items()
            }
        conflicts = sorted(
            [inst_a, pin_a, inst_b, pin_b]
            for inst_a, pin_a, inst_b, pin_b in result.selection.conflicts
        )
    return {
        "selection": selection,
        "conflicts": conflicts,
        "failed_pins": sorted(
            [inst, pin] for inst, pin in result.failed_pins()
        ),
    }
