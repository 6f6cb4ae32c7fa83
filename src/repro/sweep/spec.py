"""Sweep specifications: the declarative side of ``repro sweep``.

A sweep spec is a small YAML or JSON document that declares a design
space exploration over the paper's own sensitivity axes (Tables
I-III): designs x scale x tech node x quality knobs (``k``, ``alpha``,
pattern budget, BCA) x perf knobs (``paircheck_mode``,
``apcheck_mode``).  :func:`load_spec` reads the file,
:func:`expand_spec` validates it and expands the ``axes`` cartesian
product (plus any explicit ``points``) into a normalized, duplicate-
free list of run points, each a plain dict of point fields.

The YAML support is a deliberately small stdlib-only subset -- block
mappings, block lists (of scalars or mappings), flow lists, ``#``
comments and JSON-ish scalars -- because the container ships no YAML
parser and a sweep manifest needs nothing more.  Anything outside the
subset raises :class:`SpecError` with the offending line, and a
``.json`` spec bypasses the subset entirely.

Example::

    name: smoke
    defaults:
      scale: 0.004
    axes:
      design: [ispd18_test1, ispd18_test5]
      paircheck_mode: [kernel, engine]
    options:
      workers: 2
      point_timeout_s: 600
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

SPEC_SCHEMA = "repro.sweep.spec/v1"

#: Point fields, their types, and whether they feed design generation
#: (``geometry``) or the :class:`~repro.core.config.PaafConfig`.
POINT_FIELDS = {
    "design": (str, "geometry"),
    "scale": (float, "geometry"),
    "node": (str, "geometry"),
    "utilization": (float, "geometry"),
    "multi_height_fraction": (float, "geometry"),
    "k": (int, "config"),
    "alpha": (float, "config"),
    "patterns_per_unique_instance": (int, "config"),
    "boundary_conflict_aware": (bool, "config"),
    "require_cut_on_pin": (bool, "config"),
    "paircheck_mode": (str, "config"),
    "apcheck_mode": (str, "config"),
}

#: Point fields that never change results, only how fast they arrive.
PERF_POINT_FIELDS = frozenset({"paircheck_mode", "apcheck_mode"})

POINT_DEFAULTS = {"scale": 0.004}

OPTION_FIELDS = {
    "workers": int,
    "point_timeout_s": float,
    "cache_dir": str,
    "tolerances": dict,
}

VALID_NODES = ("N45", "N32", "N14")


class SpecError(ValueError):
    """A malformed sweep spec: report the reason, not a traceback."""


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep: its name, expanded points and run options."""

    name: str
    points: tuple
    options: dict
    digest: str

    @property
    def tolerances(self) -> dict:
        """Regression tolerances declared by the spec (may be empty)."""
        return self.options.get("tolerances", {})


def load_spec(path: str) -> SweepSpec:
    """Read and expand a sweep spec file (``.json`` or YAML subset)."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raw = parse_simple_yaml(text)
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: spec must be a mapping, got {type(raw)}")
    return expand_spec(raw, source=path)


def expand_spec(raw: dict, source: str = "<spec>") -> SweepSpec:
    """Validate a raw spec mapping and expand it into run points."""
    allowed = {"schema", "name", "defaults", "axes", "points", "options"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise SpecError(
            f"{source}: unknown top-level key(s): {', '.join(unknown)}"
        )
    schema = raw.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise SpecError(
            f"{source}: schema {schema!r} is not {SPEC_SCHEMA!r}"
        )
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError(f"{source}: a non-empty 'name' is required")

    defaults = _check_fields(raw.get("defaults", {}), f"{source}: defaults")
    axes = raw.get("axes", {})
    if not isinstance(axes, dict):
        raise SpecError(f"{source}: 'axes' must be a mapping of lists")
    for axis, values in axes.items():
        if axis not in POINT_FIELDS:
            raise SpecError(
                f"{source}: unknown axis {axis!r} "
                f"(known: {', '.join(sorted(POINT_FIELDS))})"
            )
        if not isinstance(values, list) or not values:
            raise SpecError(
                f"{source}: axis {axis!r} must be a non-empty list"
            )

    points = []
    if axes:
        names = sorted(axes)
        for combo in itertools.product(*(axes[n] for n in names)):
            points.append(dict(zip(names, combo)))
    for extra in raw.get("points", []) or []:
        if not isinstance(extra, dict):
            raise SpecError(
                f"{source}: each entry under 'points' must be a mapping"
            )
        points.append(dict(extra))
    if not points:
        raise SpecError(f"{source}: no points (empty 'axes' and 'points')")

    normalized = []
    seen = set()
    for point in points:
        merged = {**POINT_DEFAULTS, **defaults, **point}
        merged = _check_fields(merged, f"{source}: point")
        if "design" not in merged:
            raise SpecError(
                f"{source}: point {point!r} has no 'design' "
                "(set it as an axis, a default or per point)"
            )
        _check_point_values(merged, source)
        frozen = tuple(sorted(merged.items()))
        if frozen in seen:
            raise SpecError(f"{source}: duplicate point {merged!r}")
        seen.add(frozen)
        normalized.append(merged)

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SpecError(f"{source}: 'options' must be a mapping")
    for key, value in options.items():
        want = OPTION_FIELDS.get(key)
        if want is None:
            raise SpecError(
                f"{source}: unknown option {key!r} "
                f"(known: {', '.join(sorted(OPTION_FIELDS))})"
            )
        coerced = _coerce(value, want)
        if coerced is None:
            raise SpecError(
                f"{source}: option {key!r} must be {want.__name__}, "
                f"got {value!r}"
            )
        options[key] = coerced
    if options.get("workers", 1) < 1:
        raise SpecError(f"{source}: option 'workers' must be >= 1")
    if options.get("point_timeout_s", 1) <= 0:
        raise SpecError(f"{source}: option 'point_timeout_s' must be > 0")

    digest = hashlib.sha256(
        json.dumps(
            {"name": name, "points": normalized, "options": options},
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    return SweepSpec(
        name=name,
        points=tuple(normalized),
        options=dict(options),
        digest=digest,
    )


def _check_fields(mapping: dict, label: str) -> dict:
    if not isinstance(mapping, dict):
        raise SpecError(f"{label} must be a mapping, got {mapping!r}")
    out = {}
    for key, value in mapping.items():
        spec = POINT_FIELDS.get(key)
        if spec is None:
            raise SpecError(
                f"{label}: unknown field {key!r} "
                f"(known: {', '.join(sorted(POINT_FIELDS))})"
            )
        coerced = _coerce(value, spec[0])
        if coerced is None:
            raise SpecError(
                f"{label}: field {key!r} must be {spec[0].__name__}, "
                f"got {value!r}"
            )
        out[key] = coerced
    return out


def _coerce(value, want):
    """Coerce a parsed scalar to the declared type; None on mismatch."""
    if want is float and isinstance(value, int):
        return float(value)
    if want is int and isinstance(value, bool):
        return None
    if isinstance(value, want):
        return value
    return None


def _check_point_values(point: dict, source: str) -> None:
    from repro.bench.ispd18 import testcase_spec

    try:
        testcase_spec(point["design"])
    except KeyError as exc:
        raise SpecError(f"{source}: {exc.args[0]}") from exc
    node = point.get("node")
    if node is not None and node not in VALID_NODES:
        raise SpecError(
            f"{source}: unknown node {node!r} "
            f"(choose from {', '.join(VALID_NODES)})"
        )
    if point.get("scale", 1) <= 0:
        raise SpecError(f"{source}: scale must be positive")
    for mode, choices in (
        ("paircheck_mode", ("kernel", "engine", "verify")),
        ("apcheck_mode", ("array", "engine", "verify")),
    ):
        value = point.get(mode)
        if value is not None and value not in choices:
            raise SpecError(
                f"{source}: {mode} must be one of {', '.join(choices)}, "
                f"got {value!r}"
            )


# -- YAML subset parser -------------------------------------------------------


def parse_simple_yaml(text: str):
    """Parse the YAML subset sweep specs use (stdlib only).

    Supported: block mappings, block lists of scalars or mappings
    (``- key: value`` items), flow lists (``[a, b]``), ``#`` comments
    and JSON-ish scalars (int, float, bool, null, quoted strings).
    """
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        if "\t" in stripped[: len(stripped) - len(stripped.lstrip())]:
            raise SpecError(f"line {number}: tabs are not allowed in indent")
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append([indent, stripped.strip(), number])
    if not lines:
        return {}
    value, pos = _parse_block(lines, 0, lines[0][0])
    if pos != len(lines):
        raise SpecError(
            f"line {lines[pos][2]}: unexpected indentation"
        )
    return value


def _strip_comment(line: str) -> str:
    quote = None
    for i, char in enumerate(line):
        if quote:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char == "#":
            return line[:i]
    return line


def _parse_block(lines, pos, indent):
    if lines[pos][1].startswith("- ") or lines[pos][1] == "-":
        return _parse_list(lines, pos, indent)
    return _parse_map(lines, pos, indent)


def _parse_map(lines, pos, indent):
    out = {}
    while pos < len(lines):
        line_indent, text, number = lines[pos]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise SpecError(f"line {number}: unexpected indentation")
        if text.startswith("- ") or text == "-":
            break
        key, sep, rest = text.partition(":")
        if not sep or (rest and not rest.startswith(" ")):
            raise SpecError(f"line {number}: expected 'key: value'")
        key = _scalar(key.strip())
        rest = rest.strip()
        pos += 1
        if rest:
            out[key] = _scalar_or_flow(rest, number)
        elif pos < len(lines) and lines[pos][0] > indent:
            out[key], pos = _parse_block(lines, pos, lines[pos][0])
        else:
            out[key] = None
    return out, pos


def _parse_list(lines, pos, indent):
    out = []
    while pos < len(lines):
        line_indent, text, number = lines[pos]
        if line_indent != indent or not (
            text.startswith("- ") or text == "-"
        ):
            if line_indent > indent:
                raise SpecError(f"line {number}: unexpected indentation")
            break
        rest = text[1:].strip()
        if not rest:
            pos += 1
            if pos < len(lines) and lines[pos][0] > indent:
                item, pos = _parse_block(lines, pos, lines[pos][0])
            else:
                item = None
            out.append(item)
        elif _looks_like_mapping(rest):
            # An inline mapping item: re-home the first key at the
            # item's inner indent and let the mapping parser pick up
            # any following keys at the same depth.
            inner = indent + (len(text) - len(rest))
            lines[pos] = [inner, rest, number]
            item, pos = _parse_map(lines, pos, inner)
            out.append(item)
        else:
            out.append(_scalar_or_flow(rest, number))
            pos += 1
    return out, pos


def _looks_like_mapping(text: str) -> bool:
    if text.startswith(("[", "'", '"')):
        return False
    key, sep, rest = text.partition(":")
    return bool(sep) and (not rest or rest.startswith(" "))


def _scalar_or_flow(text: str, number: int):
    if text.startswith("["):
        if not text.endswith("]"):
            raise SpecError(f"line {number}: unterminated flow list")
        body = text[1:-1].strip()
        if not body:
            return []
        return [_scalar(part.strip()) for part in _split_flow(body, number)]
    if text.startswith("{"):
        raise SpecError(
            f"line {number}: flow mappings are outside the YAML subset; "
            "use block style or a .json spec"
        )
    return _scalar(text)


def _split_flow(body: str, number: int) -> list:
    parts = []
    current = []
    quote = None
    for char in body:
        if quote:
            current.append(char)
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            current.append(char)
            quote = char
        elif char == ",":
            parts.append("".join(current))
            current = []
        elif char in "[]":
            raise SpecError(f"line {number}: nested flow lists unsupported")
        else:
            current.append(char)
    if quote:
        raise SpecError(f"line {number}: unterminated quote")
    parts.append("".join(current))
    return parts


def _scalar(text: str):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("null", "none", "~"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text
