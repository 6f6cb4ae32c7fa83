"""The pin access oracle facade (the PAO of the title).

A detailed router (or placer, or ECO tool) wants one question
answered: *where can I land on this pin, legally?*  The
:class:`PinAccessOracle` wraps the three-step framework behind that
query interface: analyze once, then ask per instance pin and get the
selected access point plus the validated alternatives, in preference
order.

Every answer, in process or over the ``repro.serve`` wire, comes from
one kind of object: an immutable :class:`Snapshot` of the answers for
one placement.  :meth:`Snapshot.first` builds generation 0 from a
Step 3 selection and the placement map of
:meth:`~repro.core.framework.PinAccessResult.placements`;
:meth:`Snapshot.next` derives the following generation copy-on-write
from what one placement move re-selected and moved.  The oracle holds
generation 0 and the daemon's
:class:`~repro.serve.session.DesignSession` publishes the ones after
it, so the two answer alike by construction.

Lookup failures raise the typed :class:`UnknownInstanceError` /
:class:`UnknownPinError` hierarchy.  Both derive from ``KeyError`` so
pre-existing ``except KeyError`` callers keep working, and both are
shared with the ``repro.serve`` wire protocol so an in-process caller
and a network client see the same error taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cluster import ClusterSelectionResult
from repro.core.config import PaafConfig
from repro.core.framework import PinAccessFramework
from repro.db.design import Design


class UnknownInstanceError(KeyError):
    """Query names an instance the design does not contain."""

    def __init__(self, instance_name: str):
        super().__init__(instance_name)
        self.instance_name = instance_name

    def __str__(self) -> str:
        return f"no instance named {self.instance_name!r}"


class UnknownPinError(KeyError):
    """Query names a pin the instance's master does not declare."""

    def __init__(self, instance_name: str, pin_name: str):
        super().__init__((instance_name, pin_name))
        self.instance_name = instance_name
        self.pin_name = pin_name

    def __str__(self) -> str:
        return (
            f"instance {self.instance_name!r} has no signal pin "
            f"named {self.pin_name!r}"
        )


@dataclass
class PinAccessAnswer:
    """The oracle's answer for one instance pin.

    ``selected`` is the Step 3 choice (pattern-compatible with the
    instance's other pins and its neighbors); ``alternatives`` are all
    Step 1 access points translated to the instance, in generation
    (cost) order -- what a router falls back to when the selected point
    is blocked by congestion.
    """

    instance_name: str
    pin_name: str
    selected: object
    alternatives: list

    @property
    def accessible(self) -> bool:
        """Return True if at least one access point exists."""
        return self.selected is not None or bool(self.alternatives)


@dataclass
class Snapshot:
    """The answers for one placement, immutable once built.

    ``access`` maps ``(instance, pin)`` to the selected design-space
    access point; ``alternatives`` maps the same key to the Step 1
    access points translated onto the instance (generation order).
    ``pins_by_inst`` fixes the known-pin universe, so a reader tells
    an unknown pin from a pin with no access without consulting the
    mutable design.  After :meth:`first` or :meth:`next` returns,
    neither the snapshot nor any dict, list or access point it shares
    with a later one is mutated.
    """

    generation: int
    access: dict = field(default_factory=dict)
    alternatives: dict = field(default_factory=dict)
    pins_by_inst: dict = field(default_factory=dict)

    @classmethod
    def first(
        cls,
        design: Design,
        selection: ClusterSelectionResult,
        placements: dict,
    ) -> "Snapshot":
        """Return generation 0: every instance of ``design``.

        ``selection`` is a Step 3 result covering every instance and
        ``placements`` maps every instance name to its ``(unique
        access, (dx, dy))``.
        """
        empty = cls(
            generation=-1,
            pins_by_inst={
                inst.name: frozenset(
                    pin.name for pin in inst.master.signal_pins()
                )
                for inst in design.instances.values()
            },
        )
        return empty.next(selection, placements)

    def next(
        self, selection: ClusterSelectionResult, placements: dict
    ) -> "Snapshot":
        """Return the next generation, copy-on-write.

        ``selection`` holds every instance Step 3 re-selected;
        ``placements`` maps each instance whose placement changed to
        its ``(unique access, (dx, dy))``.  Only their entries are
        replaced, in fresh shallow copies of this snapshot's maps;
        every other entry, and ``pins_by_inst``, is shared.
        """
        pins_by_inst = self.pins_by_inst
        access = dict(self.access)
        for name in selection.selection:
            for pin_name in pins_by_inst[name]:
                access.pop((name, pin_name), None)
        access.update(selection.access_map())
        alternatives = dict(self.alternatives)
        for name, (ua, (dx, dy)) in placements.items():
            pins = pins_by_inst[name]
            for pin_name in pins:
                alternatives.pop((name, pin_name), None)
            for pin_name, aps in ua.aps_by_pin.items():
                if pin_name in pins:
                    alternatives[(name, pin_name)] = [
                        ap.translated(dx, dy) for ap in aps
                    ]
        return Snapshot(
            generation=self.generation + 1,
            access=access,
            alternatives=alternatives,
            pins_by_inst=pins_by_inst,
        )

    def query(self, instance_name: str, pin_name: str) -> PinAccessAnswer:
        """Answer one pin of this placement.

        Raises :class:`UnknownInstanceError` for an instance the
        snapshot does not hold and :class:`UnknownPinError` for a pin
        its master does not declare; a declared pin without access
        answers inaccessible.  The answer's lists are the snapshot's
        own: read them, do not mutate them.
        """
        pins = self.pins_by_inst.get(instance_name)
        if pins is None:
            raise UnknownInstanceError(instance_name)
        if pin_name not in pins:
            raise UnknownPinError(instance_name, pin_name)
        key = (instance_name, pin_name)
        return PinAccessAnswer(
            instance_name=instance_name,
            pin_name=pin_name,
            selected=self.access.get(key),
            alternatives=self.alternatives.get(key, []),
        )


class PinAccessOracle:
    """Analyze once, answer pin access queries forever after.

    The oracle runs the framework on ``design`` and keeps the run's
    :attr:`result` and its generation-0 :attr:`snapshot`, which every
    query reads: answers belong to the placement analyzed, even when
    the design is edited later.
    """

    def __init__(self, design: Design, config: Optional[PaafConfig] = None):
        self.design = design
        self.result = PinAccessFramework(design, config).run()
        self.snapshot = Snapshot.first(
            design, self.result.selection, self.result.placements()
        )

    def query(
        self, instance_name: str, pin_name: str, strict: bool = False
    ) -> PinAccessAnswer:
        """Answer for one instance pin.

        Raises :class:`UnknownInstanceError` for unknown instances;
        unknown pins of known instances answer with no access
        (robustness for callers probing generated pin names) unless
        ``strict`` is set, in which case a pin the instance's master
        does not declare raises :class:`UnknownPinError` -- the
        contract the serving layer exposes over the wire.
        """
        try:
            return self.snapshot.query(instance_name, pin_name)
        except UnknownPinError:
            if strict:
                raise
            return PinAccessAnswer(
                instance_name=instance_name,
                pin_name=pin_name,
                selected=None,
                alternatives=[],
            )

    def accessible_fraction(self) -> float:
        """Return the share of connected pins with a selected access."""
        pins = self.design.connected_pins()
        if not pins:
            return 1.0
        have = sum(
            1
            for inst, pin in pins
            if (inst.name, pin.name) in self.snapshot.access
        )
        return have / len(pins)
