"""Lightcone geometry for choice-conditioned readouts.

A measurement record is allowed to depend only on the free choices whose
future lightcone contains the readout event.  Given a layout of choice
and readout events this module derives, per readout, the influencing
choices and the full list of conditioned readout variables (one variable
per subset of influencing choices).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .sphere import check_finite


@dataclass(frozen=True)
class Event:
    """A spacetime point in units where c = 1."""

    t: float
    pos: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.pos) != 3:
            raise ValueError("pos must have three components")
        for name, c in zip("txyz", (self.t, *self.pos)):
            check_finite(c, f"event {name}")


@dataclass(frozen=True)
class CausalScenario:
    """Labelled choice and readout events; labels unique across the scenario."""

    choices: tuple[tuple[str, Event], ...]
    readouts: tuple[tuple[str, Event], ...]

    def __post_init__(self) -> None:
        labels = [lb for lb, _ in self.choices] + [lb for lb, _ in self.readouts]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in scenario: {labels}")


@dataclass(frozen=True)
class ReadoutSignature:
    """Influencing choices and conditioned variables, per readout.

    ``variables[label]`` enumerates one name per subset of the influencing
    choices, in binary-counting order over the label-sorted choices, e.g.
    ('g', 'g_a', 'g_b', 'g_ab') for two influencing choices a and b.
    """

    influences: dict[str, tuple[str, ...]]
    variables: dict[str, tuple[str, ...]]


def in_future_lightcone(source: Event, target: Event) -> bool:
    """True iff target lies in the closed future lightcone of source.

    The boundary counts as causally connected: the test is
    t_target - t_source >= |x_target - x_source|.
    """
    dt = target.t - source.t
    dx = math.dist(target.pos, source.pos)
    return dt >= dx


def _subset_names(label: str, influencing: tuple[str, ...]) -> tuple[str, ...]:
    names = []
    for k in range(2 ** len(influencing)):
        subset = [c for i, c in enumerate(influencing) if k >> i & 1]
        names.append(label if not subset else f"{label}_{''.join(subset)}")
    return tuple(names)


def readout_signature(scenario: CausalScenario) -> ReadoutSignature:
    """Derive the admissible signature of the joint choice-conditioned readout.

    Each readout's influencing set consists of exactly the choices whose
    future lightcone contains the readout event.  A readout with k
    influencing choices carries 2^k conditioned variables.
    """
    influences: dict[str, tuple[str, ...]] = {}
    variables: dict[str, tuple[str, ...]] = {}
    for label, ev in scenario.readouts:
        infl = tuple(sorted(
            c_label for c_label, c_ev in scenario.choices
            if in_future_lightcone(c_ev, ev)))
        influences[label] = infl
        variables[label] = _subset_names(label, infl)
    return ReadoutSignature(influences=influences, variables=variables)


def parse_scenario(text: str) -> CausalScenario:
    """Parse the plain-text scenario format.

    One event per line: ``choice <label> <t> <x> <y> <z>`` or
    ``readout <label> <t> <x> <y> <z>``.  Blank lines and lines starting
    with ``#`` are ignored.
    """
    choices: list[tuple[str, Event]] = []
    readouts: list[tuple[str, Event]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6 or parts[0] not in ("choice", "readout"):
            raise ValueError(
                f"line {lineno}: expected "
                f"'choice|readout <label> <t> <x> <y> <z>', got {raw!r}")
        kind, label = parts[0], parts[1]
        try:
            t, x, y, z = (float(p) for p in parts[2:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad coordinate in {raw!r}") from exc
        try:
            ev = Event(t, (x, y, z))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        (choices if kind == "choice" else readouts).append((label, ev))
    return CausalScenario(choices=tuple(choices), readouts=tuple(readouts))


def format_signature(sig: ReadoutSignature) -> str:
    """Render a signature as 'readout <label>: vars <comma-separated>' lines."""
    lines = [f"readout {label}: vars {','.join(names)}"
             for label, names in sig.variables.items()]
    return "\n".join(lines)
