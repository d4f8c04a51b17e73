"""Bar-joint frameworks: compilation to edge-length equations and
rigidity/flexibility verdicts.

A framework (joints in n-space, bars of fixed length, optionally pinned
coordinates) compiles to one quadratic equation per bar in the unpinned
coordinates. The analyzer then runs the certificate engines and renders
the framework-level verdict, requiring a Flexible verdict to exhibit a
nontrivial flexion: some non-bar pair whose distance actually changes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import certify
from .certify import (
    FLEXIBLE,
    INCONCLUSIVE,
    RIGID,
    AnalysisReport,
    AnalyzeConfig,
    Certificate,
    FirstOrderRigid,
    SecondOrderObstruction,
    TStandardFail,
)
from .quadsys import QuadraticSystem, _canonical_equation
from .ratlinalg import Vector, _integers, vector
from .series import SeriesCoefficients


class PinningError(ValueError):
    """No admissible pinning frame; the user must pre-transform coordinates."""


class FrameworkError(ValueError):
    """Structurally invalid framework description."""


@dataclass(frozen=True)
class Framework:
    dimension: int
    joints: dict[str, Vector]
    bars: tuple[tuple[str, str], ...]
    pins: frozenset[tuple[str, int]]

    def joint_ids(self) -> list[str]:
        return sorted(self.joints)


def _pair(item, what: str) -> tuple:
    # a bar or pin of another shape is malformed; reading two of its items would hide that
    if isinstance(item, str) or not isinstance(item, Sequence) or len(item) != 2:
        raise FrameworkError(f"{what} {item!r} is not a pair")
    return item[0], item[1]


def framework(
    dimension: int,
    joints: dict[str, Sequence],
    bars: Sequence[Sequence[str]],
    pins: Sequence[tuple[str, int]] = (),
) -> Framework:
    """Validate and normalize a framework description."""
    if dimension < 1:
        raise FrameworkError("dimension must be positive")
    if not joints:
        raise FrameworkError("framework needs at least one joint")
    coords = {}
    for jid, c in joints.items():
        vec = vector(c)
        if len(vec) != dimension:
            raise FrameworkError(f"joint {jid!r} has {len(vec)} coordinates, expected {dimension}")
        key = str(jid)
        if key in coords:
            raise FrameworkError(f"two joint ids read as the same string {key!r}")
        coords[key] = vec
    norm_bars = set()
    for bar in bars:
        a, b = map(str, _pair(bar, "bar"))
        if a == b:
            raise FrameworkError(f"self-loop bar at joint {a!r}")
        for end in (a, b):
            if end not in coords:
                raise FrameworkError(f"bar references unknown joint {end!r}")
        norm_bars.add((min(a, b), max(a, b)))
    adjacency = {jid: set() for jid in coords}
    for a, b in norm_bars:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    stack = [next(iter(sorted(coords)))]
    while stack:
        j = stack.pop()
        if j in seen:
            continue
        seen.add(j)
        stack.extend(adjacency[j] - seen)
    if seen != set(coords):
        raise FrameworkError("framework graph is not connected")
    norm_pins = set()
    for pin in pins:
        jid, idx = _pair(pin, "pin")
        jid = str(jid)
        if jid not in coords:
            raise FrameworkError(f"pin references unknown joint {jid!r}")
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise FrameworkError(f"pin coordinate {idx!r} of joint {jid!r} is not an integer")
        if not 0 <= idx < dimension:
            raise FrameworkError(f"pin coordinate {idx} out of range for joint {jid!r}")
        norm_pins.add((jid, idx))
    return Framework(dimension, coords, tuple(sorted(norm_bars)), frozenset(norm_pins))


def auto_pin(fw: Framework) -> Framework:
    """Pin a normal-position frame: the first joints (in id order) found
    at the origin, on axis 1, in the 1-2 plane, ... lose n, n-1, ..., 1
    coordinates respectively, n(n+1)/2 pins in total.

    Coordinates are never re-embedded (an isometric re-embedding of a
    rational framework can force irrational coordinates), so a framework
    without such a frame is rejected and must be pre-transformed.
    """
    if fw.pins:
        raise PinningError("auto_pin requires a framework with no pins set")
    n = fw.dimension
    chosen: list[str] = []
    for slot in range(1, n + 1):
        found = None
        for jid in fw.joint_ids():
            if jid in chosen:
                continue
            c = fw.joints[jid]
            # slot s joint lives in the span of axes 1..s-1 ...
            if any(c[i] != 0 for i in range(slot - 1, n)):
                continue
            # ... and off the span of axes 1..s-2 (affine independence)
            if slot >= 2 and c[slot - 2] == 0:
                continue
            found = jid
            break
        if found is None:
            raise PinningError(
                f"no joint in normal position for frame slot {slot} "
                "(origin, axis 1, plane 1-2, ...); pre-transform the coordinates"
            )
        chosen.append(found)
    pins = set()
    for slot, jid in enumerate(chosen, start=1):
        for idx in range(slot - 1, n):
            pins.add((jid, idx))
    return Framework(fw.dimension, fw.joints, fw.bars, frozenset(pins))


def coordinate_order(fw: Framework) -> list[tuple[str, int]]:
    """All (joint, coordinate) slots in lexicographic order."""
    return [(jid, c) for jid in fw.joint_ids() for c in range(fw.dimension)]


def build_edge_system(fw: Framework) -> tuple[QuadraticSystem, tuple[tuple[str, int], ...], Vector]:
    """Compile the bar-length constraints into a quadratic system.

    One equation per bar: sum_c (x_ac - x_bc)^2 - L_ab^2 = 0, with pinned
    coordinates substituted as constants; a coordinate pinned at both
    ends cancels against its share of L_ab^2 and is left out. A bar is
    written in ints over d^2, d the lcm of its joints' denominators, and
    reduced by `quadsys._canonical_equation`; no Fraction is built.
    Returns the system, the coordinate map (variable index -> (joint,
    coordinate)) and the base point (the initial unpinned coordinates),
    where each equation vanishes; `quadsys.linearize` checks it exactly.
    """
    variables = [sc for sc in coordinate_order(fw) if sc not in fw.pins]
    if not fw.bars:
        raise FrameworkError("framework has no bars to compile")
    index = {sc: i for i, sc in enumerate(variables)}
    slots = {jid: [index.get((jid, c)) for c in range(fw.dimension)] for jid in fw.joints}
    scaled = {jid: _integers(x) for jid, x in fw.joints.items()}
    equations = []
    for a, b in fw.bars:
        (da, xa), (db, xb) = scaled[a], scaled[b]
        d = lcm(da, db)
        quad, lin, gamma, n2 = [], [], 0, d * d  # numerators over n2
        for i, j, ka, kb in zip(slots[a], slots[b], xa, xb):
            # (u - v)^2 - (ka - kb)^2 is symmetric in (u, ka), (v, kb): make u a variable
            ka, kb = ka * (d // da), kb * (d // db)
            if i is None:
                i, j, ka, kb = j, i, kb, ka
            if i is None:
                continue
            quad.append((i, i, n2))
            if j is None:
                gamma += kb * kb - (ka - kb) ** 2
                lin.append((i, -2 * kb * d))
            else:
                quad += [(j, j, n2), (i, j, -2 * n2) if i < j else (j, i, -2 * n2)]
                gamma -= (ka - kb) ** 2
        equations.append(_canonical_equation(quad, lin, gamma, n2))
    names = tuple(f"{jid}[{c}]" for jid, c in variables)
    sys = QuadraticSystem(len(variables), len(fw.bars), *map(tuple, zip(*equations)), names)
    base = tuple(fw.joints[jid][c] for jid, c in variables)
    return sys, tuple(variables), base


@dataclass(frozen=True)
class FlexionReport:
    order: int
    series: SeriesCoefficients
    classification: str  # "Trivial" | "Nontrivial"
    witness_pair: Optional[tuple[str, str]] = None
    witness_order: Optional[int] = None
    witness_value: Optional[Fraction] = None


def flexion_nontriviality(
    fw: Framework, variables: Sequence[tuple[str, int]], s: SeriesCoefficients
) -> FlexionReport:
    """Classify a flexion: Nontrivial iff some non-bar pair's squared
    distance has a nonzero coefficient at an order in [1, q]. On a
    complete bar graph there are no admissible witness pairs and the
    classification is Trivial by definition.

    The pairs are read in id order, and each only up to its first
    moving order: with D_l the difference x_a - x_b at order l (a
    pinned coordinate is its position at order 0 and 0 above), the
    coefficient at order p is sum_{l=0..p} D_l . D_{p-l}. The witness is
    the first pair with a nonzero coefficient, at its lowest such order.

    Orders above q are not read. The certified family agrees with the
    series only through t^q, so the series' distance coefficients past q
    need not be the family's: the rotation of a braced square about a
    pinned corner, cut at q = 2, moves a non-bar distance at order 4.
    Truncated expansions must not be read past their order (Connelly &
    Servatius 1994 give second-order flexes that do not extend)."""
    index = {sc: i for i, sc in enumerate(variables)}

    def difference(a: str, b: str, p: int) -> list[Fraction]:
        # D_p; a pinned coordinate is its position at order 0 and 0 above
        y = s.coeffs[p]
        return [(y[index[a, c]] if (a, c) in index else xa if p == 0 else 0)
                - (y[index[b, c]] if (b, c) in index else xb if p == 0 else 0)
                for c, (xa, xb) in enumerate(zip(fw.joints[a], fw.joints[b]))]

    bar_set = set(fw.bars)
    ids = fw.joint_ids()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (a, b) in bar_set:
                continue
            diff = [difference(a, b, 0)]
            for p in range(1, s.degree + 1):
                diff.append(difference(a, b, p))
                value = sum((u * v for l in range(p + 1)
                             for u, v in zip(diff[l], diff[p - l])), Fraction(0))
                if value:
                    return FlexionReport(
                        order=s.degree,
                        series=s,
                        classification="Nontrivial",
                        witness_pair=(a, b),
                        witness_order=p,
                        witness_value=value,
                    )
    return FlexionReport(order=s.degree, series=s, classification="Trivial")


@dataclass(frozen=True)
class FrameworkReport:
    verdict: str
    certificate: Optional[Certificate]
    depth_reached: int
    notes: tuple[str, ...]
    flexion: Optional[FlexionReport]
    pinned: Framework
    system_report: AnalysisReport


def analyze_framework(
    fw: Framework,
    config: AnalyzeConfig = AnalyzeConfig(),
    use_auto_pin: bool = False,
) -> FrameworkReport:
    """Compile the edge system, run the system analyzer, and render the
    framework verdict.

    Rigidity certificates pass through (trivial kernel, order-2
    obstruction, T-standard failure each imply a rigid framework). A
    flexibility certificate earns the Flexible verdict only when its
    series is a nontrivial flexion; otherwise the verdict stays
    Inconclusive.
    """
    pinned = fw
    if not fw.pins and use_auto_pin:
        pinned = auto_pin(fw)
    sys, variables, base = build_edge_system(pinned)
    report = certify.analyze_system(sys, base, config)
    notes = list(report.notes)
    if not pinned.pins:
        notes.append(
            "no pins set: rigid-motion directions stay in the kernel and a "
            "rigidity verdict cannot occur"
        )
    flexion = None
    verdict = report.verdict
    if report.verdict == RIGID:
        cert = report.certificate
        if isinstance(cert, FirstOrderRigid):
            notes.append("framework is first-order infinitesimally rigid, hence rigid")
        elif isinstance(cert, SecondOrderObstruction):
            notes.append("framework is second-order infinitesimally rigid, hence rigid")
        elif isinstance(cert, TStandardFail):
            notes.append(
                "single independent first-order flexion admits no order-"
                f"{cert.fail_index} extension, hence rigid"
            )
    elif report.verdict == FLEXIBLE:
        flexion = flexion_nontriviality(pinned, variables, report.certificate.series)
        if flexion.classification == "Nontrivial":
            a, b = flexion.witness_pair
            notes.append(
                f"nontrivial flexion: distance of non-bar pair ({a}, {b}) changes "
                f"at order {flexion.witness_order}"
            )
        else:
            verdict = INCONCLUSIVE
            notes.append(
                "certified family is a trivial flexion (no non-bar distance "
                "changes); framework verdict stays inconclusive"
            )
    return FrameworkReport(
        verdict=verdict,
        certificate=report.certificate,
        depth_reached=report.depth_reached,
        notes=tuple(notes),
        flexion=flexion,
        pinned=pinned,
        system_report=report,
    )
