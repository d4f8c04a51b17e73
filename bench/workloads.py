"""Seeded inputs for the flexcert benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same joints, cycles and coefficients. Sizes are fixed per workload, so a
seed moves only coordinates and coefficients. A draw is redrawn only on a
structural defect (coincident joints, a degenerate grid triangle, three
collinear consecutive cycle vertices, a missing auto-pin frame), never on
a verdict or a timing.

`build(fc, workload, seed)` returns the workload's cases. `fc` is a
namespace holding the imported flexcert modules, so that the benchmark can
re-import the package between set-up repetitions and still build the cases
with the modules it will analyze them with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

RIGID = "Rigid"
FLEXIBLE = "Flexible"
INCONCLUSIVE = "Inconclusive"

WORKLOADS = ("rigid-grids", "flex-certify", "exhaustive-scan")

GRID_SIZES = (3, 4, 5)
CYCLE_SIZES = (5, 6)
FLEX_CORPUS = ("bricard_octahedron", "square", "example1", "circle")
SCAN_CORPUS = ("example2", "example3")
MAX_DRAWS = 1000


class StructureError(ValueError):
    """No structurally valid draw was found for a seed."""


@dataclass
class Case:
    """One benchmark input with the verdict it must get.

    `truth` is the mathematical ground truth; `pinned` is the verdict the
    analyzer gives today, which a later version may only make more
    decisive (Inconclusive may become a replayed Flexible).
    """

    name: str
    kind: str  # "system" or "framework"
    truth: str
    pinned: str
    system: Any = None  # QuadraticSystem, for kind == "system"
    base_point: Any = None
    framework: Any = None  # Framework, for kind == "framework"
    auto_pin: bool = False


def _rng(seed: int, label: str) -> random.Random:
    # one independent stream per generated input, so adding an input to a
    # workload never moves the draws of the others
    return random.Random(f"flexcert-bench/{seed}/{label}")


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _check_frame(fc, fw, origin: str, axis: str) -> None:
    pinned = fc.rigidity.auto_pin(fw)
    if {jid for jid, _ in pinned.pins} != {origin, axis}:
        raise StructureError(f"auto-pin frame is not ({origin}, {axis})")


# ---------------------------------------------------------------------------
# rigid-grids: triangulated n x n plane grids


def grid_joint_id(col: int, row: int) -> str:
    # ids sort row-major, so auto_pin picks p0_0 (origin) and p0_1 (axis 1)
    return f"p{row}_{col}"


def grid_triangles(n: int):
    for row in range(n - 1):
        for col in range(n - 1):
            yield (col, row), (col + 1, row), (col + 1, row + 1)
            yield (col, row), (col, row + 1), (col + 1, row + 1)


def grid_bars(n: int) -> list[tuple[str, str]]:
    bars = set()
    for tri in grid_triangles(n):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            bars.add(tuple(sorted((grid_joint_id(*a), grid_joint_id(*b)))))
    return sorted(bars)


def draw_grid(n: int, rng: random.Random) -> dict[tuple[int, int], tuple[int, int]]:
    """Lattice points times 3 with offsets in {-1, 0, 1} per coordinate;
    the origin joint and the axis-1 joint (1, 0) keep their lattice place."""
    coords = {}
    for row in range(n):
        for col in range(n):
            x, y = 3 * col, 3 * row
            if (col, row) not in ((0, 0), (1, 0)):
                x += rng.choice((-1, 0, 1))
                y += rng.choice((-1, 0, 1))
            coords[(col, row)] = (x, y)
    return coords


def grid_defect(n: int, coords) -> str | None:
    if len(set(coords.values())) != len(coords):
        return "coincident joints"
    for a, b, c in grid_triangles(n):
        if _cross(coords[a], coords[b], coords[c]) == 0:
            return f"degenerate triangle {a} {b} {c}"
    return None


def grid_case(fc, n: int, seed: int) -> Case:
    rng = _rng(seed, f"grid{n}")
    for _ in range(MAX_DRAWS):
        coords = draw_grid(n, rng)
        if grid_defect(n, coords) is None:
            break
    else:
        raise StructureError(f"no valid {n}x{n} grid for seed {seed}")
    joints = {grid_joint_id(*cr): [x, y] for cr, (x, y) in coords.items()}
    fw = fc.rigidity.framework(2, joints, grid_bars(n))
    _check_frame(fc, fw, grid_joint_id(0, 0), grid_joint_id(1, 0))
    return Case(f"grid{n}x{n}", "framework", RIGID, RIGID, framework=fw, auto_pin=True)


# ---------------------------------------------------------------------------
# flex-certify: seeded n-gon cycles


def draw_cycle(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """v0 at the origin, v1 on axis 1, the other vertices lattice points
    above axis 1."""
    pts = [(0, 0), (rng.randint(1, 4), 0)]
    while len(pts) < n:
        pts.append((rng.randint(-3, 6), rng.randint(1, 4)))
    return pts


def cycle_defect(pts) -> str | None:
    if len(set(pts)) != len(pts):
        return "coincident joints"
    n = len(pts)
    for i in range(n):
        if _cross(pts[i - 1], pts[i], pts[(i + 1) % n]) == 0:
            return f"collinear consecutive vertices around v{i}"
    return None


def cycle_case(fc, n: int, seed: int) -> Case:
    rng = _rng(seed, f"cycle{n}")
    for _ in range(MAX_DRAWS):
        pts = draw_cycle(n, rng)
        if cycle_defect(pts) is None:
            break
    else:
        raise StructureError(f"no valid {n}-gon for seed {seed}")
    joints = {f"v{i}": list(p) for i, p in enumerate(pts)}
    bars = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    fw = fc.rigidity.framework(2, joints, bars)
    _check_frame(fc, fw, "v0", "v1")
    return Case(f"cycle{n}", "framework", FLEXIBLE, FLEXIBLE, framework=fw, auto_pin=True)


# ---------------------------------------------------------------------------
# exhaustive-scan: curves x^a = c * y^b through the origin


def draw_positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def curve_case(fc, a: int, b: int, seed: int) -> Case:
    """x^a - c*y^b = 0 at the origin, reduced to degree 2. With c > 0 the
    curve has the real analytic branch y = t^a, x = c^(1/a) t^b, so the
    ground truth is Flexible; no rational series certifies it."""
    c = draw_positive_rational(_rng(seed, f"curve{a}{b}"))
    terms = {(a, 0): 1, (0, b): -c}
    poly = fc.quadsys.poly_system([terms], 2, ("x", "y"))
    sys, rmap = fc.quadsys.reduce_degree(poly)
    x0 = fc.quadsys.lift_base_point(rmap, (0, 0))
    if any(v != 0 for v in fc.quadsys.evaluate(sys, x0)):
        raise StructureError("lifted base point does not solve the reduced curve")
    return Case(f"curve_x{a}_y{b}", "system", FLEXIBLE, INCONCLUSIVE, system=sys, base_point=x0)


# ---------------------------------------------------------------------------
# corpus inputs


def corpus_case(fc, name: str, truth: str, pinned: str) -> Case:
    path = fc.corpus.corpus_path(f"{name}.json")
    data = fc.fileio.load_json(path)
    if "joints" in data:
        fw, auto = fc.fileio.framework_from_dict(data, path)
        return Case(name, "framework", truth, pinned, framework=fw, auto_pin=auto)
    sys, x0 = fc.fileio.system_from_dict(data, path)
    return Case(name, "system", truth, pinned, system=sys, base_point=x0)


def build(fc, workload: str, seed: int) -> list[Case]:
    if workload == "rigid-grids":
        return [grid_case(fc, n, seed) for n in GRID_SIZES]
    if workload == "flex-certify":
        cases = [corpus_case(fc, name, FLEXIBLE, FLEXIBLE) for name in FLEX_CORPUS]
        return cases + [cycle_case(fc, n, seed) for n in CYCLE_SIZES]
    if workload == "exhaustive-scan":
        cases = [corpus_case(fc, name, FLEXIBLE, INCONCLUSIVE) for name in SCAN_CORPUS]
        return cases + [curve_case(fc, 3, 4, seed), curve_case(fc, 2, 5, seed)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
