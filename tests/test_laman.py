"""Laman oracle: in the plane, a framework at a generic placement is
first-order rigid exactly when its graph has a Laman spanning subgraph
(2n - 3 bars, with no k >= 2 joints spanning more than 2k - 3 of them).

Graphs are grown by Henneberg moves, which keep a graph Laman. The
count is taken by brute force over joint subsets, so n stays small.
"""

import random
from fractions import Fraction as F

from flexcert import auto_pin, framework, linearize
from flexcert.certify import first_order_rigidity_check
from flexcert.rigidity import build_edge_system


def henneberg_graph(rng, n):
    """Bars of a Laman graph on joints 0..n-1, grown from the bar (0, 1)
    by type I moves (a new joint barred to two old ones) and type II
    moves (a bar (a, b) replaced by a new joint barred to a, b and a
    third old joint)."""
    bars = {(0, 1)}
    for new in range(2, n):
        if new >= 3 and rng.random() < 0.5:
            a, b = rng.choice(sorted(bars))
            c = rng.choice([j for j in range(new) if j not in (a, b)])
            bars.remove((a, b))
            bars |= {(a, new), (b, new), (c, new)}
        else:
            a, b = rng.sample(range(new), 2)
            bars |= {(a, new), (b, new)}
    return sorted(bars)


def laman_rank(n, bars):
    """Rank of the bars in the generic 2D rigidity matroid: a bar joins
    the independent set kept so far when every joint subset holding both
    its ends still spans at most 2k - 3 kept bars."""
    kept = []
    for a, b in bars:
        trial = kept + [(a, b)]
        ends = (1 << a) | (1 << b)
        if all(sum(1 for u, v in trial if subset >> u & 1 and subset >> v & 1)
               <= 2 * bin(subset).count("1") - 3
               for subset in range(1 << n) if subset & ends == ends):
            kept = trial
    return len(kept)


def first_order_rigid(rng, n, bars):
    # v00 at the origin and v01 on axis 1 are the frame auto_pin pins
    def point():
        return [F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(2)]

    joints = {f"v{j:02d}": point() for j in range(2, n)}
    joints["v00"] = [0, 0]
    joints["v01"] = [F(rng.randint(1, 30), rng.randint(1, 7)), 0]
    fw = auto_pin(framework(2, joints, [(f"v{a:02d}", f"v{b:02d}") for a, b in bars]))
    system, _, base = build_edge_system(fw)
    return first_order_rigidity_check(linearize(system, base)) is not None


def test_first_order_rigidity_agrees_with_the_laman_count():
    rng = random.Random(2025)
    seen = {True: 0, False: 0}
    redrawn = 0
    for trial in range(42):
        n = 4 + trial % 7
        laman = henneberg_graph(rng, n)
        missing = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in laman]
        dropped = rng.choice(laman)
        variants = [(laman, True), ([bar for bar in laman if bar != dropped], False),
                    (sorted(laman + [rng.choice(missing)]), True)]
        for bars, rigid in variants:
            assert (laman_rank(n, bars) == 2 * n - 3) == rigid, (n, bars)
            # a special placement can only lose rank; a second draw settles it
            if first_order_rigid(rng, n, bars) != rigid:
                redrawn += 1
                assert first_order_rigid(rng, n, bars) == rigid, (n, bars)
            seen[rigid] += 1
    assert seen == {True: 84, False: 42} and redrawn <= 2
