"""Multi-creature operations: decisive ordering of a tuple, homogenization
of a function on a product of value sets, and separation of two overlapping
creatures of one parameter.

All norm accounting is exact.  Every intermediate creature is re-verified
on the spot (membership in the successor set, norm floor); a failure raises
rather than returning a weakened answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, islice, product, repeat
from math import prod
from operator import itemgetter, ne

from ..errors import CapacityExceeded, NotDecisive, NotNice, UsageError
from ..logreal import lr
from .base import TUPLE_CAP
from .checks import check_bigness

# Points of one coordinate colored per itertools.product call: product
# materializes its arguments, so the chunk bounds a coloring's memory.
_CHUNK = 256


def decisive_order(params, ws, x):
    """Order the coordinates of a creature tuple by how cheaply each can be
    made small, then commit the cheapest to its small successor and keep
    every other coordinate's creature, which must be hereditarily (2^c, x)-big,
    where c is the product of the value-set sizes of the coordinates placed
    before it.

    Returns (order, new_ws): `order` lists coordinate indices cheapest
    first, and new_ws[i] is the committed creature for coordinate i.
    """
    if len(params) != len(ws) or not params:
        raise UsageError("params and ws must be nonempty and aligned")
    x = lr(x)

    smalls = []
    for p, w in zip(params, ws):
        v = p.small_successor(w, x)
        if v is None:
            raise NotDecisive(f"{p.name}: no small successor within {x.approx()}")
        smalls.append(v)

    order = sorted(range(len(params)), key=lambda i: (params[i].val_size(smalls[i]), i))
    new_ws = list(ws)

    lead = order[0]
    v = smalls[lead]
    p = params[lead]
    if not (p.in_succ(v, ws[lead]) and p.nor(v) >= p.nor(ws[lead]) - x):
        raise NotDecisive(f"{p.name}: small successor fails replay")
    new_ws[lead] = v

    running = p.val_size(v)
    for i in order[1:]:
        p = params[i]
        v = ws[i]
        if not (p.in_succ(v, ws[i]) and p.nor(v) >= p.nor(ws[i]) - x):
            raise NotDecisive(f"{p.name}: big successor fails replay")
        if running > TUPLE_CAP:
            raise CapacityExceeded(
                f"hereditary bigness capacity 2^{running} exceeds the tuple cap"
            )
        cert = check_bigness(p, v, 2 ** running, x, hereditary=True)
        if not cert.verdict:
            raise NotDecisive(
                f"{p.name}: big successor not hereditarily (2^{running}, x)-big: "
                f"{cert.counterexample}"
            )
        new_ws[i] = v
        running *= p.val_size(v)

    return order, new_ws


def _constant_witness(p, w, colors, floor):
    """Successor of w above floor on whose values the coloring is constant.

    `colors(points)` yields the color of each point, in order: the tuple of
    F over the product of the cheaper coordinates.  F is called point-major,
    the cheaper coordinates varying fastest in itertools.product order.  A
    family's `bigness_witness` hook receives the same `colors`.
    """
    hook = getattr(p, "bigness_witness", None)
    if hook is not None:
        v = hook(w, colors, p.nor(w) - floor)
        if v is not None and p.in_succ(v, w) and p.nor(v) >= floor:
            return v
        return None
    points = sorted(p.val(w))
    classes = {}
    for t, c in zip(points, colors(points)):
        classes.setdefault(c, []).append(t)
    best = None
    for cls in classes.values():
        v = p.best_successor_within(w, frozenset(cls))
        if v is not None and p.nor(v) >= floor and (best is None or p.nor(v) > p.nor(best)):
            best = v
    return best


def _coloring(F, slots, lists):
    """colors(points) for the coordinate in slots[0]: point a is colored by
    F over product([a], *lists), where lists[k - 1] holds the values of the
    coordinate in slots[k], each product tuple put back in slot order."""
    width = prod(map(len, lists))
    perm = sorted(range(len(slots)), key=slots.__getitem__)
    # itemgetter of one index returns the value itself, not a 1-tuple
    place = itemgetter(*perm) if len(perm) > 1 else tuple

    def colored(chunk):
        return zip(*[map(F, map(place, product(chunk, *lists)))] * width)

    def colors(points):
        points = iter(points)
        return chain.from_iterable(map(colored, iter(lambda: tuple(islice(points, _CHUNK)), ())))

    return colors


def homogenize_product(params, ws, F, range_size: int, x=None):
    """Shrink each coordinate of a creature tuple until F, a function from
    the product of the value sets into range(range_size), is constant.

    Each coordinate loses at most 2x of norm (one decisive step plus one
    elimination step); the default x is 1/(2 * len(params)), bounding every
    coordinate's total loss by 1/len(params).

    Returns (new_ws, value, report) with the constant value of F and the
    per-coordinate norm losses.

    Which points F receives, in which order and how many times, is part of
    the contract (F may be stateful, e.g. draw a value on first access).
    Each elimination step colors points of its coordinate through `colors`
    (see `_constant_witness`): val(w) in increasing order by default, or in
    the order a `bigness_witness` hook documents.  The replay then calls F
    on the first point of the final product, and on the whole product in
    itertools.product order up to the first point off that value.
    """
    M = len(params)
    if range_size < 1:
        raise UsageError("range_size must be positive")
    if range_size > 2 ** M:
        raise CapacityExceeded(f"range {range_size} exceeds capacity 2^{M}")
    x = lr(x if x is not None else Fraction(1, 2 * M))

    order, cur = decisive_order(params, ws, x)

    # eliminate coordinates one at a time, most expensive first: color the
    # points of the coordinate by the tuple of F-values over the product of
    # the cheaper coordinates, holding each already-constant coordinate at
    # a fixed representative value
    reps = [None] * M
    for pos in range(M - 1, -1, -1):
        j, earlier, held = order[pos], order[:pos], order[pos + 1:]
        domain = 1
        for i in earlier:
            domain *= params[i].val_size(cur[i])
        if domain > TUPLE_CAP:
            raise CapacityExceeded(f"tuple coloring over {domain} cells is out of reach")
        lists = [sorted(params[i].val(cur[i])) for i in earlier] + [(reps[i],) for i in held]
        colors = _coloring(F, [j, *earlier, *held], lists)
        floor = params[j].nor(cur[j]) - x
        v = _constant_witness(params[j], cur[j], colors, floor)
        if v is None:
            raise NotNice(f"{params[j].name}: no homogeneous successor at step {pos}")
        cur[j] = v
        reps[j] = min(params[j].val(v))

    # exact replay: F must be constant on the whole final product
    grids = [sorted(p.val(w)) for p, w in zip(params, cur)]
    value = F(tuple(g[0] for g in grids))
    bad = next(compress(product(*grids), map(ne, map(F, product(*grids)), repeat(value))), None)
    if bad is not None:
        raise NotNice(f"homogenization replay failed at {bad}")

    report = []
    for p, w0, w1 in zip(params, ws, cur):
        loss = p.nor(w0) - p.nor(w1)
        if not (loss <= x + x):
            raise NotNice(f"{p.name}: norm loss {loss.approx()} exceeds budget")
        report.append({"start": p.nor(w0), "end": p.nor(w1), "loss": loss})
    return cur, value, report


def disjoint_successors(p, w1, w2, x):
    """Successors v1 of w1 and v2 of w2 with disjoint value sets, each
    losing at most x of norm.

    Strategy: shrink w1 to a small successor preferring points outside
    val(w2), then pigeonhole w2 over "outside v1" plus one class per shared
    point.  A single-point overlap is resolved by re-shrinking v1 around
    it.
    """
    x = lr(x)
    if p.val(w1).isdisjoint(p.val(w2)):
        return w1, w2
    half = x.scale(Fraction(1, 2))

    probe = p.small_successor(w1, half)
    if probe is None:
        raise NotDecisive(f"{p.name}: w1 has no small successor within {half.approx()}")
    k = p.val_size(probe)
    outside = sorted(p.val(w1) - p.val(w2))
    inside = sorted(p.val(w1) & p.val(w2))
    v1 = p.best_successor_within(w1, frozenset((outside + inside)[:k]))
    if v1 is None or p.nor(v1) < p.nor(w1) - half:
        v1 = probe

    shared = sorted(p.val(v1) & p.val(w2))
    if not shared:
        return v1, w2

    floor2 = p.nor(w2) - x  # w2 shrinks once, so it gets the whole budget
    out2 = p.val(w2) - p.val(v1)
    if out2:
        v2 = p.best_successor_within(w2, frozenset(out2))
        if v2 is not None and p.nor(v2) >= floor2:
            return v1, v2
    for t in shared:
        v2 = p.best_successor_within(w2, frozenset({t}))
        if v2 is None or p.nor(v2) < floor2:
            continue
        v1b = p.best_successor_within(v1, p.val(v1) - {t})
        if v1b is not None and p.nor(v1b) >= p.nor(w1) - x:
            return v1b, v2
    raise NotDecisive(f"{p.name}: no disjoint pair within {x.approx()}")
