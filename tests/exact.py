"""Exact rational oracle for the metrics and the paper's duplication identities.

Every value is a :class:`fractions.Fraction` taken from the definitions,
over the rows of a :class:`lxcim.Dataset` that :func:`samples` reads, and
the threshold ``s_star`` of the canonical spec ``make_abs_spec(s_star)``:
confidence ``|s - s_star|``, reflection ``2 s_star - s``.  A float converts
to a Fraction exactly, so no step rounds, and nothing here calls the
library's ranking or sweep.  ``float(value)`` rounds the result once.

A row is a ``(score, label, weight)`` triple of Fraction, int, Fraction.
"""

from fractions import Fraction
from itertools import groupby

HALF = Fraction(1, 2)


def samples(dataset):
    """The dataset's rows as exact ``(score, label, weight)`` triples."""
    return [
        (Fraction(s), int(y), Fraction(w))
        for s, y, w in zip(dataset.scores.tolist(), dataset.labels.tolist(), dataset.weights.tolist())
    ]


def _decisions(rows, s_star):
    """``(confidence, correct, weight)`` of each row, "predict 1 iff s > s_star"."""
    a = Fraction(s_star)
    return [(abs(s - a), (s > a) == (y == 1), w) for s, y, w in rows]


def _tie_groups(rows, s_star):
    """Equal-confidence groups by descending confidence, each in the canonical suborder.

    Within a group the wrong decisions come first, then the light ones: the
    order of the per-sample boundaries that AUDRC averages over.
    """
    decisions = sorted(_decisions(rows, s_star), key=lambda row: (row[1], row[2]))
    decisions.sort(key=lambda row: row[0], reverse=True)  # stable, so each group keeps that suborder
    groups = groupby(decisions, key=lambda row: row[0])
    return [[(correct, w) for _, correct, w in group] for _, group in groups]


def accuracy(rows, s_star=0.0):
    """Correct weight over total weight."""
    decisions = _decisions(rows, s_star)
    return sum(w for _, correct, w in decisions if correct) / sum(w for _, _, w in decisions)


def _boundaries(rows, s_star):
    """(admitted weight, correct weight) at 0 and after each tie group."""
    points = [(Fraction(0), Fraction(0))]
    for group in _tie_groups(rows, s_star):
        c, g = points[-1]
        points.append((c + sum(w for _, w in group), g + sum(w for correct, w in group if correct)))
    return points


def lxcim(rows, s_star=0.0):
    """Twice the area under G, which is linear across each tie group.

    With admitted weight c and correct weight g out of W, G(c / W) = g / W,
    and each group adds the trapezoid (c1 - c0) (g0 + g1) / (2 W^2).
    """
    points = _boundaries(rows, s_star)
    total = points[-1][0]
    area = sum((c1 - c0) * (g0 + g1) for (c0, g0), (c1, g1) in zip(points, points[1:]))
    return area / (total * total)


def audrc(rows, s_star=0.0):
    """Sum over samples j of (w_j / W) G(c_j) / c_j, c_j the boundary after sample j.

    G rises linearly across a tie group, at the group's correct share of its
    weight, and the samples of a group take their boundaries in the
    canonical suborder.
    """
    total = sum(w for _, _, w in rows)
    c = g = Fraction(0)
    area = Fraction(0)
    for group in _tie_groups(rows, s_star):
        slope = sum(w for correct, w in group if correct) / sum(w for _, w in group)
        for _, w in group:
            c += w
            g += slope * w
            area += w * g / c
    return area / total


def auroc(rows):
    """The weighted share of (positive, negative) pairs the positive wins, ties counting half.

    None when one class carries no weight.
    """
    # each class's weight per distinct score: the same sum over fewer pairs
    pos, neg = {}, {}
    for s, y, w in rows:
        side = pos if y == 1 else neg
        side[s] = side.get(s, 0) + w
    if not pos or not neg:
        return None
    won = sum(
        wp * wn * (1 if sp > sn else HALF if sp == sn else 0)
        for sp, wp in pos.items()
        for sn, wn in neg.items()
    )
    return won / (sum(pos.values()) * sum(neg.values()))


def duplicate(rows, s_star=0.0):
    """The rows of Ω: ``rows``, then each row reflected about ``s_star`` with its class exchanged.

    Only for data with no row at ``s_star``, where the exchange keeps the class.
    """
    a = Fraction(s_star)
    if any(s == a for s, _, _ in rows):
        raise ValueError("a row sits at s_star")
    return rows + [(2 * a - s, 1 - y, w) for s, y, w in rows]


def roc(rows):
    """ROC breakpoints (FPR, TPR) from (0, 0), one per distinct score, descending."""
    pos_total = sum(w for _, y, w in rows if y == 1)
    neg_total = sum(w for _, y, w in rows if y == 0)
    points = [(Fraction(0), Fraction(0))]
    tp = fp = Fraction(0)
    by_score = sorted(rows, key=lambda row: row[0], reverse=True)
    for _, group in groupby(by_score, key=lambda row: row[0]):
        for _, y, w in group:
            if y == 1:
                tp += w
            else:
                fp += w
        points.append((fp / neg_total, tp / pos_total))
    return points


def area_left_of(points, x_stop):
    """Area under the polyline through ``points`` from x = 0 to ``x_stop``."""
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 >= x_stop:
            break
        if x1 > x_stop:
            y1 = y0 + (x_stop - x0) * (y1 - y0) / (x1 - x0)
            x1 = x_stop
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def on_polyline(points, point):
    """Whether ``point`` lies on one of the segments between consecutive ``points``."""
    x, y = point
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        within = min(x0, x1) <= x <= max(x0, x1) and min(y0, y1) <= y <= max(y0, y1)
        if within and (x - x0) * (y1 - y0) == (y - y0) * (x1 - x0):
            return True
    return False
