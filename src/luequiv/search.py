"""Multistart of monotone alignment passes over a coset context.

The engine is generic over a context providing ``splits`` (one entry per
cut of the objective), ``identity()`` and ``random_point(rng)`` (start
points) and three methods on a stack of B points, a (B, size) array:
``decompose(points, pairs=None) -> (f, pairs)`` (the objective of each
point, shape (B,), and what a pass needs from it: per cut, a (U, W) pair of
(B, .) arrays, refined from the pairs of the points the search came from,
or computed afresh at a start), ``sweep(points, pairs) -> points`` (one
alignment pass, a monotone local refinement) and ``project(points) ->
points`` (the nearest points of the coset).  Each race carries its starts'
stacked (points, f, pairs), so every point is decomposed once, and each
decomposition but a start's first is warm-started from the pairs of the
point before it.

Start r = 0 is the caller's ``start`` point, or the identity without one:
check_equivalence passes the local-eigenframe point (Kraus, PRL 104, 020504
(2010); equivalence._frame_point, from the W the witness gate formed) when
the frame witness did not verify on its own, and none when the one-site
marginals do not fix it.  Start r >= 1 is
a random point drawn from its own generator.

The budgets (``sweeps`` passes per start, ``restarts`` starts) and the
seed come from the equivalence.SearchConfig the caller validated.  The
search owns its two levels: an escaped start polishes toward
OBJECTIVE_POLISH (f bounds the sum of (sigma2/sigma1)^2 over the cuts from
above), and a start has escaped the bulk of the coset once f <=
ESCAPE_LEVEL_PER_CUT per cut.  Neither decides anything: the caller's
``accept`` alone stops the search.

Most starts leave the bulk, where every cut's realignment still has sigma2
close to sigma1, within a few passes; the rest crawl there for tens of
passes, whether or not they end at a solution.  So starts race: the starts
still above the escape level take a pass as one stacked evaluation, and a
start that falls to it runs passes alone (a stack of one) until the
objective reaches the polish target, the passes stall, or the pass budget
runs out, and ``accept`` is asked at the point where it ends.  A start
still in the bulk after ESCAPE_PASSES passes is dropped, so a start that
never escapes costs a fixed number of passes instead of a crawl.  There
are two rounds.  The first races STARTS_PER_ROUND starts, so an input one
of them decides pays for no more; when ``accept`` takes none of their
points, the second races every remaining start in one stack.  A
start's passes do not depend on its stack-mates (``sweep`` and
``decompose`` act row by row, and a lone descent's budget is its own), so
the stack changes no start's outcome beyond rounding; it pays the fixed
cost of each numpy call once for all of them.  An input first decided by a
start of the second round pays for the whole stack until a start escapes,
more than a second round of STARTS_PER_ROUND would cost; one decided
later, or not at all, pays less.

Alone, a start converges linearly, so its passes are Anderson-mixed (Walker
& Ni, SIAM J. Numer. Anal. 49, 1715 (2011)) over the last MIX_DEPTH outputs.
A mix is kept only when it lowers f; else the pass output is, with no history.

The caller's ``accept(point)`` is the search's one stop.  It returns a
falsy value to refuse a point and anything else, a certificate, to take
it; the search stops at the first point it takes and carries its
certificate.  check_equivalence certifies a point by its witness gate
alone, which can pass a point that stalled with cut ratios above
spectral.RANK_TOL on a noisy input and refuse one whose ratios are below
it, so no level of f stands in for the gate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .equivalence import SearchConfig

# a start whose objective is above this per cut is still in the bulk of the coset
ESCAPE_LEVEL_PER_CUT = 0.1
# an escaped start polishes toward this, so witnesses verify comfortably
OBJECTIVE_POLISH = 1e-20
ALIGN_STALL_REL = 1e-3
ALIGN_STALL_PATIENCE = 3
ESCAPE_PASSES = 20
STARTS_PER_ROUND = 3
MIX_DEPTH = 3


@dataclass
class SearchOutcome:
    point: np.ndarray
    objective: float
    history: list[tuple[int, float]] = field(default_factory=list)
    restarts_used: int = 0
    # what accept returned at the point it took; None when it took none
    certificate: object = None


def _mixed_step(ctx, history: list, f: float, pairs):
    """(point, f, pairs) of the projected Anderson mix of the (x_i, g_i = sweep
    of x_i) in history, when it lowers the objective below f; else None.

    The real weights sum to one and minimize |sum_i w_i (g_i - x_i)|.  The
    mix is decomposed from ``pairs``, those of the last x_i.
    """
    x, g = (np.array(a) for a in zip(*history))
    r = g - x
    try:
        w = np.linalg.solve((r.conj() @ r.T).real, np.ones(len(history)))
    except np.linalg.LinAlgError:
        return None
    mixed = ctx.project(((w / w.sum()) @ g)[np.newaxis])
    f_mixed, mixed_pairs = ctx.decompose(mixed, pairs)
    return (mixed, f_mixed, mixed_pairs) if f_mixed[0] < f else None


def _align_until_stall(
    ctx, point: np.ndarray, f: float, pairs, passes: int, trace: list[float]
) -> tuple[np.ndarray, float]:
    """Run mixed passes from a stack of one point until OBJECTIVE_POLISH, a
    stall or ``passes``; returns (point, f)."""
    history: list = []
    stall = 0
    for _ in range(passes):
        out = ctx.sweep(point, pairs)
        history = history[1 - MIX_DEPTH :] + [(point[0], out[0])]
        step = None
        if len(history) > 1:
            step = _mixed_step(ctx, history, f, pairs)
            history = history if step else []
        point, (f_new,), pairs = step or (out, *ctx.decompose(out, pairs))
        trace.append(f_new)
        if f_new <= OBJECTIVE_POLISH:
            return point, f_new
        if f - f_new <= ALIGN_STALL_REL * max(f, 1e-300):
            stall += 1
            if stall >= ALIGN_STALL_PATIENCE:
                return point, f_new
        else:
            stall = 0
        f = f_new
    return point, f


def _race(
    ctx,
    points: np.ndarray,
    passes: int,
    f_escape: float,
    trace: list[float],
    accept: Callable[[np.ndarray], object],
) -> tuple[np.ndarray, float, object]:
    """Race the stacked starts until ``accept`` takes a point; returns the
    best (point, f) and None, or the taken point, its f and its certificate.

    Each round, every start above f_escape takes a pass, all of them in one
    ``sweep`` and one ``decompose`` call.  A start that falls to it leaves
    the race and runs passes alone until OBJECTIVE_POLISH, a stall or the
    pass budget; the race ends when ``accept`` takes the point that start
    ends at, and goes on with the others when it does not.  A start still
    above f_escape after ESCAPE_PASSES passes is dropped.
    """
    f, pairs = ctx.decompose(points)
    best = (points[np.argmin(f)], np.min(f))
    done = 0
    while True:
        escaped = f <= f_escape
        for i in np.flatnonzero(escaped):
            alone = [(u[i : i + 1], w[i : i + 1]) for u, w in pairs]
            point, f_alone = _align_until_stall(
                ctx, points[i : i + 1], f[i], alone, passes - done, trace
            )
            certificate = accept(point[0])
            if certificate:
                return point[0], f_alone, certificate
            if f_alone < best[1]:
                best = (point[0], f_alone)
        racing = np.flatnonzero(~escaped)
        if not racing.size or done >= min(passes, ESCAPE_PASSES):
            return (*best, None)
        pairs = [(u[racing], w[racing]) for u, w in pairs]
        points = ctx.sweep(points[racing], pairs)
        f, pairs = ctx.decompose(points, pairs)
        trace.extend(f.tolist())
        i = np.argmin(f)
        if f[i] < best[1]:
            best = (points[i], f[i])
        done += 1


def run_search(
    ctx,
    config: SearchConfig,
    *,
    accept: Callable[[np.ndarray], object],
    start: np.ndarray | None = None,
) -> SearchOutcome:
    """Race config.restarts starts until ``accept`` takes a point: the first
    STARTS_PER_ROUND, then, unless it took one of theirs, all the others as
    one stack.

    Each start may run config.sweeps alignment passes.  ``start`` replaces
    the identity as start 0.  ``accept`` is asked at the point where each
    lone descent ends; the search stops at the first point it takes and
    returns it with its certificate.  The result is deterministic for a
    given config.seed: start r draws from its own generator, and when
    ``accept`` takes no point the lowest objective wins, the first reached
    breaking ties.
    """
    f_escape = ESCAPE_LEVEL_PER_CUT * len(ctx.splits)
    trace: list[float] = []
    best_point, best_f, certificate = None, np.inf, None
    start = ctx.identity() if start is None else start
    used, restarts = 0, config.restarts
    for rs in (range(min(STARTS_PER_ROUND, restarts)), range(STARTS_PER_ROUND, restarts)):
        if not rs:
            break
        used = rs.stop
        starts = [
            start if r == 0 else ctx.random_point(np.random.default_rng([config.seed, r]))
            for r in rs
        ]
        point, f, certificate = _race(ctx, np.array(starts), config.sweeps, f_escape, trace, accept)
        if certificate or f < best_f:
            best_point, best_f = point, f
        if certificate:
            break
    return SearchOutcome(
        point=best_point,
        objective=float(best_f),
        history=[(i, float(f)) for i, f in enumerate(trace)],
        restarts_used=used,
        certificate=certificate,
    )
