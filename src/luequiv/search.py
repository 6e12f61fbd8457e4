"""Multistart of monotone alignment passes over a coset context.

The engine is generic over a context providing ``identity()`` and
``random_point(rng)`` (start points), ``eval_full(point) -> float`` and
``align_pass(point) -> (point, f)``, a monotone local refinement step.

Start r = 0 is the identity; start r >= 1 is a random point drawn from its
own generator.  Most starts leave the bulk of the coset, where every cut's
realignment still has sigma2 close to sigma1, within a few passes; the rest
crawl there for tens of passes, whether or not they end at a solution.  So
starts race STARTS_PER_ROUND at a time: each start still above the escape
level takes a pass in turn, and a start that falls to it runs passes alone
until the objective reaches the polish target, the passes stall, or the pass
budget runs out.  A start still in the bulk after ESCAPE_PASSES passes is
dropped.  A search then costs about one fast start per round, and a start
that never escapes costs a fixed number of passes instead of a crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALIGN_STALL_REL = 1e-3
ALIGN_STALL_PATIENCE = 3
ESCAPE_PASSES = 20
STARTS_PER_ROUND = 3


@dataclass
class SearchOutcome:
    success: bool
    point: np.ndarray
    objective: float
    history: list[tuple[int, float]] = field(default_factory=list)
    restarts_used: int = 0


def _align_until_stall(
    ctx, point: np.ndarray, passes: int, f_target: float, trace: list[float]
) -> tuple[np.ndarray, float]:
    """Run alignment passes until the target, a stall or ``passes``; returns (point, f)."""
    f = ctx.eval_full(point)
    stall = 0
    for _ in range(passes):
        point, f_new = ctx.align_pass(point)
        trace.append(f_new)
        if f_new <= f_target:
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
    starts: list[np.ndarray],
    passes: int,
    f_escape: float,
    f_target: float,
    f_success: float,
    trace: list[float],
) -> tuple[np.ndarray, float]:
    """Race the starts until one reaches f_success; returns the best (point, f).

    Each round, every start above f_escape takes a pass.  A start that falls
    to it leaves the race and runs passes alone until the polish target, a
    stall or the pass budget; the race ends when that start reaches
    f_success, and goes on with the others when it does not.  A start still
    above f_escape after ESCAPE_PASSES passes is dropped.
    """
    live = [(p, ctx.eval_full(p)) for p in starts]
    best = min(live, key=lambda item: item[1])
    done = 0
    while True:
        racing = []
        for point, f in live:
            if f <= f_escape:
                point, f = _align_until_stall(ctx, point, passes - done, f_target, trace)
                if f < best[1]:
                    best = (point, f)
                if f <= f_success:
                    return best
            else:
                racing.append(point)
        if not racing or done >= min(passes, ESCAPE_PASSES):
            return best
        live = [ctx.align_pass(point) for point in racing]
        trace.extend(f for _, f in live)
        best = min([best, *live], key=lambda item: item[1])
        done += 1


def run_search(
    ctx,
    *,
    passes: int,
    restarts: int,
    f_escape: float,
    f_target: float,
    f_success: float,
    seed: int = 0,
) -> SearchOutcome:
    """Race starts, STARTS_PER_ROUND at a time, until the objective drops below f_success.

    ``restarts`` is the number of starts and ``passes`` the alignment passes
    each may run.  f_escape is the level below which a start has left the
    bulk, f_target the polish level an escaped start descends toward, and
    f_success (>= f_target) the level at which the search stops and declares
    success.  The result is deterministic for a given seed:
    start r draws from its own generator, and without a success the lowest
    objective wins, the earliest start breaking ties.
    """
    f_success = max(f_success, f_target)
    n = max(1, restarts)
    trace: list[float] = []
    best_point, best_f = None, np.inf
    used = 0
    for first in range(0, n, STARTS_PER_ROUND):
        rs = range(first, min(first + STARTS_PER_ROUND, n))
        used += len(rs)
        starts = [
            ctx.identity() if r == 0 else ctx.random_point(np.random.default_rng([seed, r]))
            for r in rs
        ]
        point, f = _race(ctx, starts, passes, f_escape, f_target, f_success, trace)
        if f < best_f:
            best_point, best_f = point, f
        if best_f <= f_success:
            break
    return SearchOutcome(
        success=bool(best_f <= f_success),
        point=best_point,
        objective=float(best_f),
        history=[(i, float(f)) for i, f in enumerate(trace)],
        restarts_used=used,
    )
