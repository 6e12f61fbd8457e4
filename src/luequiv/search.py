"""Coordinate-descent minimization over periodic (torus) parameter vectors.

The engine is generic over an objective context providing
``eval_full(params) -> float`` and ``eval_coord_batch(params, j, values) ->
array``; a context may also provide ``align_pass(params) -> (params, f)``, a
monotone local refinement step that the engine interleaves with the sweeps.

Stages: discrete seeding on the quarter-turn lattice {0, pi/2, pi, 3pi/2},
cyclic coordinate descent with a grid + golden-section line minimization on
each coordinate's circle, and multistart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
QUARTER_TURNS = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
GRID_POINTS = 16
INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
STALL_PATIENCE = 6
STALL_REL = 3e-3
ALIGN_MAX_ITERS = 300
ALIGN_STALL_REL = 1e-3


@dataclass
class SearchOutcome:
    success: bool
    params: np.ndarray
    objective: float
    history: list[tuple[int, float]] = field(default_factory=list)
    restarts_used: int = 0


def _golden_section(g, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Minimize g on [lo, hi] assuming a bracketed interior minimum."""
    a, b = lo, hi
    h = b - a
    c = b - INVPHI * h
    d = a + INVPHI * h
    gc, gd = g(c), g(d)
    while h > xtol:
        if gc < gd:
            b, d, gd = d, c, gc
            h = b - a
            c = b - INVPHI * h
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            h = b - a
            d = a + INVPHI * h
            gd = g(d)
    return (c, gc) if gc < gd else (d, gd)


def _minimize_coordinate(ctx, params: np.ndarray, j: int, f_cur: float) -> float:
    """Line-minimize coordinate j on its circle; mutates params in place."""
    grid = np.linspace(0.0, TWO_PI, GRID_POINTS, endpoint=False)
    values = np.concatenate([grid, [params[j] % TWO_PI]])
    fs = ctx.eval_coord_batch(params, j, values)
    best = int(np.argmin(fs))
    x0, f0 = float(values[best]), float(fs[best])
    half = TWO_PI / GRID_POINTS
    # refine around the grid winner; tolerance tightens as f approaches zero
    xtol = float(np.clip(0.05 * np.sqrt(max(f0, 0.0)), 1e-9, 0.05))

    def g(x: float) -> float:
        return float(ctx.eval_coord_batch(params, j, np.array([x]))[0])

    x_ref, f_ref = _golden_section(g, x0 - half, x0 + half, xtol)
    if f_ref < f0:
        x0, f0 = x_ref, f_ref
    if f0 < f_cur:
        params[j] = x0 % TWO_PI
        return f0
    return f_cur


def _align_until_stall(
    ctx, params: np.ndarray, f: float, f_target: float
) -> tuple[np.ndarray, float]:
    """Run the context's monotone refinement until it converges or stalls."""
    stall = 0
    for _ in range(ALIGN_MAX_ITERS):
        params, f_new = ctx.align_pass(params)
        if f_new <= f_target:
            return params, f_new
        if f - f_new <= ALIGN_STALL_REL * max(f, 1e-300):
            stall += 1
            if stall >= 3:
                return params, f_new
        else:
            stall = 0
        f = f_new
    return params, f


def coordinate_descent(
    ctx,
    start: np.ndarray,
    free: np.ndarray,
    sweeps: int,
    f_target: float,
) -> tuple[np.ndarray, float, list[float]]:
    """Descend from one start; returns (params, f, per-sweep objective trace)."""
    params = np.array(start, dtype=float) % TWO_PI
    f = float(ctx.eval_full(params))
    trace = [f]
    stall = 0
    has_align = hasattr(ctx, "align_pass")
    for _ in range(sweeps):
        f_before = f
        if has_align:
            params, f = _align_until_stall(ctx, params, f, f_target)
            if f <= f_target:
                trace.append(f)
                break
        for j in free:
            f = _minimize_coordinate(ctx, params, int(j), f)
        trace.append(f)
        if f <= f_target:
            break
        if f_before - f <= STALL_REL * max(f, 1e-18):
            stall += 1
            if stall >= STALL_PATIENCE:
                break
        else:
            stall = 0
    return params, f, trace


def _greedy_quarter_pass(ctx, start: np.ndarray, free: np.ndarray) -> np.ndarray:
    """One in-order pass picking the best quarter-turn per coordinate."""
    params = np.array(start, dtype=float)
    for j in free:
        fs = ctx.eval_coord_batch(params, int(j), QUARTER_TURNS)
        params[j] = QUARTER_TURNS[int(np.argmin(fs))]
    return params


def discrete_seeds(ctx, n_params: int, free: np.ndarray, n_seeds: int, rng) -> list[np.ndarray]:
    """Quarter-turn lattice seeds: zeros, a greedy guided pass, then random."""
    seeds = [np.zeros(n_params)]
    if n_seeds > 1:
        seeds.append(_greedy_quarter_pass(ctx, np.zeros(n_params), free))
    while len(seeds) < n_seeds:
        s = np.zeros(n_params)
        s[free] = rng.choice(QUARTER_TURNS, size=free.size)
        seeds.append(s)
    return seeds


def run_search(
    ctx,
    n_params: int,
    *,
    free: np.ndarray | None = None,
    n_seeds: int = 64,
    sweeps: int = 200,
    restarts: int = 20,
    f_target: float = 1e-20,
    f_success: float | None = None,
    seed: int = 0,
) -> SearchOutcome:
    """Seed, descend, and restart until the objective drops below f_success.

    f_target is the polish level each restart descends toward; f_success
    (>= f_target) is the level at which the search stops launching restarts
    and declares success.  The result is deterministic for a given seed:
    restart r draws from its own generator, and without a success the best
    objective wins with the lowest index breaking ties.
    """
    if free is None:
        free = np.arange(1, n_params)
    if f_success is None:
        f_success = f_target
    f_success = max(f_success, f_target)
    rng = np.random.default_rng([seed, 0x5EED])
    seeds = discrete_seeds(ctx, n_params, free, n_seeds, rng)
    seed_f = np.array([ctx.eval_full(s) for s in seeds])
    order = np.argsort(seed_f, kind="stable")
    ranked = [seeds[int(i)] for i in order]

    def start_point(r: int) -> np.ndarray:
        # alternate between the best discrete seeds and fresh random points
        if r % 2 == 0 and r // 2 < len(ranked):
            return ranked[r // 2]
        p = np.zeros(n_params)
        p[free] = np.random.default_rng([seed, r]).uniform(0.0, TWO_PI, size=free.size)
        return p

    results = []
    for r in range(max(1, restarts)):
        results.append(coordinate_descent(ctx, start_point(r), free, sweeps, f_target))
        if results[-1][1] <= f_success:
            break

    # only the last restart can be a success; otherwise the best objective
    # wins, and min keeps the lowest restart index among ties
    best_params, best_f, _ = min(results, key=lambda item: item[1])
    history: list[tuple[int, float]] = []
    step = 0
    for _, _, trace in results:
        for f in trace:
            history.append((step, float(f)))
            step += 1
    return SearchOutcome(
        success=bool(best_f <= f_success),
        params=best_params % TWO_PI,
        objective=float(best_f),
        history=history,
        restarts_used=len(results),
    )
