"""Seeded corpora for the four verdict-class workloads, and the independent
verdict checks.

Pairs are built through luequiv's public API only.  Each workload is a
round-robin cycle of pair classes; the corpus is that cycle repeated, so a
run that stops on a cycle boundary has always checked every class equally
often.  Verdicts are checked here with plain numpy, without calling back into
the library under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# check's machine contract (README): exit code of each status
EXIT_CODES = {
    "EQUIVALENT": 0,
    "INEQUIVALENT_SPECTRUM": 2,
    "NOT_FOUND": 3,
    "DEGENERATE_UNSUPPORTED": 4,
}
# luequiv's default witness tolerance, relative to max(1, ||rho||_F)
WITNESS_TOL = 1e-8
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """A cycle of (kind, dims) pair classes and how many cycles to build.

    ``trace_cycles`` cycles make the fixed pass the traced run repeats, so
    its per-check counts are the same on every run of one seed.
    ``check_args`` are added to every ``check`` call of the workload.
    ``burst`` names the host-speed burst (hostspeed.BURSTS) that check times
    are scaled by: the one whose work is most like the workload's.
    """

    name: str
    cycle: tuple[tuple[str, tuple[int, ...]], ...]
    corpus_cycles: int
    trace_cycles: int
    check_args: tuple[str, ...] = ()
    burst: str = "python"


WORKLOADS = {
    w.name: w
    for w in (
        # the common case: alignment pass and seeding, little line search
        Workload(
            "planted",
            (("planted", (2, 2, 2)), ("planted", (2, 3)),
             ("planted", (2, 2, 3)), ("planted", (2, 2, 2, 2))),
            corpus_cycles=64,
            trace_cycles=24,
        ),
        # the only workload that runs BlockContext and its U(2) angles.
        # (2,2) plants are left out: 1 of 158 tried was missed by the block
        # search after ~40 s at the default budget (README.md), which no
        # run of a few hundred checks can average out
        Workload(
            "degenerate",
            (("degenerate", (2, 2, 2)),),
            corpus_cycles=256,
            trace_cycles=32,
        ),
        # every restart runs and fails: line search dominates.  Haar-rotated
        # partners fall to reduced-spectrum invariants; rho* partners do not.
        # At the default 200 sweeps a few restarts crawl to the cap and one
        # pair can cost 11 s instead of ~1.2 s (README.md); 20 sweeps keep
        # all 20 restarts while bounding that tail
        Workload(
            "not_found",
            (("haar_rotated", (2, 2, 2)), ("conjugate", (2, 2, 2))),
            corpus_cycles=16,
            trace_cycles=3,
            check_args=("--sweeps", "20"),
        ),
        # the only workload where SVD size, not Python overhead, sets the cost;
        # its time tracks the memory-bound svd burst, not the python one
        Workload(
            "large",
            (("large", (4, 4, 4)), ("large", (2, 2, 2, 2, 2, 2)),
             ("large", (2, 2, 2, 2, 2, 2))),
            corpus_cycles=6,
            trace_cycles=2,
            burst="svd",
        ),
    )
}


@dataclass
class Pair:
    index: int
    kind: str
    dims: tuple[int, ...]
    seed: int
    rho: np.ndarray
    rho_prime: np.ndarray
    planted: bool
    path_a: str = ""
    path_b: str = ""
    check_args: tuple[str, ...] = ()


def _spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """Descending eigenvalues summing to 1, adjacent gaps >= 1/(n^2 (n+1)).

    A ramp keeps the spectrum far from the degeneracy threshold at every
    size (luequiv's own generator fixes an absolute gap that D = 64 cannot
    fit).
    """
    raw = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    lam = raw + np.linspace(1.0, 0.0, n) / n
    return lam / lam.sum()


def make_pair(lu, kind: str, dims: tuple[int, ...], seed: int, index: int) -> Pair:
    """One pair of the given kind on ``dims``, drawn from ``seed``."""
    profile = lu.DimProfile(dims)
    if kind == "planted":
        s = lu.make_equivalent_pair(profile, seed)
        a, b = s.rho.matrix, s.rho_prime.matrix
    elif kind == "degenerate":
        s = lu.make_degenerate_pair(profile, seed)
        a, b = s.rho.matrix, s.rho_prime.matrix
    else:
        rng = np.random.default_rng([seed, 0xBE7C])
        lam = _spectrum(profile.total, rng)
        a = lu.random_density(profile, lam, rng).matrix
        if kind == "large":
            w = lu.kron_all([lu.haar_unitary(d, rng) for d in dims])
            b = w @ a @ w.conj().T
            b = (b + b.conj().T) / 2.0
        elif kind == "haar_rotated":
            b = lu.random_density(profile, lam, rng).matrix
        elif kind == "conjugate":
            b = a.conj()
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
    return Pair(index, kind, dims, seed, a, b, planted=kind in ("planted", "degenerate", "large"))


def build_corpus(lu, workload: Workload, seed: int, cycles: int, out_dir: str) -> list[Pair]:
    """Generate ``cycles`` cycles of pairs from ``seed`` and write their files."""
    seeds = np.random.default_rng([seed, 0xC0A5]).integers(
        0, 2**31 - 1, size=cycles * len(workload.cycle)
    )
    os.makedirs(out_dir, exist_ok=True)
    pairs = []
    for i, s in enumerate(seeds):
        kind, dims = workload.cycle[i % len(workload.cycle)]
        p = make_pair(lu, kind, dims, int(s), i)
        p.path_a = os.path.join(out_dir, f"p{i:04d}_a.json")
        p.path_b = os.path.join(out_dir, f"p{i:04d}_b.json")
        p.check_args = workload.check_args
        lu.save_matrix(p.path_a, p.rho, dims=dims)
        lu.save_matrix(p.path_b, p.rho_prime, dims=dims)
        pairs.append(p)
    return pairs


def _kron(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def _witness_error(pair: Pair, witness) -> str | None:
    """Re-verify an EQUIVALENT witness from the emitted JSON; None when it holds."""
    if not isinstance(witness, dict) or not isinstance(witness.get("factors"), list):
        return "EQUIVALENT without witness factors"
    factors = []
    for f, d in zip(witness["factors"], pair.dims):
        data = np.array(f["data"], dtype=float)
        u = (data[:, 0] + 1j * data[:, 1]).reshape(f["shape"])
        if u.shape != (d, d):
            return f"witness factor shape {u.shape} != ({d}, {d})"
        defect = np.linalg.norm(u.conj().T @ u - np.eye(d))
        if defect > UNITARY_TOL:
            return f"witness factor is not unitary (defect {defect:.3e})"
        factors.append(u)
    if len(factors) != len(pair.dims):
        return f"witness has {len(factors)} factors for {len(pair.dims)} sites"
    w = _kron(factors)
    residual = np.linalg.norm(w @ pair.rho @ w.conj().T - pair.rho_prime)
    tol = WITNESS_TOL * max(1.0, float(np.linalg.norm(pair.rho)))
    if not residual <= tol:
        return f"witness residual {residual:.3e} > {tol:.1e}"
    return None


def judge(pair: Pair, code, stdout: str) -> tuple[bool, str | None]:
    """(verified, failure) for one check's exit code and captured stdout.

    verified: an EQUIVALENT whose witness holds.  failure: an exception, an
    exit code that disagrees with the status, a witness that does not hold,
    or a conclusive negative on a pair whose construction rules it out (all
    corpus pairs are planted or have equal spectra).
    """
    if isinstance(code, BaseException):
        return False, f"raised {type(code).__name__}: {code}"
    try:
        doc = json.loads(stdout)
        status = doc["status"]
    except (ValueError, KeyError, TypeError):
        return False, f"exit {code} with unparsable output {stdout[:200]!r}"
    if status not in EXIT_CODES:
        return False, f"unrecognised status {status!r}"
    if code != EXIT_CODES[status]:
        return False, f"exit code {code} for status {status}"
    if status == "EQUIVALENT":
        err = _witness_error(pair, doc.get("witness"))
        return err is None, err
    if status == "INEQUIVALENT_SPECTRUM":
        return False, "conclusive negative on a pair with equal spectra by construction"
    return False, None
