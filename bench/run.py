"""Whole-``check`` benchmark: one client, closed loop, one process.

    python3 bench/run.py --workload planted --seed 1 --seconds 20 --trace 0

Each timed operation is the in-process call
``luequiv.cli.main(["check", a.json, b.json, "--json", "--seed", s])`` with
stdout captured: matrix-file parsing, the whole pipeline and JSON emission,
without interpreter start-up.  Every verdict is then checked independently
(see workloads.judge).  ``--trace 0`` prints the end-to-end metrics of an
untraced run; ``--trace 1`` prints per-layer metrics from a traced run of a
fixed pass over the corpus, and the tracing overhead measured against an
untraced run of the same checks.  The last line of stdout is one JSON
object; earlier lines are a readable report.  README.md documents the
workloads and every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# pin BLAS before numpy loads: one thread, like the single client it serves
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
WINDOW_S = 1.0

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """luequiv from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import luequiv
        import luequiv.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import luequiv from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(luequiv.__file__))) != SRC:
        sys.exit(f"error: imported luequiv from {luequiv.__file__}, not from {SRC}")
    return luequiv, luequiv.cli


def run_check(cli, pair, tracer=None, check_id=0, probe=None):
    """One timed ``check``: (seconds, exit code or exception, stdout).

    With a ``probe``, host-speed bursts run during the check, and the
    seconds exclude them.
    """
    argv = ["check", pair.path_a, pair.path_b, "--json", "--seed", str(pair.seed)]
    argv += pair.check_args
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        root = tracer.check(check_id) if tracer else contextlib.nullcontext()
        bursts = probe.armed() if probe else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with bursts, root:
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a check that raises is a failed check
            code = exc
        dt = time.perf_counter() - t0 - (probe.burst_s if probe else 0.0)
    return dt, code, out.getvalue()


class Tally:
    """Verdict bookkeeping over every check a run makes."""

    def __init__(self):
        self.attempted = 0
        self.planted = 0
        self.verified = 0
        self.failures: list[str] = []

    def add(self, pair, code, stdout) -> None:
        verified, failure = workloads.judge(pair, code, stdout)
        self.attempted += 1
        self.planted += pair.planted
        self.verified += verified
        if failure is not None:
            self.failures.append(f"pair {pair.index} ({pair.kind} {pair.dims}): {failure}")


def setup(lu, cli, workload, seed, tally, tag):
    """Build the corpus SETUP_REPS times, each followed by a warm-up check.

    Returns (pairs of the last build, per-build seconds, per-build host
    slowdowns).  The warm-up is one check of a planted (2,2,2) pair, the
    cheapest call that runs every stage of the pipeline; its verdict is
    checked but not timed.  Set-up is Python work on every workload,
    ``large`` included, so python bursts run during each build.
    """
    warm = workloads.WORKLOADS["planted"]
    probe = hostspeed.Probe("python")
    times, slowdowns = [], []
    pairs = []
    for rep in range(SETUP_REPS):
        out_dir = os.path.join(WORK, tag, f"setup{rep}")
        t0 = time.perf_counter()
        with probe.armed():
            pairs = workloads.build_corpus(lu, workload, seed, workload.corpus_cycles, out_dir)
            warm_dir = os.path.join(out_dir, "warm")
            warm_pair = workloads.build_corpus(lu, warm, seed, 1, warm_dir)[0]
            _, code, stdout = run_check(cli, warm_pair)
        times.append(time.perf_counter() - t0 - probe.burst_s)
        slowdowns.append(probe.slowdown())
        tally.add(warm_pair, code, stdout)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(out_dir)
    return pairs, times, slowdowns


def run_untraced(cli, workload, pairs, seconds, tally):
    """Closed loop over the corpus until ``seconds`` pass, ending on a cycle.

    Host-speed bursts of the workload's kind run during each check, and
    each check's time is divided by the slowdown they measured.  Checks are
    grouped into windows of whole cycles, each closed at the first cycle end
    after WINDOW_S.  Throughput is the median over windows, so a slow spell
    of the host moves a few windows, not the run's figure.
    """
    cycle = len(workload.cycle)
    probe = hostspeed.Probe(workload.burst)
    results, windows, raw, slowdowns = [], [], [], []
    window = []
    t0 = t_window = time.perf_counter()
    i = 0
    while True:
        pair = pairs[i % len(pairs)]
        dt, code, stdout = run_check(cli, pair, probe=probe)
        slowdowns.append(probe.slowdown())
        results.append((pair, code, stdout))
        raw.append(dt)
        window.append(dt / slowdowns[-1])
        i += 1
        if i % cycle:
            continue
        now = time.perf_counter()
        done = now - t0 >= seconds
        if now - t_window >= WINDOW_S or done:
            windows.append(window)
            window = []
            t_window = now
        if done:
            break
    wall = time.perf_counter() - t0
    before = (tally.planted, tally.verified, len(tally.failures))
    for pair, code, stdout in results:
        tally.add(pair, code, stdout)
    planted = tally.planted - before[0]
    verified = tally.verified - before[1]
    failed = len(tally.failures) - before[2]
    n = len(results)
    # not_found has no planted pair: there every check counts unless it failed
    verified_frac = verified / planted if planted else (n - failed) / n

    rates = [len(w) / sum(w) for w in windows]
    raw_ms = np.array(raw) * 1e3
    ms = np.array([t for w in windows for t in w]) * 1e3
    print(
        f"# untraced: checks={n} cycles={n // cycle} wall_s={wall:.3f} windows={len(windows)} "
        f"raw: pairs_per_s={n / sum(raw):.4f} p50_ms={np.median(raw_ms):.3f} "
        f"p90_ms={np.percentile(raw_ms, 90):.3f} max_ms={raw_ms.max():.3f}"
        + ("" if n >= 100 else " (p90 from fewer than 100 checks)")
    )
    print(
        f"# host slowdown per check ({workload.burst} burst): "
        f"median={statistics.median(slowdowns):.3f} "
        f"min={min(slowdowns):.3f} max={max(slowdowns):.3f}"
    )
    print(f"# verdicts: verified={verified}/{planted} planted checks")
    return {
        "pairs_per_s": (statistics.median(rates), "1/s"),
        "check_p50_ms": (float(np.median(ms)), "ms"),
        "check_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "verified_frac": (verified_frac, "ratio"),
    }


def run_traced(cli, workload, pairs, seconds, tally, tracer):
    """Whole passes over the trace pass, each check traced and untraced.

    Which of the two runs first alternates from check to check.  Passes
    repeat while the next one is expected to fit in ``seconds``.
    """
    trace_pairs = pairs[: workload.trace_cycles * len(workload.cycle)]
    traced_s = untraced_s = 0.0
    checks = 0
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for pair in trace_pairs:
            outputs = {}
            for traced in (checks % 2 == 1, checks % 2 == 0):
                if traced:
                    with tracer.installed():
                        dt, code, stdout = run_check(cli, pair, tracer, checks)
                    traced_s += dt
                else:
                    dt, code, stdout = run_check(cli, pair)
                    untraced_s += dt
                tally.add(pair, code, stdout)
                outputs[traced] = stdout
            if outputs[True] != outputs[False]:
                tally.failures.append(f"pair {pair.index}: traced and untraced verdicts differ")
            checks += 1
        now = time.perf_counter()
        if now - t0 + (now - t_pass) > seconds:
            break
    overhead = (traced_s - untraced_s) / untraced_s
    print(
        f"# traced: checks={checks} passes={checks // len(trace_pairs)} "
        f"traced_s={traced_s:.3f} untraced_s={untraced_s:.3f}"
    )
    return checks, traced_s, overhead


def host_line() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"# host: nproc={os.cpu_count()} machine={platform.machine()} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={BLAS_THREADS}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    lu, cli = import_library()
    import_s = time.perf_counter() - T_START
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    tally = Tally()
    print(host_line())
    try:
        pairs, setup_times, setup_slow = setup(lu, cli, workload, args.seed, tally, tag)
        setup_s = statistics.median(
            (import_s + t) / slow for t, slow in zip(setup_times, setup_slow)
        )
        print(
            f"# workload={args.workload} seed={args.seed} corpus={len(pairs)} pairs "
            f"import_s={import_s:.4f} setup_builds_s={[round(t, 4) for t in setup_times]} "
            f"host_slowdowns={[round(x, 3) for x in setup_slow]}"
        )
        if args.trace:
            tracer = tracing.Tracer()
            checks, traced_s, overhead = run_traced(
                cli, workload, pairs, args.seconds, tally, tracer
            )
            totals = tracer.layer_totals()
            self_sum = sum(t["self_s"] for t in totals.values())
            print(f"# layer self times sum to {self_sum:.4f} s of {traced_s:.4f} s traced")
            for layer in tracer.absent:
                print(f"# absent: {layer} (no such target; reported as 0)")
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json.gz"))
            metrics = tracing.layer_metrics(totals, checks, overhead)
        else:
            metrics = run_untraced(cli, workload, pairs, args.seconds, tally)
            metrics["setup_s"] = (setup_s, "s")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(os.path.join(WORK, tag), ignore_errors=True)

    failed = len(tally.failures)
    print(f"# failed_frac={failed / tally.attempted:.6g} ({failed}/{tally.attempted} checks)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    if failed:
        for line in tally.failures[:20]:
            print(f"FAIL workload={args.workload} seed={args.seed}: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
