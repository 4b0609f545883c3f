"""salemrel benchmark: end-to-end and per-layer metrics of CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over a workload's items runs in a
fresh interpreter (``worker.py``), one at a time, and passes repeat until S
seconds have gone; metrics are medians over the passes.  Set-up time is also
sampled by interpreters that only import salemrel and build the items.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes, plus the tracing overhead.  The
traced pass writes its spans and counts to ``perfbench/out``.

The last line of standard output is the result as JSON; the line before it
records the run: commit, Python, CPUs, seed, per-pass values and sample
counts.  A failed item is one that raises, exits non-zero or fails its
output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
DEADLINE_S = 165


class BenchError(Exception):
    pass


def _spawn(args: list[str]) -> tuple[dict, float]:
    """Run worker.py to completion; its result and its launch time."""
    env = dict(os.environ)
    env.pop("SALEMREL_THREADS", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def _percentile_note(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (None when there are too few samples for any)."""
    n = len(values)
    best = None
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            best = p
            break
    out = {"median": statistics.median(values), "samples": n,
           "percentile": best}
    if best is not None:
        ordered = sorted(values)
        out[f"p{best:g}"] = ordered[min(n - 1, int(n * best / 100))]
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def failed_frac(passes: list[dict]) -> float:
    """Items that failed over items attempted, across the passes."""
    return (sum(p["failed"] for p in passes)
            / sum(p["attempted"] for p in passes))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: counts of the first traced pass, median self
    times over the traced passes, and traced minus untraced median wall."""
    counts = traced[0]["counts"]
    caches = traced[0]["caches"]
    c = lambda key: counts.get(key, 0)  # noqa: E731
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (statistics.median(
            p["self_s"].get(layer, 0.0) for p in traced), "s")
        m[f"{layer}.calls"] = (c(f"{layer}.calls"), "count")
    lookups = caches["sturm_hits"] + caches["sturm_misses"]
    m.update({
        "polyarith.sign_at.calls": (c("polyarith.sign_at.calls"), "count"),
        "polyarith.div_exact.calls": (c("polyarith.div_exact"), "count"),
        "realroots.count_roots.calls": (c("realroots.count_roots"), "count"),
        "realroots.isolate_roots.calls": (c("realroots.isolate_roots"),
                                          "count"),
        "realroots.refine.calls": (c("realroots.refine"), "count"),
        "realroots.sturm_cache.lookups": (lookups, "count"),
        "realroots.sturm_cache.hit_ratio": (
            _ratio(caches["sturm_hits"], lookups), "ratio"),
        "cyclo.cyclotomic.builds": (caches["cyclotomic_builds"], "count"),
        "factorint.factor.calls": (c("factorint.factor"), "count"),
        "salemkit.salem_check.calls": (c("salemkit.salem_check"), "count"),
        "salemkit.salem_check.accept_ratio": (
            _ratio(c("salemkit.salem_check.accepted"),
                   c("salemkit.salem_check")), "ratio"),
        "salemkit.window.hits": (c("salemkit.window.hits"), "count"),
        "salemkit.window.isolations_per_hit": (
            _ratio(c("salemkit.window.isolations"),
                   c("salemkit.window.hits")), "ratio"),
        "relations.reports": (c("relations.reports"), "count"),
        "relations.certified_ratio": (
            _ratio(c("relations.certified"), c("relations.reports")),
            "ratio"),
        "cli.output_bytes": (traced[0]["output_bytes"], "bytes"),
        "trace.wall_s": (statistics.median(p["wall_s"] for p in traced), "s"),
        "trace.overhead_s": (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced), "s"),
    })
    return m


def end_to_end_metrics(untraced: list[dict], setups: list[float]) -> dict:
    med = lambda key: statistics.median(p[key] for p in untraced)  # noqa
    return {
        "wall_s": (med("wall_s"), "s"),
        "largest_item_s": (med("largest_item_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (med("peak_rss_mib"), "MiB"),
    }


def run(workload: str, seed: int, seconds: int, trace: bool):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        res, launched = _spawn(base + ["--setup-only"])
        setups.append(res["setup_done"] - launched)
    passes = {False: [], True: []}
    start = time.monotonic()
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        res, launched = _spawn(base + ["--trace", str(int(traced))])
        setups.append(res["setup_done"] - launched)
        passes[traced].append(res)
        elapsed = time.monotonic() - start
        # start another pass only if it should end within the time given
        mean = elapsed / (len(passes[False]) + len(passes[True]))
        if trace and not passes[True]:
            if elapsed + 2 * mean > DEADLINE_S:
                break
        elif elapsed + mean > seconds:
            break
    if trace and not passes[True]:
        raise BenchError("no time left for a traced pass")
    every = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if trace:
        metrics = layer_metrics(passes[True], passes[False])
        repeat = all(p["counts"] == passes[True][0]["counts"]
                     for p in passes[True])
    else:
        metrics = end_to_end_metrics(passes[False], setups)
        repeat = None
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "wall_s": _percentile_note([p["wall_s"] for p in passes[False]]),
        "largest_item_s": _percentile_note(
            [p["largest_item_s"] for p in passes[False]]),
        "setup_s": _percentile_note(setups),
        "failed_frac": failed_frac(every),
        "failures": [f for p in every for f in p["failures"]][:20],
        "traced_counts_repeat": repeat,
        "passes": [{k: v for k, v in p.items() if k != "failures"}
                   for p in every],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="salemrel benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "salemrel" / "__init__.py").is_file():
        print(f"error: no salemrel sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"record": record, "result": result},
                                       indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
