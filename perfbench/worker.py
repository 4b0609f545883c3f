"""One pass over a workload's items, in the interpreter that runs it.

``run.py`` starts this file once per pass, so every pass begins with cold
salemrel caches, as a CLI user's process does; within a pass the caches
carry over from item to item.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The last line of standard output is the pass result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_salemrel() -> None:
    """Import salemrel from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "salemrel" / "__init__.py").is_file():
        raise SystemExit(f"error: no salemrel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import salemrel.cli
    if SRC not in Path(salemrel.cli.__file__).resolve().parents:
        raise SystemExit("error: salemrel was imported from outside the "
                         "checkout")


def check_output(item: workloads.Item, code, error, out: str) -> str | None:
    """Why the item failed, or None when its output passes the check."""
    if error is not None:
        return error
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
        if doc["command"] != item.argv[0]:
            return "output is for another command"
        fails = item.check(doc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return "; ".join(fails) if fails else None


def _cache_counts(before: dict) -> dict:
    from salemrel import cyclo, realroots
    sturm = realroots._sqf_and_chain.cache_info()
    cyc = cyclo.cyclotomic.cache_info()
    now = {"sturm_hits": sturm.hits, "sturm_misses": sturm.misses,
           "cyclotomic_builds": cyc.misses}
    return {key: value - before.get(key, 0) for key, value in now.items()}


def run_pass(items: list[workloads.Item], largest: str, traced: bool,
             dump_path: Path | None = None) -> dict:
    """Run the items in order and check their outputs after the timed loop.

    The untraced pass first asserts that no salemrel function is wrapped, so
    its timings are of the original code.
    """
    from salemrel import cli
    wrapped = tracer.find_wrapped()
    if wrapped:
        raise RuntimeError(f"trace wrappers left installed: {wrapped}")
    before = _cache_counts({})
    tr = tracer.Tracer() if traced else None
    outputs, latencies = [], []
    if tr is not None:
        tr.install()
    try:
        start = time.perf_counter()
        for index, item in enumerate(items):
            if tr is not None:
                tr.item = index
            out, err = io.StringIO(), io.StringIO()
            code = error = None
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.run(item.argv + ["--json"])
            except Exception as exc:  # an item that raises is a failed item
                error = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            outputs.append((code, error, out.getvalue()))
        wall = time.perf_counter() - start
    finally:
        if tr is not None:
            tr.uninstall()
    wrapped = tracer.find_wrapped()
    if wrapped:
        raise RuntimeError(f"trace wrappers not removed: {wrapped}")

    failures = []
    for item, (code, error, out) in zip(items, outputs):
        reason = check_output(item, code, error, out)
        if reason is not None:
            failures.append({"item": item.id, "reason": reason})
    result = {
        "wall_s": wall,
        "largest_item_s": latencies[[it.id for it in items].index(largest)],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures,
        "latencies": {it.id: t for it, t in zip(items, latencies)},
        "output_bytes": sum(len(out.encode()) for _, _, out in outputs),
        "caches": _cache_counts(before),
    }
    if tr is not None:
        result["self_s"] = dict(tr.self_s)
        result["counts"] = dict(tr.counts)
        if dump_path is not None:
            dump_path.parent.mkdir(parents=True, exist_ok=True)
            doc = tr.dump()
            doc["items"] = [it.id for it in items]
            with gzip.open(dump_path, "wt") as fh:
                json.dump(doc, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    import_salemrel()
    items, largest = workloads.build(args.workload, args.seed)
    setup_done = time.monotonic()
    if args.setup_only:
        result = {}
    else:
        dump = (OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
                if args.trace else None)
        result = run_pass(items, largest, bool(args.trace), dump)
    result["setup_done"] = setup_done
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
