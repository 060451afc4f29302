#!/usr/bin/env python3
"""tritile benchmark: one workload, one process, one thread, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Each operation waits for the previous one.  The run repeats rounds, each
running every operation of the workload's pool once (see ``workloads.py``),
for about ``--seconds`` and at least two rounds.  A fixed reference loop is
timed between operations, and each operation's time is scaled to a host on
which that loop takes ``REFERENCE_S``; its latency is the best of its scaled
repeats.  The run then checks every answer outside the timed region and
prints one JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one round
untraced and one traced, and reports the per-layer metrics.  A full record
with provenance is written to ``.bench_results/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
RESULTS = ROOT / ".bench_results"
DEFAULT_SEED = 0
# Set-up is measured SETUP_FIRST times before the timed region and
# SETUP_BETWEEN times after each round, so its samples span the run.
SETUP_FIRST = 3
SETUP_BETWEEN = 2
MIN_ROUNDS = 2
# Latencies are reported on a host where ``reference_work`` takes this long.
REFERENCE_S = 0.001

# Set-up as a user pays it: a fresh interpreter, ``import tritile`` and the
# generation of the workload's hosts.
SETUP_PROBE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)


class Record:
    __slots__ = ("op", "round", "pass_index", "traced", "out", "seconds", "ref", "status",
                 "digest")

    def __init__(self, op, round, pass_index, traced, out, seconds, ref, status):
        self.op = op
        self.round = round
        self.pass_index = pass_index
        self.traced = traced
        self.out = out
        self.seconds = seconds
        self.ref = ref
        self.status = status
        self.digest = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="run one round, check it, and record its pass digests in pins.json")
    return ap.parse_args(argv)


def import_program():
    """Import tritile from this checkout's sources, never from elsewhere."""
    if not (SRC / "tritile" / "__init__.py").is_file():
        raise SystemExit(f"error: no tritile sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tritile

    if Path(tritile.__file__).resolve().parent != (SRC / "tritile").resolve():
        raise SystemExit(f"error: imported tritile from {tritile.__file__}, not {SRC}")
    return tritile


def measure_setup(workload, seed, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), workload, str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def reference_work():
    """A fixed piece of pure-Python work that shares no code with tritile:
    bitmask sets over combinations, then Fraction sums."""
    seen = set()
    bits = 0
    for combo in itertools.combinations(range(13), 4):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if mask not in seen:
            seen.add(mask)
        bits += bin(mask).count("1")
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    return bits, total


def reference_time():
    """Best of three timings of ``reference_work``: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def run_rounds(pool, *, rounds=None, seconds=None, tracer=None, between=None):
    """Whole rounds, each running every pass of the pool once: ``rounds`` of
    them, or else at least ``MIN_ROUNDS`` and more while one more round is
    expected to end within ``seconds``.  ``between`` is called, untimed,
    after each round."""
    from tritile.errors import BudgetExceeded

    records = []
    start = time.perf_counter()
    done = 0
    ref_before = reference_time()
    while True:
        for index, p in enumerate(pool):
            for op in p.ops:
                if tracer is not None:
                    tracer.op = len(records)
                t0 = time.perf_counter()
                try:
                    out, status = op.run(), "ok"
                except BudgetExceeded:
                    out, status = None, "budget"
                except Exception:  # a crash is a wrong answer; keep its traceback
                    out, status = None, "error: " + traceback.format_exc(limit=-3)
                # The operation pays for collecting the garbage cycles it
                # left, so the next one does not start on a heap full of them.
                gc.collect()
                took = time.perf_counter() - t0
                ref_after = reference_time()
                records.append(Record(op, done, index, tracer is not None, out, took,
                                      (ref_before + ref_after) / 2, status))
                ref_before = ref_after
        done += 1
        if between is not None:
            between()
        if rounds is not None:
            if done >= rounds:
                break
            continue
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed + elapsed / done > seconds:
            break
    return records


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(records, pool, pinned):
    """Validate each answer once, compare repeats by digest, and compare
    each whole pass with its pinned digest when one exists."""
    from workloads import WrongOutput

    cache = {}
    first = {}
    problems = []
    for r in records:
        if r.status != "ok":
            continue
        r.digest = digest(r.op.canon(r.out))
        if r.op.key in first:
            if first[r.op.key] != r.digest:
                r.status = "wrong: answer differs from an earlier run of the same input"
            continue
        first[r.op.key] = r.digest
        try:
            r.op.check(r.out, cache)
        except WrongOutput as exc:
            r.status = f"wrong: {exc}"
    for r in records:
        r.out = None
        if r.status.startswith(("wrong", "error")):
            problems.append(f"{r.op.key}: {r.status}")

    if pinned is not None:
        by_pass = {}
        for r in records:
            by_pass.setdefault((r.traced, r.round, r.pass_index), []).append(r)
        for (_, _, index), rs in sorted(by_pass.items()):
            if any(r.digest is None for r in rs):
                continue
            got = digest([r.digest for r in rs])
            want = pinned[index]
            if got != want:
                problems.append(f"pass {pool[index].key}: digest {got[:12]} "
                                f"differs from the pinned {want[:12]}")
    return problems


def pass_digests(records, pool):
    out = []
    for index in range(len(pool)):
        out.append(digest([r.digest for r in records if r.pass_index == index]))
    return out


def best_latencies(records, normalised):
    """Each operation's best time over its repeats in the run; if
    ``normalised``, each repeat is first scaled to a host on which
    ``reference_work`` takes ``REFERENCE_S``, by the reference timed just
    before and just after it."""
    best = {}
    for r in records:
        t = r.seconds * REFERENCE_S / r.ref if normalised else r.seconds
        best[r.op.key] = min(t, best.get(r.op.key, t))
    return best


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    tritile = import_program()
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.NAMES)}")
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pinned = pins.get(args.workload, {}).get(str(args.seed))

    setup = []
    if not (args.trace or args.write_pins):
        setup += measure_setup(args.workload, args.seed, SETUP_FIRST)
    pool = workloads.build(args.workload, args.seed)
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of every collection

    tracer = None
    if args.write_pins:
        records = run_rounds(pool, rounds=1)
        pinned = None
    elif args.trace:
        records = run_rounds(pool, rounds=1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            records += run_rounds(pool, rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        records = run_rounds(pool, seconds=args.seconds, between=lambda: setup.extend(
            measure_setup(args.workload, args.seed, SETUP_BETWEEN)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_outputs(records, pool, pinned)
    attempted = len(records)
    ok = [r for r in records if r.status == "ok"]
    failed = attempted - len(ok)
    prov = provenance(args)
    prov.update({"tritile_version": tritile.__version__, "ops_attempted": attempted,
                 "ops_failed": failed, "fail_frac": failed / attempted,
                 "rounds_run": len({(r.traced, r.round) for r in records}),
                 "pins": "none for this seed" if pinned is None else "checked"})

    if args.write_pins:
        if problems or failed:
            print("\n".join(problems) or f"{failed} operations failed", file=sys.stderr)
            return 1
        pins.setdefault(args.workload, {})[str(args.seed)] = pass_digests(records, pool)
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(pool)} passes of {args.workload} for seed {args.seed}")
        return 0

    if args.trace:
        untraced = sum(r.seconds for r in records if not r.traced)
        traced = sum(r.seconds for r in records if r.traced)
        hosts = sum(p.hosts for p in pool)
        metrics = spans.layer_metrics(tracer, hosts)
        # The overhead compares reference-scaled times, so that a change in
        # host speed between the two rounds does not show as overhead.
        scaled = [sum(r.seconds / r.ref for r in records if r.traced == t) for t in (False, True)]
        metrics["trace.overhead_frac"] = (scaled[1] / scaled[0] - 1, "ratio")
        metrics["trace.untraced_s"] = (untraced, "s")
        metrics["trace.traced_s"] = (traced, "s")
        metrics["trace.hosts"] = (hosts, "count")
        prov["absent_targets"] = tracer.absent
        prov["spans"] = len(tracer.spans)
    else:
        best = best_latencies(records, normalised=True)
        ms = sorted(v * 1000 for v in best.values())
        ms_p90 = p90(ms)
        ok_frac = len(ok) / attempted
        metrics = {
            "ops_per_s": (ok_frac * len(best) / sum(best.values()), "ops/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (ms_p90, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "ok_frac": (ok_frac, "ratio"),
        }
        raw = best_latencies(records, normalised=False)
        raw_ms = sorted(v * 1000 for v in raw.values())
        prov.update({"latency_samples": len(ms), "samples_beyond_p90": sum(x > ms_p90 for x in ms),
                     "repeats_per_op": attempted // len(best),
                     "reference_s": REFERENCE_S,
                     "reference_median_s": statistics.median(r.ref for r in records),
                     "wall_ops_per_s": ok_frac * len(raw) / sum(raw.values()),
                     "wall_op_p50_ms": statistics.median(raw_ms),
                     "wall_op_p90_ms": p90(raw_ms),
                     "setup_samples_s": setup})

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record = {
        "provenance": prov,
        "result": result,
        "problems": problems,
        "ops": [{"key": r.op.key, "round": r.round, "pass": r.pass_index, "traced": r.traced,
                 "ms": r.seconds * 1000, "reference_ms": r.ref * 1000, "status": r.status,
                 "digest": r.digest}
                for r in records],
    }
    if tracer is not None:
        record["spans"] = [s.to_json() for s in tracer.spans]
    path.write_text(json.dumps(record, indent=1) + "\n")

    for line in problems:
        print(line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(ok)}/{attempted} ops ok, record in "
          f"{path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
