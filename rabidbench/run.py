"""RABID benchmark driver: one workload, one process, one JSON result line.

Usage (from the root of a checkout)::

    python3 rabidbench/run.py --workload plan-ami49 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric, measured from traced units
(layers a workload does not exercise read 0). Earlier lines of standard
output carry the provenance record and, for a traced plan, the layer
accounting; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "rabidbench" / "signatures.json"


def source_digest() -> str:
    """SHA-256 over the program's sources, so a stored signature is only
    compared against runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
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
    return "unknown"


def signature_is_stable(key: str, signature: str) -> bool:
    """Store the first signature seen for ``key``; False on a mismatch."""
    stored = {}
    if STATE.is_file():
        stored = json.loads(STATE.read_text())
    if stored.setdefault(key, signature) != signature:
        return False
    STATE.parent.mkdir(parents=True, exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, STATE)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"rabidbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    # One CPU for the whole process: the service's job thread then runs
    # where the speed probe runs, and no thread migrates between CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    with probe.running():
        start = time.perf_counter()
        outcome = WORKLOADS[args.workload](probe, args.seed, args.seconds, bool(args.trace))
        end = time.perf_counter()
    outcome.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = source_digest()
    failed = outcome.failed
    stable = signature_is_stable(
        f"{args.workload}/{args.seed}/{digest[:16]}", outcome.signature
    )
    if not stable:
        failed += 1
    # An operation can fail more than one check; count it once.
    failed = min(failed, outcome.attempted)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "signature": outcome.signature,
        "signature_stable": stable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": digest,
        "speed_factor": probe.factor(start, end),
        "probes": len(probe.starts),
        "wall_op_p50_s": statistics.median(outcome.wall_ops),
        **outcome.notes,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for line in outcome.report:
        print(line)

    undeclared = set(outcome.layers) - {m["name"] for m in declared["per_layer"]}
    if undeclared:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    if args.trace:
        metrics = {
            m["name"]: {"value": float(outcome.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(outcome.e2e[m["name"]]), "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
