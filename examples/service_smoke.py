"""End-to-end service smoke: serve, submit, restart, verify exactness.

Runs one scenario twice: against ``repro serve --workers 1`` (the shard
plans in the server's process) and against ``repro serve --workers 2``
(two forked shards). Each run starts a real server with
``--checkpoint-dir``, submits one baseline and two incremental deltas
through the real ``repro submit`` CLI, and shuts the server down, which
checkpoints the baseline.
It then serves again from the same directory, checks that the
``baselines`` op lists ``b0`` with its pre-shutdown signature, submits a
third delta, and asserts that the final signature equals an in-process
from-scratch full plan of the thrice-evolved scenario. Exits non-zero
on any mismatch; CI runs this as the service's acceptance gate.

Usage::

    PYTHONPATH=src python examples/service_smoke.py [--grid 16]
"""

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile

from repro.service import (
    DeltaSpec,
    MacroSpec,
    ScenarioSpec,
    apply_delta,
    full_plan,
    move_macro,
    set_length_limit,
)
from repro.service.protocol import request_over_stream


def start_server(serve_args, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--verify-fraction", "0", *serve_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # The serve front end prints exactly one parseable line on startup.
    for line in proc.stdout:
        line = line.strip()
        print(f"[serve] {line}")
        if line.startswith("serving on "):
            return proc, int(line.rsplit(":", 1)[1])
    raise RuntimeError("server exited before announcing its port")


def submit(port, job, env):
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as fh:
        json.dump(job, fh)
        path = fh.name
    try:
        out = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--port", str(port),
             path],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        if out.returncode != 0:
            raise RuntimeError(
                f"submit failed ({out.returncode}):\n{out.stdout}{out.stderr}"
            )
        return json.loads(out.stdout)
    finally:
        os.unlink(path)


def submit_delta(port, job_id, delta, env):
    resp = submit(
        port,
        {"job_id": job_id, "kind": "delta", "baseline_id": "b0",
         "delta": delta.to_dict()},
        env,
    )
    assert resp["status"] == "done", resp
    print(
        f"delta {job_id}: resolved {resp['result']['nets_resolved']}, "
        f"replayed {resp['result']['nets_replayed']}, "
        f"speedup {resp['result'].get('speedup_vs_full', '-')}x"
    )
    return resp["result"]["signature"]


def shutdown(proc, port, requests=()):
    """Send ``requests`` then ``shutdown``; returns the responses."""
    responses = asyncio.run(
        request_over_stream(
            "127.0.0.1", port, [*requests, {"op": "shutdown"}]
        )
    )
    proc.wait(timeout=120)
    return responses


def run_scheduler(label, serve_args, spec, deltas, env):
    """Plan, checkpoint, restart, replay; returns the final signature."""
    print(f"== {label} ==")
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        serve_args = [*serve_args, "--checkpoint-dir", checkpoint_dir]
        proc, port = start_server(serve_args, env)
        try:
            base = submit(port, {"job_id": "b0", "kind": "baseline",
                                 "scenario": spec.to_dict()}, env)
            assert base["status"] == "done", base
            print(f"baseline planned: {base['result']['nets']} nets")
            for i, delta in enumerate(deltas[:-1]):
                signature = submit_delta(port, f"d{i}", delta, env)
            [stats, _] = shutdown(proc, port, [{"op": "stats"}])
            print(f"[stats] {json.dumps(stats)}")
        finally:
            if proc.poll() is None:
                proc.kill()

        proc, port = start_server(serve_args, env)
        try:
            listing = asyncio.run(
                request_over_stream("127.0.0.1", port, [{"op": "baselines"}])
            )[0]
            assert listing["baselines"] == {"b0": signature}, (
                f"restart lost the checkpoint: {listing}"
            )
            print(f"restored b0 at {signature[:16]}...")
            signature = submit_delta(
                port, f"d{len(deltas) - 1}", deltas[-1], env
            )
            shutdown(proc, port)
        finally:
            if proc.poll() is None:
                proc.kill()
    return signature


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--nets", type=int, default=120)
    parser.add_argument("--sites", type=int, default=600)
    args = parser.parse_args()

    spec = ScenarioSpec(
        grid=args.grid,
        num_nets=args.nets,
        total_sites=args.sites,
        macros=(MacroSpec(2, 2, 4, 4),),
    )
    deltas = (
        DeltaSpec((move_macro(0, args.grid // 2, args.grid // 2),)),
        DeltaSpec(
            (move_macro(0, 1, args.grid // 2), set_length_limit("net007", 3))
        ),
        DeltaSpec((move_macro(0, args.grid // 2, 1),)),
    )
    evolved = spec
    for delta in deltas:
        evolved = apply_delta(evolved, delta)
    reference = full_plan(evolved).signature

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    failed = False
    for label, serve_args in (
        ("repro serve --workers 1", ["--workers", "1"]),
        ("repro serve --workers 2", ["--workers", "2"]),
    ):
        signature = run_scheduler(label, serve_args, spec, deltas, env)
        if signature != reference:
            print(
                f"MISMATCH ({label}): incremental {signature[:16]}... != "
                f"full {reference[:16]}...",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"signatures match: {signature[:16]}... == full re-plan")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
