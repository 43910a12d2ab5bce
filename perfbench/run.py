#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <cold-edit|cold-platform|warm-serve> \
        --seed N --seconds S --trace <0|1>

Builds `perfbench/` (a cargo package of its own that links the
workspace crates) in release mode, generates the workload's inputs from
the seed, drives the program in fresh processes under `.bench_tmp/`,
checks every verdict against a known answer, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. The line before it is the run record (seed, nproc,
rustc, commit, profile, sample counts); the same record, and with
`--trace 1` the spans, land in `.bench_out/`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MUTATION_BASELINE = ROOT / "mutation_baseline.json"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cold-edit", "cold-platform", "warm-serve")
STAGES = ("speccheck", "lockstep", "equivalence", "ctcheck", "contract", "bound", "fps")
# Bound stats may only tighten (the rule of bound_baseline.json).
TIGHTEN = {("bound", "wcet_cycles"), ("bound", "stack_depth")}
PASS_TIMEOUT_S = 170

# --- fixed input sets -----------------------------------------------------

# cold-edit: both cheap-to-lint apps at the two opt levels a developer
# flips between, on both cores. The -O0 asm lint is most of the work.
# ECDSA is left out: its cold ctcheck alone takes ~83 s.
EDIT_CELLS = [
    [app, cpu, opt]
    for app in ("hasher", "totp")
    for opt in ("-O0", "-O2")
    for cpu in ("ibex", "pico")
]
# The adversary catalog plus its three controls: every stage's reject
# path, with verdicts known from mutation_baseline.json.
MUTANTS = [
    "crypto-mont-carry-drop", "crypto-prf-mask-skip", "crypto-secret-branch",
    "cc-branch-polarity", "cc-dead-store", "cc-syssw-reg-clobber", "cc-secret-latency",
    "cc-callee-saved-clobber", "codegen-stack-frame-underalloc", "littlec-loop-bound-drop",
    "isa-load-sign-extend", "isa-store-operand-swap", "core-ibex-stale-forwarding",
    "core-pico-mul-early-exit", "core-contract-latency-understated",
    "core-contract-hidden-operand-dep", "core-contract-taint-silent",
    "soc-journal-write-drop", "soc-tx-double-commit", "emu-response-desync",
    "clean-token", "clean-fieldmul", "clean-prfmask",
]
# cold-platform: every app at -O2, Ibex first, then PicoRV32. Software
# stages are taken as done; FPS is nearly all of the work.
PLATFORM_CPUS = ("ibex", "pico")
PLATFORM_APPS = ("ecdsa", "hasher", "totp")
# warm-serve: 2 tenants x {hasher, totp} x {ibex, pico} x -O2 x mode.
SERVE_TENANTS = ("ci-a", "ci-b")
SERVE_APPS = ("hasher", "totp")
SERVE_MODES = ("cell", "software")
SERVE_SETUP_REPS = 2
# Cold set-up is a process start plus the input set: cheap, so many reps.
COLD_SETUP_REPS = 51

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"),
    ("request_p50_ms", "ms"), ("request_p99_ms", "ms"), ("requests_per_s", "1/s"),
]


def per_layer_names():
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    out = []
    for s in STAGES:
        out.append((f"pipeline.{s}.busy_s", "s"))
    out += [("pipeline.ctcheck.busy_share", "ratio"), ("pipeline.fps.busy_share", "ratio")]
    for s in STAGES:
        out.append((f"pipeline.{s}.keyhash_s", "s"))
    out.append(("pipeline.firmware_build.hit_ratio", "ratio"))
    out += [
        ("pipeline.cache.hit_ratio", "ratio"), ("pipeline.cache.misses", "count"),
        ("pipeline.cache.writes", "count"), ("pipeline.cache.write_errors", "count"),
        ("pipeline.cache.singleflight_waits", "count"), ("pipeline.cache.lookup_s", "s"),
        ("pipeline.cache.store_s", "s"),
        ("serve.run_batch_s", "s"), ("serve.parse_s", "s"), ("serve.transport_s", "s"),
        ("serve.nodes_per_request", "count"),
    ]
    combos = ["hasher.O0", "hasher.O2", "totp.O0", "totp.O2"]
    for layer in ("frontend", "lower", "compile"):
        for c in combos + ["ecdsa.O2"]:
            out.append((f"littlec.{layer}_s.{c}", "s"))
    for c in combos:
        out.append((f"littlec.validate_s.{c}", "s"))
    for layer in ("lint_ir", "lint_asm"):
        for c in combos:
            out.append((f"analyzer.{layer}_s.{c}", "s"))
    out += [
        ("analyzer.ir.fixpoint_iters", "count"), ("analyzer.asm.fixpoint_iters", "count"),
        ("analyzer.asm.memo_hit_ratio", "ratio"), ("analyzer.bound_s", "s"),
        ("riscv.assemble_s", "s"), ("starling.verify_s", "s"), ("cores.battery_s", "s"),
        ("knox2.fps_s", "s"), ("knox2.fps_seq_s", "s"), ("knox2.parallel_speedup", "ratio"),
        ("knox2.fps_cpu_s", "s"), ("knox2.host_ns_per_cycle", "ns"), ("knox2.cycles", "count"),
        ("knox2.prepass_cycles", "count"), ("knox2.segments", "count"),
        ("knox2.snapshot_fork_s", "s"), ("parallel.busy_ratio", "ratio"),
        ("riscv.decode_hit_ratio", "ratio"),
    ]
    for s in STAGES:
        out.append((f"adversary.reject_s.{s}", "s"))
    out += [
        ("error_ratio", "ratio"), ("trace.overhead_wall_s", "s"),
        ("trace.overhead_request_p50_ms", "ms"), ("trace.spans", "count"),
    ]
    return out


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# --- build and run record -------------------------------------------------

def build():
    """Build the benchmark binary in release mode; return its path."""
    manifest = HERE / "Cargo.toml"
    if not (ROOT / "crates").is_dir() or not manifest.is_file():
        raise BenchError(f"{ROOT} holds no workspace crates to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return target / "release" / "perfbench"


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    files = sorted(ROOT.glob("crates/**/*.rs")) + sorted(HERE.glob("src/*.rs"))
    files += [ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_record(args, profile):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "profile": profile,
    }


def child_env():
    # The program reads PARFAIT_* knobs (threads, timeouts, cache dir);
    # the benchmark passes everything explicitly instead.
    return {k: v for k, v in os.environ.items() if not k.startswith("PARFAIT_")}


def run_process(binary, workload, inputs, trace_file=None, setup_only=False, work=None):
    """Run one benchmark process in `work` (default: a fresh directory,
    removed afterwards); return its JSON document and the wall time of
    the whole process."""
    keep = work is not None
    TMP.mkdir(exist_ok=True)
    work = Path(work or tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        (work / "inputs.json").write_text(json.dumps(inputs))
        cmd = [str(binary), workload, "--inputs", "inputs.json"]
        if trace_file:
            cmd += ["--trace", str(trace_file)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True, text=True,
                           timeout=PASS_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if r.returncode != 0:
            raise BenchError(f"{workload} process failed: {r.stderr.strip()[-2000:]}")
        doc = json.loads(r.stdout.strip().splitlines()[-1])
        if doc.get("profile") != "release":
            raise BenchError("refusing to report from a non-release build")
        return doc, elapsed
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


# --- inputs ---------------------------------------------------------------

def cold_inputs(workload, seed, smoke=False):
    rng = random.Random(f"{workload}:{seed}")
    threads = os.cpu_count() or 1
    if workload == "cold-edit":
        cells = [list(c) for c in EDIT_CELLS]
        mutants = list(MUTANTS)
        if smoke:
            cells, mutants = [["hasher", "ibex", "-O2"]], ["cc-dead-store", "clean-token"]
        rng.shuffle(cells)
        rng.shuffle(mutants)
        return {"threads": threads, "cells": cells, "mutants": mutants}
    cells = []
    for cpu in PLATFORM_CPUS:
        apps = list(PLATFORM_APPS)
        rng.shuffle(apps)
        cells += [[app, cpu, "-O2"] for app in apps]
    if smoke:
        cells = [["hasher", "ibex", "-O2"], ["totp", "pico", "-O2"]]
    return {"threads": threads, "cells": cells}


def serve_grid(smoke=False):
    keys = [(t, a, c, m) for t in SERVE_TENANTS for a in SERVE_APPS for c in ("ibex", "pico")
            for m in SERVE_MODES]
    if smoke:
        keys = [k for k in keys if k[0] == "ci-a" and k[1] == "hasher" and k[2] == "ibex"]
    return keys


def verify_line(rid, key):
    t, a, c, m = key
    return json.dumps({"op": "verify", "id": rid, "tenant": t, "app": a, "cpu": c, "opt": "-O2",
                       "mode": m}, separators=(",", ":"))


def serve_traffic(seed, count, smoke=False):
    """The seeded request mix: uniform draws over the grid, with
    duplicates, as JSONL lines."""
    rng = random.Random(f"warm-serve:{seed}")
    keys = serve_grid(smoke)
    return [verify_line(f"r{i}", rng.choice(keys)) for i in range(count)]


# --- known answers --------------------------------------------------------

def load_reference():
    return json.loads(REFERENCE.read_text())["cells"]


def check_cell(cell, stages, reference):
    """Mismatches of one cell's stages against the reference file."""
    ref = reference.get(cell)
    if ref is None:
        return [f"{cell}: no reference"]
    errors = []
    for st in stages:
        name = st["stage"]
        want = ref.get(name)
        if want is None:
            errors.append(f"{cell} {name}: no reference")
            continue
        claim = st.get("claim") or {"from": st.get("from"), "to": st.get("to")}
        if [claim["from"], claim["to"]] != [want["from"], want["to"]]:
            errors.append(f"{cell} {name}: claim {claim} != {want['from']} -> {want['to']}")
        got = st["stats"]
        if set(got) != set(want["stats"]):
            errors.append(f"{cell} {name}: stats {sorted(got)} != {sorted(want['stats'])}")
            continue
        for k, v in got.items():
            w = want["stats"][k]
            ok = v <= w if (name, k) in TIGHTEN else v == w
            if not ok:
                errors.append(f"{cell} {name}: {k} = {v}, reference {w}")
    return errors


def mutant_errors(mutants, baseline):
    errors = []
    for m in mutants:
        want = baseline.get(m["class"])
        if m["verdict"] != want:
            errors.append(f"{m['class']}: {m['verdict']}, baseline {want}")
    return errors


def load_baseline():
    if not MUTATION_BASELINE.is_file():
        raise BenchError(f"{MUTATION_BASELINE.name} not found")
    return json.loads(MUTATION_BASELINE.read_text())["expected"]


def score_cold(docs, reference, baseline):
    """(attempted, failed, errors) over every pass's operations."""
    attempted, failed, errors = 0, 0, []
    for doc in docs:
        cells = {c["cell"]: c["stages"] for c in doc.get("cells", [])}
        verdicts = {m["class"]: m for m in doc.get("mutants", [])}
        for op in doc["ops"]:
            attempted += 1
            if op["error"]:
                errs = [f"{op['name']}: {op['error']}"]
            elif op["kind"] in ("cell", "platform-cell"):
                errs = check_cell(op["name"], cells[op["name"]], reference)
            else:
                errs = mutant_errors([verdicts[op["name"]]], baseline)
            if errs:
                failed += 1
                errors += errs
    return attempted, failed, errors


# --- metrics --------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile (with fewer than 100 samples, p99 is the
    slowest)."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def request_latencies(docs):
    """What a user waits for, one `verify` invocation each: an app at
    one opt level on both cores (cold-edit, two `verify_cell` calls),
    one platform's cells (cold-platform, `verify --platform`), one
    socket request (warm-serve)."""
    lat = []
    for d in docs:
        groups = {}
        for op in d["ops"]:
            app, cpu, opt = (op["name"].split("/") + ["", "", ""])[:3]
            if op["kind"] == "cell":
                groups[(app, opt)] = groups.get((app, opt), 0.0) + op["latency_s"]
            elif op["kind"] == "platform-cell":
                groups[cpu] = groups.get(cpu, 0.0) + op["latency_s"]
            elif op["kind"] == "request":
                lat.append(op["latency_s"])
        lat += groups.values()
    return lat


def end_to_end(setup_s, docs):
    lat = request_latencies(docs)
    walls = [d["wall_s"] for d in docs]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(d["cpu_s"] for d in docs),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        "request_p50_ms": statistics.median(lat) * 1e3,
        "request_p99_ms": percentile(lat, 99) * 1e3,
        "requests_per_s": len(lat) / sum(walls),
    }


def layer_metrics(doc, attempted, failed, untraced):
    """Per-layer values of a traced process, every name present."""
    layers = {name: 0.0 for name, _ in per_layer_names()}
    for k, v in doc.get("layers", {}).items():
        if k in layers:
            layers[k] = v
    if layers["knox2.fps_s"] > 0:
        layers["knox2.parallel_speedup"] = layers["knox2.fps_seq_s"] / layers["knox2.fps_s"]
    for m in doc.get("mutants", []):
        if m["verdict"].startswith("killed:"):
            layers["adversary.reject_s." + m["verdict"].split(":", 1)[1]] += m["latency_s"]
    layers["error_ratio"] = failed / attempted
    layers["trace.spans"] = doc.get("spans", 0)
    traced = end_to_end(0.0, [doc])
    if untraced is not None:
        layers["trace.overhead_wall_s"] = traced["wall_s"] - untraced["wall_s"]
        layers["trace.overhead_request_p50_ms"] = traced["request_p50_ms"] - untraced["request_p50_ms"]
    return layers


def untraced_reference(workload, digest):
    """The median untraced end-to-end figures of earlier runs of this
    workload on the same sources in this checkout, if any (to price
    tracing)."""
    walls, p50s = [], []
    for f in OUT.glob(f"{workload}-seed*-trace0.json"):
        try:
            record = json.loads(f.read_text())
            if record["source_sha256"] != digest:
                continue
            m = record["metrics"]
            walls.append(m["wall_s"]["value"])
            p50s.append(m["request_p50_ms"]["value"])
        except (ValueError, KeyError):
            continue
    if not walls:
        return None
    return {"wall_s": statistics.median(walls), "request_p50_ms": statistics.median(p50s)}


# --- workloads ------------------------------------------------------------

def cold_setup_s(binary, workload, inputs):
    """Median wall time of a cold process's set-up: start, read the
    inputs, build the app pipelines (and mutant catalog), create the
    empty cache, exit. Spawned directly, without pipes, to keep the
    harness's own cost out of a millisecond-scale figure."""
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=TMP))
    try:
        (work / "inputs.json").write_text(json.dumps(inputs))
        argv = [str(binary), workload, "--inputs", str(work / "inputs.json"), "--setup-only"]
        quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        times = []
        for rep in range(COLD_SETUP_REPS):
            rep_dir = work / str(rep)
            rep_dir.mkdir()
            os.chdir(rep_dir)
            try:
                t0 = time.perf_counter()
                pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=quiet)
                _, status = os.waitpid(pid, 0)
                times.append(time.perf_counter() - t0)
            finally:
                os.chdir(ROOT)
            if os.waitstatus_to_exitcode(status) != 0:
                raise BenchError(f"{workload} set-up failed")
        return statistics.median(times)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_cold(binary, args, smoke=False):
    inputs = cold_inputs(args.workload, args.seed, smoke)
    setup_s = cold_setup_s(binary, args.workload, inputs)
    docs, trace_doc = [], None
    t0 = time.perf_counter()
    if args.trace:
        untraced = untraced_reference(args.workload, source_digest())
        if untraced is None:
            docs.append(run_process(binary, args.workload, inputs)[0])
            untraced = end_to_end(setup_s, docs)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        trace_doc = run_process(binary, args.workload, inputs, trace_file=spans)[0]
        docs.append(trace_doc)
    else:
        # At least one cold pass; more while the run has time left.
        while not docs or time.perf_counter() - t0 < args.seconds:
            docs.append(run_process(binary, args.workload, inputs)[0])
    reference, baseline = load_reference(), load_baseline()
    attempted, failed, errors = score_cold(docs, reference, baseline)
    if trace_doc is not None:
        metrics = layer_metrics(trace_doc, attempted, failed, untraced)
    else:
        metrics = end_to_end(setup_s, docs)
    detail = {"passes": len(docs), "requests": len(request_latencies(docs)),
              "setup_reps": COLD_SETUP_REPS, "errors": errors[:20]}
    if trace_doc is not None:
        detail["self_s"] = trace_doc["self_s"]
    return attempted, failed, metrics, detail


def run_warm(binary, args, smoke=False, extra_traffic=()):
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="warm-", dir=TMP))
    threads = os.cpu_count() or 1
    grid = [verify_line(f"setup-{i}", k) for i, k in enumerate(serve_grid(smoke))]
    reference = load_reference()
    errors, failed, setups = [], 0, []
    try:
        # Set-up: a daemon fills an empty cache with one cold pass over
        # the grid, several times in fresh processes; the last cache is
        # kept and a fresh daemon on it serves the window.
        reps = 1 if smoke else SERVE_SETUP_REPS
        for rep in range(reps):
            fill_dir = work / f"fill{rep}"
            fill_dir.mkdir()
            setup, elapsed = run_process(binary, "warm-serve", {"threads": threads, "grid": grid},
                                         setup_only=True, work=fill_dir)
            setups.append(elapsed)
            for c in setup["cells"]:
                errs = check_cell(c["cell"], c["stages"], reference)
                failed += bool(errs)
                errors += errs
        traffic_file = work / "traffic.jsonl"
        lines = list(extra_traffic) + serve_traffic(args.seed, max(4000, int(args.seconds * 1500)), smoke)
        traffic_file.write_text("\n".join(lines) + "\n")
        inputs = {
            "threads": threads, "clients": threads, "seconds": float(args.seconds), "grid": grid,
            "traffic": str(traffic_file), "cache": str(fill_dir / "cache"),
            "expect": setup["expect"],
        }
        trace_file = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"warm-serve-seed{args.seed}.spans.jsonl"
        serve_dir = work / "serve"
        serve_dir.mkdir()
        doc = run_process(binary, "warm-serve", inputs, trace_file=trace_file, work=serve_dir)[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    window_errors = [op["error"] for op in doc["ops"] if op["error"]]
    attempted = len(doc["ops"]) + len(grid) * len(setups)
    failed += len(window_errors)
    errors += window_errors
    setup_s = statistics.median(setups)
    if args.trace:
        untraced = {"wall_s": doc["wall_s"], "request_p50_ms": doc["untraced_request_p50_s"] * 1e3}
        metrics = layer_metrics(doc, attempted, failed, untraced)
    else:
        metrics = end_to_end(setup_s, [doc])
    detail = {"requests": len(doc["ops"]), "setup_s": setups, "errors": errors[:20]}
    if args.trace:
        detail["self_s"] = doc["self_s"]
    return attempted, failed, metrics, detail


def run(args, smoke=False):
    """Run one workload; return (result line, run record)."""
    binary = build()
    if args.workload == "warm-serve":
        attempted, failed, metrics, detail = run_warm(binary, args, smoke)
    else:
        attempted, failed, metrics, detail = run_cold(binary, args, smoke)
    units = dict(per_layer_names() if args.trace else END_TO_END)
    result = {
        "correct": failed == 0 and not detail["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(run_record(args, "release"), **detail)
    return result, record


def record_reference(binary):
    """Write reference.json from one pass of each cold workload."""
    cells = {}
    for workload in ("cold-edit", "cold-platform"):
        doc = run_process(binary, workload, cold_inputs(workload, 0))[0]
        for c in doc["cells"]:
            for st in c["stages"]:
                entry = {"from": st["from"], "to": st["to"], "stats": st["stats"]}
                prev = cells.setdefault(c["cell"], {}).setdefault(st["stage"], entry)
                if prev != entry:
                    raise BenchError(f"{c['cell']} {st['stage']}: workloads disagree")
    doc = {"schema": 1, "cells": {k: cells[k] for k in sorted(cells)}}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from the current program")
    args = p.parse_args(argv)
    try:
        if args.record_reference:
            record_reference(build())
            return 0
        if args.workload is None:
            p.error("--workload is required")
        result, record = run(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, **result), indent=1) + "\n")
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
