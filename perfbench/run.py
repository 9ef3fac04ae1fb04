#!/usr/bin/env python3
"""Benchmark of the nbk command line: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload verify-symbolic --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload scan-grid --seed 1 --trace 1 --tiny

Run it from a source checkout; it times the package under ``src/`` there.
Each operation is one nbk invocation in a fresh interpreter, started the way
the ``nbk`` console script starts it, with ``NBK_CYCLOTOMIC_ORDER`` unset.
Operations run one at a time (a closed loop with one client). Every output is
compared with the outcome recorded in ``expected.json``. Each run appends a
record with the environment to ``.perfbench_out/results.jsonl``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``.

``--tiny`` runs one small operation per run instead of the workload's batch;
the self-test uses it to check the output schema.
"""
from __future__ import annotations

import argparse
import array
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = HERE / "expected.json"
TRACER = HERE / "trace_nbk.py"

# What the nbk console script does.
NBK_MAIN = "import sys; from ncbieberbach.cli import main; sys.exit(main())"
SETUP_PROBE = "import ncbieberbach.cli as cli; cli.build_parser(); print(cli.__file__)"
SETUP_PER_BATCH = 3
OP_TIMEOUT_S = 150

VERIFY = ["verify", "--suite", "all", "--samples", "200", "--degree", "3", "--format", "json"]
TINY_VERIFY = ["verify", "--suite", "morita", "--samples", "3", "--degree", "1", "--format", "json"]
FAMILIES = ("B2", "B3", "B4", "B5", "B6", "N1", "N2", "N3", "N4")
SUITES = ("algebra", "actions", "crossed", "traces", "morita", "betastar", "homology")


def _seed_arg(rng: random.Random) -> list[str]:
    return ["--seed", str(rng.randrange(1, 2**31))]


def _verify_batch(rng: random.Random) -> list[list[str]]:
    return [VERIFY + _seed_arg(rng), VERIFY + _seed_arg(rng)]


def _scan_batch(rng: random.Random) -> list[list[str]]:
    order = list(FAMILIES)
    rng.shuffle(order)
    return [["scan", "--family", f, "--denominator", "12", "--format", "json"] for f in order]


# workload -> (batch of argument lists drawn from the workload rng, tiny batch)
WORKLOADS = {
    "verify-symbolic": (
        _verify_batch,
        lambda rng: [TINY_VERIFY + _seed_arg(rng)],
    ),
    "scan-grid": (
        _scan_batch,
        lambda rng: [["scan", "--family", "B2", "--denominator", "4", "--format", "json"]],
    ),
}


# -- one operation ---------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("NBK_CYCLOTOMIC_ORDER", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str]) -> dict:
    """Run ``cmd`` to completion; its wall time, peak RSS, exit code and stdout."""
    out_path, err_path = OUT / "op.stdout", OUT / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_text(errors="replace")[-2000:],
    }


def expected_key(argv: list[str]) -> str:
    """The argv without its ``--seed``: the checked fields do not depend on it."""
    kept = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--seed":
            skip = True
        else:
            kept.append(arg)
    return " ".join(kept)


def read_report(stdout: bytes) -> dict | None:
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def outcome(exit_code: int, report: dict | None) -> dict | None:
    """The fields an operation is judged on: exit code, (check, status) pairs, payload."""
    try:
        checks = sorted({(r["name"], r["status"]) for r in report["results"]})
        return {"exit": exit_code, "checks": [list(c) for c in checks], "payload": report["payload"]}
    except (KeyError, TypeError):
        return None


def run_op(argv: list[str], expected: dict, trace_file: Path | None = None) -> dict:
    if trace_file is None:
        cmd = [sys.executable, "-c", NBK_MAIN, *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_file), *argv]
    res = spawn(cmd)
    report = read_report(res["stdout"])
    got = outcome(res["exit"], report)
    want = expected.get(expected_key(argv))
    order = (report or {}).get("config", {}).get("cyclotomic_order")
    return {
        "argv": argv,
        "traced": trace_file is not None,
        "exit": res["exit"],
        "wall_s": res["wall_s"],
        "rss_mb": res["rss_mb"],
        "report_bytes": len(res["stdout"]),
        "cyclotomic_order": order,
        "ok": want is not None and got == want,
        "stderr": "" if res["exit"] in (0, 1) else res["stderr"],
    }


def setup_time() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    res = spawn([sys.executable, "-c", SETUP_PROBE])
    location = Path(res["stdout"].decode().strip() or ".").resolve()
    if res["exit"] != 0 or SRC.resolve() not in location.parents:
        raise SystemExit(f"perfbench: ncbieberbach.cli not importable from {SRC}: {res['stderr']}")
    return res["wall_s"]


# -- spans -----------------------------------------------------------------------


def aggregate(names: list[str], spans: array.array, into: dict) -> None:
    """Add per-name calls, self time and inclusive time (ns) of one span buffer.

    Self time is a span's duration minus the durations of its direct children;
    children of one parent never overlap, so nested (recursive) calls of the
    same name are not counted twice.
    """
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    incl_ns = [0] * len(names)
    nids = spans[0::4]
    for nid, parent, start, end in zip(nids, spans[1::4], spans[2::4], spans[3::4]):
        d = end - start
        calls[nid] += 1
        self_ns[nid] += d
        incl_ns[nid] += d
        if parent >= 0:
            self_ns[nids[parent // 4]] -= d
    for nid, name in enumerate(names):
        row = into.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
        row["calls"] += calls[nid]
        row["self_ns"] += self_ns[nid]
        row["incl_ns"] += incl_ns[nid]


def read_trace(path: Path, spans_by_name: dict, counters: dict, missing: set) -> None:
    header = json.loads(path.read_text())
    spans = array.array("q")
    spans.frombytes(Path(f"{path}.bin").read_bytes())
    aggregate(header["names"], spans, spans_by_name)
    for key, value in header["counters"].items():
        counters[key] = counters.get(key, 0) + value
    missing.update(header["missing"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counters: dict) -> dict:
    zero = {"calls": 0, "self_ns": 0, "incl_ns": 0}

    def calls(name):
        return spans.get(name, zero)["calls"]

    def self_s(name):
        return spans.get(name, zero)["self_ns"] / 1e9

    def incl_s(name):
        return spans.get(name, zero)["incl_ns"] / 1e9

    out = {}
    for name in ("scalars.phased_mul", "scalars.cyclotomic_mul", "scalars.cyclotomic_add",
                 "torus.cocycle", "torus.element_mul", "torus.algebra_init",
                 "actions.check_compatibility", "actions.check_order", "actions.power_image",
                 "actions.apply", "actions.homogeneous_components", "crossed.element_mul",
                 "crossed.star", "crossed.q_projector", "ktheory.smith_normal_form"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("actions.scan_cocycles", "crossed.matrix_units", "ktheory.verify_beta_star"):
        out[f"{name}.self_s"] = self_s(name)
    psi, first = "crossed.psi_matrix", "crossed.psi_matrix.first"
    out[f"{psi}.calls"] = calls(psi) + calls(first)
    out[f"{psi}.self_s"] = self_s(psi) + self_s(first)
    out[f"{psi}.first_call_s"] = incl_s(first)
    out["scalars.phased_mul.single_term_share"] = _ratio(
        counters.get("scalars.phased_mul.single_term", 0), calls("scalars.phased_mul"))
    out["scalars.cyclotomic_mul.rational_share"] = _ratio(
        counters.get("scalars.cyclotomic_mul.rational", 0), calls("scalars.cyclotomic_mul"))
    hits = counters.get("scalars.convolve.hits", 0)
    out["scalars.convolve.hit_ratio"] = _ratio(hits, hits + counters.get("scalars.convolve.misses", 0))
    for name in ("torus.element_mul.term_pairs", "crossed.element_mul.term_pairs"):
        out[name] = counters.get(name, 0)
    candidates = calls("actions.scan.candidate")
    out["actions.scan.candidates"] = candidates
    out["actions.scan.admissible_ratio"] = _ratio(counters.get("actions.scan.admissible", 0), candidates)
    for suite in SUITES:
        out[f"cli.suite.{suite}.s"] = incl_s(f"cli.suite.{suite}")
    out["cli.render.self_s"] = self_s("cli.render")
    return out


# -- runs ------------------------------------------------------------------------


def run_batch(argvs: list[list[str]], expected: dict, trace_dir: Path | None = None):
    """Run the operations in order; the batch wall time and the op records."""
    ops = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        trace_file = None if trace_dir is None else trace_dir / f"op{i}.json"
        ops.append(run_op(argv, expected, trace_file))
    return time.perf_counter() - start, ops


def untraced_run(batch, rng, seconds: float, tiny: bool, expected: dict):
    """Run the workload's batches one after another for ``seconds``.

    Setup probes run before each batch, so they sample the whole run. The
    first batch runs whole; after it, an operation starts only if it should
    end before the deadline at the median time of its kind so far (the kind
    is the argument list without ``--seed``).
    """
    deadline = time.perf_counter() + seconds
    setups, ops, times, batches, per_batch = [], [], {}, 0, {}
    for nth, argv in ((nth, argv) for nth in itertools.count() for argv in batch(rng)):
        kind = expected_key(argv)
        if nth and (tiny or time.perf_counter() + statistics.median(times[kind]) > deadline):
            break
        if nth == batches:
            batches += 1
            setups += [setup_time() for _ in range(SETUP_PER_BATCH)]
        if nth == 0:
            per_batch[kind] = per_batch.get(kind, 0) + 1
        ops.append(run_op(argv, expected))
        times.setdefault(kind, []).append(ops[-1]["wall_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        # one batch, each of its invocations at the median time of its kind in this run
        "wall_s": sum(n * statistics.median(times[kind]) for kind, n in per_batch.items()),
        "op_p50_s": statistics.median(op["wall_s"] for op in ops),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
    }
    notes = {"setup_samples": len(setups), "batches": batches, "op_samples": len(ops),
             "samples_per_invocation": sorted(len(t) for t in times.values())}
    return metrics, ops, notes


def traced_run(batch, rng, expected: dict):
    """One batch untraced, then the same operations traced."""
    setup_time()
    argvs = batch(rng)
    plain_wall, plain_ops = run_batch(argvs, expected)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(exist_ok=True)
    traced_wall, traced_ops = run_batch(argvs, expected, trace_dir)
    spans, counters, missing = {}, {}, set()
    for i in range(len(argvs)):
        path = trace_dir / f"op{i}.json"
        if path.exists():
            read_trace(path, spans, counters, missing)
            path.unlink()
            Path(f"{path}.bin").unlink()
    metrics = layer_metrics(spans, counters)
    metrics["cli.report_bytes"] = sum(op["report_bytes"] for op in traced_ops)
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    notes = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "missing_targets": sorted(missing)}
    return metrics, plain_ops + traced_ops, notes


def environment(workload: str, seed: int, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small operation, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncbieberbach" / "cli.py").is_file():
        print(f"perfbench: no ncbieberbach sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    expected = json.loads(EXPECTED_FILE.read_text())
    OUT.mkdir(exist_ok=True)
    env = environment(args.workload, args.seed, args.trace)
    batch, tiny_batch = WORKLOADS[args.workload]
    batch = tiny_batch if args.tiny else batch
    rng = random.Random(f"{args.workload}:{args.seed}")
    if args.trace:
        values, ops, notes = traced_run(batch, rng, expected)
        wanted = spec["per_layer"]
    else:
        values, ops, notes = untraced_run(batch, rng, args.seconds, args.tiny, expected)
        wanted = spec["end_to_end"]
    failed = sum(not op["ok"] for op in ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for op in ops:
        print(f"{'traced' if op['traced'] else 'op'} {' '.join(op['argv'])}: exit {op['exit']},"
              f" {op['wall_s']:.3f} s, {op['rss_mb']:.1f} MB, order {op['cyclotomic_order']},"
              f" {'ok' if op['ok'] else 'WRONG OUTPUT'} {op['stderr']}".rstrip())
    for key, value in notes.items():
        print(f"{key} {value}")
    print(f"fail_ratio {failed / len(ops):.4f} ({failed} of {len(ops)} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    record = {"env": env, "notes": notes, "metrics": metrics, "failed": failed,
              "ops": [{k: v for k, v in op.items() if k != "stderr"} for op in ops]}
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
