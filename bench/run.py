"""gradeforge benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --compare BASE.json NEW.json

Workloads (BENCHMARK.json says why each was chosen):

* search        the search kernels, in process, no emission and no oracle;
* families_cli  ``gradeforge filters prod_aabb_aabb.mag prod_aabb_aabb.mag``
                as a subprocess, with --json and as text;
* verify        the five axiom checks over fixed and seeded families;
* canon         canonical forms, isomorphism tests and census(3).

This process never imports gradeforge.  It starts one process at a time: a
child running bench/workloads.py for the in-process workloads, or the CLI
itself for families_cli, and reads each one's peak memory with os.wait4.
Every output is checked against bench/expected.json.

With --trace 0 it prints the end-to-end metrics (BENCHMARK.json
"end_to_end"); with --trace 1 the per-layer metrics ("per_layer"), from
spans recorded around each layer module's public functions.  Each timing is
printed as a median with its sample count, and with the highest percentile
that has at least ten samples beyond it when there are enough samples.
wall_s, ttfb_s and setup_s are calibrated against a fixed loop timed between
the operations (reference.py), which removes much of the drift in machine
speed between runs; the raw figures are printed beside them and kept in the
result file.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
The full result, with every sample, the Python version, nproc and the
commit, goes to bench/out/; traced runs also write their spans there.

--compare prints, for each workload and metric present in both result files,
the ratio to the base and a verdict (improved, unchanged, regressed or
unresolved) against the metric's bound in BENCHMARK.json.  Per-layer metrics
have no bound of their own and are judged against the bound of wall_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((BENCH / "expected.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FIXTURE = str(BENCH / "data" / "prod_aabb_aabb.mag")
SETUP_STARTS = 7  # set-up is timed this many times per run; setup_s is the median
DEADLINE_S = 170  # per workload; a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    return env


_current = []  # the one child process running, for the deadline handler


def _on_deadline(signum, frame):
    for proc in _current:
        proc.kill()
        proc.wait()
    raise BenchError(f"workload did not finish within {DEADLINE_S} s")


def _reap(proc) -> tuple:
    """Wait for ``proc`` and return (exit code, peak RSS in MiB) of that process alone."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def spawn_child(workload, seed, seconds, trace, setup_only=False) -> dict:
    """Run bench/workloads.py; setup_s is the time from spawning it to its ``ready`` line."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(seconds), str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_env())
    _current.append(proc)
    try:
        with proc.stdout:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
        code, peak = _reap(proc)
    finally:
        _current.remove(proc)
    if code != 0 or ready.strip() != b"ready":
        raise BenchError(f"{workload} child exited {code}")
    payload = json.loads(rest.splitlines()[-1]) if not setup_only else None
    return {"setup_s": setup_s, "payload": payload, "peak_rss_mib": peak}


def run_cli(args) -> dict:
    """Run the CLI once; time to first stdout byte, wall time, peak RSS, stdout digest."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradeforge", *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=_env(),
    )
    _current.append(proc)
    try:
        fd = proc.stdout.fileno()
        digest = hashlib.sha256()
        size = 0
        ttfb = None
        with proc.stdout:
            while True:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                if ttfb is None:
                    ttfb = perf_counter() - start
                digest.update(chunk)
                size += len(chunk)
        code, peak = _reap(proc)
    finally:
        _current.remove(proc)
    wall = perf_counter() - start
    return {"code": code, "wall": wall, "ttfb": wall if ttfb is None else ttfb,
            "peak": peak, "bytes": size, "sha256": digest.hexdigest()}


def _cli_ok(run, record) -> bool:
    return run["code"] == 0 and run["bytes"] == record["bytes"] and run["sha256"] == record["sha256"]


def _startup_walls(record) -> tuple:
    walls, refs = [], []
    for _ in range(SETUP_STARTS):
        refs.append(reference.calibration_point())
        run = run_cli(["count", "surjections", "3", "2"])
        if not _cli_ok(run, record):
            raise BenchError("`gradeforge count surjections 3 2` gave unexpected output")
        walls.append(run["wall"])
    return walls, refs


# ---------------------------------------------------------------------------
# workloads


def measure_families_cli(seed, seconds, trace) -> dict:
    record = EXPECTED["families_cli"]
    startup, startup_refs = _startup_walls(record["startup"])
    passes = []
    failures = {}
    began = perf_counter()
    longest = 0.0
    references = []
    while not passes or perf_counter() - began + longest <= seconds:
        t0 = perf_counter()
        runs = {}
        for form, extra in (("json", ["--json"]), ("text", [])):
            references.append(reference.calibration_point())
            runs[form] = run_cli(["filters", FIXTURE, FIXTURE, *extra])
        longest = max(longest, perf_counter() - t0)
        for form, run in runs.items():
            run["ok"] = _cli_ok(run, record[form])
            if not run["ok"]:
                key = f"filters {form}: exit {run['code']}" if run["code"] else f"filters {form}: wrong output"
                failures[key] = failures.get(key, 0) + 1
        passes.append(runs)
        if trace:
            break
    op_times = [[p["json"]["wall"], p["text"]["wall"]] for p in passes]
    first_bytes = [[p["json"]["ttfb"], p["text"]["ttfb"]] for p in passes]
    samples = {
        "wall_s": [sum(times) for times in op_times],
        "setup_s": startup,
        "peak_rss_mib": [max(p["json"]["peak"], p["text"]["peak"]) for p in passes],
        "ttfb_s": [sum(times) for times in first_bytes],
        "ok_frac": [(p["json"]["ok"] + p["text"]["ok"]) / 2 for p in passes],
    }
    result = {
        "attempted": 2 * len(passes),
        "failed": sum(failures.values()),
        "wrong": sum(n for k, n in failures.items() if k.endswith("wrong output")),
        "failures": failures,
        "samples": samples,
        "raw": {"wall_s": sum_of_medians(op_times), "ttfb_s": sum_of_medians(first_bytes)},
        "op_times": op_times,
        # A CLI run lasts seconds, longer than the loops timed before it can
        # speak for, so the run's median loop time calibrates every CLI run.
        "calibration": reference.REFERENCE_S / statistics.median(references),
        "setup_reference_s": startup_refs,
    }
    result["values"] = {name: raw * result["calibration"] for name, raw in result["raw"].items()}
    if trace:
        child = spawn_child("families_cli", seed, seconds, 1)["payload"]
        layers = child["layers"]
        layers["cli.startup.s"] = statistics.median(startup)
        layers["cli.overhead.s"] = samples["wall_s"][0] - (layers["cli.run.json.s"] + layers["cli.run.text.s"])
        result["layers"] = layers
        for key in ("attempted", "failed", "wrong"):
            result[key] += child[key]
        result["failures"].update(child["failures"])
        result["attempted"] += 1
        if child["reproduction_sha256"] != passes[0]["json"]["sha256"]:
            result["failed"] += 1
            result["wrong"] += 1
            result["failures"]["reproduction differs from the subprocess's stdout: wrong output"] = 1
        result["spans"] = child.get("spans")
    return result


def measure_inprocess(workload, seed, seconds, trace) -> dict:
    refs = [reference.calibration_point()]
    main = spawn_child(workload, seed, seconds, trace)
    setups = [main["setup_s"]]
    if not trace:
        for _ in range(SETUP_STARTS - 1):
            refs.append(reference.calibration_point())
            setups.append(spawn_child(workload, seed, seconds, 0, setup_only=True)["setup_s"])
    child = main["payload"]
    result = {key: child[key] for key in ("attempted", "failed", "wrong", "failures")}
    result["samples"] = {
        "wall_s": [sum(times) for times in child["op_times"]],
        "setup_s": setups,
        "peak_rss_mib": [main["peak_rss_mib"]],
        "ttfb_s": child["ttfb_s"],
        "ok_frac": child["ok_frac"],
    }
    first = child["first_group_ops"]
    calibrated = [[t * scale for t, scale in zip(times, scales)]
                  for times, scales in zip(child["op_times"], child["op_scales"])]
    result["raw"] = {
        "wall_s": sum_of_medians(child["op_times"]),
        "ttfb_s": sum_of_medians([times[:first] for times in child["op_times"]]),
    }
    result["values"] = {
        "wall_s": sum_of_medians(calibrated),
        "ttfb_s": sum_of_medians([times[:first] for times in calibrated]),
    }
    result["calibration"] = result["values"]["wall_s"] / result["raw"]["wall_s"]
    result["op_times"] = child["op_times"]
    result["setup_reference_s"] = refs
    for key in ("layers", "absent", "spans", "traced_wall_s"):
        if key in child:
            result[key] = child[key]
    return result


def sum_of_medians(op_times) -> float:
    """A pass's wall time with each operation's time taken as its median over
    the passes; steadier than the median pass when short bursts of load
    slow single operations."""
    return sum(statistics.median(times) for times in zip(*op_times))


def known_failures(workload) -> set:
    """Failures recorded with the expected outputs: still counted as failed, but known."""
    records = EXPECTED.get(workload, {})
    return {
        f"{name}: {rec['seed_outcome']}"
        for name, rec in records.items()
        if isinstance(rec, dict) and rec.get("seed_outcome") not in (None, rec.get("outcome"))
    }


def measure(workload, seed, seconds, trace) -> dict:
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        if workload == "families_cli":
            result = measure_families_cli(seed, seconds, trace)
        else:
            result = measure_inprocess(workload, seed, seconds, trace)
    finally:
        signal.alarm(0)
    known = known_failures(workload)
    result["correct"] = result["wrong"] == 0 and all(key in known for key in result["failures"])
    if trace:
        missing = {m["name"] for m in SPEC["per_layer"]} - set(result["layers"])
        if missing:
            raise BenchError(f"traced run lacks per-layer metrics {sorted(missing)}")
        result["metrics"] = {
            m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]} for m in SPEC["per_layer"]
        }
    else:
        # Times are calibrated by the reference loop (reference.py); each set-up
        # time by the loops timed just before it.
        values = result["values"]
        values["setup_s"] = statistics.median(
            wall * reference.REFERENCE_S / ref
            for wall, ref in zip(result["samples"]["setup_s"], result["setup_reference_s"])
        )
        result["metrics"] = {
            m["name"]: {
                "value": values.get(m["name"], statistics.median(result["samples"][m["name"]])),
                "unit": m["unit"],
            }
            for m in SPEC["end_to_end"]
        }
    return result


# ---------------------------------------------------------------------------
# reporting


def tail_percentile(samples):
    """(p, value) for the highest percentile p >= 50 with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = min(99, math.floor(100 * (1 - 10 / n)))
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def describe(name, unit, samples, value=None, raw=None) -> str:
    if value is None:
        text = f"  {name:<14} {statistics.median(samples):12.6g} {unit:<6} median of n={len(samples)}"
    else:
        text = f"  {name:<14} {value:12.6g} {unit:<6} calibrated; raw {raw:.6g} {unit}, n={len(samples)}"
    tail = tail_percentile(samples)
    if tail:
        text += f", p{tail[0]} {tail[1]:.6g} {unit}"
    elif unit == "s":
        text += " (too few samples for a tail percentile)"
    return text


def meta(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def print_result(workload, result, trace) -> None:
    print(f"{workload}: {result['attempted']} operations, {result['failed']} failed, "
          f"{result['wrong']} wrong outputs; correct={str(result['correct']).lower()}")
    known = known_failures(workload)
    for key, count in sorted(result["failures"].items()):
        note = " (known: recorded with the expected outputs)" if key in known else ""
        print(f"  failed x{count}: {key}{note}")
    if trace:
        absent = set(result.get("absent", ()))
        for m in SPEC["per_layer"]:
            note = "  (absent: the program no longer has these helpers)" if m["name"] in absent else ""
            print(f"  {m['name']:<48} {result['layers'][m['name']]:12.6g} {m['unit']}{note}")
        return
    print(f"  calibration by the reference loop: wall times x{result['calibration']:.4f}")
    for m in SPEC["end_to_end"]:
        name = m["name"]
        raw = result["raw"].get(name, statistics.median(result["samples"][name]))
        print(describe(name, m["unit"], result["samples"][name], result["values"].get(name), raw))
    latencies = [t for times in result["op_times"] for t in times]
    print(describe("op_latency", "s", latencies) + " operations")


def run(args) -> int:
    if not (SRC / "gradeforge" / "__init__.py").is_file():
        print(f"benchmark: no gradeforge sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    info = meta(args)
    print(f"gradeforge benchmark: python {info['python']}, nproc {info['nproc']}, "
          f"commit {info['commit'] or 'unknown'}, seed {args.seed}, {args.seconds} s per workload, "
          f"trace {args.trace}")
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(name, results[name], args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps({"meta": info, "workloads": results}, indent=1) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    if len(names) == 1:
        only = results[names[0]]
        metrics = only["metrics"]
    else:
        only = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": only["correct"], "attempted": only["attempted"],
                      "failed": only["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# compare


def _spread(samples) -> float:
    if len(samples) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(base, new, base_samples, new_samples, better, bound) -> tuple:
    """(ratio, verdict) for one metric: its two values, and the samples
    (passes or starts) behind each, whose spread decides "unresolved"."""
    if base == 0:
        return None, "unchanged" if new == 0 else "unresolved"
    ratio = new / base
    worse = ratio - 1 if better == "lower" else 1 - ratio
    sign = 1 if better == "lower" else -1
    separated = (max(sign * v for v in new_samples) < min(sign * v for v in base_samples)
                 or min(sign * v for v in new_samples) > max(sign * v for v in base_samples))
    if max(_spread(base_samples), _spread(new_samples)) > bound and not separated:
        return ratio, "unresolved"
    if worse > bound:
        return ratio, "regressed"
    if worse < -bound:
        return ratio, "improved"
    return ratio, "unchanged"


def compare(base_path, new_path) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for label, doc in (("base", base), ("new", new)):
        m = doc["meta"]
        print(f"{label}: commit {m['commit'] or 'unknown'} (source {m['source_sha256'][:12]}), "
              f"python {m['python']}, nproc {m['nproc']}, seed {m['seed']}, trace {m['trace']}")
    specs = {m["name"]: m for m in SPEC["end_to_end"]}
    layer_bound = specs["wall_s"]["bound"]
    specs.update({m["name"]: dict(m, bound=layer_bound) for m in SPEC["per_layer"]})
    print(f"{'workload':<13} {'metric':<48} {'base':>12} {'new':>12} {'ratio':>7}  verdict")
    for workload, old in base["workloads"].items():
        cur = new["workloads"].get(workload)
        if cur is None:
            continue
        for name, spec in specs.items():
            if name not in old["metrics"] or name not in cur["metrics"]:
                continue
            a, b = old["metrics"][name]["value"], cur["metrics"][name]["value"]
            ratio, verdict = judge(a, b, old.get("samples", {}).get(name, [a]),
                                   cur.get("samples", {}).get(name, [b]), spec["better"], spec["bound"])
            shown = "-" if ratio is None else f"{ratio:.3f}"
            print(f"{workload:<13} {name:<48} {a:12.6g} {b:12.6g} {shown:>7}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gradeforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
