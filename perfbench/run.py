"""Benchmark of the topoaware CLI on two seeded 100k-vertex workloads.

    python3 perfbench/run.py --workload {select,evaluate_write} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root. It builds its inputs from --seed (cached
under .perfbench_cache/, never timed), then runs the workload's command
sequence through `topoaware.cli.main(argv)` in a fresh worker process per
sequence: a closed loop with one client and one command at a time. It
starts another sequence while the measured time plus the last sequence
still fits in --seconds, so a run measures at least one sequence.

--trace 0 reports the end-to-end metrics: `run_s` (median sequence wall
time), `setup_s` (median import time of `topoaware.cli` over several fresh
workers) and `peak_rss_mb` (median worker peak RSS), and prints the time of
each subcommand. --trace 1 runs each sequence once untraced and once with
every library function named in spans.py wrapped from outside, and reports
per-layer self times and work counts.

Every command's output is checked by check.py after the worker has exited;
a nonzero exit, a failed check or output bytes that differ from another
sequence (or an earlier run of the same code and seed) count as failed.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. The full record of the run goes to .perfbench_cache/results/.
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
from functools import partial
from pathlib import Path

import numpy as np
import scipy

import check
import inputs
from spans import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
SETUP_SAMPLES = 3             # import-only workers per run; every sequence adds one
WORKER_TIMEOUT_S = 170
WALL_BUDGET_S = 150           # start no sequence that could push a run past this
WORKLOADS = ("select", "evaluate_write")
SUBCOMMANDS = ("partition", "distortion", "sample", "evaluate", "embed", "synth")
PARTITION_COMMANDS = ("partition", "distortion", "evaluate")
SELECTIONS = ("sampling.kcenter", "sampling.coverage", "sampling.baseline")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no package, a worker died)."""


# ---------------------------------------------------------------------------
# workloads


def commands(workload: str, seed: int, n: int) -> list[dict]:
    """The command sequence of one workload: name, argv (paths relative to
    the repository root), output files, and the check for its outputs."""
    i = inputs.input_dir(workload, seed, n, CACHE).relative_to(ROOT)
    o = (CACHE / "out" / f"{workload}-s{seed}-n{n}").relative_to(ROOT)
    g = ["--graph", str(i / "graph.txt")]
    s = ["--seeds", str(i / "seeds.txt")]
    if workload == "select":
        runs = (("kcenter", 200, []), ("coverage", 100, ["--seed", str(seed)]),
                ("pagerank", 100, []))
        return [{"name": f"sample-{m}",
                 "argv": ["sample", *g, "--method", m, "--k", str(k), *extra,
                          "--out", str(o / f"sample-{m}.json")],
                 "outputs": {"report": o / f"sample-{m}.json"},
                 "check": partial(check.check_sample, method=m, k=k)}
                for m, k, extra in runs]
    if workload == "evaluate_write":
        emb = ["--embeddings", str(i / "embeddings.csv")]
        sizes = inputs.synth_sizes(n)
        p_in, p_out = inputs.SYNTH_P_IN, inputs.SYNTH_P_OUT
        return [
            # synth runs first, in a fresh process, so its n^2 pair arrays set
            # peak_rss_mb without stacking on what earlier commands left behind
            {"name": "synth",
             "argv": ["synth", "--sizes", ",".join(map(str, sizes)), "--p-in", repr(p_in),
                      "--p-out", repr(p_out), "--seed", str(seed),
                      "--out", str(o / "synth.txt"), "--labels-out", str(o / "synth-labels.csv")],
             "outputs": {"graph": o / "synth.txt", "labels": o / "synth-labels.csv"},
             "check": partial(check.check_synth, sizes=sizes, p_in=p_in, p_out=p_out)},
            {"name": "embed",
             "argv": ["embed", *g, "--features", str(i / "features.csv"), "--layers", "2",
                      "--out", str(o / "embed.csv")],
             "outputs": {"table": o / "embed.csv"},
             "check": partial(check.check_embed, layers=2)},
            {"name": "partition", "argv": ["partition", *g, *s, "--out", str(o / "partition.json")],
             "outputs": {"report": o / "partition.json"}, "check": check.check_partition},
            {"name": "distortion",
             "argv": ["distortion", *g, *s, *emb, "--out", str(o / "distortion.json")],
             "outputs": {"report": o / "distortion.json"}, "check": check.check_distortion},
            {"name": "evaluate",
             "argv": ["evaluate", *g, *s, "--labels", str(i / "labels.csv"),
                      "--predictions", str(i / "predictions.csv"), *emb,
                      "--out", str(o / "evaluate.json")],
             "outputs": {"report": o / "evaluate.json"}, "check": check.check_evaluate},
        ]
    raise BenchError(f"unknown workload {workload!r}")


INPUT_FLAGS = ("--graph", "--seeds", "--embeddings", "--labels", "--predictions", "--features")


def io_bytes(cmds: list[dict]) -> tuple[int, int]:
    """Bytes of the files a sequence reads and writes, from their sizes."""
    read = sum((ROOT / c["argv"][j + 1]).stat().st_size
               for c in cmds for j, a in enumerate(c["argv"]) if a in INPUT_FLAGS)
    written = sum((ROOT / p).stat().st_size for c in cmds for p in c["outputs"].values())
    return read, written


# ---------------------------------------------------------------------------
# workers


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(work: Path, tag: str, argvs: list, trace: bool) -> dict:
    """Run one fresh worker to completion and return its measurements."""
    spec = work / f"{tag}.spec.json"
    result = work / f"{tag}.result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"src": str(SRC), "commands": argvs, "trace": trace,
                                "result": str(result)}), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)],
                              cwd=ROOT, env=worker_env(), stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker {tag} exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output verdicts and digests


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "topoaware").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Verdicts:
    """Checks each distinct output once and compares every sequence's
    output digests with the first sequence and with earlier runs."""

    def __init__(self, workload: str, seed: int, n: int, cmds: list[dict]):
        self.ctx = check.Context(workload, seed, n)
        self.cmds = cmds
        self.first: dict | None = None
        self.problems: dict = {}
        self.store = CACHE / "digests" / code_digest() / f"{workload}-s{seed}-n{n}.json"
        self.earlier = (json.loads(self.store.read_text(encoding="utf-8"))
                        if self.store.exists() else None)

    def judge(self, worker: dict) -> tuple[list, dict]:
        """Per command: a list of problems (empty when it passed)."""
        results, digests = [], {}
        for cmd, ran in zip(self.cmds, worker["commands"]):
            if ran["exit"] != 0:
                results.append([f"exit code {ran['exit']}"])
                continue
            missing = [k for k, p in cmd["outputs"].items() if not (ROOT / p).exists()]
            if missing:
                results.append([f"missing output {missing}"])
                continue
            d = {k: sha256(ROOT / p) for k, p in cmd["outputs"].items()}
            digests[cmd["name"]] = d
            key = json.dumps(d, sort_keys=True)
            if key not in self.problems:
                out = {k: ROOT / p for k, p in cmd["outputs"].items()}
                try:
                    self.problems[key] = cmd["check"](self.ctx, out)
                except Exception as exc:  # an unreadable output fails its command
                    self.problems[key] = [f"output could not be checked: {exc!r}"]
            problems = list(self.problems[key])
            if self.first is not None and self.first.get(cmd["name"]) not in (None, d):
                problems.append("output bytes differ from the first sequence of this run")
            if self.earlier is not None and self.earlier.get(cmd["name"]) not in (None, d):
                problems.append("output bytes differ from an earlier run of the same code and seed")
            results.append(problems)
        if self.first is None:
            self.first = digests
        return results, digests

    def save(self) -> None:
        if self.earlier is None and self.first:
            self.store.parent.mkdir(parents=True, exist_ok=True)
            self.store.write_text(json.dumps(self.first, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")


# ---------------------------------------------------------------------------
# metrics


def tail(values: list) -> str:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(q * 10) - 1]
            return f"p{q:g}={cut:.4f}"
    return "-"


def subcommand_times(worker: dict) -> dict:
    out: dict = {}
    for ran in worker["commands"]:
        key = ran["argv"][0] + "_s"
        out[key] = out.get(key, 0.0) + ran["wall_s"]
    return out


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(worker: dict) -> dict:
    """Per-layer self times and work counts of one traced sequence."""
    spans = worker["spans"]
    absent = set(worker["absent"])
    own = self_times(spans)
    self_s: dict = {}
    calls: dict = {}
    per_cmd_partitions: dict = {c: 0 for c in PARTITION_COMMANDS}
    cmd_runs: dict = {}
    bfs_in_selection = 0
    seeds_selected = 0
    iterations = 0
    for i, (label, parent, start, end, note) in enumerate(spans):
        self_s[label] = self_s.get(label, 0.0) + own[i]
        calls[label] = calls.get(label, 0) + 1
        chain = []
        j = parent
        while j >= 0:
            chain.append(spans[j][0])
            j = spans[j][1]
        root = chain[-1] if chain else label
        if label.startswith("cli."):
            cmd_runs[label] = cmd_runs.get(label, 0) + 1
        if label == "metrics.partition" and root[4:] in per_cmd_partitions:
            per_cmd_partitions[root[4:]] += 1
        if label == "graph.bfs" and any(c in SELECTIONS for c in chain):
            bfs_in_selection += 1
        if label in SELECTIONS and note:
            seeds_selected += note["k"]
        if label == "graph.pagerank" and note:
            iterations += note["iterations"]
    m = {f"{label}_s": self_s.get(label, 0.0) for label in TARGETS if label not in absent}
    if "graph.bfs" not in absent:
        m["graph.bfs_calls"] = calls.get("graph.bfs", 0)
        m["sampling.bfs_per_seed"] = bfs_in_selection / seeds_selected if seeds_selected else 0.0
    if "graph.pagerank" not in absent:
        m["graph.pagerank_iterations"] = iterations
    if "metrics.partition" not in absent:
        m["metrics.partition_calls"] = calls.get("metrics.partition", 0)
        for cmd, count in per_cmd_partitions.items():
            runs = cmd_runs.get("cli." + cmd, 0)
            m[f"metrics.partition_calls.{cmd}"] = count / runs if runs else 0.0
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = self_s.get("cli." + sub, 0.0)
    return m


def self_time_gap(worker: dict) -> float:
    """Largest |wall - sum of self times in its tree| over the command spans;
    zero up to rounding when spans nest."""
    spans = worker["spans"]
    root = []
    for _, parent, _, _, _ in spans:
        root.append(root[parent] if parent >= 0 else len(root))
    total: dict = {}
    for r, own in zip(root, self_times(spans)):
        total[r] = total.get(r, 0.0) + own
    return max((abs(t - (spans[r][3] - spans[r][2])) for r, t in total.items()), default=0.0)


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "l3": l3,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


# ---------------------------------------------------------------------------
# one benchmark run


def run(workload: str, seed: int, seconds: float, trace: bool, n: int) -> dict:
    if not (SRC / "topoaware" / "cli.py").is_file():
        raise BenchError(f"no topoaware package under {SRC}")
    started = time.perf_counter()
    meta = inputs.build(workload, seed, n, CACHE)
    cmds = commands(workload, seed, n)
    work = CACHE / "work" / f"{workload}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (CACHE / "out" / f"{workload}-s{seed}-n{n}").mkdir(parents=True, exist_ok=True)
    verdicts = Verdicts(workload, seed, n, cmds)
    argvs = [c["argv"] for c in cmds]

    setup = [spawn(work, f"setup{i}", [], False)["setup_s"] for i in range(SETUP_SAMPLES)]
    plain, traced, failures = [], [], []
    attempted = failed = 0
    measured = 0.0
    while True:
        pair = 0.0
        for tracing in ((False, True) if trace else (False,)):
            w = spawn(work, f"seq{len(plain) + len(traced)}", argvs, tracing)
            setup.append(w["setup_s"])
            pair += w["run_s"]
            results, w["digests"] = verdicts.judge(w)
            for cmd, problems in zip(cmds, results):
                attempted += 1
                if problems:
                    failed += 1
                    failures.append({"command": cmd["name"], "traced": tracing,
                                     "problems": problems[:5]})
            (traced if tracing else plain).append(w)
        measured += pair
        elapsed = time.perf_counter() - started
        if measured + pair > seconds or elapsed + 2 * pair > WALL_BUDGET_S:
            break
    verdicts.save()

    read, written = io_bytes(cmds)
    med = statistics.median
    run_s = [w["run_s"] for w in plain]
    e2e = {"run_s": (med(run_s), "s", run_s),
           "setup_s": (med(setup), "s", setup),
           "peak_rss_mb": (med([w["peak_rss_mb"] for w in plain]), "MB",
                           [w["peak_rss_mb"] for w in plain])}
    subs = {}
    for key in subcommand_times(plain[0]):
        vals = [subcommand_times(w)[key] for w in plain]
        subs[key] = (med(vals), "s", vals)
    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "machine": machine_facts(), "inputs": meta, "code": code_digest(),
              "sequences": len(plain), "attempted": attempted, "failed": failed,
              "failures": failures, "end_to_end": {k: v[0] for k, v in e2e.items()},
              "subcommands": {k: v[0] for k, v in subs.items()},
              "samples": {k: v[2] for k, v in {**e2e, **subs}.items()},
              "digests": [w["digests"] for w in plain + traced]}
    table = [(k, *v) for k, v in {**e2e, **subs}.items()]
    if trace:
        layers = [layer_metrics(w) for w in traced]
        # times are medians over the traced sequences; counts repeat exactly
        per_layer = {k: med([lm[k] for lm in layers]) if k.endswith("_s") else v
                     for k, v in layers[0].items()}
        per_layer["ingest.bytes_read"] = read
        per_layer["ingest.bytes_written"] = written
        per_layer["trace_overhead_s"] = med([w["run_s"] for w in traced]) - med(run_s)
        counts = [{k: v for k, v in lm.items() if not k.endswith("_s")} for lm in layers]
        record.update(per_layer=per_layer, absent=traced[0]["absent"],
                      counts_repeat=all(c == counts[0] for c in counts),
                      self_time_gap_s=max(self_time_gap(w) for w in traced),
                      spans=traced[0]["spans"])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    record["metrics"] = metrics
    record["wall_s"] = time.perf_counter() - started
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{int(trace)}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    print_table(record, table)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("ingest.bytes"):
        return "bytes"
    if metric == "sampling.bfs_per_seed":
        return "calls/seed"
    return "count"


def print_table(record: dict, table: list) -> None:
    m, meta = record["machine"], record["inputs"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"sequences {record['sequences']}  wall {record['wall_s']:.1f} s  code {record['code']}")
    print(f"inputs   n={meta['n']} m={meta['m']} dim={meta['dim']} "
          f"bytes={meta['total_bytes']} seed={meta['seed']}")
    print(f"machine  nproc={m['nproc']} cpu={m['cpu_model']!r} l3={m['l3']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    print(f"{'metric':<34}{'median':>12}  {'tail':<16}{'n':>4}  unit")
    for name, value, unit, samples in table:
        print(f"{name:<34}{value:>12.4f}  {tail(samples):<16}{len(samples):>4}  {unit}")
    frac = record["failed"] / record["attempted"]
    print(f"{'ops_failed_frac':<34}{frac:>12.4f}  "
          f"({record['failed']} of {record['attempted']} commands failed)")
    for f in record["failures"]:
        print(f"FAILED {f['command']} traced={f['traced']}: {'; '.join(f['problems'])}")
    if record["trace"]:
        for name, value in record["per_layer"].items():
            print(f"{name:<34}{value:>12.4f}  {unit_of(name)}")
        for label in record["absent"]:
            print(f"{label:<34}{'absent':>12}")
        print(f"counts repeat across traced sequences: {record['counts_repeat']}; "
              f"largest self-time gap {record['self_time_gap_s']:.2e} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), inputs.VERTICES)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
