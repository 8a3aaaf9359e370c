"""magictrap benchmark: seeded CLI workloads, each task a fresh process.

    python3 bench/run.py --workload magic-survey --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the program is taken from ``src/`` next
to this directory. ``--trace 0`` repeats passes over the workload's task
list for ``--seconds`` and reports the end-to-end metrics. ``--trace 1``
makes one fresh-process pass, then runs the same tasks in-process through
``magictrap.cli.run`` with and without spans around each layer's public
functions, and reports the per-layer metrics. Every task's outputs are
checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--out FILE`` also writes
the full record (environment, sample counts, failures, ROADMAP rows).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checks import task_problems
from tracer import Tracer, layer_metrics, self_times
from workloads import WORKLOADS, make_tasks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
PY = sys.executable

# One BLAS thread in every task process and in the traced in-process run: the
# thread count moved dense-solve timings 5x, so parent and change must agree.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES_PER_PASS = 4
TASK_TIMEOUT_S = 60.0
HAND_TOLERANCE = 0.2      # a ROADMAP row "agrees" within +-20 % of its hand value


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(cmd: list[str], cwd: Path, env: dict) -> Proc:
    """Run one process to completion; wall time, rusage from os.wait4."""
    out_path, err_path = cwd / "_stdout", cwd / "_stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(TASK_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no task process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def fresh_dir(path: Path, tasks) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    for task in tasks:
        for name, text in task.inputs.items():
            (path / name).write_text(text, encoding="utf-8")
    return path


def task_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    env.pop("MAGICTRAP_DATA", None)
    return env


def fresh_pass(tasks, workdir: Path, env: dict, setup_samples: int,
               reference: Path | None = None) -> dict:
    """One pass, each task a fresh process; --version samples interleaved.
    Outputs are checked in full, or against ``reference`` byte for byte."""
    fresh_dir(workdir, tasks)
    every = max(1, len(tasks) // max(setup_samples, 1))
    procs, setup, problems = [], [], []
    for i, task in enumerate(tasks):
        if setup_samples and i % every == 0 and len(setup) < setup_samples:
            p = spawn([PY, "-m", "magictrap", "--version"], workdir, env)
            if p.code != 0 or not p.stdout.startswith("magictrap "):
                problems.append(("--version", [f"exit {p.code}: {p.stderr.strip()[-200:]}"]))
            setup.append(p.wall)
        head = [PY, str(BENCH / "sublevel.py")] if task.script else [PY, "-m", "magictrap"]
        procs.append(spawn(head + task.argv, workdir, env))
    failed = 0
    for task, p in zip(tasks, procs):
        found = task_problems(task, workdir, p.code, p.stderr, reference)
        if found:
            failed += 1
            problems.append((task.label, found))
    return {"walls": [p.wall for p in procs], "wall": sum(p.wall for p in procs),
            "rss_mb": max(p.rss_mb for p in procs), "cpu_s": sum(p.cpu for p in procs),
            "setup": setup, "failed": failed, "problems": problems}


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(tasks, work: Path, env: dict, seconds: float) -> dict:
    """Passes while the next one would end less than half a pass past
    ``seconds``, so a run lasts ``seconds`` on average; at least one."""
    start = time.perf_counter()
    first = work / "pass0"
    passes = [fresh_pass(tasks, first, env, SETUP_SAMPLES_PER_PASS)]
    while True:
        # the full output check runs once; later passes compare bytes with it
        took = passes[-1]["wall"] + sum(passes[-1]["setup"])
        if time.perf_counter() - start + took / 2 >= seconds:
            break
        passes.append(fresh_pass(tasks, work / "pass", env, SETUP_SAMPLES_PER_PASS, first))
    walls = [w for p in passes for w in p["walls"]]
    setup = [s for p in passes for s in p["setup"]]
    attempted = len(walls)
    failed = sum(p["failed"] for p in passes)
    return {
        "metrics": {
            "wall_s": (_median([p["wall"] for p in passes]), "s", len(passes)),
            "task_p50_s": (_median(walls), "s", len(walls)),
            "setup_s": (_median(setup), "s", len(setup)),
            "peak_rss_mb": (_median([p["rss_mb"] for p in passes]), "MB", len(passes)),
            "fail_frac": (failed / attempted, "ratio", attempted),
        },
        "attempted": attempted, "failed": failed,
        "problems": [pr for p in passes for pr in p["problems"]],
        "passes": [{k: p[k] for k in ("walls", "setup", "rss_mb", "cpu_s")} for p in passes],
    }


def import_times(env: dict, samples: int = 3) -> dict:
    """Cumulative import seconds from ``python -X importtime``, per sample."""
    found = {"magictrap_cli": [], "scipy": [], "numpy": []}
    for _ in range(samples):
        p = subprocess.run([PY, "-X", "importtime", "-c", "import magictrap.cli"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        rows = []
        for line in p.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, name.strip(), int(cumulative) * 1e-6))
        totals = dict.fromkeys(found, 0.0)
        ancestors = []               # importtime prints children before parents
        for depth, name, cumulative in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            top = name.split(".")[0]
            if name == "magictrap.cli":
                totals["magictrap_cli"] += cumulative
            elif top in ("scipy", "numpy") and all(a[1] != top for a in ancestors):
                totals[top] += cumulative
            ancestors.append((depth, top))
        for key in found:
            found[key].append(totals[key])
    return found


def inprocess_pass(tasks, workdir: Path, reference: Path, tracer=None) -> dict:
    """Run the tasks through ``magictrap.cli.run`` (or sublevel.main) in this
    process; each output must equal the fresh-process pass's byte for byte."""
    import sublevel
    from magictrap.cavityqed import TruncationWarning
    cli = importlib.import_module("magictrap.cli")
    fresh_dir(workdir, tasks)
    cwd = os.getcwd()
    walls, problems, warned = [], [], 0
    os.chdir(workdir)
    try:
        for i, task in enumerate(tasks):
            entry = sublevel.main if task.script else cli.run
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                root = tracer.root("task", i) if tracer else None
                try:
                    code = entry(list(task.argv))
                except (Exception, SystemExit) as exc:
                    code = f"{type(exc).__name__}: {exc}"
                if root:
                    tracer.close(root)
                walls.append(time.perf_counter() - t0)
            warned += sum(issubclass(w.category, TruncationWarning) for w in caught)
            found = task_problems(task, workdir, code, sink.getvalue(), reference)
            if found:
                problems.append((task.label, found))
    finally:
        os.chdir(cwd)
    return {"walls": walls, "wall": sum(walls), "problems": problems, "warnings": warned}


def trace_problems(spans, task_walls, overhead_s: float) -> list[str]:
    """Self times are non-negative and sum to the traced wall time."""
    own, overlap = self_times(spans)
    problems = [f"negative self time {own[id(s)]:.3g} s in {s.name}"
                for s in spans if own[id(s)] < -1e-9]
    covered = sum(own.values()) - overlap
    wall = sum(task_walls)
    if not 0.0 <= wall - covered <= max(overhead_s, 0.0) + 0.01 * wall:
        problems.append(f"span self times sum to {covered:.6f} s, traced wall {wall:.6f} s")
    return problems


def measure_layers(tasks, work: Path, env: dict, seconds: float) -> dict:
    """One fresh-process pass, then in-process passes traced and untraced."""
    start = time.perf_counter()
    ref = fresh_pass(tasks, work / "fresh", env, 0)
    problems = list(ref["problems"])
    spawn_s = _median([spawn([PY, "-c", "pass"], work, env).wall for _ in range(5)])
    imports = import_times(env)

    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)
    import magictrap.cli
    if not Path(magictrap.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported magictrap from {magictrap.cli.__file__}, not {SRC}")

    warm = inprocess_pass(tasks, work / "inproc", work / "fresh")
    problems += warm["problems"]
    traced, plain, layers = [], [], []
    while not traced or time.perf_counter() - start + warm["wall"] * 2.5 < seconds:
        # alternate which of the pair runs first, so a drifting machine biases neither
        for tracing in (True, False) if len(traced) % 2 == 0 else (False, True):
            tracer = Tracer() if tracing else None
            if tracing:
                tracer.install()
            try:
                p = inprocess_pass(tasks, work / "inproc", work / "fresh", tracer)
            finally:
                if tracing:
                    tracer.restore()
            problems += p["problems"]
            if tracing:
                traced.append(p)
                layers.append((layer_metrics(tracer.spans, p["warnings"]), tracer.spans))
            else:
                plain.append(p)
        if len(traced) == 1:
            problems += [("trace", [msg]) for msg in trace_problems(
                layers[0][1], traced[0]["walls"], traced[0]["wall"] - plain[0]["wall"])]

    metrics = {}
    for name, (_, unit, samples) in layers[0][0].items():
        metrics[name] = (_median([m[name][0] for m, _ in layers]), unit, samples)
    metrics.update({
        f"import.{key}_s": (_median(values), "s", len(values))
        for key, values in imports.items()})
    metrics.update({
        "process.cpu_s": (ref["cpu_s"], "s", len(tasks)),
        "process.spawn_s": (spawn_s, "s", 5),
        "trace.overhead_frac": (_median([t["wall"] for t in traced])
                                / _median([u["wall"] for u in plain]) - 1.0,
                                "ratio", len(traced)),
    })
    ladder = [w for task, w in zip(tasks, ref["walls"]) if task.argv[0] == "ladder"]
    return {
        "metrics": metrics,
        "attempted": len(tasks) * (2 + 2 * len(traced)),
        "failed": ref["failed"] + sum(len(p["problems"]) for p in [warm, *traced, *plain]),
        "problems": problems,
        "roadmap_rows": roadmap_rows([s for _, spans in layers for s in spans],
                                     imports, ladder),
    }


# ROADMAP rows measured by hand (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
HAND_ROWS = [
    ("vacuum_rabi_spectrum per probe point, n_max=5", 8.5, "ms"),
    ("vacuum_rabi_spectrum per probe point, n_max=8", 12.2, "ms"),
    ("vacuum_rabi_spectrum per probe point, n_max=20", 53.0, "ms"),
    ("find_magic Sr87, 700-900 nm", 2.0, "ms"),
    ("find_magic Sr87, 300-3000 nm (7 roots)", 10.8, "ms"),
    ("scan_delta_alpha, 2e5 points, serial", 47.0, "ms"),
    ("scan_delta_alpha, 2e5 points, jobs=2", 62.0, "ms"),
    ("import magictrap.cli", 0.76, "s"),
    ("import scipy, within import magictrap.cli", 0.54, "s"),
    ("magictrap ladder wall time", 0.87, "s"),
]


def roadmap_rows(spans, imports, ladder_walls) -> list[dict]:
    """The ROADMAP's hand-measured rows that this workload reproduces."""
    def ms(pred):
        return [1e3 * (s.end - s.start) for s in spans if pred(s)]

    def magic(lo, hi):
        return lambda s: (s.name == "polarizability.find_magic"
                          and s.tags["species"] == "Sr87" and not s.tags["sublevel"]
                          and s.tags["states"] == ("1S0", "3P0")
                          and [round(x * 1e9, 6) for x in s.tags["search"]] == [lo, hi])

    def scan(jobs):
        return lambda s: (s.name == "polarizability.scan_delta_alpha"
                          and s.tags["requested"] == 200000 and s.tags["jobs"] == jobs)

    def solve(n):
        return lambda s: s.name == "cavityqed.steady_state" and s.tags["n_max"] == n

    measured = [ms(solve(5)), ms(solve(8)), ms(solve(20)), ms(magic(700, 900)),
                ms(magic(300, 3000)), ms(scan(1)), ms(scan(2)),
                imports["magictrap_cli"], imports["scipy"], ladder_walls]
    rows = []
    for (name, hand, unit), values in zip(HAND_ROWS, measured):
        if not values:
            continue
        value = _median(values)
        rows.append({"row": name, "unit": unit, "hand": hand, "measured": value,
                     "samples": len(values), "ratio": value / hand,
                     "agrees": abs(value / hand - 1.0) <= HAND_TOLERANCE})
    return rows


def environment(env: dict, seed: int) -> dict:
    probe = ("import json, os, sys, numpy, scipy\n"
             "deps = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
             " 'scipy': scipy.__version__, 'blas': f\"{deps['name']} {deps['version']}\"}))")
    p = subprocess.run([PY, "-c", probe], cwd=ROOT, env=env, capture_output=True,
                       text=True, check=True)
    record = json.loads(p.stdout)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    record.update({
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_ENV, "seed": seed,
    })
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full record here")
    args = ap.parse_args(argv)

    if not (SRC / "magictrap" / "__init__.py").is_file():
        print(f"run.py: no magictrap sources under {SRC}; run it inside a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up on SIGTERM too
    env = task_env()
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tasks = make_tasks(args.workload, args.seed, GOLDEN)
    try:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "tasks": len(tasks),
                  "env": environment(env, args.seed)}
        measure = measure_layers if args.trace else measure_end_to_end
        record.update(measure(tasks, work, env, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    for name, (value, unit, samples) in record["metrics"].items():
        print(f"# {args.workload:15s} {name:44s} {value:14.6g} {unit:6s} "
              f"n={samples if samples is not None else '-'}")
    for row in record.get("roadmap_rows", []):
        print(f"# roadmap {row['row']:48s} hand {row['hand']:8.4g} {row['unit']:3s} "
              f"measured {row['measured']:10.4g} (n={row['samples']})"
              + ("" if row["agrees"] else "  DISAGREES"))
    for label, found in record["problems"]:
        print(f"# FAIL {label}: {'; '.join(found)}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n",
                            encoding="utf-8")
    result_names = None if args.trace else {"wall_s", "task_p50_s", "setup_s", "peak_rss_mb"}
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in record["metrics"].items()
                    if result_names is None or name in result_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
