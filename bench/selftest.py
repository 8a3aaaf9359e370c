"""Self-test of the benchmark itself (about two minutes on 2 cores).

    python3 bench/selftest.py

1. Smoke: one fresh-process pass of every workload at seed 0 passes every
   output check.
2. Trace: a traced in-process pass of magic-survey and of cavity-spectra
   (which has a two-thread task) has non-negative span self times that sum
   to the traced wall time, leaves no wrapper installed, and writes the same
   bytes as the fresh-process pass.
3. Corruption: each kind of output check is shown to catch a deliberately
   corrupted output, the corrupted pass's fail_frac counts every corrupted
   task, and the byte comparison that checks later passes flags each one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
from checks import task_problems
from workloads import WORKLOADS, make_tasks


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _rewrite_rows(path: Path, edit) -> None:
    """Apply ``edit`` to the data rows of a CSV output, as lists of strings."""
    lines = path.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    rows = [ln.split(",") for ln in lines[start:]]
    edit(rows)
    path.write_text("\n".join(lines[:start] + [",".join(r) for r in rows]) + "\n")


def _scale(rows, i, col, factor):
    rows[i][col] = repr(float(rows[i][col]) * factor)


def _set(row, col, value):
    row[col] = value


# (output, corruption, substring the resulting problem must contain)
CORRUPTIONS = {
    "magic-survey": [
        ("m0.json", lambda p: p.write_text(p.read_text().replace("813.428", "813.429", 1)),
         "differs from magic_sr87_700_900.json"),
        ("m1.json", lambda p: _rewrite_json(
            p, lambda d: d["points"][0].update(lambda_nm=d["points"][0]["bracket_nm"][1] + 1)),
         "outside bracket"),
        ("sub_linear+0.json", lambda p: _rewrite_json(p, lambda d: d["points"][0].update(residual_au=1e-3)),
         "residual"),
        ("clock.csv", lambda p: _rewrite_rows(p, lambda r: _set(r[-1], 1, "nan")), "non-finite"),
        ("zeeman.json", lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
         "invalid JSON"),
        ("trap.csv", lambda p: p.unlink(), "missing"),
        ("ladder.csv", lambda p: _rewrite_rows(p, lambda r: _scale(r, 1, 1, 1.001)),
         "upper branch"),
    ],
    "scan-export": [
        ("golden.csv", lambda p: p.write_text(p.read_text().replace("335.874334", "335.874335", 1)),
         "differs from polarizability_sr87_700_900.csv"),
        ("scan.csv", lambda p: _rewrite_rows(p, lambda r: _scale(r, 1000, 3, 1.0001)),
         "delta != alpha1 - alpha2"),
        ("scan2.csv", lambda p: p.write_text(p.read_text() + p.read_text().splitlines()[-1] + "\n"),
         "differs from scan.csv"),
        ("scan.json", lambda p: p.write_text(p.read_text().replace("]]", ",1e999]]", 1)),
         "non-finite"),
    ],
    "cavity-spectra": [
        ("spec5.csv", lambda p: _rewrite_rows(p, lambda r: _scale(r, 100, 1, 1.01)),
         "vs oracle"),
        ("spec5j.json", lambda p: _rewrite_json(
            p, lambda d: [row.__setitem__(1, 1e-3 * (i + 1)) for i, row in enumerate(d["rows"])]),
         "no peak within one step"),
        ("block8.csv", lambda p: _rewrite_rows(p, lambda r: _set(r[0], 2, "1.5")),
         "lower polariton"),
        ("spec20_0.csv", lambda p: _rewrite_rows(p, lambda r: r[5].pop()), "fields under"),
    ],
}


def main() -> int:
    env = run.task_env()
    work = run.ROOT / ".bench_work" / "selftest"
    failures = []
    try:
        for workload in WORKLOADS:
            tasks = make_tasks(workload, 0, run.GOLDEN)
            fresh = run.fresh_pass(tasks, work / workload, env, 0)
            print(f"smoke {workload}: {len(tasks)} tasks, {fresh['wall']:.1f} s, "
                  f"{fresh['failed']} failed")
            failures += [f"smoke {workload}: {label}: {p}" for label, p in fresh["problems"]]

            if workload in ("magic-survey", "cavity-spectra"):
                failures += [f"trace {workload}: {m}" for m in
                             _trace_check(tasks, work / f"{workload}-inproc", work / workload)]

            failures += _corruption_check(workload, tasks, work / workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (run.ROOT / ".bench_work").is_dir() and not any((run.ROOT / ".bench_work").iterdir()):
            (run.ROOT / ".bench_work").rmdir()
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def _trace_check(tasks, workdir: Path, reference: Path) -> list[str]:
    os.environ.update(run.BLAS_ENV)
    sys.path.insert(0, str(run.SRC))
    import magictrap.cli
    import magictrap.polarizability
    from tracer import Tracer
    original = magictrap.polarizability.find_magic
    plain = run.inprocess_pass(tasks, workdir, reference)
    tracer = Tracer()
    tracer.install()
    try:
        if magictrap.cli.find_magic is original:
            return ["cli.find_magic was not patched"]
        traced = run.inprocess_pass(tasks, workdir, reference, tracer)
    finally:
        tracer.restore()
    problems = [f"{label}: {p}" for label, p in plain["problems"] + traced["problems"]]
    if magictrap.cli.find_magic is not original:
        problems.append("cli.find_magic not restored")
    problems += run.trace_problems(tracer.spans, traced["walls"],
                                   traced["wall"] - plain["wall"])
    print(f"trace: {len(tracer.spans)} spans, traced {traced['wall']:.3f} s, "
          f"untraced {plain['wall']:.3f} s")
    return problems


def _corruption_check(workload, tasks, workdir: Path) -> list[str]:
    problems = []
    by_output = {name: task for task in tasks for name in task.outputs}
    pristine = workdir.with_name(workdir.name + "-pristine")
    shutil.copytree(workdir, pristine)
    corrupted = set()
    for name, corrupt, expect in CORRUPTIONS[workload]:
        corrupt(workdir / name)
        found = task_problems(by_output[name], workdir, 0, "")
        if not any(expect in p for p in found):
            problems.append(f"corrupt {workload}/{name}: expected '{expect}', got {found}")
        corrupted.add(by_output[name].label)
    failed = sum(bool(task_problems(t, workdir, 0, "")) for t in tasks)
    if failed != len(corrupted):
        problems.append(f"corrupt {workload}: {failed} tasks failed, {len(corrupted)} corrupted")
    print(f"corrupt {workload}: fail_frac {failed}/{len(tasks)} = {failed / len(tasks):.3f}")
    # a later pass is held to the first pass's bytes
    differ = {t.label for t in tasks if task_problems(t, workdir, 0, "", pristine)}
    if differ != corrupted:
        problems.append(f"corrupt {workload}: byte comparison flagged {sorted(differ)}")
    healthy = next(t for t in tasks if t.label not in corrupted)
    for code, stderr, expect in ((1, "", "exit code 1"),
                                 (0, "Traceback (most recent call last):\n", "traceback")):
        if not any(expect in p for p in task_problems(healthy, workdir, code, stderr)):
            problems.append(f"{workload}: '{expect}' not caught")
    return problems


if __name__ == "__main__":
    sys.exit(main())
