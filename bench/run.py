"""semindex benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload intake --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A run repeats whole rounds of the
workload's `semindex` operations until the operations have taken about
--seconds (the round boundary nearest to it).  Each round starts with a
set-up: the workload's inputs are generated from the seed (see generate.py)
and written over the previous round's, and one warm-up child is started.
setup_s is the median of the run's set-ups.

With --trace 0 every operation is a `python -m semindex` child process,
started one at a time, and the end-to-end metrics are medians over rounds.
With --trace 1 the same operations call `semindex.cli.main` in this process,
with timing wrappers around each layer's public functions (tracing.py), and
the per-layer metrics are medians over rounds.

After the first round every output is checked (checks.py); after each later
round every output must be byte-identical to the first round's.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import generate
import tracing

WORK_DIR = Path(".bench_work")
NO_CONVERGENCE = "error: errors.NoConvergence: "

END_TO_END = {
    "wall_s": "s",
    "docs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Op:
    """One `semindex` command, run in `cwd` (relative to the work dir)."""

    cwd: str
    args: tuple
    docs: int  # documents it processes
    may_fail: bool = False  # the balanced-store run: NoConvergence is a known fault

    @property
    def label(self) -> str:
        return f"{self.cwd}: semindex {' '.join(self.args)}"


def _ops(workload: str, expected: dict) -> list:
    config = ("--config", "config.ini")
    if workload == "intake":
        return [Op(".", ("pipeline",) + config, generate.INTAKE_DOCS)]
    if workload == "archive":
        return [Op(".", ("pipeline",) + config, generate.ARCHIVE_DOCS)]
    n = generate.RECLUSTER_DOCS
    ops = []
    for k in generate.RECLUSTER_KS:
        ops.append(Op(f"k{k}", ("cluster",) + config, n))
        ops.append(Op(f"k{k}", ("export",) + config, n))
    for term in expected["ego_terms"]:
        ops.append(Op(f"k{generate.RECLUSTER_PLANTED_K}", ("export",) + config + ("--term", term), n))
    ops.append(Op("balanced", ("cluster",) + config, generate.BALANCED_DOCS, may_fail=True))
    return ops


def _output_files(work: Path, workload: str) -> list:
    """Every file the round's operations wrote, sorted."""
    files = []
    for out in sorted(work.glob("**/out")):
        for f in sorted(out.iterdir()):
            if not (workload == "recluster" and f.name == "index_store.json"):
                files.append(f)
    return files


def _clear_outputs(work: Path, workload: str) -> None:
    for f in _output_files(work, workload):
        f.unlink()


def _digest(work: Path, workload: str) -> dict:
    return {
        str(f.relative_to(work)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in _output_files(work, workload)
    }


class Runner:
    """Runs one op as a child process, or in this process when tracing."""

    def __init__(self, root: Path, work: Path, tracer=None, cli=None):
        self.work, self.tracer, self.cli = work, tracer, cli
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, op: Op):
        """(exit code, stdout, stderr, wall s, cpu s, max rss MB)."""
        cwd = self.work / op.cwd
        if self.tracer is not None:
            return self._in_process(op, cwd)
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "semindex", *op.args],
                cwd=cwd, env=self.env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def _in_process(self, op: Op, cwd: Path):
        out, err = io.StringIO(), io.StringIO()
        main = self.tracer.span(tracing.ROOT, self.cli.main)
        previous = os.getcwd()
        os.chdir(cwd)
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(op.args))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            wall = time.perf_counter() - start
        finally:
            os.chdir(previous)
        return code, out.getvalue(), err.getvalue(), wall, 0.0, 0.0


def _outcome(op: Op, code, stderr: str) -> bool:
    """True when the op succeeded, False for the known NoConvergence failure;
    any other outcome is an error."""
    if code == 0:
        return True
    lines = stderr.strip().splitlines()
    if op.may_fail and code == 1 and len(lines) == 1 and lines[0].startswith(NO_CONVERGENCE):
        return False
    raise checks.CheckFailed(f"{op.label} exited {code}: {stderr.strip()[-500:]}")


def check_outputs(workload: str, work: Path, expected: dict, ops: list, results: list) -> None:
    """Everything the first round wrote, against the generator's references."""
    if workload in ("intake", "archive"):
        out = work / "out"
        store = checks.load_store(out / "index_store.json")
        checks.check_store(store, expected)
        checks.check_blackboard(out / "blackboard.xml", expected)
        m = checks.Matrix(store)
        checks.check_vocabulary(out / "vocabulary.tsv", m)
        report = checks.load_clusters(out / "clusters.json")
        checks.check_partition(report, m)
        checks.check_ratio_cut(report, m)
        checks.check_cluster_net(out / "clusters.net", report, m)
        if workload == "intake":
            checks.check_eval(results[0][1])
            checks.check_recovery(report, expected, generate.INTAKE_TOPICS)
        return
    matrices = {}
    for op, (ok, _) in zip(ops, results):
        out = work / op.cwd / "out"
        if op.cwd not in matrices:
            matrices[op.cwd] = checks.Matrix(checks.load_store(out / "index_store.json"))
        m = matrices[op.cwd]
        if not ok:
            continue
        if op.args[0] == "cluster":
            report = checks.load_clusters(out / "clusters.json")
            checks.check_vocabulary(out / "vocabulary.tsv", m)
            checks.check_partition(report, m)
            checks.check_ratio_cut(report, m)
            if op.cwd == f"k{generate.RECLUSTER_PLANTED_K}":
                checks.check_recovery(report, expected, generate.RECLUSTER_PLANTED_K)
        elif "--term" in op.args:
            term = op.args[op.args.index("--term") + 1]
            checks.check_ego(out / f"ego_{term}.net", term, m)
        else:
            report = checks.load_clusters(out / "clusters.json")
            checks.check_cluster_net(out / "clusters.net", report, m)


def setup(root: Path, workload: str, seed: int, work: Path, warm: bool) -> float:
    """Generate and write the inputs into `work`, then warm up; return the
    seconds taken."""
    start = time.perf_counter()
    generate.GENERATORS[workload](root, seed, work)
    if warm:  # interpreter, numpy and scipy into the page cache
        subprocess.run([sys.executable, "-m", "semindex", "--help"], cwd=work,
                       env=dict(os.environ, PYTHONPATH=str(root / "src")),
                       stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _load_semindex(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import semindex
    from semindex import agents, cli, cocluster, graphs, kb, lexicon, metrics

    source = Path(semindex.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"semindex imported from {source}, not from this checkout")
    return {"agents": agents, "cli": cli, "cocluster": cocluster, "graphs": graphs,
            "kb": kb, "lexicon": lexicon, "metrics": metrics}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_DIR / workload
    tracer = cli = None
    if trace:
        package = _load_semindex(root)
        cli = package["cli"]
        tracer = tracing.Tracer(package)
        tracer.install()
    runner = Runner(root, work, tracer, cli)

    setups, rounds, layer_rounds = [], [], []
    failed = 0
    first_digest = None
    correct, reason = True, ""
    measured = 0.0
    try:
        # whole rounds, stopping at the round boundary nearest to --seconds
        while not rounds or measured + statistics.median(r["wall_s"] for r in rounds) / 2 < seconds:
            # Every round starts with a set-up of its own, so set-up times
            # are sampled across the run as round times are.  The inputs are
            # written over the previous round's (generate._write).
            _clear_outputs(work, workload)
            setups.append(setup(root, workload, seed, work, warm=not trace))
            if not rounds:
                expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
                ops = _ops(workload, expected)
            if tracer is not None:
                tracer.reset()
                first_span = len(tracer.spans)
            runs = [runner.run(op) for op in ops]
            wall = sum(r[3] for r in runs)
            measured += wall
            rounds.append({"wall_s": wall, "cpu_s": sum(r[4] for r in runs),
                           "rss": max(r[5] for r in runs)})
            if tracer is not None:
                layer_rounds.append(tracing.round_metrics(tracer, first_span, wall))
            failed += sum(r[0] != 0 for r in runs)  # before _outcome can raise
            results = [(_outcome(op, r[0], r[2]), r[1]) for op, r in zip(ops, runs)]
            docs = sum(op.docs for op, (ok, _) in zip(ops, results) if ok)
            digest = _digest(work, workload)
            if first_digest is None:
                try:
                    check_outputs(workload, work, expected, ops, results)
                except checks.CheckFailed:
                    raise
                except Exception as exc:  # a missing or unparsable output file
                    raise checks.CheckFailed(f"{type(exc).__name__}: {exc}") from exc
                first_digest = digest
            elif digest != first_digest:
                raise checks.CheckFailed("outputs differ from the first round's")
        layer_metrics = tracing.summarize(layer_rounds) if trace else {}
    except (checks.CheckFailed, tracing.CountsDiffer) as exc:
        correct, reason = False, str(exc)
        layer_metrics = {}
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(work / "trace.jsonl")

    if trace:
        metrics, units = layer_metrics, tracing.PER_LAYER
    else:
        wall = statistics.median(r["wall_s"] for r in rounds)
        metrics = {
            "wall_s": wall,
            "docs_per_s": docs / wall if correct else 0.0,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": max(r["rss"] for r in rounds),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    return {
        "correct": correct,
        "reason": reason,
        "round_walls": [r["wall_s"] for r in rounds],
        "setups": setups,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(generate.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "semindex" / "cli.py", root / generate.MINI_KB):
        if not needed.is_file():
            print(f"bench: {needed} not found; run from the root of a semindex checkout",
                  file=sys.stderr)
            return 2
    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["correct"]:
        print(f"bench: incorrect: {result['reason']}", file=sys.stderr)
    walls = " ".join(f"{w:.3f}" for w in result["round_walls"])
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed; round walls {walls} s; "
          f"set-ups {' '.join(f'{t:.3f}' for t in result['setups'])} s")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
