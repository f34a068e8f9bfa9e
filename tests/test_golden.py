"""The bytes of every output, pinned by SHA-256 in golden/digests.json.

Each case runs `semindex` commands through `cli.main` in a fresh directory
and digests every file they write there, plus what they print.  The inputs
are the mini corpus and small seeded inputs from the benchmark's generator
(`bench/generate.py`, imported from its directory).  The recluster store of
800 documents and 1500 terms lies above the dense-SVD cutoff, the balanced
store below it; one test runs every case with the cutoff at 0, so each SVD
goes through ARPACK and must give the same digests.  Those two stores are also run as `python -m semindex`
children with `OPENBLAS_NUM_THREADS` unset, so the thread count the CLI
sets for OpenBLAS is pinned too.  The benchmark's tracer
(`bench/tracing.py`) is imported the same way, to check that every
function it wraps still exists where it looks it up.

A change that means to alter an output regenerates the manifest with
`PYTHONPATH=src python tests/test_golden.py` and says so.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from semindex import agents, cli, cocluster, kb, lexicon

from conftest import MINI, REPO

sys.path.insert(0, str(REPO / "bench"))
import generate  # noqa: E402
import tracing  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden" / "digests.json"
SEED = 21
N_DOCS = {"intake": 120, "archive": 600, "recluster": 800}
EGO = "<ego term>"  # replaced by the recluster store's first ego term

# case -> (generated workload or None for the mini corpus, store directory, commands)
CASES = {
    **{f"mini/pipeline-k{k}": (None, "", [["pipeline", "--k", str(k)]]) for k in range(2, 7)},
    "mini/steps": (None, "", [["index"], ["cluster"], ["export"],
                              ["export", "--term", "america"], ["eval"]]),
    "intake/pipeline": ("intake", "", [["pipeline"]]),
    "archive/pipeline": ("archive", "", [["pipeline"]]),
    "recluster/k2": ("recluster", "k2", [["cluster"], ["export"]]),
    "recluster/k3": ("recluster", "k3", [["cluster"], ["export", "--term", EGO]]),
    "recluster/balanced": ("recluster", "balanced", [["cluster"]]),
}


def _files(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def in_process(argv, cwd) -> str:
    """The standard output of `cli.main(argv)` run in `cwd`."""
    stdout = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)  # contextlib.chdir is Python 3.11 or later
    try:
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0, argv
    finally:
        os.chdir(old)
    return stdout.getvalue()


def in_child(argv, cwd) -> str:
    """The standard output of a `python -m semindex` child, whose OpenBLAS
    thread count is the one the CLI sets."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    result = subprocess.run([sys.executable, "-m", "semindex", *argv], cwd=cwd, env=env,
                            capture_output=True)
    assert result.returncode == 0, (argv, result.stderr)
    return result.stdout.decode("utf-8")


def run_case(case: str, work: Path, run=in_process) -> dict:
    """file name -> SHA-256 of each file the case's commands wrote, and of stdout,
    with each command run by `run(argv, cwd)`."""
    workload, store, commands = CASES[case]
    ego = ""
    if workload is None:
        cwd, out = REPO, work / "out"
        common = ["--config", str(MINI / "config.ini"), "--out_dir", str(out)]
    else:
        generate.GENERATORS[workload](REPO, SEED, work, n_docs=N_DOCS[workload])
        cwd, out = work / store, work / store / "out"
        common = ["--config", "config.ini"]
        ego = json.loads((work / "expected.json").read_text()).get("ego_terms", [""])[0]
    inputs = _files(out) if out.exists() else {}
    stdout = "".join(
        run([*(ego if arg == EGO else arg for arg in command), *common], cwd)
        for command in commands
    )
    written = {name: data for name, data in _files(out).items() if inputs.get(name) != data}
    written["<stdout>"] = stdout.encode("utf-8")
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(written.items())}


def assert_golden(case: str, got: dict) -> None:
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))[case]
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, f"{case}: {differ} differ from {MANIFEST.name}"


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    assert_golden(case, run_case(case, tmp_path))


# with no matrix small enough for dense LAPACK, every case's SVD runs through
# ARPACK: the nearest offline check that another solver build keeps the digests
def test_outputs_match_golden_digests_through_arpack(tmp_path, monkeypatch):
    monkeypatch.setattr(cocluster, "_DENSE_ENTRIES", 0)
    for case in CASES:
        work = tmp_path / case.replace("/", "-")
        work.mkdir()
        assert_golden(case, run_case(case, work))


# the ARPACK and the dense SVD path, each in a process whose BLAS the CLI set up
@pytest.mark.parametrize("case", ["recluster/k2", "recluster/balanced"])
def test_cli_children_match_golden_digests(case, tmp_path):
    assert_golden(case, run_case(case, tmp_path, in_child))


def test_traced_functions_exist_with_the_arguments_read():
    for module, name, _ in tracing.WRAPPED:
        assert hasattr(importlib.import_module(f"semindex.{module}"), name), (module, name)
    # the tracer's hooks read the output path at these argument positions
    for module, name, position in [("agents", "write_blackboard", 1),
                                   ("cli", "write_index_store", 2),
                                   ("graphs", "export_pajek", 1)]:
        function = getattr(importlib.import_module(f"semindex.{module}"), name)
        assert list(inspect.signature(function).parameters)[position] == "path", name
    # and count these parts of the results, called where the tracer wraps them
    mini_kb = kb.load_kb(MINI / "kb.json")
    corpus = cli.ingest(sorted((MINI / "docs").glob("*.txt")))
    assert len(agents.tokenize(mini_kb, corpus[0].text)) > 0
    indexed = agents.run_pipeline(mini_kb, corpus, 0.2, 2010)[0]
    assert {doc.routing.value for doc in indexed} == set(tracing._ROUTING_COUNTS)
    postings = cli.index_postings(indexed)
    vocab = lexicon.build_vocabulary(postings, lexicon.MinCount(2))
    assert len(vocab) == len(vocab.terms) > 0
    matrix = cocluster.build_matrix(vocab, postings)
    assert type(matrix.A.nnz) is int and matrix.A.nnz == len(matrix.A.count) > 0


if __name__ == "__main__":
    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            digests[case] = run_case(case, Path(work))
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {MANIFEST}")
