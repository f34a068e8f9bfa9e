import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from itertools import chain
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semindex import agents, cli, cocluster, corpus
from semindex.cli import Config, load_config, main, parse_threshold
from semindex.errors import SemindexError
from semindex.lexicon import MinCount, TopN

from conftest import MINI, REPO

CONFIG = str(MINI / "config.ini")


def run_cli(*argv):
    return main(list(argv))


def test_load_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("tau = 0.5\nk = 3\n", encoding="utf-8")
    config = load_config(path)
    assert config.tau == 0.5
    assert config.k == 3
    assert config.refine_passes == 1


def test_bad_tau_rejected(tmp_path):
    path = tmp_path / "c.ini"
    for text in ("tau = 2.0\n", "seed = -1\n", "refine_passes = 0\n", "refine_passes = -3\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SemindexError):
            load_config(path)


def test_parse_threshold():
    assert parse_threshold("min_count:2") == MinCount(2)
    assert parse_threshold("top_n:5") == TopN(5)
    assert parse_threshold("top_n:0") == TopN(0)
    for bad in ("whatever", "min_count:x", "top_n:", "top_n:2.5", "top_n:-1", "min_count:-2"):
        with pytest.raises(SemindexError):
            parse_threshold(bad)


@pytest.mark.parametrize("text", ["k = abc\n", "tau = x\n", "seed = 1.5\n"])
def test_non_numeric_config_value_rejected(tmp_path, text):
    path = tmp_path / "c.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SemindexError, match="must be a number"):
        load_config(path)


config_values = st.sampled_from(
    ["1", "0", "-1", "0.5", "2.0", "1e400", "nan", "9" * 5000, "lexical", "min_count:2"]
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
config_lines = st.builds(
    "{} = {}".format, st.sampled_from([*Config.__dataclass_fields__, "bogus"]), config_values
) | st.sampled_from(["", "# note", "k 3", "=", "tau=0.3"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(config_lines, max_size=6))
def test_any_config_text_loads_or_is_one_line_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("config") / "c.ini"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    try:
        config = load_config(path)
    except SemindexError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert 0.0 <= config.tau <= 1.0 and config.k >= 1 and config.seed >= 0


@pytest.mark.parametrize("flag, value", [
    ("--k", "abc"),
    ("--tau", "x"),
    ("--threshold_mode", "min_count:x"),
])
def test_non_numeric_option_is_domain_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    capsys.readouterr()
    assert run_cli("cluster", "--config", CONFIG, "--out_dir", str(out), flag, value) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.SemindexError: ")
    assert not (out / "clusters.json").exists()


@pytest.mark.parametrize("command", ["cluster", "export", "eval"])
def test_missing_index_store_is_domain_error(tmp_path, capsys, command):
    out = tmp_path / "nowhere"
    assert run_cli(command, "--config", CONFIG, "--out_dir", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.MissingIndexStore: ")
    assert str(out / "index_store.json") in err[0]


def test_index_writes_blackboard_and_store(tmp_path):
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    board = (out / "blackboard.xml").read_text(encoding="utf-8")
    assert board.count("<doc ") == 11  # one per non-discarded document
    store = json.loads((out / "index_store.json").read_text(encoding="utf-8"))
    assert store["documents"]["d05"]["routing"] == "Discard"
    assert store["documents"]["d12"]["routing"] == "StoreOnly"


def test_corpus_files_are_read_in_name_order(tmp_path):
    names = ["b.txt", "a9.txt", "a.1.txt", "B.txt", "a10.txt", "_x.txt", "a-1.txt", "0.txt",
             "a1.txt", "A-b.txt"]
    for name in names:
        (tmp_path / name).write_text(f"id: {name}\ntitle: t\nyear: 2009\n\nport\n",
                                     encoding="utf-8")
    corpus = cli._load_corpus(Config(corpus_dir=str(tmp_path)))
    assert [doc.id for doc in corpus] == [
        "0.txt", "A-b.txt", "B.txt", "_x.txt", "a-1.txt", "a.1.txt", "a1.txt", "a10.txt",
        "a9.txt", "b.txt",
    ]


def test_cluster_deterministic(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
        assert run_cli("cluster", "--config", CONFIG, "--out_dir", str(out), "--k", "2", "--seed", "7") == 0
        reports.append((out / "clusters.json").read_bytes())
    assert reports[0] == reports[1]


def test_export_ego_network(tmp_path):
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    assert run_cli("export", "--config", CONFIG, "--out_dir", str(out), "--term", "america") == 0
    lines = (out / "ego_america.net").read_text(encoding="utf-8").splitlines()
    assert lines[1] == '1 "america"'


def test_domain_error_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    code = run_cli("export", "--config", CONFIG, "--out_dir", str(out), "--term", "zzz")
    assert code == 1
    err = capsys.readouterr().err
    assert "UnknownTerm" in err


def test_export_label_with_quote_is_domain_error(tmp_path, capsys):
    docs = tmp_path / "docs"
    shutil.copytree(MINI / "docs", docs)
    for name in ("d01.txt", "d02.txt"):
        with (docs / name).open("a", encoding="utf-8") as f:
            f.write('Dockers don"t rest.\n')
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--corpus_dir", str(docs), "--out_dir", str(out)) == 0
    capsys.readouterr()
    assert run_cli("export", "--config", CONFIG, "--out_dir", str(out), "--term", "port") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.UnwritableLabel: ")
    assert not (out / "ego_port.net").exists()


@pytest.mark.parametrize("term", ["and/or", ".", ".."])
def test_export_term_must_fit_a_file_name(tmp_path, capsys, term):
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    capsys.readouterr()
    assert run_cli("export", "--config", CONFIG, "--out_dir", str(out), "--term", term) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.SemindexError: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("no-such-command")
    assert excinfo.value.code == 2


def test_usage_error_ends_with_one_escaped_line(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("cluster", "bad\nflag")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: semindex")
    assert err[-1] == "semindex: error: unrecognized arguments: bad\\nflag"


def test_eval_prints_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    assert run_cli("eval", "--config", CONFIG, "--out_dir", str(out)) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("precision\t")
    assert "recall\t" in captured


def test_pipeline_end_to_end_byte_identical(tmp_path):
    artifacts = ("index_store.json", "blackboard.xml", "vocabulary.tsv", "clusters.json", "clusters.net")
    snapshots = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("pipeline", "--config", CONFIG, "--out_dir", str(out)) == 0
        snapshots.append({f: (out / f).read_bytes() for f in artifacts})
    assert snapshots[0] == snapshots[1]


def test_pragmatic_level_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    for command, level in (("index", "pragmatic"), ("index", "semantic"), ("cluster", "semantic")):
        code = run_cli(command, "--config", CONFIG, "--out_dir", str(out), "--level", level)
        assert code == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def _not_utf8(path):
    """`path`, written with a byte that is not UTF-8."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"id: d99\n\xff\n")
    return path


def _corpus_with_bad_document(tmp_path):
    shutil.copytree(MINI / "docs", tmp_path / "docs")
    with (tmp_path / "docs" / "d03.txt").open("ab") as f:
        f.write(b"\xff")
    return tmp_path / "docs" / "d03.txt"


def _directory(path):
    path.mkdir(parents=True)
    return path


# case -> (the input file that cannot be read, the command line), made under tmp_path t
UNREADABLE = {
    "config-missing": lambda t: (t / "nope.ini", ["index", "--config", str(t / "nope.ini")]),
    "kb-missing": lambda t: (
        t / "nope.json", ["index", "--config", CONFIG, "--kb_path", str(t / "nope.json")]),
    "gold-missing": lambda t: (
        t / "nope.tsv", ["pipeline", "--config", CONFIG, "--gold_path", str(t / "nope.tsv")]),
    "config-not-utf8": lambda t: (_not_utf8(t / "c.ini"), ["index", "--config", str(t / "c.ini")]),
    "document-not-utf8": lambda t: (
        _corpus_with_bad_document(t), ["index", "--config", CONFIG, "--corpus_dir", str(t / "docs")]),
    "store-not-utf8": lambda t: (
        _not_utf8(t / "out" / "index_store.json"), ["cluster", "--config", CONFIG]),
    "store-is-directory": lambda t: (
        _directory(t / "out" / "index_store.json"), ["cluster", "--config", CONFIG]),
    "out-dir-under-file": lambda t: (t / "afile" / "x", ["index", "--config", CONFIG]),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_input_is_domain_error(tmp_path, capsys, case):
    (tmp_path / "afile").write_text("not a directory", encoding="utf-8")
    path, argv = UNREADABLE[case](tmp_path)
    out = path if case == "out-dir-under-file" else tmp_path / "out"
    assert run_cli(*argv, "--out_dir", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.")
    assert str(path) in err[0]


# case -> (a config line whose path holds a NUL byte, the command that opens that path)
NUL_PATHS = {
    "kb": ("kb_path = a\0b", "index"),
    "gold": ("gold_path = g\0", "eval"),
    "out-dir": ("out_dir = o\0x", "index"),
}


@pytest.mark.parametrize("case", list(NUL_PATHS))
def test_nul_byte_in_config_path_is_domain_error(tmp_path, capsys, case):
    line, command = NUL_PATHS[case]
    out = tmp_path / "out"
    if command == "eval":
        assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    config = tmp_path / "c.ini"  # argv cannot hold a NUL byte; a config file can
    base = (MINI / "config.ini").read_text(encoding="utf-8")
    config.write_text(f"{base}out_dir = {out}\n{line}\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, "--config", str(config)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.") and err[0].endswith(": embedded null byte")


# (command, the path option that carries arbitrary text)
PATH_OPTIONS = [("index", "--kb_path")] + [
    (command, "--config") for command in ("index", "cluster", "export", "eval", "pipeline")
] + [(command, "--out_dir") for command in ("cluster", "export", "eval")]
path_texts = st.text() | st.sampled_from(
    ["", ".", "a\nb", "a\0b", "\x1b[31mred", "a\u2028b", "tab\there", "é" * 200]
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(PATH_OPTIONS), text=path_texts)
def test_any_path_option_is_one_line_error(tmp_path_factory, case, text):
    command, option = case
    empty = tmp_path_factory.mktemp("empty")  # no documents, no index store: nothing is written
    argv = [command, f"--corpus_dir={empty}"]
    if option != "--out_dir":
        argv.append(f"--out_dir={empty}")
    argv.append(f"{option}={text}")  # the = form keeps argparse from reading text as a flag
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(empty)  # a relative text names nothing that exists
    try:
        with contextlib.redirect_stderr(err):
            assert main(argv) == 1
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


SUBCOMMANDS = ["index", "cluster", "export", "eval", "pipeline"]
# the options that name no file; the path options are pinned after every drawn list
VALUE_FLAGS = [f"--{name}" for name in Config.__dataclass_fields__
               if not name.endswith(("_path", "_dir"))] + ["--term"]
odd_texts = st.text() | st.sampled_from(["", "a\nb", "a\0b", "\x1b[31m", "a\u2028b", "-1", "nan"])
FIRST = st.sampled_from([*SUBCOMMANDS * 3, "", "a\nb", "--bogus", "--help"])  # mostly a subcommand
flag_values = st.tuples(st.sampled_from(VALUE_FLAGS), odd_texts)
argv_parts = (
    st.sampled_from([*SUBCOMMANDS, *VALUE_FLAGS, "--bogus", "-x", "--", "-", "--help"]).map(lambda a: [a])
    | flag_values.map(list)  # --k value
    | flag_values.map(lambda fv: ["=".join(fv)])  # --k=value
)


@settings(max_examples=300, deadline=None)
@given(first=FIRST, parts=st.lists(argv_parts, max_size=4))
@example(first="cluster", parts=[["bad\nflag"]])
@example(first="export", parts=[["--k", "abc"]])
def test_any_argv_runs_or_fails_with_its_exit_code_and_form(tmp_path_factory, first, parts):
    items = [first, *chain.from_iterable(parts)]
    empty = tmp_path_factory.mktemp("empty")
    # no example reads a real input or writes an output: the last value of an option wins
    argv = [*items, f"--out_dir={empty}", f"--corpus_dir={empty}",
            f"--kb_path={empty / 'missing.json'}", "--gold_path=", "--config="]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(empty)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if status == 1:  # a domain error, a bad option value included
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif status == 2:  # a usage error: argparse's usage, then one error line
        assert lines[0].startswith("usage: semindex")
        assert [i for i, line in enumerate(lines) if ": error: " in line] == [len(lines) - 1]
        assert lines[-1].startswith("semindex") and ": error: " in lines[-1]
    else:
        assert status == 0 and not lines  # --help, or an abbreviation of it
        assert any(item.startswith(("--h", "-h")) for item in items)
        assert out.getvalue().startswith("usage: semindex")
    assert not any(empty.iterdir())


# output file -> the command line that writes it
UNWRITABLE = {
    "blackboard.xml": ["pipeline"],
    "index_store.json": ["pipeline"],
    "vocabulary.tsv": ["pipeline"],
    "clusters.json": ["pipeline"],
    "clusters.net": ["pipeline"],
    "ego_america.net": ["export", "--term", "america"],
}


@pytest.mark.parametrize("name", list(UNWRITABLE))
def test_unwritable_output_is_domain_error(tmp_path, capsys, name):
    out = tmp_path / "out"
    argv = UNWRITABLE[name]
    if argv[0] == "export":
        assert run_cli("index", "--config", CONFIG, "--out_dir", str(out)) == 0
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert run_cli(*argv, "--config", CONFIG, "--out_dir", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: errors.UnwritableFile: cannot write {out / name}: ")


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# a reference year of 3000 discards every mini document, leaving the blackboard empty
@pytest.mark.parametrize("argv", [("index",), ("index", "--reference_year", "3000"), ("pipeline",)])
def test_blackboard_written_once_and_store_never_reread(tmp_path, monkeypatch, argv):
    writes = _count_calls(monkeypatch, agents, "write_blackboard")
    reads = _count_calls(monkeypatch, cli, "read_index_store")
    coclusters = _count_calls(monkeypatch, cocluster, "cocluster")
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", CONFIG, "--out_dir", str(out)) == 0
    assert [args[1] for args in writes] == [out / "blackboard.xml"]
    assert reads == []
    assert len(coclusters) == (1 if argv[0] == "pipeline" else 0)


def test_pipeline_matches_separate_commands(tmp_path, capsys):
    # file names sort in the reverse of the doc ids: a.txt holds d12, l.txt d01
    docs = tmp_path / "docs"
    docs.mkdir()
    paths = sorted((MINI / "docs").glob("*.txt"))
    for name, path in zip("lkjihgfedcba", paths):
        shutil.copyfile(path, docs / f"{name}.txt")
    # at k=3, seed 2 the clusters change when the matrix columns are not in doc-id order
    common = ("--config", CONFIG, "--corpus_dir", str(docs), "--k", "3", "--seed", "2")
    piped, steps = tmp_path / "piped", tmp_path / "steps"
    assert run_cli("pipeline", *common, "--out_dir", str(piped)) == 0
    piped_stdout = capsys.readouterr().out
    for command in ("index", "cluster", "export", "eval"):
        assert run_cli(command, *common, "--out_dir", str(steps)) == 0
    assert capsys.readouterr().out == piped_stdout
    names = sorted(p.name for p in piped.iterdir())
    assert names == sorted(p.name for p in steps.iterdir())
    assert "clusters.net" in names
    for name in names:
        assert (piped / name).read_bytes() == (steps / name).read_bytes(), name


# --- start-up: numpy loads only in the commands that compute with it, scipy only above
# the dense-SVD cutoff

_LOADED = """\
import sys
from semindex import cli
try:
    status = cli.main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, sorted({"numpy", "scipy"} & set(sys.modules)))
"""


def _libraries_after(*argv):
    """The exit status of `cli.main(argv)` in a fresh interpreter, and which
    of numpy and scipy it loaded."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, cwd=REPO,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


_THREADS = """\
import os, sys
from semindex import cli
status = cli.main(sys.argv[1:])
print(status, sorted({"numpy", "scipy"} & set(sys.modules)), len(os.listdir("/proc/self/task")),
      os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts the threads in /proc/self/task")
def test_cluster_above_dense_cutoff_runs_one_thread(tmp_path):
    terms, docs = 1025, 1030  # every term in three documents; the matrix is terms x docs
    assert terms * docs > cocluster._DENSE_ENTRIES
    indexed = [
        agents.IndexedDocument(
            f"d{j}",
            {f"t{(a * j + b) % terms}": (1, agents.TermStatus.ACCEPTED)
             for a, b in ((1, 0), (7, 3), (13, 5))},
            agents.Routing.INDEX,
        )
        for j in range(docs)
    ]
    out = tmp_path / "out"
    out.mkdir()
    cli.write_index_store(indexed, dict.fromkeys((d.doc_id for d in indexed), 2009),
                          out / "index_store.json")
    argv = [sys.executable, "-c", _THREADS, "cluster", "--out_dir", str(out),
            "--threshold_mode", "min_count:1"]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # exit status, libraries loaded, threads, OPENBLAS_NUM_THREADS
    assert result.stdout.strip() == "0 ['numpy', 'scipy'] 1 1"
    # a value the user set is left alone
    env["OPENBLAS_NUM_THREADS"] = "2"
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-1] == "2"


def test_cli_import_loads_neither_numpy_nor_scipy():
    code = "import sys, semindex.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_help_exits_zero():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-m", "semindex", "--help"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: semindex")


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),
    (["nonsense"], 2),
    (["cluster", "--k", "abc"], 1),
], ids=["help", "usage-error", "config-error"])
def test_startup_paths_load_neither_numpy_nor_scipy(argv, status):
    assert _libraries_after(*argv) == f"{status} []"


def test_pipeline_and_ego_export_load_no_scipy(tmp_path):
    out = str(tmp_path / "out")
    assert _libraries_after("pipeline", "--config", CONFIG, "--out_dir", out) == "0 ['numpy']"
    assert _libraries_after("export", "--config", CONFIG, "--out_dir", out,
                            "--term", "america") == "0 ['numpy']"


_ABOVE_CUTOFF = """\
import sys
from semindex import cocluster as cc
from oracles import matrix_from_counts
n = 1025  # n x (n - 1) entries, one in each row
m = matrix_from_counts({(i, i % (n - 1)): 1 for i in range(n)}, range(n), range(n - 1))
assert m.shape[0] * m.shape[1] > cc._DENSE_ENTRIES
before = "scipy" in sys.modules
An = cc.normalize_matrix(m)
print(before, type(An).__module__.startswith("scipy.sparse"), "scipy.sparse" in sys.modules)
"""


def test_normalizing_above_dense_cutoff_loads_scipy_sparse():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO / "tests")]))
    result = subprocess.run([sys.executable, "-c", _ABOVE_CUTOFF], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True", "True"]


def test_index_loads_neither_numpy_nor_scipy_and_eval_no_scipy(tmp_path):
    out = str(tmp_path / "out")
    assert _libraries_after("index", "--config", CONFIG, "--out_dir", out) == "0 []"
    assert (tmp_path / "out" / "index_store.json").exists()
    assert _libraries_after("eval", "--config", CONFIG, "--out_dir", out) == "0 ['numpy']"


@pytest.mark.parametrize("command", ["index", "pipeline"])
def test_bad_threshold_mode_fails_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, "--config", CONFIG, "--out_dir", str(out), "--threshold_mode", "bogus"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: errors.SemindexError: bad threshold_mode 'bogus'")
    assert list(out.iterdir()) == []


def _port_kb(path, **data):
    """A KB file with one class, harbor -> port, and the given extra keys."""
    classes = [{"id": "c1", "canonical": "port", "members": ["harbor", "port"], "quasi": []}]
    categories = [{"surface": s, "category": "noun"} for s in ("harbor", "port")]
    path.write_text(json.dumps({"classes": classes, "categories": categories, **data}),
                    encoding="utf-8")
    return path


def _index(work, documents: list) -> int:
    """cli.main's status for `index` of one document per (id, body) pair under `work`."""
    docs, out = work / "docs", work / "out"
    docs.mkdir()
    out.mkdir()
    for i, (doc_id, body) in enumerate(documents):
        text = f"id: {doc_id}\ntitle: t\nyear: 2009\n\n{body}\n"
        (docs / f"{i}.txt").write_bytes(text.encode("utf-8"))
    return main(["index", f"--kb_path={work / 'kb.json'}", f"--corpus_dir={docs}",
                 "--reference_year=2010", f"--out_dir={out}"])


def test_index_expands_a_10000_deep_abbreviation_chain(tmp_path):
    depth = 10_000
    abbreviations = {f"w{i}": f"w{i + 1}" for i in range(depth - 1)} | {f"w{depth - 1}": "harbor"}
    _port_kb(tmp_path / "kb.json", abbreviations=abbreviations)
    assert _index(tmp_path, [("d1", "W0 port w9990.")]) == 0
    store = json.loads((tmp_path / "out" / "index_store.json").read_text(encoding="utf-8"))
    assert store["documents"]["d1"]["terms"] == {"port": {"n": 3, "status": "T"}}


def test_index_stops_an_abbreviation_expansion_that_doubles_30_times(tmp_path, capsys):
    depth = 30  # 2^30 words for x0 without the bound
    abbreviations = {f"x{i}": f"x{i + 1} x{i + 1}" for i in range(depth)} | {f"x{depth}": "harbor"}
    _port_kb(tmp_path / "kb.json", abbreviations=abbreviations)
    start = time.perf_counter()
    assert _index(tmp_path, [("d1", "port X0")]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: errors.InconsistentKb: expanding"
                                                   " abbreviation 'x")
    assert f"takes more than {corpus.MAX_EXPANSION_STEPS} steps" in err


def _is_xml_char(c: str) -> bool:
    """XML 1.0's Char production."""
    n = ord(c)
    return c in "\t\n\r" or 0x20 <= n <= 0xD7FF or 0xE000 <= n <= 0xFFFD or n >= 0x10000


# an id is the rest of its header line, so it holds no line break
id_texts = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                   max_size=8) | st.sampled_from(["a\x01b", "\x00", "a\ufffe", "\x7f", "a&<\"'>b"])


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(id_texts, min_size=1, max_size=3))
@example(ids=["a\x01b"])
@example(ids=["tab\there", "\ud7ff\ue000\U0010ffff"])
def test_any_document_id_gives_a_well_formed_blackboard_or_one_line_error(tmp_path_factory, ids):
    work = tmp_path_factory.mktemp("ids")
    _port_kb(work / "kb.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = _index(work, [(doc_id, "harbor port") for doc_id in ids])
    stripped = [doc_id.strip() for doc_id in ids]
    if status == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(("error: errors.MissingMetadata: ", "error: errors.DuplicateId: "))
        assert list((work / "out").iterdir()) == []
    else:
        assert status == 0
        # every document after the first repeats its terms, so each becomes an entry
        board = ElementTree.parse(work / "out" / "blackboard.xml").getroot()
        assert [doc.get("id") for doc in board] == stripped
    bad = len(set(stripped)) < len(ids) or not all(map(_is_xml_char, "".join(stripped)))
    assert status == (1 if bad else 0)
