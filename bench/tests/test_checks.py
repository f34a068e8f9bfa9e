"""Each output check passes on real semindex outputs and rejects a corrupted copy."""

import json
import os
import re
import shutil

import pytest

import checks
import generate
import run
import tracing
from semindex import cli


def _semindex(cwd, *args):
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(list(args))
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def intake(root, tmp_path_factory):
    work = tmp_path_factory.mktemp("intake") / "w"
    generate.generate_intake(root, 3, work, n_docs=40)
    assert _semindex(work, "pipeline", "--config", "config.ini") == 0
    return work


@pytest.fixture(scope="module")
def recluster(root, tmp_path_factory):
    work = tmp_path_factory.mktemp("recluster") / "w"
    generate.generate_recluster(root, 3, work, n_docs=300, n_terms=90)
    term = json.loads((work / "expected.json").read_text())["ego_terms"][0]
    for args in (["cluster"], ["export"], ["export", "--term", term]):
        assert _semindex(work / "k2", *args, "--config", "config.ini") == 0
    return work, term


@pytest.fixture
def out(intake, tmp_path):
    """A private copy of the intake outputs, free to corrupt."""
    copy = tmp_path / "out"
    shutil.copytree(intake / "out", copy)
    return copy


def _expected(work):
    return json.loads((work / "expected.json").read_text())


def _edit(path, pattern, repl):
    text = path.read_text()
    new = re.sub(pattern, repl, text, count=1, flags=re.S)
    assert new != text
    path.write_text(new)


def _intake_checks(work, out):
    expected = _expected(work)
    store = checks.load_store(out / "index_store.json")
    checks.check_store(store, expected)
    checks.check_blackboard(out / "blackboard.xml", expected)
    m = checks.Matrix(store)
    checks.check_vocabulary(out / "vocabulary.tsv", m)
    report = checks.load_clusters(out / "clusters.json")
    checks.check_partition(report, m)
    checks.check_ratio_cut(report, m)
    checks.check_cluster_net(out / "clusters.net", report, m)
    checks.check_recovery(report, expected, 2)


def test_intake_outputs_pass(intake, out):
    _intake_checks(intake, out)


CORRUPTIONS = {
    "routing": ("index_store.json", r'"routing": "Index"', '"routing": "StoreOnly"'),
    "term count": ("index_store.json", r'"n": (\d+)', '"n": 99'),
    "blackboard entry": ("blackboard.xml", r"  <doc .*?</doc>\n", ""),
    "blackboard count": ("blackboard.xml", r' n="(\d+)"', ' n="77"'),
    "vocabulary": ("vocabulary.tsv", r"\t(\d+)\n", "\t1000\n"),
    "word in two clusters": ("clusters.json", r'("words": \[\n\s*)(".*?",)(.*?"words": \[\n\s*)',
                             r"\1\2\3\2 "),
    "ratio cut": ("clusters.json", r'"ratio_cut_2way": ([0-9.e-]+)', '"ratio_cut_2way": 0.5'),
    "cluster weight": ("clusters.net", r"1 2 (\d+)", "1 2 1"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_intake_output_is_rejected(name, intake, out):
    file, pattern, repl = CORRUPTIONS[name]
    _edit(out / file, pattern, repl)
    with pytest.raises(checks.CheckFailed):
        _intake_checks(intake, out)


def test_eval_must_be_perfect():
    checks.check_eval("precision\t1.000000000000\nrecall\t1.000000000000\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_eval("precision\t1.000000000000\nrecall\t0.990000000000\n")


def test_misplaced_documents_fail_recovery(intake, out):
    expected = _expected(intake)
    report = checks.load_clusters(out / "clusters.json")
    first, second = report["clusters"]
    moved = first["docs"][: len(first["docs"]) // 5]
    first["docs"] = first["docs"][len(moved):]
    second["docs"] = sorted(second["docs"] + moved)
    with pytest.raises(checks.CheckFailed):
        checks.check_recovery(report, expected, 2)


def test_ego_network(recluster, tmp_path):
    work, term = recluster
    out = tmp_path / "out"
    shutil.copytree(work / "k2" / "out", out)
    m = checks.Matrix(checks.load_store(out / "index_store.json"))
    ego = out / f"ego_{term}.net"
    checks.check_ego(ego, term, m)
    _edit(ego, r"\n1 3 (\d+)\n", r"\n1 3 \g<1>0\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_ego(ego, term, m)


def test_ego_network_missing_vertex(recluster, tmp_path):
    work, term = recluster
    out = tmp_path / "out"
    shutil.copytree(work / "k2" / "out", out)
    m = checks.Matrix(checks.load_store(out / "index_store.json"))
    ego = out / f"ego_{term}.net"
    lines = ego.read_text().splitlines()
    n = int(lines[0].split()[1])
    del lines[n]  # last vertex
    lines[0] = f"*Vertices {n - 1}"
    ego.write_text("\n".join(lines[:-1]) + "\n")  # and its edge
    with pytest.raises(checks.CheckFailed):
        checks.check_ego(ego, term, m)


def test_balanced_store_fails_with_no_convergence(recluster, capsys):
    work, _ = recluster
    assert _semindex(work / "balanced", "cluster", "--config", "config.ini") == 1
    err = capsys.readouterr().err
    op = run.Op("balanced", ("cluster",), generate.BALANCED_DOCS, may_fail=True)
    assert run._outcome(op, 1, err) is False
    assert run._outcome(op, 0, "") is True
    with pytest.raises(checks.CheckFailed):
        run._outcome(run.Op("k2", ("cluster",), 1), 1, err)
    with pytest.raises(checks.CheckFailed):
        run._outcome(op, 1, "error: errors.EmptyMatrix: no vocabulary term\n")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer({})
    tracer.spans = [["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0], ["inner", 3.0, 4.0, 0]]
    assert tracer.self_times() == {"outer": 3.0, "inner": 2.0}
    assert tracer.self_times(first=1) == {"inner": 2.0}


def test_spans_record_their_parent():
    tracer = tracing.Tracer({})
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: (inner(), inner()))
    outer()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(start <= end for _, start, end, _ in tracer.spans)
    assert tracer.counts["inner_calls"] == 2
