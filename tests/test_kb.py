import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex.cli import main
from semindex.errors import InconsistentKb, MalformedKb, UnknownTerm
from semindex.kb import load_kb, quasi_synonyms

from conftest import MINI, kb_file, make_kb
from oracles import save_kb


def harbor_kb(tmp_path):
    return make_kb(
        tmp_path,
        classes=[
            {"id": "c1", "canonical": "port", "members": ["harbor", "port"], "quasi": []}
        ],
        categories=[
            {"surface": "harbor", "category": "noun"},
            {"surface": "port", "category": "noun"},
        ],
    )


def test_load_single_class(tmp_path):
    kb = harbor_kb(tmp_path)
    assert kb.canonical.get("harbor") == "port"


def test_load_empty_kb(tmp_path):
    kb = make_kb(tmp_path)
    assert kb.canonical == kb.quasi_links == {}
    assert kb.stop_words == frozenset()


def test_member_without_record_is_inconsistent(tmp_path):
    with pytest.raises(InconsistentKb, match="dock"):
        make_kb(
            tmp_path,
            classes=[{"id": "c1", "canonical": "dock", "members": ["dock"], "quasi": []}],
            categories=[],
        )


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(MalformedKb):
        make_kb(tmp_path, classes=[], extras=[])


def test_syntax_error_is_malformed(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedKb):
        load_kb(path)


def test_canonical_must_be_member(tmp_path):
    with pytest.raises(InconsistentKb):
        make_kb(
            tmp_path,
            classes=[{"id": "c1", "canonical": "port", "members": ["harbor"], "quasi": []}],
            categories=[{"surface": "harbor", "category": "noun"}],
        )


def test_surface_unique_across_classes(tmp_path):
    with pytest.raises(InconsistentKb):
        make_kb(
            tmp_path,
            classes=[
                {"id": "c1", "canonical": "port", "members": ["port"], "quasi": []},
                {"id": "c2", "canonical": "port", "members": ["port"], "quasi": []},
            ],
            categories=[{"surface": "port", "category": "noun"}],
        )


def test_canonical_stop_word_rejected(tmp_path):
    with pytest.raises(InconsistentKb):
        make_kb(
            tmp_path,
            classes=[{"id": "c1", "canonical": "port", "members": ["port"], "quasi": []}],
            categories=[{"surface": "port", "category": "noun"}],
            stop_words=["port"],
        )


def test_normalize_term_canonical_fixed_point(tmp_path):
    kb = harbor_kb(tmp_path)
    assert kb.canonical.get("port") == "port"
    assert kb.canonical.get("zeppelin") is None


def test_normalize_idempotent_and_class_consistent(mini_kb):
    data = json.loads((MINI / "kb.json").read_text(encoding="utf-8"))
    for cls in data["classes"]:
        canonicals = {mini_kb.canonical.get(m) for m in cls["members"]}
        assert canonicals == {cls["canonical"]}
    for canonical in set(mini_kb.canonical.values()):
        assert mini_kb.canonical.get(canonical) == canonical


def test_quasi_synonyms_symmetric_closure(tmp_path):
    kb = make_kb(
        tmp_path,
        classes=[
            {"id": "cw", "canonical": "wharf", "members": ["wharf"], "quasi": ["cd"]},
            {"id": "cd", "canonical": "dock", "members": ["dock"], "quasi": []},
            {"id": "cs", "canonical": "ship", "members": ["ship"], "quasi": []},
        ],
        categories=[
            {"surface": "wharf", "category": "noun"},
            {"surface": "dock", "category": "noun"},
            {"surface": "ship", "category": "noun"},
        ],
    )
    assert quasi_synonyms(kb, "wharf") == {"dock"}
    assert quasi_synonyms(kb, "dock") == {"wharf"}  # declared one-way on cw
    assert quasi_synonyms(kb, "ship") == set()
    with pytest.raises(UnknownTerm):
        quasi_synonyms(kb, "zeppelin")


def _full_scan_quasi_synonyms(data, canonical):
    """Every class of the KB JSON scanned for a link in either direction to `canonical`'s;
    an implicit singleton class has none."""
    mine = next((cls for cls in data["classes"] if cls["canonical"] == canonical), None)
    if mine is None:
        return set()
    return {
        other["canonical"]
        for other in data["classes"]
        if other is not mine and (other["id"] in mine["quasi"] or mine["id"] in other["quasi"])
    }


@st.composite
def linked_kbs(draw):
    """Classes c0..cn-1 with one-way and two-way links, plus singleton classes."""
    n = draw(st.integers(2, 8))
    other = st.integers(0, n - 2)
    links = draw(st.sets(st.tuples(st.integers(0, n - 1), other), max_size=20))
    links = {(i, j if j < i else j + 1) for i, j in links}
    singletons = draw(st.integers(0, 3))
    classes = [
        {
            "id": f"c{i}",
            "canonical": f"w{i}",
            "members": [f"w{i}", f"v{i}"],
            "quasi": sorted(f"c{j}" for a, j in links if a == i),
        }
        for i in range(n)
    ]
    surfaces = [f"{p}{i}" for i in range(n) for p in "wv"] + [f"s{i}" for i in range(singletons)]
    return {"classes": classes, "categories": [{"surface": s, "category": "noun"} for s in surfaces]}


@settings(max_examples=60, deadline=None)
@given(data=linked_kbs())
def test_quasi_synonyms_match_full_scan(tmp_path_factory, data):
    kb = load_kb(kb_file(tmp_path_factory.mktemp("kb"), data))
    surfaces = {entry["surface"] for entry in data["categories"]}
    members = {m: cls["canonical"] for cls in data["classes"] for m in cls["members"]}
    assert kb.canonical == {s: members.get(s, s) for s in surfaces}
    assert set(kb.quasi_links) == set(kb.canonical.values())
    for canonical in kb.quasi_links:
        linked = quasi_synonyms(kb, canonical)
        assert linked == _full_scan_quasi_synonyms(data, canonical)
        assert canonical not in linked
        assert linked is kb.quasi_links[canonical]  # the stored frozenset, never copied
    with pytest.raises(UnknownTerm):
        quasi_synonyms(kb, "v0")  # a member, not a canonical


@pytest.mark.parametrize("key, value", [
    ("members", "ab"),
    ("members", ["a", 1]),
    ("quasi", "c2"),
    ("quasi", [None]),
])
def test_class_lists_must_hold_strings(tmp_path, key, value):
    entry = {"id": "c1", "canonical": "a", "members": ["a", "b"], "quasi": []}
    entry[key] = value
    categories = [{"surface": s, "category": "noun"} for s in ("a", "b")]
    with pytest.raises(MalformedKb, match=key):
        make_kb(tmp_path, classes=[entry], categories=categories)


def test_quasi_self_link_rejected(tmp_path):
    with pytest.raises(InconsistentKb):
        make_kb(
            tmp_path,
            classes=[{"id": "c1", "canonical": "port", "members": ["port"], "quasi": ["c1"]}],
            categories=[{"surface": "port", "category": "noun"}],
        )


def test_save_load_round_trip(tmp_path, mini_kb):
    out = tmp_path / "copy.json"
    save_kb(mini_kb, out)
    again = load_kb(out)
    assert again == mini_kb


def test_entity_surfaces_get_singleton_classes(mini_kb):
    assert mini_kb.canonical.get("america") == "america"


def index_with_kb(kb_path, out_dir):
    """cli.main's exit status for `index` of the mini corpus with this KB."""
    return main(["index", "--kb_path", str(kb_path), "--corpus_dir", str(MINI / "docs"),
                 "--reference_year", "2010", "--out_dir", str(out_dir)])


def is_kb_error(err: str) -> bool:
    return err.count("\n") == 1 and err.startswith(
        ("error: errors.MalformedKb: ", "error: errors.InconsistentKb: "))


@pytest.mark.parametrize("data, detail", [
    ({"classes": 5}, "classes must be a list"),
    ({"categories": 5}, "categories must be a list"),
    ({"stop_words": 7}, "stop_words must be a list"),
    ({"stop_words": "xy"}, "stop_words must be a list"),
    ({"abbreviations": []}, "abbreviations must be an object"),
    ({"categories": [{"surface": "a", "category": ["x"]}]}, "unknown category ['x'] for 'a'"),
], ids=["classes", "categories", "stop-words", "stop-words-string", "abbreviations",
        "category-list"])
def test_wrong_kb_type_is_domain_error(tmp_path, capsys, data, detail):
    assert index_with_kb(kb_file(tmp_path, data), tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: errors.MalformedKb: ") and err.count("\n") == 1
    assert detail in err


def test_deeply_nested_kb_is_domain_error(tmp_path, capsys):
    path = tmp_path / "kb.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert index_with_kb(path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: errors.MalformedKb: {path}: ") and err.count("\n") == 1


_KB_KEYS = ["id", "canonical", "members", "quasi", "surface", "category"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(["port", "c1", "noun", "Port", "a b"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KB_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(data=st.fixed_dictionaries({}, optional={
    key: json_values for key in ("classes", "categories", "stop_words", "abbreviations")
}))
def test_any_kb_loads_or_is_one_line_kb_error(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("kb")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = index_with_kb(kb_file(work, data), work / "out")
    assert (status, err.getvalue()) == (0, "") or (status == 1 and is_kb_error(err.getvalue()))


@pytest.mark.parametrize("data", [
    {"stop_words": ["a\x01b"]},
    {"categories": [{"surface": "port\ufffe", "category": "noun"}]},
    {"classes": [{"id": "c", "canonical": "\x1bport", "members": ["\x1bport"], "quasi": []}],
     "categories": [{"surface": "\x1bport", "category": "noun"}]},
    {"abbreviations": {"HBR\x01": "harbor"}},
], ids=["stop-word", "surface", "canonical", "abbreviation"])
def test_kb_word_outside_xml_chars_is_inconsistent(tmp_path, capsys, data):
    assert index_with_kb(kb_file(tmp_path, data), tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: errors.InconsistentKb: ") and err.count("\n") == 1
    assert "holds a character XML cannot" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("abbreviations, detail", [
    ({"Intl.": "international", "intl.": "interior"},
     "abbreviations 'Intl.' and 'intl.' both lowercase to 'intl.'"),
    ({"a b": "ab"}, "abbreviation 'a b' contains whitespace"),
    ({"   ": "blank"}, "abbreviation '   ' contains whitespace"),
], ids=["lowercase-alike", "inner-space", "blank"])
def test_bad_abbreviation_key_is_inconsistent(tmp_path, capsys, abbreviations, detail):
    assert index_with_kb(kb_file(tmp_path, {"abbreviations": abbreviations}), tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: errors.InconsistentKb: ") and err.count("\n") == 1
    assert detail in err
