"""Knowledge base: canonical terms, synonym classes, quasi-synonym links.

The KB is a single JSON file.  Synonym classes act as hyperedges grouping
surface forms under one canonical; quasi-synonym links connect classes and
are symmetric regardless of declaration direction: `load_kb` closes them
once, so `quasi_synonyms` is a lookup.  A loaded KB keeps only the maps the
engine reads: each surface's canonical, each canonical's links, the stop
words and the abbreviations; categories are only checked.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import InconsistentKb, MalformedKb, UnknownTerm, read_text

CATEGORIES = frozenset(
    {
        "noun",
        "verb",
        "adjective",
        "homonym",
        "hyponym",
        "hyperonym",
        "meronym",
        "contextual-expression",
        "entity-person",
        "entity-place",
        "entity-organization",
        "entity-product",
    }
)

# outside XML 1.0's Char production: the blackboard cannot hold these
NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_TOP_LEVEL_TYPES = {"classes": list, "categories": list, "stop_words": list, "abbreviations": dict}


@dataclass(frozen=True)
class KnowledgeBase:
    canonical: dict  # surface -> the canonical of its class
    quasi_links: dict  # canonical -> frozenset of canonicals, closed in both directions
    stop_words: frozenset
    abbreviations: dict  # surface -> expansion


def _check_word(word, what: str) -> str:
    if not isinstance(word, str) or not word:
        raise InconsistentKb(f"{what} must be a nonempty string, got {word!r}")
    if word != word.lower():
        raise InconsistentKb(f"{what} {word!r} is not lowercase")
    if any(ch.isspace() for ch in word):
        raise InconsistentKb(f"{what} {word!r} contains whitespace")
    if NOT_XML_CHAR.search(word):
        raise InconsistentKb(f"{what} {word!r} holds a character XML cannot")
    return word


def load_kb(path) -> KnowledgeBase:
    """Parse and validate a KB file, raising MalformedKb / InconsistentKb."""
    raw = read_text(path)
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedKb(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedKb(f"{path}: top level must be an object")
    unknown = set(data) - set(_TOP_LEVEL_TYPES)
    if unknown:
        raise MalformedKb(f"{path}: unknown top-level keys {sorted(unknown)}")
    for key, value in data.items():
        if not isinstance(value, _TOP_LEVEL_TYPES[key]):
            kind = "an object" if _TOP_LEVEL_TYPES[key] is dict else "a list"
            raise MalformedKb(f"{path}: {key} must be {kind}")

    categories = {}
    for entry in data.get("categories", []):
        if not isinstance(entry, dict) or set(entry) != {"surface", "category"}:
            raise MalformedKb(f"bad categories entry {entry!r}")
        surface = _check_word(entry["surface"], "surface")
        if not isinstance(entry["category"], str) or entry["category"] not in CATEGORIES:
            raise MalformedKb(f"unknown category {entry['category']!r} for {surface!r}")
        if surface in categories:
            raise InconsistentKb(f"duplicate category record for {surface!r}")
        categories[surface] = entry["category"]

    classes = {}  # class id -> (canonical, members, quasi class ids)
    surface_to_class = {}
    for entry in data.get("classes", []):
        if not isinstance(entry, dict) or set(entry) != {"id", "canonical", "members", "quasi"}:
            raise MalformedKb(f"bad classes entry {entry!r}")
        cid = entry["id"]
        if not isinstance(cid, str) or not cid:
            raise MalformedKb(f"bad class id {cid!r}")
        if cid in classes:
            raise InconsistentKb(f"duplicate class id {cid!r}")
        for key in ("members", "quasi"):
            if not isinstance(entry[key], list) or not all(isinstance(x, str) for x in entry[key]):
                raise MalformedKb(f"class {cid!r}: {key} must be a list of strings")
        members = frozenset(_check_word(m, "member") for m in entry["members"])
        if not members:
            raise InconsistentKb(f"class {cid!r} has no members")
        canonical = _check_word(entry["canonical"], "canonical")
        if canonical not in members:
            raise InconsistentKb(f"class {cid!r}: canonical {canonical!r} not among members")
        quasi = frozenset(entry["quasi"])
        if cid in quasi:
            raise InconsistentKb(f"class {cid!r} lists itself as quasi-synonym")
        for m in members:
            if m in surface_to_class:
                raise InconsistentKb(f"surface {m!r} appears in classes {surface_to_class[m]!r} and {cid!r}")
            surface_to_class[m] = cid
        classes[cid] = (canonical, members, quasi)

    # every class member needs a category record
    for cid, (_, members, _) in classes.items():
        for m in sorted(members):
            if m not in categories:
                raise InconsistentKb(f"class {cid!r} lists {m!r} but no record for {m!r} exists")

    # categorized surfaces outside any class become singleton classes
    for surface in sorted(categories):
        if surface not in surface_to_class:
            if surface in classes:
                raise InconsistentKb(f"implicit singleton class for {surface!r} collides with class id")
            classes[surface] = (surface, frozenset({surface}), frozenset())
            surface_to_class[surface] = surface

    # links declared in either direction; a class never lists itself
    linked = {cid: set(quasi) for cid, (_, _, quasi) in classes.items()}
    for cid, (_, _, quasi) in classes.items():
        for q in quasi:
            if q not in classes:
                raise InconsistentKb(f"class {cid!r} quasi-links unknown class {q!r}")
            linked[q].add(cid)
    quasi_links = {
        classes[cid][0]: frozenset(classes[o][0] for o in others) for cid, others in linked.items()
    }

    stop_words = frozenset(_check_word(w, "stop word") for w in data.get("stop_words", []))
    bad_stops = stop_words & quasi_links.keys()  # one key per class: its canonical
    if bad_stops:
        raise InconsistentKb(f"canonical terms declared as stop words: {sorted(bad_stops)}")

    abbreviations = {}
    for key, value in data.get("abbreviations", {}).items():
        if not isinstance(key, str) or not key or not isinstance(value, str) or not value:
            raise MalformedKb(f"bad abbreviation entry {key!r}: {value!r}")
        lowered = _check_word(key.lower(), "abbreviation")  # words are matched lowercased
        if lowered in abbreviations:
            first = next(k for k in data["abbreviations"] if k.lower() == lowered)
            raise InconsistentKb(f"abbreviations {first!r} and {key!r} both lowercase to {lowered!r}")
        abbreviations[lowered] = value.lower()

    canonical = {surface: classes[cid][0] for surface, cid in surface_to_class.items()}
    return KnowledgeBase(canonical, quasi_links, stop_words, abbreviations)


def quasi_synonyms(kb: KnowledgeBase, canonical: str) -> frozenset:
    """Canonicals one quasi-synonym hop away, counting links in either direction."""
    links = kb.quasi_links.get(canonical)
    if links is None:
        raise UnknownTerm(f"{canonical!r} is not the canonical of any class")
    return links
