"""Corpus ingestion and token cleanup.

Raw documents are plain UTF-8 files with a three-line header (id / title /
year), a blank line, then body text.  Tokenization lowercases, strips edge
punctuation, expands declared abbreviations, and drops mixed letter-digit
tokens; pure-digit tokens survive.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .errors import DuplicateId, InconsistentKb, MissingMetadata, read_text
from .kb import NOT_XML_CHAR, KnowledgeBase


@dataclass(frozen=True)
class Document:
    id: str
    year: int
    text: str


def ingest(paths) -> list:
    """Read document files in the given order; duplicate ids are rejected.
    The title header is required, then dropped: nothing reads it."""
    docs = []
    seen = set()
    for path in paths:
        raw = read_text(path)
        header, _, body = raw.partition("\n\n")
        fields = {}
        for line in header.splitlines():
            key, sep, value = line.partition(":")
            if sep:
                fields[key.strip()] = value.strip()
        for required in ("id", "title", "year"):
            if required not in fields:
                raise MissingMetadata(f"{path}: missing {required!r} header")
        try:
            year = int(fields["year"])
        except ValueError:
            raise MissingMetadata(f"{path}: year {fields['year']!r} is not an integer")
        if year <= 0:
            raise MissingMetadata(f"{path}: year must be positive")
        doc_id = fields["id"]
        if NOT_XML_CHAR.search(doc_id):
            raise MissingMetadata(f"{path}: id {doc_id!r} holds a character XML cannot")
        if doc_id in seen:
            raise DuplicateId(f"{path}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        docs.append(Document(doc_id, year, body))
    return docs


def _is_mixed_alnum(word: str) -> bool:
    return any(c.isalpha() for c in word) and any(c.isdigit() for c in word)


# the most words that the abbreviations may push for one whitespace-split word;
# a KB whose expansions double at each level would otherwise push 2^depth
MAX_EXPANSION_STEPS = 10**5


def tokenize(kb: KnowledgeBase, text: str) -> list:
    """The cleaned words of `text`, in order."""
    words = []
    for raw in text.split():
        # a word, else its edge-stripped form, expands as an abbreviation before the
        # mixed-alnum filter; its parts go on the stack in reverse, each with the
        # abbreviations it came from, none of which expands again: that cuts cycles
        stack, steps = [(raw.lower(), frozenset())], 0
        while stack:
            word, seen = stack.pop()
            stripped = word.strip(string.punctuation)
            form = word if word in kb.abbreviations and word not in seen else stripped
            if form in kb.abbreviations and form not in seen:
                parts = kb.abbreviations[form].split()
                steps += len(parts)
                if steps > MAX_EXPANSION_STEPS:
                    raise InconsistentKb(f"expanding abbreviation {form!r} takes more than"
                                         f" {MAX_EXPANSION_STEPS} steps")
                seen = seen | {form}
                stack += [(part, seen) for part in reversed(parts)]
            elif stripped and not _is_mixed_alnum(stripped):
                words.append(stripped)
    return words
