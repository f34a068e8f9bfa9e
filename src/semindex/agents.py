"""Five-agent indexing pipeline over an append-only blackboard.

Each document flows through tokenize -> reading -> standardizing ->
proposition, then is routed Index / StoreOnly / Discard.  Term statuses
follow the four-valued scheme: Initial, Accepted, Rejected, MorphError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import tokenize
from .errors import SemindexError
from .kb import KnowledgeBase, normalize_term, quasi_synonyms
from .lexicon import stem

OBSOLESCENCE_YEARS = 5


class TermStatus(Enum):
    INITIAL = "I"
    ACCEPTED = "T"
    REJECTED = "F"
    MORPH_ERROR = "J"


class Routing(Enum):
    INDEX = "Index"
    STORE_ONLY = "StoreOnly"
    DISCARD = "Discard"


class Dispatch(Enum):
    TO_READING = "ToReading"
    TO_RELEVANCE = "ToRelevance"


class Verdict(Enum):
    RELEVANT = "Relevant"
    OBSOLETE = "Obsolete"
    IRRELEVANT = "Irrelevant"


@dataclass(frozen=True)
class IndexedDocument:
    doc_id: str
    terms: dict  # canonical -> (count, TermStatus)
    routing: Routing

    def accepted_counts(self) -> dict:
        return {
            t: n for t, (n, s) in self.terms.items() if s is TermStatus.ACCEPTED
        }


@dataclass(frozen=True)
class BlackboardEntry:
    doc_id: str
    routing: Routing
    year: int
    terms: dict  # accepted canonical -> count


@dataclass
class Blackboard:
    entries: list = field(default_factory=list)

    @property
    def last_entry(self):
        return self.entries[-1] if self.entries else None

    def append(self, entry: BlackboardEntry) -> None:
        self.entries.append(entry)


@dataclass(frozen=True)
class PipelineConfig:
    tau: float = 0.2
    reference_year: int = 2010


def query_agent(doc_terms: set, known_terms: set) -> Dispatch:
    """Documents carrying terms the system has never seen go to reading."""
    return Dispatch.TO_READING if doc_terms - known_terms else Dispatch.TO_RELEVANCE


def reading_agent(kb: KnowledgeBase, tokens) -> list:
    """Candidate terms: every KB surface plus unknown non-stop tokens."""
    out = []
    for tok in tokens:
        if tok.text in kb.stop_words:
            continue
        out.append((tok.text, TermStatus.INITIAL))
    return out


def standardizing_agent(kb: KnowledgeBase, candidates) -> list:
    """Map candidates to canonicals, stemming on a failed first lookup.

    Stop words and single-character terms are dropped outright; candidates
    that fail both lookups come back flagged MorphError.
    """
    out = []
    for surface, status in candidates:
        if status is not TermStatus.INITIAL:
            raise SemindexError(f"standardizing expects Initial terms, got {status}")
        if surface in kb.stop_words or len(surface) <= 1:
            continue
        canonical = normalize_term(kb, surface)
        if canonical is not None:
            out.append((canonical, TermStatus.ACCEPTED))
            continue
        stemmed = stem(surface)
        canonical = normalize_term(kb, stemmed)
        if canonical is not None:
            out.append((canonical, TermStatus.ACCEPTED))
        elif stemmed != surface:
            out.append((stemmed, TermStatus.MORPH_ERROR))
        else:
            out.append((surface, TermStatus.MORPH_ERROR))
    return out


def proposition_agent(kb: KnowledgeBase, terms) -> list:
    """Rescue MorphError terms reachable from an accepted quasi-synonym.

    On standardizing's output the rescue never fires: only canonicals are
    reachable, every canonical is a member of its own class and so
    normalizes to itself, and a MorphError term is one whose surface and
    stem both failed that lookup, so it is never a canonical.  The stage is
    kept as the fifth of the paper's agents.
    """
    reachable = set()
    for term, status in terms:
        if status is TermStatus.ACCEPTED and term in kb.canonical_classes:
            reachable |= quasi_synonyms(kb, term)
    out = []
    for term, status in terms:
        if status is TermStatus.MORPH_ERROR and term in reachable:
            out.append((term, TermStatus.ACCEPTED))
        else:
            out.append((term, status))
    return out


def _cosine(a: dict, b: dict) -> float:
    if not a or not b:
        return 0.0
    # dict lookups give the expected-constant-time hashed term index
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(n * large.get(t, 0) for t, n in small.items())
    na = math.sqrt(sum(n * n for n in a.values()))
    nb = math.sqrt(sum(n * n for n in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def relevance_agent(board: Blackboard, doc: IndexedDocument, doc_year: int,
                    reference_year: int, tau: float) -> Verdict:
    """Age gate, then thematic cosine against the last blackboard entry."""
    if reference_year - doc_year > OBSOLESCENCE_YEARS:
        return Verdict.OBSOLETE
    last = board.last_entry
    if last is None:
        return Verdict.RELEVANT
    cos = _cosine(doc.accepted_counts(), last.terms)
    return Verdict.RELEVANT if cos >= tau else Verdict.IRRELEVANT


def write_blackboard(board: Blackboard, path) -> None:
    """Serialize the blackboard as deterministic two-space-indented XML."""
    # deferred: xml.sax pulls in urllib and email, which only this writer needs
    from xml.sax.saxutils import quoteattr

    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<blackboard>"]
    for entry in board.entries:
        lines.append(
            f"  <doc id={quoteattr(entry.doc_id)} routing={quoteattr(entry.routing.value)} "
            f"year={quoteattr(str(entry.year))}>"
        )
        for term in sorted(entry.terms):
            lines.append(f"    <term c={quoteattr(term)} n={quoteattr(str(entry.terms[term]))}/>")
        lines.append("  </doc>")
    lines.append("</blackboard>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _aggregate(terms) -> dict:
    counts = {}
    for term, status in terms:
        if term in counts:
            n, old = counts[term]
            # Accepted wins when the same string arrives with both statuses
            merged = TermStatus.ACCEPTED if TermStatus.ACCEPTED in (old, status) else old
            counts[term] = (n + 1, merged)
        else:
            counts[term] = (1, status)
    return counts


def process_document(kb: KnowledgeBase, doc, words=None) -> dict:
    """Per-document stage chain.

    `words` memoizes tokenize, reading and standardizing per lowercased
    word: their terms depend only on the KB and the word, so calls with the
    same KB may share one dict.  Calls run in parallel need a dict each.
    """
    if words is None:
        words = {}
    standardized = []
    for raw in doc.text.split():
        # tokenize cleans each whitespace-split word on its own, lowercased
        key = raw.lower()
        terms = words.get(key)
        if terms is None:
            terms = words[key] = standardizing_agent(kb, reading_agent(kb, tokenize(kb, raw)))
        standardized += terms
    return _aggregate(proposition_agent(kb, standardized))


def run_pipeline(kb: KnowledgeBase, corpus, config: PipelineConfig):
    """Route every document, appending the kept ones to the blackboard.

    Returns (indexed documents in corpus order, blackboard).  A document can
    only reach Index or StoreOnly when it is not obsolete relative to the
    configured reference year.
    """
    board = Blackboard()
    known = set(kb.canonical_classes)
    words = {}  # per call: another KB gives other terms
    results = []
    for doc in corpus:
        term_map = process_document(kb, doc, words)
        doc_terms = set(term_map)
        dispatch = query_agent(doc_terms, known)
        draft = IndexedDocument(doc.id, term_map, Routing.DISCARD)

        if config.reference_year - doc.year > OBSOLESCENCE_YEARS:
            routing = Routing.DISCARD
        elif dispatch is Dispatch.TO_READING:
            routing = Routing.INDEX
        else:
            verdict = relevance_agent(board, draft, doc.year, config.reference_year, config.tau)
            routing = Routing.STORE_ONLY if verdict is Verdict.RELEVANT else Routing.DISCARD

        indexed = IndexedDocument(doc.id, term_map, routing)
        results.append(indexed)
        if routing is not Routing.DISCARD:
            board.append(BlackboardEntry(doc.id, routing, doc.year, indexed.accepted_counts()))
            known |= doc_terms
    return results, board
