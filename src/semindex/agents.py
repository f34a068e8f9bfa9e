"""Five-agent indexing pipeline over an append-only blackboard.

One pass over a document's words runs tokenize -> reading ->
standardizing and folds their terms into the document's term map, which
proposition then checks; run_pipeline routes the document Index /
StoreOnly / Discard.  Term statuses follow the four-valued scheme:
Initial, Accepted, Rejected, MorphError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .corpus import tokenize
from .errors import write_text
from .kb import KnowledgeBase, quasi_synonyms
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


@dataclass(frozen=True)
class IndexedDocument:
    doc_id: str
    terms: dict  # canonical -> (count, TermStatus)
    routing: Routing


def query_agent(term_map: dict, known_terms: set) -> bool:
    """Whether the document carries a term the system has never seen."""
    return not known_terms.issuperset(term_map)


def reading_agent(kb: KnowledgeBase, words) -> list:
    """Candidate terms: the words that are not stop words."""
    return [word for word in words if word not in kb.stop_words]


def standardizing_agent(kb: KnowledgeBase, words) -> list:
    """(term, status) of each candidate: the canonical of the surface, else of its stem.

    Stop words and single-character words are dropped outright; a stem the
    KB lacks comes back as itself, flagged MorphError.
    """
    out = []
    for surface in words:
        if surface in kb.stop_words or len(surface) <= 1:
            continue
        term = surface if surface in kb.canonical else stem(surface)
        canonical = kb.canonical.get(term)
        if canonical is None:
            out.append((term, TermStatus.MORPH_ERROR))
        else:
            out.append((canonical, TermStatus.ACCEPTED))
    return out


def proposition_agent(kb: KnowledgeBase, term_map: dict) -> dict:
    """Accept the MorphError terms one quasi-synonym link from an accepted term.

    Returns a new map when it rescues a term, else `term_map` itself.  The
    links are symmetric, so only the MorphError terms' own links are
    looked up, in the map itself.  On standardizing's output no MorphError
    term is even linked: only canonicals are, every canonical normalizes to
    itself, and a MorphError term is a stem that failed that lookup, so it
    is never a canonical.  The stage is kept as the fifth of the paper's agents.
    """
    rescued = {
        term: (n, TermStatus.ACCEPTED)
        for term, (n, status) in term_map.items()
        if status is TermStatus.MORPH_ERROR
        and term in kb.quasi_links
        and any(term_map.get(q, (0, None))[1] is TermStatus.ACCEPTED
                for q in quasi_synonyms(kb, term))
    }
    return term_map | rescued if rescued else term_map


def _cosine(a: dict, b: dict) -> float:
    # dict lookups give the expected-constant-time hashed term index
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(n * large.get(t, 0) for t, n in small.items())
    na = math.sqrt(sum(n * n for n in a.values()))
    nb = math.sqrt(sum(n * n for n in b.values()))
    # the counts are positive integers, so a norm is 0 exactly when its map is empty
    return dot / (na * nb) if na and nb else 0.0


def relevance_agent(last_terms, accepted: dict, tau: float) -> bool:
    """Whether the accepted counts lie within cosine `tau` of the last kept document's.

    With no document kept yet (`last_terms` None) every document is relevant.
    """
    return last_terms is None or _cosine(accepted, last_terms) >= tau


def write_blackboard(entries, path, years: dict) -> None:
    """Serialize the kept documents, each with its year and its Accepted counts,
    as deterministic two-space-indented XML."""
    # deferred: xml.sax pulls in urllib and email, which only this writer needs
    from xml.sax.saxutils import quoteattr

    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<blackboard>"]
    for doc in entries:
        lines.append(
            f"  <doc id={quoteattr(doc.doc_id)} routing={quoteattr(doc.routing.value)} "
            f"year={quoteattr(str(years[doc.doc_id]))}>"
        )
        for term, n in sorted((t, n) for t, (n, s) in doc.terms.items() if s is TermStatus.ACCEPTED):
            lines.append(f"    <term c={quoteattr(term)} n={quoteattr(str(n))}/>")
        lines.append("  </doc>")
    lines.append("</blackboard>")
    write_text(path, "\n".join(lines) + "\n")


def process_document(kb: KnowledgeBase, doc, words: dict) -> dict:
    """The document's term map {term: (count, status)}, in first-occurrence order.

    `words` memoizes tokenize, reading and standardizing per lowercased
    word: their terms depend only on the KB and the word, so calls with the
    same KB may share one dict.  Calls run in parallel need a dict each.
    """
    term_map = {}
    for raw in doc.text.split():
        # tokenize cleans each whitespace-split word on its own, lowercased
        key = raw.lower()
        terms = words.get(key)
        if terms is None:
            terms = words[key] = standardizing_agent(kb, reading_agent(kb, tokenize(kb, raw)))
        for term, status in terms:
            n, old = term_map.get(term, (0, status))
            # Accepted wins when the same string arrives with both statuses
            term_map[term] = (n + 1, status if status is TermStatus.ACCEPTED else old)
    # a merged status is Accepted exactly when one occurrence was, so one
    # proposition pass over the distinct terms rescues what a pass per word would
    return proposition_agent(kb, term_map)


def run_pipeline(kb: KnowledgeBase, corpus, tau: float, reference_year: int):
    """Route every document; return (indexed documents, kept documents), in corpus order.

    A document more than OBSOLESCENCE_YEARS older than `reference_year` is
    discarded; one with a term never seen before is indexed; any other is
    stored only when relevant to the last kept document, else discarded.
    The kept (non-Discard) documents are the blackboard's entries.
    """
    known = set(kb.quasi_links)
    words = {}  # per call: another KB gives other terms
    documents, entries = [], []
    last = None  # the accepted counts of the last kept document
    for doc in corpus:
        term_map = process_document(kb, doc, words)
        routing = Routing.DISCARD
        if reference_year - doc.year <= OBSOLESCENCE_YEARS:
            accepted = {t: n for t, (n, s) in term_map.items() if s is TermStatus.ACCEPTED}
            if query_agent(term_map, known):
                routing = Routing.INDEX
            elif relevance_agent(last, accepted, tau):
                routing = Routing.STORE_ONLY
        documents.append(IndexedDocument(doc.id, term_map, routing))
        if routing is not Routing.DISCARD:
            entries.append(documents[-1])
            known.update(term_map)
            last = accepted
    return documents, entries
