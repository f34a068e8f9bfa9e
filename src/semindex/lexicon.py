"""Heuristic stemming, the postings of Index documents, and vocabulary thresholding."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress

from .errors import EmptyVocabulary, write_text


# ordered suffix rules; guards keep very short stems intact
_SUFFIX_RULES = (
    ("sses", "ss", 0),
    ("ies", "y", 0),
    ("ations", "ate", 0),
    ("ing", "", 3),
    ("ed", "", 3),
    ("s", "", 2),
)


def _stem_once(word: str) -> str:
    for suffix, replacement, min_stem in _SUFFIX_RULES:
        if not word.endswith(suffix):
            continue
        if suffix == "s" and word.endswith("ss"):
            continue
        stem_len = len(word) - len(suffix)
        if stem_len < min_stem:
            continue
        return word[:stem_len] + replacement
    return word


def stem(word: str) -> str:
    """Strip known suffixes until a fixed point; idempotent by construction."""
    while True:
        reduced = _stem_once(word)
        if reduced == word:
            return word
        word = reduced


@dataclass(frozen=True)
class MinCount:
    count: int


@dataclass(frozen=True)
class TopN:
    n: int


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple  # descending score, ties lexicographic
    scores: dict

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True, eq=False)
class Postings:
    """The term postings of Index documents, one array entry per posting.

    Rejected postings are dropped; documents with no posting left still
    count.  `term` and `doc` index into `terms` and `docs`.
    """

    docs: tuple  # doc ids, in doc_id order
    terms: tuple  # distinct terms, in order of first posting
    term: np.ndarray
    doc: np.ndarray
    count: np.ndarray  # float
    accepted: np.ndarray  # bool

    @classmethod
    def build(cls, docs, lengths, terms, counts, statuses) -> "Postings":
        """From the doc ids in doc_id order and each one's number of postings;
        `terms`, `counts` and status codes are parallel lists over the
        postings of all documents, in that order."""
        from .agents import TermStatus  # agents imports this module
        # deferred: numpy costs about 0.15 s a process, and index never builds postings
        import numpy as np

        rejected, accepted = TermStatus.REJECTED.value, TermStatus.ACCEPTED.value
        keep = np.fromiter(map(rejected.__ne__, statuses), bool, len(statuses))
        kept = list(compress(terms, keep.tolist()))
        position = {t: i for i, t in enumerate(dict.fromkeys(kept))}
        return cls(
            tuple(docs),
            tuple(position),
            np.fromiter(map(position.__getitem__, kept), np.intp, len(kept)),
            np.repeat(np.arange(len(docs), dtype=np.intp), lengths)[keep],
            np.array(counts, dtype=float)[keep],
            np.fromiter(map(accepted.__eq__, statuses), bool, len(statuses))[keep],
        )

    def accepted_sets(self) -> dict:
        """doc id -> the set of its accepted terms, for every document."""
        sets = {doc_id: set() for doc_id in self.docs}
        for j, i in zip(self.doc[self.accepted].tolist(), self.term[self.accepted].tolist()):
            sets[self.docs[j]].add(self.terms[i])
        return sets


def build_vocabulary(postings: Postings, threshold_mode) -> Vocabulary:
    """Score terms by total count over the postings and threshold."""
    import numpy as np  # deferred, as in Postings.build

    totals = np.bincount(postings.term, postings.count, len(postings.terms)).tolist()
    terms = postings.terms

    def rank(i):  # descending total, ties lexicographic; no two terms tie on both
        return -totals[i], terms[i]

    if isinstance(threshold_mode, MinCount):  # only the terms kept are sorted
        kept = sorted((i for i, n in enumerate(totals) if n >= threshold_mode.count), key=rank)
    elif isinstance(threshold_mode, TopN):
        kept = heapq.nsmallest(threshold_mode.n, range(len(terms)), key=rank)
    else:
        raise TypeError(f"unsupported threshold mode {threshold_mode!r}")
    if not kept:
        raise EmptyVocabulary("no term survives the threshold")
    return Vocabulary(tuple(terms[i] for i in kept), {terms[i]: totals[i] for i in kept})


def save_vocabulary(vocab: Vocabulary, path) -> None:
    lines = [f"{t}\t{vocab.scores[t]:g}" for t in vocab.terms]
    write_text(path, "\n".join(lines) + "\n")
