"""Seeded inputs for the semindex benchmark, with the references its checks use.

`GENERATORS[workload](root, seed, out)` writes into the directory `out`,
for one workload and seed, everything a round of that workload
reads (a config, a KB, a corpus or an index store, a gold file) plus
`expected.json`: the routing every document must get, the terms and counts
every document must be indexed under, and the planted topic of every term
and document.  The references are worked out here from the documented
routing rules and from the KB JSON, without importing semindex.

Every word is lowercase and alphabetic, because the tokenizer drops
letter-digit tokens.  Generated words are consonant-vowel syllables ending
in a, o or u, so the stemmer leaves them as they are; a KB surface is
sometimes written with an extra `s`, which the stemmer strips again.
The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

REFERENCE_YEAR = 2010
OBSOLESCENCE_YEARS = 5  # older than reference_year - 5 is discarded
TAU = 0.2
MINI_KB = Path("data/mini_corpus/kb.json")
CATEGORIES = ("noun", "verb", "adjective", "hyponym", "hyperonym", "entity-place")

# document counts, chosen so that one round of a workload takes a few seconds
INTAKE_DOCS = 480
INTAKE_TOPICS = 2
ARCHIVE_DOCS = 2400
ARCHIVE_CLASSES = 240
RECLUSTER_DOCS = 10000
RECLUSTER_TERMS = 1500
RECLUSTER_KS = (2, 3)
RECLUSTER_SIZES = (0.5, 0.3, 0.2)  # share of documents and terms in each planted topic
RECLUSTER_PURITY = (0.95, 0.9, 0.85)  # share of a document's words from its own topic
RECLUSTER_PLANTED_K = len(RECLUSTER_SIZES)
EGO_TERMS = 1
# The balanced store does not depend on --seed: the cluster run on it fails
# every time (NoConvergence), so its failure counts the same in every run.
BALANCED_SEED = 20120801
BALANCED_DOCS = 800
BALANCED_TOPICS = 4
BALANCED_K = 4

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aou"


class Words:
    """Fresh pseudo-words, none of them repeated or among `taken`."""

    def __init__(self, rng: random.Random, taken=()):
        self.rng = rng
        self.used = set(taken)

    def new(self) -> str:
        while True:
            syllables = self.rng.choice((2, 3, 3, 4))
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                for _ in range(syllables)
            )
            if word not in self.used:
                self.used.add(word)
                return word

    def many(self, n: int) -> list:
        return [self.new() for _ in range(n)]


def cosine(a: dict, b: dict) -> float:
    dot = sum(n * b.get(t, 0) for t, n in a.items())
    na = math.sqrt(sum(n * n for n in a.values()))
    nb = math.sqrt(sum(n * n for n in b.values()))
    return dot / (na * nb) if na and nb else 0.0


def predict_routing(docs: list, canonicals) -> list:
    """Routing of each document by the documented rules, in corpus order.

    A document older than reference_year - 5 is Discard.  One carrying a
    term never seen before (not a KB canonical, not in an earlier
    non-discarded document) is Index.  Any other is StoreOnly when its
    accepted-term cosine against the last non-discarded document reaches
    tau (or when there is none yet), and Discard otherwise.
    """
    known = set(canonicals)
    last = None
    out = []
    for doc in docs:
        terms = doc["terms"]
        accepted = {t: n for t, (n, s) in terms.items() if s == "T"}
        if REFERENCE_YEAR - doc["year"] > OBSOLESCENCE_YEARS:
            routing = "Discard"
        elif set(terms) - known:
            routing = "Index"
        elif last is None:
            routing = "StoreOnly"
        else:
            cos = cosine(accepted, last)
            if abs(cos - TAU) < 1e-9:
                raise ValueError(f"{doc['id']}: cosine {cos} too close to tau")
            routing = "StoreOnly" if cos >= TAU else "Discard"
        out.append(routing)
        if routing != "Discard":
            last = accepted
            known |= set(terms)
    return out


def _kb_surfaces(kb: dict) -> dict:
    """surface -> canonical, read from the KB JSON alone."""
    canon = {}
    for cls in kb["classes"]:
        for member in cls["members"]:
            canon[member] = cls["canonical"]
    for entry in kb["categories"]:
        canon.setdefault(entry["surface"], entry["surface"])
    return canon


def _classes(canon: dict) -> dict:
    """canonical -> sorted surfaces."""
    out = {}
    for surface, c in sorted(canon.items()):
        out.setdefault(c, []).append(surface)
    return out


class Doc:
    """A document being written: its words, and the terms they index to."""

    def __init__(self, doc_id: str, year: int, topic):
        self.id, self.year, self.topic = doc_id, year, topic
        self.words = []
        self.terms = {}  # term -> [count, status]

    def add(self, word: str, term: str, status: str) -> None:
        self.words.append(word)
        entry = self.terms.setdefault(term, [0, status])
        entry[0] += 1

    def filler(self, word: str) -> None:
        self.words.append(word)

    def text(self, rng: random.Random) -> str:
        words = list(self.words)
        rng.shuffle(words)
        lines = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
        return (
            f"id: {self.id}\ntitle: document {self.id}\nyear: {self.year}\n\n"
            + "\n".join(lines) + "\n"
        )

    def record(self) -> dict:
        return {
            "id": self.id,
            "year": self.year,
            "topic": self.topic,
            "terms": {t: list(v) for t, v in sorted(self.terms.items())},
        }


def _add_surface(doc: Doc, rng, surfaces: list, canonical: str, plural_share: float):
    surface = rng.choice(surfaces)
    if rng.random() < plural_share and surface[-1] in _VOWELS:
        surface += "s"  # stripped by the stemmer, then found in the KB
    doc.add(surface, canonical, "T")


def _config(k: int, gold: bool) -> str:
    lines = [
        "kb_path = kb.json",
        "corpus_dir = docs",
        f"tau = {TAU}",
        f"reference_year = {REFERENCE_YEAR}",
        "threshold_mode = min_count:2",
        f"k = {k}",
        "seed = 7",
        "refine_passes = 1",
        "level = lexical",
        "out_dir = out",
    ]
    if gold:
        lines.append("gold_path = gold.tsv")
    return "\n".join(lines) + "\n"


def _dump(path: Path, data) -> None:
    _write(path, json.dumps(data, sort_keys=True) + "\n")


def _write(path: Path, text: str) -> None:
    """Write `text` to `path`, over an earlier file of that name in place.

    Truncating or deleting files and creating them anew made each later
    set-up on ext4 up to ten times slower; overwriting in place keeps their
    blocks and inodes.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        with os.fdopen(fd, "wb", closefd=False) as f:
            f.write(data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_corpus(out: Path, docs: list, rng: random.Random) -> None:
    corpus = out / "docs"
    corpus.mkdir(parents=True, exist_ok=True)
    names = set()
    for doc in docs:
        names.add(f"{doc.id}.txt")
        _write(corpus / f"{doc.id}.txt", doc.text(rng))
    for stale in sorted(set(os.listdir(corpus)) - names):
        (corpus / stale).unlink()


def _expected(docs: list, canonicals, **extra) -> dict:
    records = [d.record() for d in docs]
    for rec, routing in zip(records, predict_routing(records, canonicals)):
        rec["routing"] = routing
    return {"documents": records, **extra}


def generate_intake(root: Path, seed: int, out: Path, n_docs: int = INTAKE_DOCS) -> None:
    """Recent documents over the bundled KB and two planted topics.

    Each carries one word seen nowhere else, so each is routed Index.
    """
    rng = random.Random(f"intake-{seed}")
    kb = json.loads((root / MINI_KB).read_text(encoding="utf-8"))
    canon = _kb_surfaces(kb)
    classes = _classes(canon)
    words = Words(rng, set(canon) | set(kb["stop_words"]))
    order = sorted(classes)
    rng.shuffle(order)
    topic_classes = [sorted(order[t::INTAKE_TOPICS]) for t in range(INTAKE_TOPICS)]
    topic_words = [words.many(30) for _ in range(INTAKE_TOPICS)]
    term_topics = {c: t for t in range(INTAKE_TOPICS) for c in topic_classes[t]}
    term_topics.update({w: t for t in range(INTAKE_TOPICS) for w in topic_words[t]})

    topics = [0] * (n_docs * 55 // 100)
    topics += [1] * (n_docs - len(topics))
    rng.shuffle(topics)
    docs = []
    for i, topic in enumerate(topics):
        doc = Doc(f"n{i:05d}", rng.randint(REFERENCE_YEAR - 4, REFERENCE_YEAR), topic)
        for _ in range(24):
            t = topic if rng.random() < 0.9 else 1 - topic  # the other topic
            if rng.random() < 0.5:
                c = rng.choice(topic_classes[t])
                _add_surface(doc, rng, classes[c], c, 0.0)
            else:
                w = rng.choice(topic_words[t])
                doc.add(w, w, "J")
        for _ in range(12):
            doc.filler(rng.choice(kb["stop_words"]))
        novel = words.new()
        doc.add(novel, novel, "J")
        docs.append(doc)

    out.mkdir(parents=True, exist_ok=True)
    _write(out / "kb.json", (root / MINI_KB).read_text(encoding="utf-8"))
    _write_corpus(out, docs, rng)
    gold = [
        f"{d.id}\t{t}\n" for d in docs for t, (_, s) in sorted(d.terms.items()) if s == "T"
    ]
    _write(out / "gold.tsv", "".join(gold))
    _write(out / "config.ini", _config(INTAKE_TOPICS, gold=True))
    _dump(out / "expected.json", _expected(docs, classes, term_topics=term_topics))


def _archive_kb(rng: random.Random, words: Words, stop_words: list, n_classes: int) -> dict:
    classes = []
    categories = []
    ids = [f"k{i:04d}" for i in range(n_classes)]
    for cid in ids:
        members = words.many(rng.choice((1, 1, 2, 3)))
        quasi = rng.sample([q for q in ids if q != cid], rng.choice((0, 1, 1, 2)))
        classes.append({
            "id": cid,
            "canonical": rng.choice(members),
            "members": sorted(members),
            "quasi": sorted(quasi),
        })
        categories += [{"surface": m, "category": rng.choice(CATEGORIES)} for m in members]
    return {
        "classes": classes,
        "categories": sorted(categories, key=lambda e: e["surface"]),
        "stop_words": stop_words,
        "abbreviations": {},
    }


def generate_archive(root: Path, seed: int, out: Path, n_docs: int = ARCHIVE_DOCS,
                     n_classes: int = ARCHIVE_CLASSES) -> None:
    """Mostly Discard documents, some by age and some by cosine.

    A few percent are Index (a never-seen word and one of two planted
    topics) or StoreOnly (the classes of the last non-discarded document
    again).
    """
    rng = random.Random(f"archive-{seed}")
    stop_words = json.loads((root / MINI_KB).read_text(encoding="utf-8"))["stop_words"]
    words = Words(rng, stop_words)
    kb = _archive_kb(rng, words, stop_words, n_classes)
    canon = _kb_surfaces(kb)
    classes = _classes(canon)
    order = sorted(classes)
    rng.shuffle(order)
    topic_classes = [sorted(order[:20]), sorted(order[20:40])]
    topic_words = [words.many(12), words.many(12)]
    term_topics = {c: t for t in (0, 1) for c in topic_classes[t]}
    term_topics.update({w: t for t in (0, 1) for w in topic_words[t]})

    # exact shares: 3% Index, 3% StoreOnly, 34% Discard by age, the rest by
    # cosine; the first document is Index, so there is a last kept document
    n_index, n_store, n_old = n_docs * 3 // 100, n_docs * 3 // 100, n_docs * 34 // 100
    kinds = ["store"] * n_store + ["old"] * n_old + ["off"] * (n_docs - n_index - n_store - n_old)
    kinds += ["index"] * (n_index - 1)
    rng.shuffle(kinds)
    kinds.insert(0, "index")
    docs = []
    last = None  # accepted canonicals of the last document meant to be kept
    recent = (REFERENCE_YEAR - OBSOLESCENCE_YEARS, REFERENCE_YEAR)
    for i, kind in enumerate(kinds):
        doc_id = f"a{i:05d}"
        if kind == "index":  # a never-seen word, one of two planted topics
            topic = i % 2
            doc = Doc(doc_id, rng.randint(*recent), topic)
            for _ in range(20):
                c = rng.choice(topic_classes[topic])
                _add_surface(doc, rng, classes[c], c, 0.2)
            for _ in range(6):
                w = rng.choice(topic_words[topic])
                doc.add(w, w, "J")
            novel = words.new()
            doc.add(novel, novel, "J")
        elif kind == "store":  # the last kept document's classes again
            doc = Doc(doc_id, rng.randint(*recent), None)
            for c in sorted(last):
                for _ in range(last[c]):
                    _add_surface(doc, rng, classes[c], c, 0.2)
        elif kind == "old":  # whatever it holds, even a never-seen word
            doc = Doc(doc_id, rng.randint(1990, recent[0] - 1), None)
            for _ in range(26):
                c = rng.choice(order)
                _add_surface(doc, rng, classes[c], c, 0.2)
            if rng.random() < 0.5:
                novel = words.new()
                doc.add(novel, novel, "J")
        else:  # no class of the last kept document, so cosine 0
            doc = Doc(doc_id, rng.randint(*recent), None)
            pool = [c for c in order if c not in last]
            for _ in range(26):
                c = rng.choice(pool)
                _add_surface(doc, rng, classes[c], c, 0.2)
        for _ in range(14):
            doc.filler(rng.choice(stop_words))
        if kind in ("index", "store"):
            last = {t: n for t, (n, s) in doc.terms.items() if s == "T"}
        docs.append(doc)

    out.mkdir(parents=True, exist_ok=True)
    expected = _expected(docs, classes, term_topics=term_topics)
    meant = {"index": "Index", "store": "StoreOnly", "old": "Discard", "off": "Discard"}
    if [d["routing"] for d in expected["documents"]] != [meant[k] for k in kinds]:
        raise ValueError("archive documents do not route as they were built to")
    _dump(out / "kb.json", kb)
    _write_corpus(out, docs, rng)
    _write(out / "config.ini", _config(2, gold=False))
    _dump(out / "expected.json", expected)


def _store_docs(rng: random.Random, words: Words, n_docs: int, topic_terms: list) -> list:
    """Index-store documents over planted topics of unequal size and purity.

    Topic sizes, the 3% of documents that are not Index and the 5% holding a
    Rejected term are exact counts, so every seed gives the same amount of
    work.
    """
    topics = [t for t, share in enumerate(RECLUSTER_SIZES) for _ in range(round(n_docs * share))]
    rng.shuffle(topics)
    not_index = set(rng.sample(range(n_docs), n_docs * 3 // 100))
    rejected = set(rng.sample(range(n_docs), n_docs * 5 // 100))
    rejected_terms = words.many(3)
    docs = []
    for i, topic in enumerate(topics):
        doc = Doc(f"r{i:05d}", rng.randint(REFERENCE_YEAR - 4, REFERENCE_YEAR), topic)
        for _ in range(18):
            t = topic
            if rng.random() > RECLUSTER_PURITY[topic]:
                t = rng.choice([u for u in range(len(topic_terms)) if u != topic])
            w = rng.choice(topic_terms[t])
            doc.add(w, w, "J" if len(w) % 5 == 0 else "T")  # some MorphError, like unknown words
        novel = words.new()  # seen once, dropped by min_count:2
        doc.add(novel, novel, "J")
        if i in rejected:  # never reaches the vocabulary
            w = rng.choice(rejected_terms)
            doc.add(w, w, "F")
        doc.routing = rng.choice(("StoreOnly", "Discard")) if i in not_index else "Index"
        docs.append(doc)
    return docs


def _balanced_docs(rng: random.Random, words: Words) -> list:
    """Four topics that are copies of one another up to a renaming of terms,
    plus a few extra counts: their singular values are nearly equal."""
    n_topics, n_terms = BALANCED_TOPICS, 40
    terms = [words.many(n_terms) for _ in range(n_topics)]
    pattern = []  # (topic offset, term index) occurrences of each topic-0 document
    for _ in range(BALANCED_DOCS // n_topics):
        pattern.append([
            (0 if rng.random() < 0.85 else rng.randrange(1, n_topics), rng.randrange(n_terms))
            for _ in range(30)
        ])
    docs = []
    for i, occurrences in enumerate(pattern):
        for topic in range(n_topics):
            doc = Doc(f"b{i * n_topics + topic:05d}", REFERENCE_YEAR, topic)
            doc.routing = "Index"
            for offset, j in occurrences:
                w = terms[(topic + offset) % n_topics][j]
                doc.add(w, w, "T")
            docs.append(doc)
    for _ in range(10):
        doc = rng.choice(docs)
        w = rng.choice(terms[doc.topic])
        doc.add(w, w, "T")
    return docs


def _store(docs: list) -> dict:
    """The index_store.json form written by `semindex index`."""
    return {
        "documents": {
            d.id: {
                "routing": d.routing,
                "year": d.year,
                "terms": {t: {"n": n, "status": s} for t, (n, s) in sorted(d.terms.items())},
            }
            for d in docs
        }
    }


def _store_text(docs: list) -> str:
    # compact, unlike `semindex index`, so that set-up stays short; the
    # reader parses either form the same way
    return json.dumps(_store(docs), ensure_ascii=False, sort_keys=True) + "\n"


def _store_expected(docs: list, topic_terms: list) -> dict:
    records = []
    for d in docs:
        rec = d.record()
        rec["routing"] = d.routing
        records.append(rec)
    term_topics = {w: t for t, ws in enumerate(topic_terms) for w in ws}
    return {"documents": records, "term_topics": term_topics}


def generate_recluster(root: Path, seed: int, out: Path, n_docs: int = RECLUSTER_DOCS,
                       n_terms: int = RECLUSTER_TERMS) -> None:
    """An index store with three planted topics of unequal size and purity,
    one copy per value of --k, and the small balanced store (the same for
    every seed)."""
    rng = random.Random(f"recluster-{seed}")
    words = Words(rng)
    topic_terms = [words.many(round(n_terms * s)) for s in RECLUSTER_SIZES]
    docs = _store_docs(rng, words, n_docs, topic_terms)
    egos = [topic_terms[t][0] for t in range(EGO_TERMS)]  # one term of each large topic

    brng = random.Random(BALANCED_SEED)
    text = _store_text(docs)
    stores = {f"k{k}": (k, text) for k in RECLUSTER_KS}
    stores["balanced"] = (BALANCED_K, _store_text(_balanced_docs(brng, Words(brng))))

    for name, (k, text) in stores.items():
        (out / name / "out").mkdir(parents=True, exist_ok=True)
        _write(out / name / "out" / "index_store.json", text)
        _write(out / name / "config.ini", _config(k, gold=False))
    expected = _store_expected(docs, topic_terms)
    expected["ego_terms"] = egos
    _dump(out / "expected.json", expected)


GENERATORS = {
    "intake": generate_intake,
    "archive": generate_archive,
    "recluster": generate_recluster,
}

