"""Set-based precision/recall of produced index terms against a gold file."""

from __future__ import annotations


from .errors import MalformedGold, NoOverlap, read_text


def load_gold(path) -> dict:
    """TSV with one `doc_id<TAB>term` pair per line."""
    gold = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        doc_id, sep, term = line.partition("\t")
        if not sep or not term:
            raise MalformedGold(f"{path}:{lineno}: expected doc_id<TAB>term")
        gold.setdefault(doc_id, set()).add(term.strip().lower())
    return gold


def precision_recall(produced: dict, gold: dict):
    """Micro-averaged over every document id of either side."""
    if not set(produced) & set(gold):
        raise NoOverlap("produced and gold share no document ids")
    hits = produced_total = gold_total = 0
    for doc_id in set(produced) | set(gold):
        p_terms = produced.get(doc_id, set())
        g_terms = gold.get(doc_id, set())
        hits += len(p_terms & g_terms)
        produced_total += len(p_terms)
        gold_total += len(g_terms)
    precision = hits / produced_total if produced_total else 0.0
    recall = hits / gold_total if gold_total else 0.0
    return precision, recall
