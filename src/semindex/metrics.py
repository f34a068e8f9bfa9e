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


def precision_recall(produced: dict, gold: dict, macro: bool = False):
    """Micro-averaged by default; macro averages per-document ratios."""
    if not set(produced) & set(gold):
        raise NoOverlap("produced and gold share no document ids")
    doc_ids = sorted(set(produced) | set(gold))
    if macro:
        ps, rs = [], []
        for doc_id in doc_ids:
            p_terms = produced.get(doc_id, set())
            g_terms = gold.get(doc_id, set())
            if not p_terms and not g_terms:
                continue
            hit = len(p_terms & g_terms)
            ps.append(hit / len(p_terms) if p_terms else 0.0)
            rs.append(hit / len(g_terms) if g_terms else 1.0)
        return (sum(ps) / len(ps), sum(rs) / len(rs)) if ps else (0.0, 0.0)
    hits = produced_total = gold_total = 0
    for doc_id in doc_ids:
        p_terms = produced.get(doc_id, set())
        g_terms = gold.get(doc_id, set())
        hits += len(p_terms & g_terms)
        produced_total += len(p_terms)
        gold_total += len(g_terms)
    precision = hits / produced_total if produced_total else 0.0
    recall = hits / gold_total if gold_total else 0.0
    return precision, recall
