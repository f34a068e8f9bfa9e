"""Exception hierarchy shared by all semindex modules."""


class SemindexError(Exception):
    """Base class for all domain errors raised by this package."""


# knowledge base
class MalformedKb(SemindexError):
    pass


class InconsistentKb(SemindexError):
    pass


class UnknownTerm(SemindexError):
    pass


# corpus ingestion
class DuplicateId(SemindexError):
    pass


class MissingMetadata(SemindexError):
    pass


class UnreadableFile(SemindexError):
    pass


# lexicon
class UnimplementedLevel(SemindexError):
    pass


class EmptyVocabulary(SemindexError):
    pass


# co-clustering
class EmptyMatrix(SemindexError):
    pass


class ZeroDegree(SemindexError):
    pass


class NoConvergence(SemindexError):
    def __init__(self, residual: float):
        super().__init__(f"singular pairs not resolved, attained residual {residual:.3e}")
        self.residual = residual


class BadClusterCount(SemindexError):
    pass


class EmptySide(SemindexError):
    pass


class TooLarge(SemindexError):
    pass


# graphs
class UnknownNode(SemindexError):
    pass


class MalformedPajek(SemindexError):
    pass


class UnwritableLabel(SemindexError):
    pass


# index store
class MissingIndexStore(SemindexError):
    pass


class MalformedIndexStore(SemindexError):
    pass


# evaluation
class NoOverlap(SemindexError):
    pass


class MalformedGold(SemindexError):
    pass
