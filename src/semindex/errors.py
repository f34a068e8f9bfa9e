"""Exception hierarchy shared by all semindex modules, and the reader and writer of files."""

from pathlib import Path


class SemindexError(Exception):
    """Base class for all domain errors raised by this package."""


class UnreadableFile(SemindexError):
    pass


def read_text(path) -> str:
    """The text of a UTF-8 input file; any failure to read it is an UnreadableFile."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None
    except ValueError as exc:  # a NUL byte in the path
        raise UnreadableFile(f"cannot read {path}: {exc}") from None


class UnwritableFile(SemindexError):
    pass


def write_text(path, text: str) -> None:
    """Write an output file in UTF-8 with LF line endings; any failure is an UnwritableFile."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UnwritableFile(f"cannot write {path}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte in the path
        raise UnwritableFile(f"cannot write {path}: {exc}") from None


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


# lexicon
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


class BadClusterCount(SemindexError):
    pass


# graphs
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
