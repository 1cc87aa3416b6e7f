"""Exception types shared across the pipeline; the CLI exits 1 on a SettingError, 2 on any other."""


class CorpusForgeError(Exception):
    """Base class for all pipeline errors."""


class ParseError(CorpusForgeError):
    """A structured input (XML, ARPA, TSV) is malformed.

    Carries enough location information to find the offending spot:
    ``line`` for line-oriented formats, ``byte_offset`` for XML.
    """

    def __init__(self, message, line=None, byte_offset=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if byte_offset is not None:
            loc.append(f"byte {byte_offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.byte_offset = byte_offset


class DataError(CorpusForgeError):
    """Input data violates a precondition (empty corpus, mismatched sides, bad indices)."""


class SettingError(CorpusForgeError, ValueError):
    """A config field or flag value is outside its valid range."""
