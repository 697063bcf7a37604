"""Exception types shared across the package."""

import copyreg


class KoverbsError(Exception):
    """Base class for every error this package raises on purpose."""

    def __init__(self, message, source=None):
        super().__init__(f"{source}: {message}" if source else message)
        # Where it arose: a data file's path:line, or the stem, ending, classes and rule.
        self.source = source

    def __reduce__(self):
        # __init__ takes the fields and args holds the message: rebuild without __init__.
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


class NonHangulInput(KoverbsError):
    """A character that is neither a precomposed syllable nor a known jamo."""

    def __init__(self, char, position):
        super().__init__(f"non-Hangul character {char!r} at position {position}")
        self.char = char
        self.position = position


class Uncomposable(KoverbsError):
    """A letter sequence that cannot be packed into syllable blocks."""

    def __init__(self, letters, position, source=None):
        shown = "".join(letters)
        super().__init__(f"cannot compose {shown!r}: stuck at letter {position}", source)
        self.letters = tuple(letters)
        self.position = position


class MalformedRule(KoverbsError):
    """A combination-rule string that does not follow the 3-field format."""

    def __init__(self, text, reason, source=None):
        super().__init__(f"bad rule {text!r}: {reason}", source)
        self.text = text
        self.reason = reason


class ParseError(KoverbsError):
    """A data file line that cannot be read, or a hand-built lexicon entry (`line` None)."""

    def __init__(self, path, line, reason):
        super().__init__(reason, path if line is None else f"{path}:{line}")
        self.path = str(path)
        self.line = line
        self.reason = reason


class RangeError(KoverbsError):
    """A class id outside its valid range."""

    def __init__(self, value, low, high, source=None):
        super().__init__(f"class id {value!r} out of range {low}..{high}", source)
        self.value = value
        self.low = low
        self.high = high


class DuplicateVerb(KoverbsError):
    """The same stem surface listed twice in the verb file."""

    def __init__(self, surface, source=None):
        super().__init__(f"duplicate verb entry {surface!r}", source)
        self.surface = surface


class NotFound(KoverbsError):
    """A stem, ending, or scope member missing from the lexicon."""

    def __init__(self, query):
        super().__init__(f"not in lexicon: {query!r}")
        self.query = query


class IndexOutOfBounds(KoverbsError):
    """A rule slice index that reaches past the sequence it slices."""

    def __init__(self, which, index, length, source=None):
        super().__init__(f"{which} slice index {index} out of bounds for {length} letters", source)
        self.which = which
        self.index = index
        self.length = length
