"""Exception types shared across the package."""


class StructrankError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(StructrankError):
    """A structure (pattern, graph, or derived-variable spec) is invalid."""


class UnsupportedOperationError(StructrankError):
    """The requested operation is not defined for the given input.

    Examples: knockout on a non-square pattern, combinatorial rank of a
    generalized structure (use the randomized estimator instead).
    """


class WrongDimensionError(StructrankError):
    """Curve tracing was requested at a point whose kernel is not 1-dimensional."""


class ParseError(StructrankError, ValueError):
    """An input file could not be parsed, or its input exceeds a size bound.

    Each size bound is checked by the library call that would build what it
    bounds, which raises this error with no path; the command line names its
    input file and exits 2. Like ``json.JSONDecodeError``, it is a ValueError.

    Carries enough position information to point at the offending spot:
    ``line`` is 1-based when known, ``where`` is a JSON-path-like locator
    for structured files, and ``message`` is the text without them.
    """

    def __init__(self, message, path=None, line=None, where=None):
        self.message = message
        self.path = path
        self.line = line
        self.where = where
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if where is not None:
            loc.append(where)
        prefix = ": ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
