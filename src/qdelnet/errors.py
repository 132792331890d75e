"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class ParseError(ValueError):
    """A file could not be parsed. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def not_utf8(path) -> ParseError:
    """The ParseError for a text file that is not UTF-8: it names the first
    line, counted as text mode counts lines, that does not decode."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", line=lineno)
    return ParseError("not UTF-8")


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class ValidationError(ValueError):
    """Loaded data violates a schema or consistency constraint."""


class InputError(ValueError):
    """An operation received input it cannot meaningfully process (e.g. empty)."""
