"""Shared exception types, and how their messages quote an argument."""


class FormatError(ValueError):
    """A document (instance/allocation JSON, criterion name) is malformed."""


class CapExceededError(RuntimeError):
    """An exhaustive computation would exceed its configured size cap.

    Raised by the two-group picking protocols (a member wanting more goods
    than they price), the maximin-share computation (too many goods for the
    exhaustive path) and the brute-force oracles (search space larger than
    the cap).  The CLI maps this to exit
    code 3 so callers can tell "too big" apart from "malformed input".
    """


def quoted(value) -> str:
    """``repr(value)``, cut to 40 characters and ``...`` (a string before it
    is quoted): an error never echoes a whole oversized argument."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}..."
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}..."
