"""Exception types shared across the package, the number checks of its
inputs (check_integer and check_real for one value, check_integers and
check_reals for an array), and the record reader of its two text formats."""

import math
import numbers

import numpy as np


class OxcimError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(OxcimError, ValueError):
    """Operand dimensions do not line up (vector lengths, tile bounds, layer chains)."""


class DomainError(OxcimError, ValueError):
    """A numeric input is outside its valid domain (non-finite, out of range)."""


class ConfigError(OxcimError, ValueError):
    """A configuration object is inconsistent or missing required entries."""


class ParseError(OxcimError, ValueError):
    """A file could not be parsed.  Carries enough context to locate the defect."""

    def __init__(self, message, *, path=None, line=None, offset=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"byte offset {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.path = path
        self.line = line
        self.offset = offset


class TrainingDiverged(OxcimError, RuntimeError):
    """Training loss became non-finite; aborting instead of continuing blindly."""


def check_integer(value, what, lo=None, hi=None):
    """value, or a ConfigError unless it is an integer (Python or numpy, not
    a bool) that is at least lo and, if hi is given, below hi."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if hi is not None and not lo <= value < hi:
        raise ConfigError(f"{what} must lie in [{_bound(lo)}, {_bound(hi)}), "
                          f"got {_shown(value)}")
    if lo is not None and value < lo:
        raise ConfigError(f"{what} must be >= {lo}, got {_shown(value)}")
    return value


def check_real(value, what, lo, hi=math.inf, strict=False, error=ConfigError):
    """Raise error (a ConfigError unless given) unless value is a real number,
    not a bool, whose float lies in [lo, hi), or in (lo, hi) if strict."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the largest float
        x = math.inf
    if not (lo < x < hi if strict else lo <= x < hi):
        rule = (f"be finite and {'>' if strict else '>='} {lo:g}" if hi == math.inf
                else f"lie in {'(' if strict else '['}{lo:g}, {hi:g})")
        raise error(f"{what} must {rule}, got {_shown(value)}")


def check_reals(values, what, lo=-math.inf, hi=math.inf):
    """values as an array, or a DomainError unless its dtype is integer or
    float (not bool, complex, object or str) and every value is finite and
    in [lo, hi].  Open bounds cost an isfinite pass, set ones a min and max."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{what} must be real numbers, got {arr.dtype}")
    if arr.size and (math.inf in (-lo, hi) and not np.isfinite(arr).all()
                     or (lo, hi) != (-math.inf, math.inf)
                     and not lo <= arr.min() <= arr.max() <= hi):
        raise DomainError(f"{what} must be finite and in [{lo:g}, {hi:g}]")
    return arr


def check_integers(values, what, lo, hi=None):
    """values as an array, or a DomainError unless its dtype is integer (not
    bool), or float if it is empty (np.asarray([]) is float64), and every
    value is in [lo, hi), or >= lo if hi is None."""
    arr = np.asarray(values)
    if arr.dtype.kind not in ("iu" if arr.size else "iuf") or arr.size and (
            arr.min() < lo or hi is not None and arr.max() >= hi):
        rule = f">= {lo}" if hi is None else f"in {lo}..{_shown(hi - 1)}"
        raise DomainError(f"{what} must be integers {rule}")
    return arr


def _shown(value):
    """value as text; an int that str() may refuse (Python's limit is 4,300
    digits by default and 640 at least) by its sign and bit length."""
    if isinstance(value, int) and value.bit_length() > 2048:
        return (f"{'a negative' if value < 0 else 'an'} integer of "
                f"{value.bit_length()} bits")
    return str(value)


def _bound(n):
    """n as text; a power of two from 2**16 up as 2**k."""
    k = abs(n).bit_length() - 1
    return f"{'-' * (n < 0)}2**{k}" if k >= 16 and abs(n) == 2**k else str(n)


def read_records(data, record, path=None, frame=None):
    """Feed each ``key = value`` line of a UTF-8 text to record(key, value).

    data is the file's bytes or its decoded text; a byte that is not UTF-8
    is a ParseError naming its offset.  '#' starts a comment, blank lines
    are skipped, and key and value are stripped of surrounding space.  A
    line without '=' and a key given twice are ParseErrors naming the line,
    and so is any ValueError or KeyError that record raises (ConfigError
    and ParseError included).  frame, if given, checks a format's own
    framing lines and returns the range of line indices that hold records.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}", path=path,
                             offset=exc.start) from None
    lines = data.splitlines()
    seen = set()
    for i in frame(lines) if frame else range(len(lines)):
        line = lines[i].split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (s.strip() for s in line.partition("="))
        if not eq:
            raise ParseError(f"expected 'key = value', got {line!r}",
                             path=path, line=i + 1)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", path=path, line=i + 1)
        seen.add(key)
        try:
            record(key, value)
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad {key!r} record: {exc}", path=path,
                             line=i + 1) from None
