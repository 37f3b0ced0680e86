"""Line-oriented ``key = value`` text files, and the one spelling of a
dataclass field's value as text.

Every ``key = value`` format of the package (experiment specs, theory
inputs, the trace's config line) writes a value with :func:`format_field`
and reads it with :func:`parse_field`.  Both go by the field's declared
type, never by the value's runtime type, so ``alpha0=1`` on a float field
is written ``1.0`` and ``memory=10.0`` on an int field is written ``10``:

=====================  ================================================
declared type          text
=====================  ================================================
``X | None``           ``none`` for None, otherwise as ``X``
``bool``               ``1`` / ``0`` (``true/yes/on``, ``false/no/off``
                       are read too)
``float``              ``repr(float(v))``
``int``                ``str(int(v))``
``tuple[str, ...]``    the items joined by ``", "``
``str``                the text itself
=====================  ================================================
"""

import functools
import typing
from dataclasses import fields

from .errors import SpecFileError

NONE_TEXT = "none"
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def read_key_values(path):
    """Parse a ``key = value`` file into a dict; ``#`` starts a comment.

    Keys are lowercased and whitespace-stripped, values are kept as raw
    strings for the caller to interpret.  Later lines overwrite earlier
    ones with the same key.
    """
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SpecFileError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            entries[key.strip().lower()] = value.strip()
    return entries


@functools.cache
def field_kinds(cls):
    """``{name: (base, optional)}`` for the fields of dataclass ``cls``, in
    declaration order, resolved once from its type hints.  ``base`` is the
    declared type with ``| None`` removed, and ``tuple`` for
    ``tuple[str, ...]``."""
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:
            (hint,) = [arg for arg in args if arg is not type(None)]
        kinds[f.name] = (typing.get_origin(hint) or hint, optional)
    return kinds


def _kind(cls, name):
    try:
        return field_kinds(cls)[name]
    except KeyError:
        raise ValueError(f"unknown {cls.__name__} key {name!r}") from None


def _writable(text, name):
    """``text`` as a value that reads back as itself from a ``key = value``
    line: no comment mark, no line break, no surrounding whitespace."""
    if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
        raise ValueError(f"{name} value {text!r} cannot be written as "
                         "'key = value' text")
    return text


def format_field(cls, name, value):
    """The text of ``value`` for field ``name`` of dataclass ``cls``.

    Raises ``ValueError`` for a string that :func:`parse_field` could not
    read back from a ``key = value`` line.
    """
    base, _ = _kind(cls, name)
    if value is None:
        return NONE_TEXT
    if base is bool:
        return "1" if value else "0"
    if base is float:
        return repr(float(value))
    if base is int:
        return str(int(value))
    if base is tuple:
        for item in value:
            if not item or "," in item:
                raise ValueError(f"{name} item {item!r} cannot be written "
                                 "in a comma-separated list")
            _writable(item, name)
        return ", ".join(value)
    if base is str:
        return _writable(value, name)
    raise TypeError(f"{cls.__name__}.{name} has no text spelling")


def parse_field(cls, name, text):
    """The value of field ``name`` of dataclass ``cls`` spelled by ``text``.

    Raises ``ValueError`` naming the key when ``cls`` has no such field,
    and ``ValueError`` when ``text`` does not spell a value of its type.
    """
    base, optional = _kind(cls, name)
    if optional and text.lower() == NONE_TEXT:
        return None
    if base is bool:
        word = text.lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(f"{name} must be 1/0 or true/false, got {text!r}")
    if base is float:
        return float(text)
    if base is int:
        return int(text)
    if base is tuple:
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if base is str:
        return text
    raise TypeError(f"{cls.__name__}.{name} has no text spelling")


def fields_to_text(obj):
    """Every field of dataclass instance ``obj`` as ``name=value``, joined
    by commas, in declaration order."""
    cls = type(obj)
    return ",".join(f"{name}={format_field(cls, name, getattr(obj, name))}"
                    for name in field_kinds(cls))


def fields_from_text(cls, text):
    """The ``cls`` instance spelled by :func:`fields_to_text`; an unknown
    key raises ``ValueError`` naming it."""
    kwargs = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        kwargs[name] = parse_field(cls, name, value)
    return cls(**kwargs)
