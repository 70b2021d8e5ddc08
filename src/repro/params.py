"""The canonical ``key=value`` parameter parser and parameter check.

Both the CLI's repeated ``--param key=value`` flags and the campaign
spec loader (entries may give ``"params": ["nbytes=65536"]`` in the
CLI string form) funnel through :func:`parse_params`, so there is a
single grammar and a single error-message path.  Values must be
numeric — scenario/experiment parameters are sizes, counts, and
fractions — and integers stay ``int``.

:func:`checked_entry` is the one lookup of a named experiment or
scenario: find the name, then check the parameters against the
function's signature.

This module imports no other ``repro`` module, so a scenario lookup
(``repro trace``, ``faults``, ``recover``) loads no experiment code.
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

__all__ = ["checked_entry", "parse_params"]


def parse_params(pairs: Optional[List[str]]) -> Dict[str, float]:
    """Parse ``key=value`` strings into numeric kwargs.

    A malformed pair raises :class:`ValueError` with a one-line
    message — the CLI prints it and exits 2, same as an unknown
    scenario id; the campaign spec loader reports it against the spec
    entry.
    """
    params: Dict[str, float] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key or not key.isidentifier():
            raise ValueError(
                f"malformed --param {pair!r}: expected key=value with an "
                "identifier key (e.g. --param nbytes=65536)"
            )
        raw = raw.strip()
        try:
            value: float = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"non-numeric value in --param {pair!r}: {raw!r} is "
                    "neither an integer nor a float"
                ) from None
        params[key] = value
    return params


def checked_entry(
    table: Mapping[str, Callable[..., Any]],
    name: str,
    params: Mapping[str, Any],
    kind: str,
) -> Callable[..., Any]:
    """``table[name]``, once every key of ``params`` is one of its arguments.

    An unknown ``name`` or parameter raises :class:`KeyError` with a
    one-line message naming ``kind`` (e.g. ``"experiment"``,
    ``"fault scenario"``) and what is known or supported; the CLI
    prints it and exits 2.
    """
    try:
        fn = table[name]
    except KeyError:
        raise KeyError(f"unknown {kind} {name!r}; known: {list(table)}") from None
    if params:
        accepted = _parameter_names(fn)
        unknown = sorted(set(params) - accepted)
        if unknown:
            raise KeyError(
                f"{kind} {name!r} does not take parameter(s) {unknown}; "
                f"supported: {sorted(accepted) or 'none'}"
            )
    return fn


@lru_cache(maxsize=256)
def _parameter_names(fn: Callable[..., Any]) -> FrozenSet[str]:
    """The argument names of ``fn``, read from its signature once: a
    campaign spec checks every one of its jobs against its function."""
    return frozenset(inspect.signature(fn).parameters)
