"""Surface-form bank for injected turns.

The bank is an editable JSON data file shipped with the package:

    pattern name -> social action -> domain -> [surface variants]

The domain key "*" is the fallback used when a domain has no dedicated
list. Variant 0 of each action is the canonical wording; substitution
slots appear as "{name}".
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from . import NatvarError


class PhraseBankError(NatvarError):
    """Missing phrase bank entry, or a bank file that is not valid JSON or
    not of the bank's shape."""


@functools.cache
def load_bank() -> dict:
    """The packaged phrase bank, loaded and checked for its shape once."""
    path = resources.files("natvar").joinpath("data/phrase_bank.json")
    try:
        bank = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise PhraseBankError(f"phrase bank {path} is not valid JSON: {e}") from e
    problem = _shape_problem(bank)
    if problem:
        raise PhraseBankError(f"phrase bank {path}: {problem}")
    return bank


def _shape_problem(bank) -> str | None:
    """What keeps `bank` from being pattern -> action -> domain -> a non-empty
    list of strings, or None when nothing does."""
    if not isinstance(bank, dict):
        return "not an object of patterns"
    for pattern, actions in bank.items():
        if not isinstance(actions, dict):
            return f"{pattern} is not an object of actions"
        for action, per_domain in actions.items():
            if not isinstance(per_domain, dict):
                return f"({pattern}, {action}) is not an object of domains"
            for domain, forms in per_domain.items():
                if not (isinstance(forms, list) and forms and all(isinstance(f, str) for f in forms)):
                    return f"({pattern}, {action}, {domain}) is not a non-empty list of strings"
    return None


def variants(pattern: str, action: str, domain: str) -> list[str]:
    """Surface variants for (pattern, action, domain); raises if absent."""
    per_domain = load_bank().get(pattern, {}).get(action)
    if per_domain is None:
        raise PhraseBankError(f"no phrase bank entry for ({pattern}, {action})")
    forms = per_domain.get(domain, per_domain.get("*"))
    if forms is None:
        raise PhraseBankError(f"no phrase bank entry for ({pattern}, {action}, {domain})")
    return list(forms)
