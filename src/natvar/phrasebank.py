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
    """Missing phrase bank entry, or a bank file that is not valid JSON."""


@functools.cache
def load_bank() -> dict:
    """The packaged phrase bank, loaded once."""
    path = resources.files("natvar").joinpath("data/phrase_bank.json")
    try:
        return json.loads(path.read_bytes())
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise PhraseBankError(f"phrase bank {path} is not valid JSON: {e}") from e


def variants(pattern: str, action: str, domain: str) -> list[str]:
    """Surface variants for (pattern, action, domain); raises if absent."""
    try:
        per_domain = load_bank()[pattern][action]
        forms = per_domain.get(domain, per_domain.get("*"))
    except (AttributeError, KeyError, TypeError) as e:  # an entry missing, or not an object
        raise PhraseBankError(f"no phrase bank entry for ({pattern}, {action})") from e
    if not forms:
        raise PhraseBankError(f"no phrase bank entry for ({pattern}, {action}, {domain})")
    return list(forms)
