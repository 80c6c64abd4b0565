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


class PhraseBankError(KeyError):
    """Missing phrase bank entry."""


@functools.cache
def load_bank() -> dict:
    """The packaged phrase bank, loaded once."""
    return json.loads(resources.files("natvar").joinpath("data/phrase_bank.json").read_bytes())


def variants(pattern: str, action: str, domain: str) -> list[str]:
    """Surface variants for (pattern, action, domain); raises if absent."""
    try:
        per_domain = load_bank()[pattern][action]
    except KeyError as e:
        raise PhraseBankError(f"no phrase bank entry for ({pattern}, {action})") from e
    forms = per_domain.get(domain, per_domain.get("*"))
    if not forms:
        raise PhraseBankError(f"no phrase bank entry for ({pattern}, {action}, {domain})")
    return list(forms)
