"""Deterministic injection of naturalistic conversation patterns into
goal-oriented dialog test sets, plus the masked evaluation protocol."""

__version__ = "0.1.0"


class NatvarError(ValueError):
    """Base of natvar's errors. `natvar.cli` prints one `label: message` line
    for it and exits with `exit_code`."""

    exit_code = 2
    label = "error"
