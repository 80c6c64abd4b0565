"""Catalog of conversation patterns relevant to goal-oriented dialog.

32 patterns drawn from a 100-pattern interaction-pattern language, in
three classes: A (conversational activity), B (sequence-level management)
and C (conversation-level management). Nine of them carry injection
recipes; the rest are registered as metadata only. `check_pattern_name`
checks, for every input format, that an injected turn names one of those.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PatternCatalogEntry:
    code: str
    name: str  # canonical snake-case name, derived from the title
    description: str
    has_recipe: bool

    @property
    def klass(self) -> str:  # "A" | "B" | "C"
        return self.code[0]


def _entry(code: str, title: str, description: str,
           has_recipe: bool = False) -> PatternCatalogEntry:
    snake = "".join(c if c.isalnum() else "_" for c in title.lower()).strip("_")
    while "__" in snake:
        snake = snake.replace("__", "_")
    return PatternCatalogEntry(code, snake, description, has_recipe)


CATALOG: tuple[PatternCatalogEntry, ...] = (
    # A: conversational activity
    _entry("A1.1", "Inquiry (User) Confirmation", "user inquiry answered and confirmed"),
    _entry("A1.2", "Inquiry (User) Disconfirmation", "user inquiry answered and disconfirmed"),
    _entry("A1.3", "Inquiry (User) Repairs", "repairs inside a user inquiry"),
    _entry("A2.2", "Open Request Continuer", "agent signals the user to continue an open request"),
    _entry("A2.3", "Open Request Screening",
           "user asks a preliminary question to check the agent can help before the full request",
           has_recipe=True),
    _entry("A2.5", "Open Request User Detail Request",
           "user asks for the available options when answering an agent question",
           has_recipe=True),
    _entry("A2.6", "Open Request Summary", "agent summarizes an open request"),
    _entry("A2.11", "Open Request Repairs", "repairs inside an open request"),
    _entry("A3.0", "Extended Telling with Repair", "interactive telling with repair"),
    _entry("A3.1", "Extended Telling Abort", "user aborts an extended telling"),
    # B: sequence-level management
    _entry("B1.2.2", "Agent Continuer", "agent produces a continuer"),
    _entry("B2.6.0", "Example Request",
           "user asks for an example to clarify the agent's prior utterance",
           has_recipe=True),
    _entry("B3.1.1", "Misunderstanding Report",
           "user reports that the agent misunderstood the request; agent repairs",
           has_recipe=True),
    _entry("B3.2.0", "Other-Correction",
           "agent corrects a slip in the user's utterance",
           has_recipe=True),
    _entry("B4.0", "Sequence Closer (helped)", "user closes a sequence that helped"),
    _entry("B4.1", "Sequence Closer (not helped)",
           "user acknowledges an unhelpful response negatively",
           has_recipe=True),
    _entry("B4.2", "Sequence Closer Appreciation", "user closes with an appreciation"),
    _entry("B4.4", "Sequence Closer (repaired)",
           "user acknowledges the repair of a sequence",
           has_recipe=True),
    # C: conversation-level management
    _entry("C1.4", "Opening Welfare Check (Agent)", "agent opens with a welfare check"),
    _entry("C1.5", "Opening Organization Offer of Help (Agent)", "agent opens offering help"),
    _entry("C1.7", "Organizational Problem Request (Agent)", "agent opens asking for the problem"),
    _entry("C2.1", "Summons (User)", "user summons the agent"),
    _entry("C2.2", "Welfare Check (User)", "user checks on the agent's welfare"),
    _entry("C2.9", "Name Correction (User)", "user corrects the agent's name"),
    _entry("C3.0", "General Capability Check", "user asks what the agent can do"),
    _entry("C3.1", "Capability Expansion",
           "user asks the agent to expand on capabilities it mentioned",
           has_recipe=True),
    _entry("C3.2", "Specific Capability Check", "user checks one specific capability"),
    _entry("C4.7", "Closing Success Check (Disaffirmed)", "closing success check, disaffirmed"),
    _entry("C4.8", "Closing Success Check Reopened", "closing success check reopens the dialog"),
    _entry("C4.9", "Closing Offer (Affirmed)", "closing offer, affirmed"),
    _entry("C4.10", "Closing Offer (Disaffirmed)", "closing offer, disaffirmed"),
    _entry("C5.2", "Recipient Correction",
           "user indicates they were talking to someone other than the agent",
           has_recipe=True),
)

_RECIPE_PATTERNS = frozenset(e.name for e in CATALOG if e.has_recipe)


def check_pattern_name(name, where: str) -> None:
    """Raise ParseError unless `name` is a recipe-bearing pattern."""
    if not isinstance(name, str) or name not in _RECIPE_PATTERNS:
        from .io import ParseError  # not at the top, where `natvar patterns` would load io and model
        raise ParseError(f"{where}: unknown pattern {name!r}")
