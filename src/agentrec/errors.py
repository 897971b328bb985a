"""Exception hierarchy shared by all agentrec modules.

Every error raised by the library derives from AgentRecError so callers
(including the scenario CLI) can map failures to machine-readable records
by class name.
"""

from __future__ import annotations


class AgentRecError(Exception):
    """Base class for all library errors."""


class InvalidArgument(AgentRecError, ValueError):
    """An argument or constructed value is out of its domain."""


# agents
class SchemaViolation(AgentRecError):
    """A message kind fell outside an agent's declared schema."""


class UnknownTool(AgentRecError):
    """Tool name not registered with the agent."""


class ToolFailure(AgentRecError):
    """A tool handler signalled failure; the message is "<tool>: <reason>"."""


# runtime
class UnknownAgent(AgentRecError):
    """Agent id not present in the runtime registry."""


class ChannelClosed(AgentRecError):
    """The communication matrix forbids this sender/recipient pair."""


class PayloadInvalid(AgentRecError):
    """A final ranked_list message's text is not the pinned ranked-list record."""


class SelfChannel(AgentRecError):
    """Channel toggles must name two distinct agents."""


class ConflictingDelta(AgentRecError):
    """An environment delta touches the same field twice."""


# pipelines
class NoFeasibleItem(AgentRecError):
    """Every catalog item was filtered out by the constraint set."""


class UnknownItem(AgentRecError):
    """An item id does not resolve in the catalog."""


class NoCompatibleBundle(AgentRecError):
    """No candidate combination passed the compatibility check."""


class MissingPalette(AgentRecError):
    """An operation requiring palette vectors met an item without one."""


class RevisionExhausted(AgentRecError):
    """The explanation revision loop ran out of rounds or templates."""


# simulation
class NoTraces(AgentRecError):
    """Evaluation requested over an empty trace list."""


# reliability
class OutOfRange(AgentRecError):
    """A probability fell outside [0, 1]."""


class CyclicGraph(AgentRecError):
    """The agent dependency graph must be acyclic."""


# CLI
class ConfigInvalid(AgentRecError):
    """Scenario config or data file failed validation; `findings` lists each
    {"field", "rule"} a config check found."""

    def __init__(self, message: str, findings=()):
        super().__init__(message)
        self.findings = list(findings)


class Unreadable(AgentRecError):
    """Config file could not be read."""
