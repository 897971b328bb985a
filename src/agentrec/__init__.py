"""agentrec: a deterministic multi-agent recommender substrate.

Agents with hierarchical memory and tools, a communication-matrix-governed
runtime, blueprint recommendation pipelines, a synthetic-user evaluation
colony, a reliability layer, and a scenario-runner CLI with persisted traces.

Every name is imported from its module (``agentrec.memory.retrieve_topk``,
``agentrec.cli.main``); importing the package imports none of them.
"""

__version__ = "0.1.0"
