"""agentrec: a deterministic multi-agent recommender substrate.

Agents with hierarchical memory and tools, a communication-matrix-governed
runtime, blueprint recommendation pipelines, a synthetic-user evaluation
colony, a reliability layer, and a scenario-runner CLI with persisted traces.
"""

__version__ = "0.1.0"

from .agents import AgentSpec, LanguageCore, Tool, ToolRegistry, invoke_tool, step_agent
from .memory import (
    MemoryItem,
    MemoryLabel,
    MemoryStore,
    Triple,
    embed_text,
    query_triples,
    regulate_context,
    relevance_score,
    retain,
    retrieve_topk,
    tail_window,
    update_memory,
)
from .pipelines import (
    Bundle,
    ConstraintSet,
    Explanation,
    RankedList,
    Transcript,
    check_collection_consistency,
    compat_check,
    consistency_check,
    explain_with_revision,
    generate_explanation,
    recommend_interactive,
    recommend_multimodal,
)
from .reliability import (
    AgentGraph,
    BrandPolicy,
    ValidityOracle,
    check_compliance,
    consensus,
    constrained_select,
    propagation_probability,
    simulate_error_cascade,
)
from .runtime import (
    CatalogItem,
    CommMatrix,
    Environment,
    MasRuntime,
    Message,
    MessageSchema,
    apply_env_update,
)
from .simulation import (
    EvalReport,
    SessionTrace,
    UserSimulator,
    aggregate_report,
    evaluate,
    run_sessions,
    simulate_action,
    summarize_session,
)
