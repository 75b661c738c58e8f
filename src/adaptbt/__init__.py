"""Behavior-tree engine, adaptive strategy layer and valve-twisting bench."""

from .core import (
    AlwaysFailure,
    AlwaysSuccess,
    Blackboard,
    BehaviorTreeError,
    Condition,
    ConfigurationError,
    Fallback,
    ForceFailure,
    Key,
    LAST_FAILURE_REASON,
    NO_STRATEGIES,
    NodeStatus,
    ReactiveFallback,
    ReactiveSequence,
    RetryUntilSuccessful,
    Sequence,
    StatefulAction,
    SubTreeScope,
    SwitchCaseError,
    SwitchStatement,
    TickTrace,
    TreeNode,
    UnboundKeyError,
    iter_nodes,
    tick_root,
)
from .treedef import (
    Diagnostic,
    InstantiationError,
    LeafRegistry,
    LeafSpec,
    ParseResult,
    PortSpec,
    TreeDocument,
    instantiate,
    parse_tree_definition,
    serialize,
    structurally_equal,
    validate_switch_coverage,
)
from .strategies import (
    DataStore,
    EXEMPT_REASONS,
    FTRecord,
    StrategySpec,
    load,
    persist,
    remap_handle_angle,
    select_strategy,
)
from .sim import DeviceInstance, SimulationError, World, reactive_torque
from .bench import (
    DEFAULT_DEVICES,
    DEFAULT_STRATEGIES,
    EpisodeResult,
    ExperimentConfig,
    build_canonical_tree,
    canonical_tree_text,
    emit_results,
    make_config,
    run_episode,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
