"""workatlas: situate agent-benchmark tasks in occupational taxonomies.

The library is organized around six areas:

- :mod:`workatlas.taxonomy` -- labeled domain/skill trees and their paths
- :mod:`workatlas.mapping` -- annotator-driven task-to-path mapping and
  the validation rubric (:mod:`workatlas.annotate` holds the annotators)
- :mod:`workatlas.coverage` -- path coverage, per-node effort, breadth
- :mod:`workatlas.sampling` -- saturation sampling, permutation
  sensitivity, Chao1 richness
- :mod:`workatlas.economics` -- employment/capital/digital aggregation
  and alignment against benchmark effort
- :mod:`workatlas.autonomy` -- workflow complexity, success-rate curves,
  autonomy levels, and the delegation advisor

File formats live in :mod:`workatlas.io`; report bundles in
:mod:`workatlas.reporting`; the command-line front end in
:mod:`workatlas.cli`.
"""

__version__ = "0.1.0"

from .taxonomy import (  # noqa: F401
    Taxonomy,
    TaxonomyKind,
    TaxonomyNode,
    TaxonomyPath,
    all_paths,
    flatten_for_prompt,
    load_taxonomy,
    resolve_path,
)
from .annotate import (  # noqa: F401
    Annotator,
    AnnotatorTransportError,
    KeywordAnnotator,
    KeywordRule,
    RemoteAnnotator,
    ReplayAnnotator,
)
from .mapping import (  # noqa: F401
    MappingResult,
    MappingStatus,
    RubricVerdict,
    TaskExample,
    Verdict,
    agreement_rate,
    iter_map_corpus,
    map_corpus,
    map_example,
    mapping_outcome_stats,
    score_against_reference,
)
from .coverage import (  # noqa: F401
    BreadthStats,
    CheckedResults,
    CoverageAccumulator,
    CoverageReport,
    EffortDistribution,
    GroupLevel,
    breadth,
    build_pool,
    check_results,
    coverage,
    effort_by_node,
)
from .sampling import (  # noqa: F401
    SamplingRun,
    SensitivitySummary,
    chao1,
    permutation_sensitivity,
    sample_until_saturation,
)
from .economics import (  # noqa: F401
    DigitalLabel,
    ImportanceRecord,
    ImportanceTable,
    OccupationStats,
    WorkMode,
    alignment_report,
    digital_share,
    domain_employment_capital,
    effective_skill_employment_capital,
    label_tasks_digital,
)
from .autonomy import (  # noqa: F401
    AutonomyAdvice,
    AutonomyCurve,
    AdviceDecision,
    WorkflowNode,
    advise,
    autonomy_level,
    complexity,
    success_rates,
    validate_ordering,
    workflow_from_document,
)
