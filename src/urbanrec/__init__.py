"""Location recommendation over an urban knowledge graph.

The package learns two disentangled embedding spaces for users and points of
interest, one driven by geographical relations and one by functional
relations, propagates them through intent-aware graph convolution, and scores
candidates with a counterfactual rule that strips the popularity advantage a
venue gets purely from where it sits.

Modules
-------
autodiff        reverse-mode gradient tape over numpy arrays
ukg             knowledge-graph schema, id-array triplet store, parsing,
                adjacency edge arrays
interactions    check-ins as a sorted id array, chronology-free splits,
                negative sampling
model           parameter container, initialization, checkpoint format
propagation     intent-aware graph convolution layers
counterfactual  score bundles and the debiased ranking rule
training        losses, Adam, the fit loop, finite-difference gradcheck
evaluation      full-ranking Recall/NDCG/AUC
synthgen        synthetic city generator with a controllable location bias,
                and the functional NDCG probe against its ground truth
cli             command line entry points (gen | train | eval | ablate | gradcheck)
"""

__version__ = "0.1.0"

from .ukg import (  # noqa: F401
    RELATIONS,
    GEO_RELATIONS,
    FUNC_RELATIONS,
    ENTITY_CLASSES,
    UrbanKG,
    parse_triplets,
    serialize_triplets,
    split_subgraphs,
)
from .interactions import (  # noqa: F401
    InteractionSet,
    DatasetSplit,
    parse_checkins,
    split_dataset,
    sample_bpr_batch,
)
from .model import ModelDims, ModelParams, init_params  # noqa: F401
from .propagation import build_graphs, dims_for, forward  # noqa: F401
from .counterfactual import ScoreBundle, score_candidates  # noqa: F401
from .training import HyperParams, fit, run_gradcheck  # noqa: F401
from .evaluation import MetricsReport, evaluate  # noqa: F401
from .synthgen import (  # noqa: F401
    CityConfig,
    GroundTruth,
    functional_ndcg,
    generate_city,
    same_region_rate,
)
