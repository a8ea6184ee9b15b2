"""citerec: citation recommendation from citation-graph embeddings."""

__version__ = "0.1.0"

from .graph import CitationGraph, load_graph
from .sampling import (SamplingParams, WalkCorpus,
                       generate_walk_corpus, cocitation_corpus)
from .embedding import (TrainParams, EmbeddingModel, init_model, train,
                        forward, save_model, load_model)
from .ranking import sim_avg, sim_wgd, sim_ref, recommend
from .baselines import PageRankParams, paperrank, cf_scores
from .evaluation import (Query, ExperimentConfig, build_queries, recall_at_k,
                         run_experiment)
