"""Cascaded memory models for multi-turn feature retrieval.

A chain of external-memory recurrent stages refines a query feature vector
across the turns of a transaction; retrieval ranks a candidate database by
cosine similarity against the refined output. Ships with a tape-based
reverse-mode autodiff engine, memory-less baselines, synthetic multi-turn
task generators, and a reproducible training and experiment harness.
"""
from .autodiff import (BatchNorm, Tape, Tensor, gradient_check, no_grad)
from .cascade import CMNTM, CascadeConfig, EwmaModel, LstmBaseline, MeanModel
from .checkpoint import load_entries, save_entries
from .config import TrainConfig, config_from_dict, config_json, config_to_dict, load_config
from .errors import (CheckpointError, CmntmError, ConfigError, DatasetFormatError,
                     DegenerateInputError, DomainError, ShapeError,
                     TimingMonotonicityError, TrainingDivergedError)
from .harness import (Adam, build_model, evaluate_model,
                      full_model_gradient_check, load_checkpoint, restore_model,
                      save_checkpoint, train)
from .ntm import HeadParams, NTMStage, StageState, address, memory_read, memory_write
from .retrieval import (CandidateDB, RankingResult, batch_loss, rank, recall_at_k,
                        similarity_scores, transaction_loss)
from .synthdata import (SyntheticDataset, TaskConfig, Transaction, datasets_equal,
                        gen_block_reveal, gen_distractor, load_dataset, make_db,
                        oracle_features, save_dataset)

__version__ = "0.1.0"

__all__ = [
    "Adam", "BatchNorm", "CMNTM", "CandidateDB", "CascadeConfig",
    "CheckpointError", "CmntmError", "ConfigError", "DatasetFormatError",
    "DegenerateInputError", "DomainError", "EwmaModel", "HeadParams", "LstmBaseline",
    "MeanModel", "NTMStage", "RankingResult", "ShapeError", "StageState",
    "SyntheticDataset", "Tape", "TaskConfig", "Tensor", "TimingMonotonicityError",
    "TrainConfig", "TrainingDivergedError", "Transaction", "address", "batch_loss",
    "build_model", "config_from_dict", "config_json", "config_to_dict",
    "datasets_equal", "evaluate_model",
    "full_model_gradient_check", "gen_block_reveal", "gen_distractor",
    "gradient_check", "load_checkpoint", "load_config", "load_dataset", "load_entries",
    "make_db", "memory_read", "memory_write", "no_grad",
    "oracle_features", "rank", "recall_at_k", "restore_model",
    "save_checkpoint", "save_dataset", "save_entries", "similarity_scores", "train",
    "transaction_loss",
]
