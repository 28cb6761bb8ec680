"""Retrieval scoring, ranking, recall metrics, and the contrastive loss.

Scoring and ranking are plain numpy (nothing downstream differentiates
through a ranking); the loss is built from autodiff primitives so gradients
flow back into the model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import COSINE_EPS, Tensor
from .errors import DegenerateInputError, ShapeError

# Budget for one (rows, db) score block scored by a single GEMM: about 5 MB.
SCORE_BLOCK_BYTES = 5 << 20


@dataclass
class CandidateDB:
    """Fixed candidate set: integer ids aligned with feature rows.

    ``row_norms`` holds each feature row's L2 norm, computed once here for
    every db-wide cosine. ``features`` is a read-only view of the given
    array, so writes through the db raise instead of leaving the norms
    stale; the caller must not change the array it passed in either.
    """

    ids: np.ndarray       # (count,) unique integers
    features: np.ndarray  # (count, D), read-only
    row_norms: np.ndarray = field(init=False, repr=False)  # (count,)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.features = np.asarray(self.features).view()
        self.features.flags.writeable = False
        if self.features.ndim != 2:
            raise ShapeError("CandidateDB", f"features must be 2-d, got {self.features.shape}")
        if self.ids.shape != (self.features.shape[0],):
            raise ShapeError("CandidateDB",
                             f"{self.ids.shape[0]} ids for {self.features.shape[0]} feature rows")
        if len(self) < 2:
            raise DegenerateInputError("CandidateDB: need at least 2 candidates")
        if len(np.unique(self.ids)) != len(self.ids):
            raise DegenerateInputError("CandidateDB: duplicate candidate ids")
        self.row_norms = np.linalg.norm(self.features, axis=1)
        self.row_norms.flags.writeable = False
        if np.any(self.row_norms <= COSINE_EPS):
            raise DegenerateInputError("CandidateDB: zero-norm candidate feature")
        self._index = {int(i): k for k, i in enumerate(self.ids)}

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def index_of(self, candidate_id: int) -> int:
        try:
            return self._index[int(candidate_id)]
        except KeyError:
            raise KeyError(f"CandidateDB: unknown candidate id {candidate_id}") from None

    def feature_of(self, candidate_id: int) -> np.ndarray:
        return self.features[self.index_of(candidate_id)]


@dataclass
class RankingResult:
    """Candidates ordered best-first with their similarity scores."""

    ids: np.ndarray     # (count,) candidate ids, best first
    scores: np.ndarray  # (count,) aligned similarity scores, non-increasing


def similarity_scores(query: np.ndarray, db: CandidateDB, block: bool = False) -> np.ndarray:
    """Cosine similarity of the query against every candidate feature.

    With ``block``, ``query`` is an (n, D) block of queries, scored by one
    GEMM into (n, count) scores. Each row is divided by the same norm and
    floored denominator as the query alone, so only the dot products round
    differently. A row reads NaN where the query alone would be rejected
    (zero norm) or scores non-finite, and where its norm times the largest
    candidate norm nears the dtype's largest value: there the GEMM's partial
    sums could overflow and the GEMV's not, or the other way round.
    """
    query = np.asarray(query)
    if block:
        if query.ndim != 2 or query.shape[1] != db.dim:
            raise ShapeError("similarity_scores",
                             f"expected (n, {db.dim}) queries, got {query.shape}")
        qn = np.array([np.linalg.norm(q) for q in query]).reshape(-1, 1)
        denom = np.maximum(qn * db.row_norms, COSINE_EPS)
        # features @ query.T runs about twice as fast as query @ features.T
        scores = np.clip((db.features @ query.T).T / denom, -1.0, 1.0)
        scorable = (qn > COSINE_EPS) & (qn * db.row_norms.max() < np.finfo(denom.dtype).max / 4)
        scores[~scorable[:, 0]] = np.nan
        return scores
    if query.ndim != 1 or query.shape[0] != db.dim:
        raise ShapeError("similarity_scores", f"expected ({db.dim},) query, got {query.shape}")
    qn = np.linalg.norm(query)
    if qn <= COSINE_EPS:
        raise DegenerateInputError("similarity_scores: zero-norm query")
    denom = np.maximum(qn * db.row_norms, COSINE_EPS)
    return np.clip(db.features @ query / denom, -1.0, 1.0)


def _check_finite(op: str, scores: np.ndarray) -> None:
    if not np.all(np.isfinite(scores)):
        raise DegenerateInputError(f"{op}: non-finite score")


def rank(scores: np.ndarray, ids: np.ndarray) -> RankingResult:
    """Stable descending sort of scores; ties break by ascending candidate id."""
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ShapeError("rank", f"expected 1-d scores, got {scores.shape}")
    _check_finite("rank", scores)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != scores.shape:
        raise ShapeError("rank", f"{ids.shape[0]} ids for {scores.shape[0]} scores")
    # Any descending sort puts equal scores next to each other. Only those
    # runs need ordering by ascending id; lexsort over just their positions
    # (last key primary) does it and leaves every run where it is.
    order = np.argsort(-scores)
    ranked = scores[order]
    equal = ranked[1:] == ranked[:-1]
    if equal.any():
        tied = np.flatnonzero(np.r_[equal, False] | np.r_[False, equal])
        run = order[tied]
        order[tied] = run[np.lexsort((ids[run], -ranked[tied]))]
    return RankingResult(ids=ids[order], scores=scores[order])


def top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` ids of ``rank(scores, ids)`` without sorting every score.

    Every score tied with the k-th best stays in the partial sort, so ties
    still break by ascending id.
    """
    if not 1 <= k <= len(scores):
        raise ValueError(f"top_k: k must be in [1, {len(scores)}], got {k}")
    _check_finite("top_k", scores)
    kth = -np.partition(-scores, k - 1)[k - 1]
    top = np.flatnonzero(scores >= kth)
    return ids[top[np.lexsort((ids[top], -scores[top]))][:k]]


def rank_of(scores: np.ndarray, ids: np.ndarray, row: int) -> int:
    """0-based place of the candidate at ``row`` in ``rank(scores, ids)``.

    With s = scores[row], the place is #(scores > s) + #(scores == s and
    id < ids[row]), so it is counted without sorting.
    """
    _check_finite("rank_of", scores)
    s = scores[row]
    return int(np.count_nonzero(scores > s) + np.count_nonzero((scores == s) & (ids < ids[row])))


def recall_at_k(rankings: Sequence[RankingResult], targets: Sequence[int], k: int) -> float:
    """Fraction of rankings whose top-k contains the transaction's target id."""
    if k < 1:
        raise ValueError(f"recall_at_k: k must be >= 1, got {k}")
    if len(rankings) != len(targets):
        raise ShapeError("recall_at_k", f"{len(rankings)} rankings for {len(targets)} targets")
    if len(rankings) == 0:
        raise DegenerateInputError("recall_at_k: empty ranking list")
    hits = 0
    for ranking, target in zip(rankings, targets):
        target = int(target)
        if target not in ranking.ids:
            raise KeyError(f"recall_at_k: target id {target} not among ranked candidates")
        if target in ranking.ids[:k]:
            hits += 1
    return hits / len(rankings)


def batch_loss(predictions: Tensor, targets: Tensor) -> Tensor:
    """In-batch contrastive loss over cosine similarity logits.

    Row i's positive is target i; every other target row in the batch is a
    negative. No temperature is applied and accidental duplicate targets are
    not deduplicated. A batch of one has no negatives and scores exactly 0.
    """
    if predictions.data.ndim != 2 or targets.data.ndim != 2:
        raise ShapeError("batch_loss",
                         f"expected 2-d predictions/targets, got {predictions.data.shape} and {targets.data.shape}")
    if predictions.data.shape != targets.data.shape:
        raise ShapeError("batch_loss",
                         f"shape mismatch: {predictions.data.shape} vs {targets.data.shape}")
    b = predictions.data.shape[0]
    pred_norms = ad.l2norm(predictions, axis=1, keepdims=True)
    tar_norms = ad.l2norm(targets, axis=1, keepdims=True)
    if np.any(pred_norms.data <= COSINE_EPS) or np.any(tar_norms.data <= COSINE_EPS):
        raise DegenerateInputError("batch_loss: zero-norm row")
    if b == 1:
        return Tensor(np.zeros((), dtype=predictions.data.dtype))
    # the guard above makes every norm exceed COSINE_EPS, so no floor is needed
    pn = ad.div(predictions, pred_norms)
    tn = ad.div(targets, tar_norms)
    sims = ad.matmul(pn, ad.transpose(tn))
    exp_sims = ad.exp(sims)
    log_denom = ad.log(ad.reduce_sum(exp_sims, axis=1))
    eye = Tensor(np.eye(b, dtype=predictions.data.dtype))
    diag = ad.reduce_sum(ad.mul(sims, eye), axis=1)
    return ad.reduce_mean(ad.sub(log_denom, diag))


def transaction_loss(predictions: Sequence[Tensor], targets: Sequence[Tensor]) -> Tensor:
    """Mean of the per-turn batch losses over a transaction."""
    if len(predictions) != len(targets):
        raise ShapeError("transaction_loss",
                         f"{len(predictions)} prediction turns for {len(targets)} target turns")
    if len(predictions) == 0:
        raise DegenerateInputError("transaction_loss: no turns")
    total = batch_loss(predictions[0], targets[0])
    for pred, tar in zip(predictions[1:], targets[1:]):
        total = ad.add(total, batch_loss(pred, tar))
    return ad.mul(total, 1.0 / len(predictions))
