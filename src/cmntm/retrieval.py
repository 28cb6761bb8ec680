"""Retrieval scoring, ranking, recall metrics, and the contrastive loss.

Scoring and ranking are plain numpy (nothing downstream differentiates
through a ranking); the loss records autodiff tape nodes so gradients flow
back into the model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import COSINE_EPS, Tensor
from .errors import DegenerateInputError, DomainError, ShapeError

# Budget for one (rows, db) score block scored by a single GEMM: about 5 MB.
SCORE_BLOCK_BYTES = 5 << 20


@dataclass
class CandidateDB:
    """Fixed candidate set: candidate ``i`` is feature row ``i``.

    ``ids`` is ``np.arange(len(db))``, kept for ``rank``, which breaks ties
    by id; ``top_k`` and ``rank_of`` break them by row, the same order.
    ``row_norms`` holds each feature row's L2 norm, computed once here for
    every db-wide cosine, a block of rows at a time (``row_blocks``) so that
    no temporary the size of the db is built.
    ``features`` is a read-only view of the given array, so writes through
    the db raise instead of leaving the norms stale; the caller must not
    change the array it passed in either.
    """

    features: np.ndarray  # (count, D), read-only
    ids: np.ndarray = field(init=False, repr=False)        # (count,) 0..count-1, read-only
    row_norms: np.ndarray = field(init=False, repr=False)  # (count,)

    def __post_init__(self):
        self.features = np.asarray(self.features).view()
        self.features.flags.writeable = False
        if self.features.ndim != 2:
            raise ShapeError("CandidateDB", f"features must be 2-d, got {self.features.shape}")
        if len(self) < 2:
            raise DegenerateInputError("CandidateDB: need at least 2 candidates")
        self.ids = np.arange(len(self), dtype=np.int64)
        # each row's norm reduces that row alone, so blocking changes no bit
        self.row_norms = np.concatenate([
            np.linalg.norm(self.features[rows], axis=1)
            for rows in row_blocks(len(self), self.features.itemsize * self.dim)])
        self.ids.flags.writeable = self.row_norms.flags.writeable = False
        if np.any(self.row_norms <= COSINE_EPS):
            raise DegenerateInputError("CandidateDB: zero-norm candidate feature")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def index_of(self, candidate_id: int) -> int:
        """The feature row of ``candidate_id``, which is the id itself; an id
        outside the db raises ``KeyError``."""
        if not 0 <= candidate_id < len(self):
            raise KeyError(f"CandidateDB: unknown candidate id {candidate_id}")
        return int(candidate_id)


@dataclass
class RankingResult:
    """Candidates ordered best-first with their similarity scores."""

    ids: np.ndarray     # (count,) candidate ids, best first
    scores: np.ndarray  # (count,) aligned similarity scores, non-increasing


def similarity_scores(query: np.ndarray, db: CandidateDB) -> np.ndarray:
    """Cosine similarity of the query against every candidate feature.

    A (D,) query is scored by one GEMV; a zero-norm or non-finite one
    raises. An (n, D) block is scored by one GEMM into (n, count) scores,
    each row divided by the same norm and floored denominator as its query
    alone, so only the dot products round differently (``unsettled``). A
    row reads NaN where its query alone would raise, and where its norm
    times the largest candidate norm nears the dtype's largest value: there
    the GEMM's partial sums could overflow and the GEMV's not, or the other
    way round.
    """
    query = np.asarray(query)
    if query.ndim not in (1, 2) or query.shape[-1] != db.dim:
        raise ShapeError("similarity_scores",
                         f"expected ({db.dim},) or (n, {db.dim}) queries, got {query.shape}")
    if query.ndim == 2:
        qn = np.array([np.linalg.norm(q) for q in query]).reshape(-1, 1)
        denom = np.maximum(qn * db.row_norms, COSINE_EPS)
        with np.errstate(invalid="ignore", over="ignore"):  # such rows are marked NaN below
            # features @ query.T runs about twice as fast as query @ features.T
            scores = np.clip((db.features @ query.T).T / denom, -1.0, 1.0)
        scorable = (qn > COSINE_EPS) & (qn * db.row_norms.max() < np.finfo(denom.dtype).max / 4)
        scores[~scorable[:, 0]] = np.nan
        return scores
    qn = np.linalg.norm(query)
    if qn <= COSINE_EPS:
        raise DegenerateInputError("similarity_scores: zero-norm query")
    if not math.isfinite(qn):
        raise DegenerateInputError("similarity_scores: non-finite query")
    denom = np.maximum(qn * db.row_norms, COSINE_EPS)
    return np.clip(db.features @ query / denom, -1.0, 1.0)


def row_blocks(count: int, row_bytes: int) -> list[slice]:
    """Slices that cut ``count`` rows of ``row_bytes`` bytes each into blocks
    of at most ``SCORE_BLOCK_BYTES``; every block holds at least one row."""
    step = max(1, SCORE_BLOCK_BYTES // row_bytes)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def score_gap(dtype, dim: int) -> float:
    """``unsettled``'s 2 B = 4 (D + 1) eps of ``dtype``: two block scores of
    that dtype further apart than this are in the same order in the GEMV's."""
    return 4 * (dim + 1) * float(np.finfo(dtype).eps)


def unsettled(scores: np.ndarray, cols: np.ndarray, dim: int,
              ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Where a GEMM score block decides each row's recall@K as a GEMV would.

    Row j of ``scores`` is query j's GEMM scores. Its GEMV, one query at a
    time, must take the same operands and divide by the same denominator.
    ``lo[j]`` counts the candidates that certainly beat column ``cols[j]``
    in the GEMV scores. ``exact`` marks the rows whose GEMV rank could fall
    on either side of a K in ``ks``, and the rows with a non-finite score;
    elsewhere ``lo`` decides every recall@K.

    Only the dot products round differently. One of length D (``dim``),
    summed in any order, lies within gamma_D * sum|f_k v_k| <= gamma_D |f| |v|
    of the exact value, where gamma_D = D u / (1 - D u) and u = eps / 2 is
    the unit roundoff of the dtype it is summed in (Higham, "Accuracy and
    Stability of Numerical Algorithms", section 3.1); underflow adds at
    most D * tiny. The shared denominator is within a relative few D u' of
    |f| |v|, u' the unit roundoff of the norms' dtype, or floored above it,
    so the two dot products differ by at most 2 gamma_D (1 + O(D u')) after
    the division, and the two divisions' roundings add 2 u; clipping both
    alike moves nothing apart. That is (D + 1) eps plus smaller terms, so
    B = 2 (D + 1) eps bounds how far a GEMM score may lie from its GEMV
    score, with a margin of almost 2.

    A float32 block of float32 operands may also stand for a float64 GEMV
    of the same values, if each score is divided in float64 by the GEMV's
    own denominator and then rounded to float32. It errs by gamma_D of
    float32 in its sum, by that rounding, and by the GEMV's own float64
    error: about (D + 1) eps32 / 2, so B at float32's eps bounds it with a
    margin of almost 4.

    A candidate whose GEMM score exceeds the column's by more than 2 B
    therefore also beats it in the GEMV scores, and one more than 2 B below
    it cannot. So the GEMV rank lies in [lo, hi], where hi counts the other
    candidates not that far below. Rounding the column's score plus or
    minus 2 B moves the gap far less than its margin.
    """
    ref = scores[np.arange(len(scores)), cols][:, None]
    gap = score_gap(scores.dtype, dim)
    # an int32 sum counts a row about 2.5 times as fast as count_nonzero
    lo = (scores > ref + gap).sum(axis=1, dtype=np.int32)
    hi = (scores >= ref - gap).sum(axis=1, dtype=np.int32) - 1  # less the column itself
    # a row's sum is non-finite where one of its scores is
    exact = (np.any((lo[:, None] < ks) & (ks <= hi[:, None]), axis=1)
             | ~np.isfinite(scores.sum(axis=1)))
    return lo, exact


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


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The rows of the ``k`` best scores, best first, ties broken by ascending
    row: on a db, whose ids are its rows, the first ``k`` ids of
    ``rank(scores, db.ids)``, without sorting every score.

    Every score tied with the k-th best stays in the partial sort, so ties
    still break by row.
    """
    if not 1 <= k <= len(scores):
        raise ValueError(f"top_k: k must be in [1, {len(scores)}], got {k}")
    _check_finite("top_k", scores)
    kth = -np.partition(-scores, k - 1)[k - 1]
    top = np.flatnonzero(scores >= kth)
    # top ascends, so a stable sort breaks ties by row
    return top[np.argsort(-scores[top], kind="stable")][:k]


def rank_of(scores: np.ndarray, row: int) -> int:
    """0-based place of ``row`` in ``top_k``'s order over all of ``scores``.

    With s = scores[row], the place is #(scores > s) + #(scores[:row] == s),
    so it is counted without sorting.
    """
    _check_finite("rank_of", scores)
    s = scores[row]
    return int(np.count_nonzero(scores > s) + np.count_nonzero(scores[:row] == s))


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
    Non-finite logits raise ``DomainError``.

    One tape node. Like the fused ops of ``autodiff``, it evaluates the
    numpy expressions of its 13-primitive chain (``batch_loss_chain`` in
    ``tests/reference_ops.py``) in the chain's order, and its backward
    replays the chain's adjoints in reverse tape order, so values and
    gradients are bit-identical to the chain's.
    """
    p, t = predictions.data, targets.data
    if p.ndim != 2 or t.ndim != 2:
        raise ShapeError("batch_loss",
                         f"expected 2-d predictions/targets, got {p.shape} and {t.shape}")
    if p.shape != t.shape:
        raise ShapeError("batch_loss", f"shape mismatch: {p.shape} vs {t.shape}")
    b = p.shape[0]
    p_norm = np.sqrt((p * p).sum(axis=1, keepdims=True))
    t_norm = np.sqrt((t * t).sum(axis=1, keepdims=True))
    if np.any(p_norm <= COSINE_EPS) or np.any(t_norm <= COSINE_EPS):
        raise DegenerateInputError("batch_loss: zero-norm row")
    if b == 1:
        return Tensor(np.zeros((), dtype=p.dtype))
    # the guard above makes every norm exceed COSINE_EPS, so no floor is needed
    pn, tn = p / p_norm, t / t_norm
    sims = pn @ tn.T
    exp_sims = np.exp(sims)
    # a cosine's exp is finite unless the cosine is NaN
    if not np.isfinite(exp_sims.max()):
        raise DomainError("batch_loss: non-finite logits")
    row_sums = exp_sims.sum(axis=1)
    eye = np.eye(b, dtype=p.dtype)
    loss = (np.log(row_sums) - (sims * eye).sum(axis=1)).mean()

    def backward(g):
        g_terms = np.broadcast_to(g, (b,)) / b
        # sims feeds the diagonal and the exp; the tape summed them in that order
        g_sims = (-g_terms)[:, None] * eye + (g_terms / row_sums)[:, None] * exp_sims
        # each side's gradient is the div's term, then the norm's
        g_t_div = g_t_norm = g_p_div = g_p_norm = None
        if targets.requires_grad:
            g_tn = (pn.T @ g_sims).T
            g_t_div = g_tn / t_norm
            g_t_norm = (-g_tn * tn / t_norm).sum(axis=1, keepdims=True) * t / t_norm
        if predictions.requires_grad:
            g_pn = g_sims @ tn
            g_p_div = g_pn / p_norm
            g_p_norm = (-g_pn * pn / p_norm).sum(axis=1, keepdims=True) * p / p_norm
        return g_t_div, g_p_div, g_t_norm, g_p_norm

    # a tensor passed as both inputs gets its four terms in the chain's tape order
    return ad._record((targets, predictions, targets, predictions), loss, backward)


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
