"""Unbiased neighbourhood-sampling estimation of embedding counts.

ASAP's core primitive is *neighbourhood sampling* [Pagh–Tsourakakis]:
grow one random partial embedding, track the probability of having grown
exactly it, and output the inverse probability on success, zero on
failure.  Averaging many such trials gives an unbiased estimate of the
embedding count with an accuracy/latency knob (the number of trials).

Our estimator grows the partial embedding through the *same* loop
structure GraphPi executes — schedule, candidate intersections and
asymmetric restrictions included:

* depth 0 samples a data vertex uniformly from V (weight |V|);
* depth i samples uniformly from the restricted candidate set the
  engine would loop over (weight = its cardinality, after removing
  already-used vertices);
* a trial that reaches the deepest loop yields the product of weights;
  a trial whose candidate set is empty yields 0.

Every root-to-leaf path of the restricted DFS tree is reached with
probability exactly ``1/∏ weights``, so the Horvitz–Thompson estimate
``∏ weights · [success]`` is unbiased for the leaf count — which, with a
valid restriction set, *is* the distinct-embedding count.  No separate
probability bookkeeping can drift out of sync with the search structure,
because they are the same object.

The estimator inherits ASAP's documented weakness on purpose: relative
variance grows as embeddings get rare (success probability → 0 while
weights stay large), which `bench_approx_tradeoff.py` demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import ExecutionPlan
from repro.core.engine import Engine
from repro.core.query import MatchQuery
from repro.core.session import get_session
from repro.graph.csr import Graph
from repro.pattern.pattern import Pattern


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of a sampling run.

    ``estimate`` is the sample mean of the per-trial Horvitz–Thompson
    values; the confidence interval is the normal approximation at the
    requested level.  ``hits`` counts trials that completed a full
    embedding — when it is 0 the interval collapses to [0, 0] and the
    estimate carries no information beyond "rare" (the ASAP failure
    mode: an empty sample cannot distinguish few from none).
    """

    estimate: float
    std_error: float
    n_samples: int
    hits: int
    confidence: float

    @property
    def ci_low(self) -> float:
        return max(0.0, self.estimate - self._z() * self.std_error)

    @property
    def ci_high(self) -> float:
        return self.estimate + self._z() * self.std_error

    def _z(self) -> float:
        # two-sided normal quantile via the error function inverse
        from statistics import NormalDist

        return NormalDist().inv_cdf(0.5 + self.confidence / 2)

    def relative_error(self, truth: int | float) -> float:
        """|estimate − truth| / truth (inf when truth is 0 but estimate > 0)."""
        if truth == 0:
            return 0.0 if self.estimate == 0 else math.inf
        return abs(self.estimate - truth) / truth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EstimateResult({self.estimate:.4g} ± {self.std_error:.3g}, "
            f"{self.hits}/{self.n_samples} hits)"
        )


class NeighborhoodSampler:
    """Samples one pattern's count on one graph through a GraphPi plan.

    Parameters
    ----------
    graph, pattern:
        The counting problem.
    plan:
        Optional pre-compiled plan; defaults to the performance-model
        choice with IEP disabled (sampling needs all loops explicit).
    seed:
        RNG seed for reproducible estimates.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        *,
        plan: ExecutionPlan | None = None,
        seed=None,
    ):
        if plan is None:
            query = MatchQuery(pattern, use_iep=False, use_codegen=False)
            plan = get_session(graph).plan_for(query).plan
        if plan.iep_k:
            raise ValueError("sampling requires a plan compiled with iep_k=0")
        self.graph = graph
        self.pattern = pattern
        self.plan = plan
        self._engine = Engine(graph, plan)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def sample_once(self) -> float:
        """One Horvitz–Thompson trial: ∏ candidate-set sizes, or 0."""
        if self.plan.n > self.graph.n_vertices:
            return 0.0
        assigned: list[int] = []
        weight = 1.0
        for depth in range(self.plan.n):
            cand = self._engine.candidates(depth, assigned)
            if len(assigned):
                # exclude already-used vertices, as the loops do inline
                mask = ~np.isin(cand, assigned)
                cand = cand[mask]
            if len(cand) == 0:
                return 0.0
            weight *= len(cand)
            assigned.append(int(cand[self._rng.integers(len(cand))]))
        return weight

    def estimate(self, n_samples: int, *, confidence: float = 0.95) -> EstimateResult:
        """Average ``n_samples`` independent trials."""
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        values = np.fromiter(
            (self.sample_once() for _ in range(n_samples)),
            dtype=np.float64,
            count=n_samples,
        )
        mean = float(values.mean())
        # sample std error of the mean
        se = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
        return EstimateResult(
            estimate=mean,
            std_error=se,
            n_samples=n_samples,
            hits=int(np.count_nonzero(values)),
            confidence=confidence,
        )


def approximate_count(
    graph: Graph,
    pattern: Pattern,
    *,
    n_samples: int = 10_000,
    seed=None,
    confidence: float = 0.95,
) -> EstimateResult:
    """One-shot approximate count (plan + sample)."""
    sampler = NeighborhoodSampler(graph, pattern, seed=seed)
    return sampler.estimate(n_samples, confidence=confidence)
