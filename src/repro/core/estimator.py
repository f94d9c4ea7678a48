"""Index benefit estimation (paper Section V).

Three layers:

* :class:`WhatIfCostModel` — the traditional baseline: static-weight
  sum of the cost features (what plain optimizer-driven advisors use);
* :class:`DeepIndexEstimator` — the paper's one-layer deep regression
  ``cost(q) = sigmoid(W · C + b)`` trained on historical index
  management data (feature vectors + measured execution costs), with
  k-fold cross-validation (the paper uses 9-fold);
* :class:`BenefitEstimator` — the facade MCTS talks to: caches
  per-(template, relevant-config) query costs and aggregates them into
  workload-level costs, weighting templates by matched frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.features import (
    CostFeatures,
    compute_features,
    compute_features_batch,
    features_matrix,
    referenced_tables,
)
from repro.core.templates import QueryTemplate
from repro.engine.faults import (
    FaultError,
    PermanentFault,
    TransientFault,
    VirtualClock,
    backoff_delay,
)
from repro.engine.index import IndexDef
from repro.engine.metrics import CacheStats, LruCache
from repro.ports.backend import TuningBackend
from repro.sql import ast
from repro.sql.lexer import SqlSyntaxError


#: Default size of the estimator's bounded caches. ``cache_size``
#: sizes both LRU tiers (cost and features) and the parsed-sample
#: cache together, so the tiers cannot drift apart; 0 disables all
#: three.
DEFAULT_CACHE_SIZE = 50_000


class EstimatorUnavailable(RuntimeError):
    """Raised when every rung of the degradation ladder has failed.

    The advisor treats this as "skip the round, do not crash": even
    the analytic what-if fallback could not produce a prediction, so
    there is no estimate to tune with.
    """


class WhatIfCostModel:
    """Static-weight cost model: ``cost = C_data + C_io + C_cpu``."""

    trained = True  # usable out of the box

    def predict_one(self, features: CostFeatures) -> float:
        return features.naive_total

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        # Columns: data, io, cpu, is_write, num_indexes.
        return matrix[:, 0] + matrix[:, 1] + matrix[:, 2]


@dataclass
class TrainingMetrics:
    """Fit diagnostics for the deep regression."""

    mse: float
    mean_q_error: float
    samples: int


class DeepIndexEstimator:
    """One-layer sigmoid regression over the Section V cost features.

    ``cost(q) = sigmoid(W · C + b) * y_scale`` with standardized
    features. Weights are learned with full-batch gradient descent on
    MSE — deliberately the paper's "one-layer deep regression", not a
    deeper network.
    """

    def __init__(self, learning_rate: float = 0.5, epochs: int = 400,
                 seed: int = 1):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_scale: float = 1.0
        self.trained = False

    # -- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> TrainingMetrics:
        """Train on feature matrix ``X`` and measured costs ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
            raise ValueError("need a non-empty aligned training set")

        self._x_mean = X.mean(axis=0)
        self._x_std = X.std(axis=0)
        self._x_std[self._x_std < 1e-12] = 1.0
        Xn = (X - self._x_mean) / self._x_std
        # Scale targets into sigmoid range with headroom.
        self._y_scale = max(float(y.max()) * 1.25, 1e-9)
        yn = y / self._y_scale

        rng = np.random.default_rng(self.seed)
        w = rng.normal(scale=0.1, size=X.shape[1])
        b = 0.0
        n = len(y)
        for _ in range(self.epochs):
            z = Xn @ w + b
            pred = _sigmoid(z)
            err = pred - yn
            grad_z = err * pred * (1.0 - pred)
            grad_w = Xn.T @ grad_z / n
            grad_b = float(grad_z.mean())
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.weights = w
        self.bias = b
        self.trained = True

        pred = self.predict(X)
        mse = float(np.mean((pred - y) ** 2))
        return TrainingMetrics(
            mse=mse, mean_q_error=_mean_q_error(pred, y), samples=n
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict costs for a feature matrix (requires a prior fit)."""
        if not self.trained:
            raise RuntimeError("estimator is not trained")
        X = np.asarray(X, dtype=float)
        Xn = (X - self._x_mean) / self._x_std
        return _sigmoid(Xn @ self.weights + self.bias) * self._y_scale

    def predict_one(self, features: CostFeatures) -> float:
        """Predict the cost of a single feature vector."""
        return float(self.predict(features.as_array()[None, :])[0])

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Persist trained weights to an ``.npz`` file."""
        if not self.trained:
            raise RuntimeError("cannot save an untrained estimator")
        np.savez(
            path,
            weights=self.weights,
            bias=np.array([self.bias]),
            x_mean=self._x_mean,
            x_std=self._x_std,
            y_scale=np.array([self._y_scale]),
        )

    @classmethod
    def load(cls, path) -> "DeepIndexEstimator":
        """Restore an estimator saved with :meth:`save`."""
        data = np.load(path)
        model = cls()
        model.weights = data["weights"]
        model.bias = float(data["bias"][0])
        model._x_mean = data["x_mean"]
        model._x_std = data["x_std"]
        model._y_scale = float(data["y_scale"][0])
        model.trained = True
        return model

    # -- evaluation -----------------------------------------------------------

    def cross_validate(
        self, X: np.ndarray, y: np.ndarray, folds: int = 9
    ) -> List[TrainingMetrics]:
        """K-fold CV (paper: 9-fold); returns held-out metrics per fold."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(y)
        folds = min(folds, n)
        if folds < 2:
            raise ValueError("need at least 2 folds / samples")
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        metrics: List[TrainingMetrics] = []
        for k in range(folds):
            test_idx = order[k::folds]
            train_mask = np.ones(n, dtype=bool)
            train_mask[test_idx] = False
            model = DeepIndexEstimator(
                learning_rate=self.learning_rate,
                epochs=self.epochs,
                seed=self.seed + k,
            )
            model.fit(X[train_mask], y[train_mask])
            pred = model.predict(X[test_idx])
            metrics.append(
                TrainingMetrics(
                    mse=float(np.mean((pred - y[test_idx]) ** 2)),
                    mean_q_error=_mean_q_error(pred, y[test_idx]),
                    samples=len(test_idx),
                )
            )
        return metrics


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _mean_q_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean q-error (max(p/t, t/p)), the standard estimator metric."""
    p = np.maximum(np.asarray(pred, dtype=float), 1e-9)
    t = np.maximum(np.asarray(truth, dtype=float), 1e-9)
    return float(np.mean(np.maximum(p / t, t / p)))


# ---------------------------------------------------------------------------
# workload-level facade
# ---------------------------------------------------------------------------


@dataclass
class HistorySample:
    """One observed execution: features + measured cost."""

    features: CostFeatures
    actual_cost: float


class BenefitEstimator:
    """Workload-level index benefit estimation with tiered caching.

    ``workload_cost(templates, config)`` sums frequency-weighted
    per-template costs. Two bounded LRU tiers back it:

    * the **cost tier** maps (template fingerprint, relevant index
      subset) to a predicted cost; it is invalidated whenever the
      *model* changes (:meth:`train`, :meth:`clear_cache`);
    * the **feature tier** maps the same key to the planned
      :class:`CostFeatures`; planning does not depend on the model, so
      this tier survives retraining — after a model swap only
      prediction re-runs, no statement is re-planned.

    Both tiers key on the backend's ``index_identity`` of the subset
    of the configuration touching the statement's tables, so
    configurations that differ only in irrelevant indexes share
    entries, and a built index shares them with its hypothetical twin
    when neither its shape nor its place in the planner's index order
    changed. Data, stats and table-set changes move the backend's
    ``data_version`` and flush both tiers; index DDL moves neither,
    so cached plans and costs survive applied rounds.

    :meth:`workload_cost_delta` is the MCTS hot path: given a parent
    configuration's per-template costs, only templates touching a
    table whose index set changed are re-costed (via a table →
    templates inverted index); everything else is reused verbatim, so
    the delta total is bitwise-identical to a full recomputation.
    """

    def __init__(
        self,
        backend: TuningBackend,
        model=None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_predict_retries: int = 3,
        clock: Optional[VirtualClock] = None,
    ):
        self.backend = backend
        self.model = model if model is not None else WhatIfCostModel()
        self.history: List[HistorySample] = []
        self._cache = LruCache(cache_size)
        self._feature_cache = LruCache(cache_size)
        self._tables_cache: Dict[str, Tuple[str, ...]] = {}
        self._sample_cache = LruCache(cache_size)
        self._inverted_cache = LruCache(8)
        self._inverted_memo: Optional[Tuple[Sequence, Dict]] = None
        self._data_version = backend.data_version()
        self.estimate_calls = 0  # model predictions (cost-tier misses)
        self.plans_computed = 0  # planner invocations (feature misses)
        # Resilience (the degradation ladder; see _predict).
        self.faults = getattr(backend, "faults", None)
        self.max_predict_retries = max_predict_retries
        self.clock = clock if clock is not None else VirtualClock()
        self.retries = 0            # transient predict faults retried
        self.fallbacks = 0          # deep model -> what-if demotions
        self.placeholder_fallbacks = 0  # sample SQL unusable, used template
        self.degraded_reason: Optional[str] = None

    # -- estimation --------------------------------------------------------------

    def _predict(self, matrix: np.ndarray) -> np.ndarray:
        """Model prediction behind the degradation ladder.

        Rungs, in order:

        1. the current model (deep regression once trained);
        2. on a *transient* fault: bounded retries with deterministic
           exponential backoff on the virtual clock;
        3. on a *permanent* fault, exhausted retries, or a genuine
           model blow-up: demote to the analytic
           :class:`WhatIfCostModel` (flushing the cost tier, which is
           model-dependent) and keep going;
        4. if even the what-if fallback cannot predict:
           :class:`EstimatorUnavailable` — the advisor turns that into
           a skipped-not-crashed tuning round.

        With no fault injector and a healthy model this is exactly one
        ``model.predict`` call — bitwise-identical to the undecorated
        path.
        """
        attempts = 0
        while True:
            try:
                if self.faults is not None:
                    self.faults.check("estimator.predict")
                return self.model.predict(matrix)
            except TransientFault:
                if attempts < self.max_predict_retries:
                    attempts += 1
                    self.retries += 1
                    self.clock.sleep(backoff_delay(attempts - 1))
                    continue
                reason = "transient predict faults exhausted retries"
            except PermanentFault:
                reason = "permanent predict fault"
            except (RuntimeError, ValueError, FloatingPointError) as exc:
                reason = f"model failure: {exc}"
            self._degrade(reason)
            attempts = 0

    def _degrade(self, reason: str) -> None:
        """Drop one rung down the ladder or give up."""
        if isinstance(self.model, WhatIfCostModel):
            raise EstimatorUnavailable(
                f"what-if fallback unusable ({reason})"
            )
        self.fallbacks += 1
        self.degraded_reason = reason
        self.model = WhatIfCostModel()
        # The cost tier is model-dependent; predictions cached from
        # the demoted model must not mix with fallback predictions.
        self._cache.clear()

    def _check_version(self) -> None:
        """Flush both tiers if the data changed underneath us.

        Index DDL does not flush: keys carry the index identity.
        """
        version = self.backend.data_version()
        if version != self._data_version:
            self._cache.clear()
            self._feature_cache.clear()
            self._data_version = version

    def query_cost(
        self,
        template: QueryTemplate,
        config: Sequence[IndexDef],
    ) -> float:
        """Estimated execution cost of one template instance.

        Estimation uses a *concrete* instance of the template (real
        literals → real selectivities) when one is available: the
        first ``sample_sql`` this estimator parsed for the
        fingerprint, kept until the sample cache evicts it — not the
        template's most recent instance. A fresh estimator (after a
        restore) therefore parses the current sample and may price
        the template differently. The placeholder form
        (unknown-value selectivities) is the fallback.
        """
        self._check_version()
        key, relevant = self._relevant_config(template, config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        features = self._features_for(template, key, relevant)
        self.estimate_calls += 1
        # lint: ignore[cache-key] -- model swaps flush the cost tier (train/clear_cache)
        cost = float(self._predict(features.as_array()[None, :])[0])
        self._cache.put(key, cost)
        return cost

    def _features_for(
        self,
        template: QueryTemplate,
        key: Tuple,
        relevant: List[IndexDef],
    ) -> CostFeatures:
        """Feature-tier lookup; plans the statement only on a miss."""
        features = self._feature_cache.get(key)
        if features is None:
            self.plans_computed += 1
            statement = self._representative(template)
            features = self._plan_features(statement, relevant)
            self._feature_cache.put(key, features)
        return features

    def _plan_features(
        self, statement: ast.Statement, relevant: List[IndexDef]
    ) -> CostFeatures:
        """Feature planning with bounded retry on transient faults.

        Planning has no analytic fallback (it *is* the analytic
        layer), so a permanent planner fault — or retries running
        dry — escalates to :class:`EstimatorUnavailable` and the
        advisor skips the round.
        """
        attempts = 0
        while True:
            try:
                return compute_features(self.backend, statement, relevant)
            except TransientFault:
                if attempts < self.max_predict_retries:
                    attempts += 1
                    self.retries += 1
                    self.clock.sleep(backoff_delay(attempts - 1))
                    continue
                raise EstimatorUnavailable(
                    "transient planner faults exhausted retries"
                ) from None
            except PermanentFault as exc:
                raise EstimatorUnavailable(
                    f"permanent planner fault ({exc})"
                ) from None

    def _representative(self, template: QueryTemplate) -> ast.Statement:
        """A concrete statement standing in for the template."""
        if not template.sample_sql:
            return template.statement
        cached = self._sample_cache.get(template.fingerprint)
        if cached is None:
            try:
                cached = self.backend.parse_statement(template.sample_sql)
            except (SqlSyntaxError, FaultError):
                # Unparsable (or fault-injected) sample: fall back to
                # the placeholder form. Counted, not swallowed — a
                # rising placeholder_fallbacks means estimates are
                # running on unknown-value selectivities.
                self.placeholder_fallbacks += 1
                cached = template.statement
            self._sample_cache.put(template.fingerprint, cached)
        return cached

    def workload_costs(
        self,
        templates: Sequence[QueryTemplate],
        config: Sequence[IndexDef],
    ) -> np.ndarray:
        """Frequency-weighted per-template costs under ``config``.

        Cache misses are batched: features for every missing template
        are planned, stacked into one matrix, and predicted with a
        single :meth:`model.predict` call (the vectorized estimator
        path) instead of one ``predict_one`` per template.
        """
        self._check_version()
        out = np.zeros(len(templates), dtype=float)
        self._fill_costs(templates, config, range(len(templates)), out)
        return out

    def _fill_costs(
        self,
        templates: Sequence[QueryTemplate],
        config: Sequence[IndexDef],
        positions,
        out: np.ndarray,
    ) -> None:
        """Write weighted costs for ``positions`` into ``out``.

        The vectorized estimator path: cost-tier misses are
        feature-planned through the backend's bulk what-if entry (one
        overlay window for the whole batch), stacked into a single
        (n, NUM_FEATURES) matrix, and predicted with one
        ``model.predict`` call. Hits stay scalar writes on purpose —
        delta batches are a dozen positions, below the break-even
        point of array gather/scatter. Every step performs the same
        IEEE operations as :meth:`query_cost`, so each entry is
        bitwise identical to ``weight * query_cost(template, config)``.
        """
        # One pass over the config up front; per template only its
        # (few) relevant definitions are touched, not the whole
        # config. Keys match _relevant_config exactly: both are the
        # backend's index identity of the relevant definitions, and a
        # single-table template's key IS its table's identity —
        # computed once per call, not once per position.
        by_table: Dict[str, List[IndexDef]] = {}
        for d in config:
            by_table.setdefault(d.table, []).append(d)
        table_sigs: Dict[str, Tuple] = {}
        identity = self.backend.index_identity
        cache_get = self._cache.get
        missing: List[Tuple[int, Tuple, float, QueryTemplate]] = []
        for i in positions:
            template = templates[i]
            # Inlined max(template.weight, 0.1) — property and call
            # overhead matter at this call rate.
            weight = (
                template.window_frequency + 0.1 * template.frequency
            )
            if weight < 0.1:
                weight = 0.1
            tables = self._tables_of(template)
            if len(tables) == 1:
                sig = table_sigs.get(tables[0])
                if sig is None:
                    defs = by_table.get(tables[0])
                    sig = identity(defs) if defs else ()
                    table_sigs[tables[0]] = sig
                merged = sig
            else:
                merged = identity(
                    [d for table in tables for d in by_table.get(table, ())]
                )
            key = (template.fingerprint, merged)
            cached = cache_get(key)
            if cached is not None:
                out[i] = weight * cached
                continue
            missing.append((i, key, weight, template))
        if not missing:
            return
        features = self._batch_features(missing, config)
        matrix = features_matrix(features)
        # lint: ignore[cache-key] -- model swaps flush the cost tier (train/clear_cache)
        predicted = self._predict(matrix)
        self.estimate_calls += len(missing)
        for (i, key, weight, _template), raw in zip(missing, predicted):
            cost = float(raw)
            self._cache.put(key, cost)
            out[i] = weight * cost

    def _batch_features(
        self,
        missing: Sequence[Tuple[int, Tuple, float, QueryTemplate]],
        config: Sequence[IndexDef],
    ) -> List[CostFeatures]:
        """Feature vectors for the cost-tier misses of one evaluation.

        Each is looked up in the feature tier; feature-tier misses are planned together through
        :func:`compute_features_batch` under the *full* configuration:
        a statement's plan and maintenance charge only depend on the
        indexes of its referenced tables, so planning under the full
        config equals planning under the per-template relevant subset
        (the cache key stays the relevant subset). Under fault
        injection the batch window would blur per-statement retry
        semantics, so each statement goes through the serial
        retry-laddered path instead.
        """
        features: List[Optional[CostFeatures]] = []
        unplanned: List[int] = []
        for pos, (_i, key, _weight, _template) in enumerate(missing):
            cached = self._feature_cache.get(key)
            features.append(cached)
            if cached is None:
                unplanned.append(pos)
        if unplanned:
            if self.faults is not None:
                for pos in unplanned:
                    template = missing[pos][3]
                    key, relevant = self._relevant_config(template, config)
                    features[pos] = self._features_for(
                        template, key, relevant
                    )
            else:
                statements = [
                    self._representative(missing[pos][3])
                    for pos in unplanned
                ]
                self.plans_computed += len(unplanned)
                planned = compute_features_batch(
                    self.backend, statements, list(config)
                )
                for pos, feats in zip(unplanned, planned):
                    self._feature_cache.put(missing[pos][1], feats)
                    features[pos] = feats
        return features  # type: ignore[return-value]

    def workload_cost(
        self,
        templates: Sequence[QueryTemplate],
        config: Sequence[IndexDef],
    ) -> float:
        """Frequency-weighted total workload cost under ``config``."""
        return float(self.workload_costs(templates, config).sum())

    def shadow_workload_cost(
        self,
        templates: Sequence[QueryTemplate],
        config: Sequence[IndexDef],
    ) -> float:
        """Model-independent analytic workload cost under ``config``.

        The shadow gate's yardstick: planned features summed with the
        static what-if formula (``CostFeatures.naive_total``),
        bypassing the trained model and the cost tier entirely. A
        miscalibrated model cannot bend this number, which is what
        lets the safety layer measure the model's own error against
        it. Shares the feature tier with normal estimation, so after
        a search the round's configurations are usually already
        planned. Raises :class:`EstimatorUnavailable` when planning
        itself is down.
        """
        self._check_version()
        total = 0.0
        for template in templates:
            weight = (
                template.window_frequency + 0.1 * template.frequency
            )
            if weight < 0.1:
                weight = 0.1
            key, relevant = self._relevant_config(template, config)
            features = self._features_for(template, key, relevant)
            total += weight * features.naive_total
        return total

    def workload_cost_delta(
        self,
        parent_costs: np.ndarray,
        templates: Sequence[QueryTemplate],
        parent_config: Sequence[IndexDef],
        child_config: Sequence[IndexDef],
        changed_tables: Optional[Set[str]] = None,
    ) -> Tuple[float, np.ndarray]:
        """Incrementally re-cost a config that differs from its parent.

        Only templates referencing a table whose index set changed
        between ``parent_config`` and ``child_config`` are re-costed;
        every other entry of ``parent_costs`` is reused verbatim.
        Because unaffected per-query costs are invariant under the
        change (the cache key proves it), the returned total is
        bitwise-identical to ``workload_cost(templates,
        child_config)``.

        ``parent_costs`` must be the array ``workload_costs(templates,
        parent_config)`` returned for the *same* template sequence
        with unchanged weights. A caller that already knows the
        changed table set (MCTS holds configs as key frozensets, so
        the symmetric difference is one C-level set op) may pass it as
        ``changed_tables`` — it must equal
        ``_changed_tables(parent_config, child_config)``, and
        ``parent_config`` is then ignored. Returns
        ``(total, per_template)``.
        """
        if len(parent_costs) != len(templates):
            raise ValueError(
                "parent_costs does not match the template sequence "
                f"({len(parent_costs)} costs, {len(templates)} templates)"
            )
        self._check_version()
        changed = (
            changed_tables
            if changed_tables is not None
            else self._changed_tables(parent_config, child_config)
        )
        if not changed:
            return float(parent_costs.sum()), parent_costs
        inverted = self._template_table_index(templates)
        affected = sorted(
            {i for table in changed for i in inverted.get(table, ())}
        )
        costs = parent_costs.copy()
        if affected:
            self._fill_costs(templates, child_config, affected, costs)
        return float(costs.sum()), costs

    @staticmethod
    def _changed_tables(
        parent_config: Sequence[IndexDef],
        child_config: Sequence[IndexDef],
    ) -> Set[str]:
        """Tables whose index set differs between the two configs."""
        # Compare identity keys, not the defs themselves: every key
        # starts with the table name, and tuple hashing is far
        # cheaper than dataclass hashing on this hot path.
        parent_keys = {d.key for d in parent_config}
        diff = parent_keys.symmetric_difference(
            d.key for d in child_config
        )
        return {key[0] for key in diff}

    def _template_table_index(
        self, templates: Sequence[QueryTemplate]
    ) -> Dict[str, Tuple[int, ...]]:
        """Inverted index: table name → template positions touching it."""
        # Identity fast path: MCTS hands the same list object for the
        # whole search, so skip rebuilding the fingerprint-tuple key
        # each delta call (the held reference keeps the id stable).
        last = self._inverted_memo
        if last is not None and last[0] is templates:
            return last[1]
        key = tuple(t.fingerprint for t in templates)
        inverted = self._inverted_cache.get(key)
        if inverted is None:
            build: Dict[str, List[int]] = {}
            for i, template in enumerate(templates):
                for table in self._tables_of(template):
                    build.setdefault(table, []).append(i)
            inverted = {t: tuple(ix) for t, ix in build.items()}
            self._inverted_cache.put(key, inverted)
        self._inverted_memo = (templates, inverted)
        return inverted

    def benefit(
        self,
        templates: Sequence[QueryTemplate],
        baseline_config: Sequence[IndexDef],
        config: Sequence[IndexDef],
    ) -> float:
        """``B = cost(W, baseline) - cost(W, config)`` (Section II-A)."""
        return self.workload_cost(templates, baseline_config) - (
            self.workload_cost(templates, config)
        )

    def _tables_of(self, template: QueryTemplate) -> Tuple[str, ...]:
        tables = self._tables_cache.get(template.fingerprint)
        if tables is None:
            tables = referenced_tables(template.statement)
            if len(self._tables_cache) < 100_000:
                self._tables_cache[template.fingerprint] = tables
        return tables

    def _relevant_config(
        self, template: QueryTemplate, config: Sequence[IndexDef]
    ) -> Tuple[Tuple, List[IndexDef]]:
        """Cache key + the config subset that can affect the template.

        Only indexes on the statement's referenced tables influence
        its plan or maintenance charge, so the key (and the config
        slice handed to the planner) is restricted to them.
        """
        table_set = set(self._tables_of(template))
        relevant = sorted(
            (d for d in config if d.table in table_set),
            key=lambda d: d.key,
        )
        key = (template.fingerprint, self.backend.index_identity(relevant))
        return key, relevant

    def clear_cache(self, include_features: bool = False) -> None:
        """Drop predicted costs; optionally the planned features too.

        The default keeps the feature tier: it is the right call after
        a *model* change (costs stale, plans still valid). Pass
        ``include_features=True`` only when plans themselves are
        suspect — data changes are handled automatically via the
        backend's data version, and index DDL needs no flush at all.
        """
        self._cache.clear()
        if include_features:
            self._feature_cache.clear()

    def cache_stats(self) -> Dict[str, CacheStats]:
        """Counters for both tiers (hits/misses/evictions/size)."""
        return {
            "cost": self._cache.stats(),
            "features": self._feature_cache.stats(),
        }

    def resilience_stats(self) -> Dict[str, object]:
        """Degradation-ladder counters (visible, not just internal)."""
        return {
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "placeholder_fallbacks": self.placeholder_fallbacks,
            "backoff_virtual_seconds": self.clock.now(),
            "degraded_reason": self.degraded_reason,
        }

    # -- learning ------------------------------------------------------------------

    def record_execution(
        self,
        statement: ast.Statement,
        actual_cost: float,
        config: Optional[Sequence[IndexDef]] = None,
    ) -> None:
        """Log one (features, measured cost) pair for later training."""
        features = compute_features(self.backend, statement, config)
        self.history.append(
            HistorySample(features=features, actual_cost=actual_cost)
        )

    def record_template_feedback(
        self,
        template: QueryTemplate,
        config: Sequence[IndexDef],
        actual_cost: float,
    ) -> None:
        """Log a DBA-verdict training pair for one template.

        A rejected recommendation is a label: the DBA asserts the
        template's cost under ``config`` is ``actual_cost`` (the
        current cost), not what the model claimed. Planned through
        the same feature tier as estimation, so the sample's features
        match what the model would be asked at prediction time.
        """
        key, relevant = self._relevant_config(template, config)
        features = self._features_for(template, key, relevant)
        self.history.append(
            HistorySample(
                features=features, actual_cost=float(actual_cost)
            )
        )

    def training_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.history:
            raise RuntimeError("no execution history recorded")
        X = np.stack([s.features.as_array() for s in self.history])
        y = np.array([s.actual_cost for s in self.history])
        return X, y

    def train(self) -> TrainingMetrics:
        """Fit the deep regression on the recorded history.

        Replaces a static :class:`WhatIfCostModel` with a trained
        :class:`DeepIndexEstimator` and clears the prediction cache.
        """
        X, y = self.training_matrix()
        if not isinstance(self.model, DeepIndexEstimator):
            self.model = DeepIndexEstimator()
        metrics = self.model.fit(X, y)
        self.clear_cache()
        return metrics
