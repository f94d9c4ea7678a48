"""MCTS-based index update over a persistent policy tree (Section IV-B).

The *policy tree*'s root is the current index configuration; every
node is a configuration reachable by adding candidate indexes or
removing existing (non-protected) ones. Search balances exploitation
and exploration with the paper's UCB utility

    U(v) = B(v) + gamma * sqrt( ln F(root) / F(v) )

where the node benefit ``B(v)`` is the best (estimated) workload cost
reduction seen in ``v``'s subtree, normalised by the baseline workload
cost, and ``F`` counts node visits.

The tree persists across tuning rounds. Each search bumps the tree's
epoch and re-roots it at the node matching the now-current
configuration. The epoch marks only each node's own benefit
(``own_benefit``) and per-template cost array (``costs``) stale, so
both are recomputed against the new workload before use. ``visits``,
``subtree_best`` and ``parent`` carry over unchanged from earlier
rounds. The tree lives only in memory and is not checkpointed, so a
restarted advisor starts from an empty tree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.estimator import BenefitEstimator
from repro.core.templates import QueryTemplate
from repro.engine.index import IndexDef
from repro.engine.metrics import CacheStats

IndexKey = Tuple[str, Tuple[str, ...]]

DEFAULT_GAMMA = 0.4

@dataclass(frozen=True)
class Action:
    """An edge in the policy tree: add or remove one index."""

    kind: str  # "add" | "remove"
    index: IndexDef

    def __str__(self) -> str:
        sign = "+" if self.kind == "add" else "-"
        return f"{sign}{self.index}"


class PolicyNode:
    """One index configuration in the policy tree."""

    __slots__ = (
        "config",
        "action",
        "children",
        "visits",
        "own_benefit",
        "costs",
        "costs_epoch",
        "subtree_best",
        "epoch",
        "expanded",
        "parent",
    )

    def __init__(
        self,
        config: FrozenSet[IndexKey],
        action: Optional[Action] = None,
        parent: Optional["PolicyNode"] = None,
    ):
        self.config = config
        self.action = action
        self.parent = parent
        self.children: List["PolicyNode"] = []
        self.visits = 0
        self.own_benefit: Optional[float] = None
        # Per-template weighted costs of this config (delta-costing
        # reference). Tracked with its own epoch: ``epoch`` doubles as
        # the expansion marker and can be bumped without recosting.
        self.costs: Optional[np.ndarray] = None
        self.costs_epoch = -1
        self.subtree_best = -math.inf
        self.epoch = -1
        self.expanded = False


@dataclass
class SearchResult:
    """Outcome of one MCTS tuning round."""

    best_config: List[IndexDef]
    best_benefit: float
    baseline_cost: float
    iterations: int
    evaluations: int
    additions: List[IndexDef] = field(default_factory=list)
    removals: List[IndexDef] = field(default_factory=list)
    plans_computed: int = 0
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    deadline_hit: bool = False

    @property
    def relative_improvement(self) -> float:
        if self.baseline_cost <= 0:
            return 0.0
        return self.best_benefit / self.baseline_cost


class PolicyTree:
    """Persistent tree + registry for incremental re-rooting."""

    def __init__(self) -> None:
        self.root: Optional[PolicyNode] = None
        self.registry: Dict[FrozenSet[IndexKey], PolicyNode] = {}
        self.epoch = 0

    def reroot(self, config: FrozenSet[IndexKey]) -> PolicyNode:
        """Point the root at ``config``, reusing an existing node."""
        node = self.registry.get(config)
        if node is None:
            node = PolicyNode(config)
            self.registry[config] = node
        self.root = node
        return node

    def new_epoch(self) -> None:
        """Mark every node's own benefit and costs stale (workload changed)."""
        self.epoch += 1

    def node_count(self) -> int:
        return len(self.registry)

    def child(self, parent: PolicyNode, action: Action) -> PolicyNode:
        """Create (or fetch) the child configuration node."""
        if action.kind == "add":
            config = parent.config | {action.index.key}
        else:
            config = parent.config - {action.index.key}
        node = self.registry.get(config)
        if node is None:
            node = PolicyNode(config, action=action, parent=parent)
            self.registry[config] = node
        if node not in parent.children:
            parent.children.append(node)
        return node


class MctsIndexSelector:
    """The paper's MCTS index update algorithm."""

    def __init__(
        self,
        estimator: BenefitEstimator,
        gamma: float = DEFAULT_GAMMA,
        iterations: int = 60,
        rollouts: int = 4,
        rollout_depth: Optional[int] = None,
        max_children: int = 24,
        patience: int = 25,
        seed: int = 17,
        rng: Optional[random.Random] = None,
        max_evaluations: Optional[int] = None,
    ):
        self.estimator = estimator
        self.gamma = gamma
        self.iterations = iterations
        self.rollouts = rollouts
        self.rollout_depth = rollout_depth
        self.max_children = max_children
        self.patience = patience
        # Anytime-search bound: a deterministic evaluation cap,
        # checked between iterations, never mid-evaluation. Hitting it
        # returns best-so-far instead of raising; None disables it.
        self.max_evaluations = max_evaluations
        # An injected RNG makes rollouts reproducible run-to-run (and
        # lets callers share one stream across components); ``seed``
        # is the convenience fallback.
        self.rng = rng if rng is not None else random.Random(seed)
        self.tree = PolicyTree()
        # Search-scoped state (reset per round).
        self._universe: Dict[IndexKey, IndexDef] = {}
        self._candidates: List[IndexDef] = []
        self._protected: Set[IndexKey] = set()
        self._templates: Sequence[QueryTemplate] = ()
        self._budget: Optional[int] = None
        self._baseline_cost = 0.0
        self._evaluations = 0
        self._best_benefit = 0.0
        self._best_config: FrozenSet[IndexKey] = frozenset()
        self._root_ref: Optional[
            Tuple[FrozenSet[IndexKey], np.ndarray]
        ] = None

    # ------------------------------------------------------------------
    # round entry point
    # ------------------------------------------------------------------

    def search(
        self,
        existing: Sequence[IndexDef],
        candidates: Sequence[IndexDef],
        templates: Sequence[QueryTemplate],
        budget_bytes: Optional[int] = None,
        protected: Sequence[IndexDef] = (),
    ) -> SearchResult:
        """Run one tuning round and return the best configuration found.

        ``existing`` is the full current configuration (including
        protected indexes, e.g. primary keys, which MCTS may use for
        costing but never removes). ``budget_bytes`` bounds the total
        size of non-protected indexes; ``None`` means unlimited.
        """
        self._protected = {d.key for d in protected}
        # The universe is cumulative: the persistent policy tree holds
        # nodes built from earlier rounds' candidates, and re-visiting
        # them must still resolve their definitions.
        for d in existing:
            self._universe[d.key] = d
        for d in candidates:
            self._universe.setdefault(d.key, d)
        self._candidates = [
            d for d in candidates if d.key not in {e.key for e in existing}
        ]
        self._templates = templates
        self._budget = budget_bytes
        self._evaluations = 0

        root_config = frozenset(d.key for d in existing)
        self.tree.new_epoch()
        root = self.tree.reroot(root_config)

        root_costs = self.estimator.workload_costs(
            templates, self._defs_of(root_config)
        )
        self._baseline_cost = float(root_costs.sum())
        # Every delta evaluation needs a reference configuration whose
        # per-template costs are known; the root is always valid.
        self._root_ref = (root_config, root_costs)
        root.costs = root_costs
        root.costs_epoch = self.tree.epoch
        self._best_benefit = 0.0
        self._best_config = root_config
        stale_rounds = 0
        iterations_run = 0
        deadline_hit = False

        for _ in range(self.iterations):
            if self.max_evaluations is not None and (
                self._evaluations >= self.max_evaluations
            ):
                deadline_hit = True
                break
            iterations_run += 1
            previous_best = self._best_benefit
            node = self._select(root)
            benefit = self._evaluate(node)
            self._backpropagate(node, benefit)
            if self._best_benefit > previous_best + 1e-9:
                stale_rounds = 0
            else:
                stale_rounds += 1
            if stale_rounds >= self.patience:
                break

        if not deadline_hit:
            # Final polish (Section III workflow): prune redundant/
            # negative indexes out of the winner; also consider the
            # pruned union of all candidates — shrunk back inside the
            # budget by dropping the worst benefit-per-byte indexes —
            # which greedy repair can turn into a strong configuration
            # even when search never visited it directly. Skipped
            # entirely once the evaluation cap fires: polish costs many
            # more evaluations, and anytime search promises best-so-far
            # *now*.
            union = root_config | {
                c.key
                for c in self._candidates
                if self._budget is None
                or self.estimator.backend.index_size_bytes(c) <= self._budget
            }
            pruned_union = self._fit_to_budget(
                self._prune(frozenset(union))
            )
            union_cost, _ = self._cost_of(pruned_union, self._root_ref)
            union_benefit = self._baseline_cost - union_cost
            if (
                union_benefit > self._best_benefit
                and self._within_budget(pruned_union)
            ):
                self._best_benefit = union_benefit
                self._best_config = pruned_union

        best_benefit = self._best_benefit
        if deadline_hit:
            best_config = self._best_config
        else:
            best_config = self._prune(self._best_config)
        final_cost, _ = self._cost_of(best_config, self._root_ref)
        best_benefit = max(
            self._baseline_cost - final_cost,
            best_benefit,
        )
        best_defs = self._defs_of(best_config)
        existing_keys = {d.key for d in existing}
        additions = [
            d for d in best_defs if d.key not in existing_keys
        ]
        removals = [
            d for d in existing if d.key not in best_config
        ]
        return SearchResult(
            best_config=best_defs,
            best_benefit=best_benefit,
            baseline_cost=self._baseline_cost,
            iterations=iterations_run,
            evaluations=self._evaluations,
            additions=additions,
            removals=removals,
            plans_computed=self.estimator.plans_computed,
            cache_stats=self.estimator.cache_stats(),
            deadline_hit=deadline_hit,
        )

    # ------------------------------------------------------------------
    # the four MCTS steps
    # ------------------------------------------------------------------

    def _select(self, root: PolicyNode) -> PolicyNode:
        """Step 1 — descend by maximum utility, expanding on the way."""
        node = root
        depth = 0
        while True:
            if not node.expanded or node.epoch != self.tree.epoch:
                self._expand(node)
            if not node.children or depth >= 12:
                return node
            unvisited = [c for c in node.children if c.visits == 0]
            if unvisited:
                return self.rng.choice(unvisited)
            total_visits = max(
                sum(c.visits for c in node.children), 1
            )
            log_total = math.log(max(total_visits, 2))
            # Inlined argmax over _utility (same arithmetic): this
            # loop runs for every child of every descend step and the
            # max(key=lambda...) dispatch dominated selection time.
            denom = max(self._baseline_cost, 1e-9)
            gamma = self.gamma
            best_child = node.children[0]
            best_utility = -math.inf
            for child in node.children:
                benefit = child.subtree_best
                if benefit == -math.inf:
                    benefit = 0.0
                utility = benefit / denom + gamma * math.sqrt(
                    log_total / child.visits
                )
                if utility > best_utility:
                    best_utility = utility
                    best_child = child
            node = best_child
            depth += 1
            if node.visits == 0:
                return node

    def _utility(
        self,
        node: PolicyNode,
        total_visits: int,
        log_total: Optional[float] = None,
    ) -> float:
        """The paper's UCB: normalised benefit + exploration bonus.

        ``log_total`` lets the selection loop hoist the logarithm of
        the shared visit total out of the per-child comparison.
        """
        if node.visits == 0:
            return math.inf
        if log_total is None:
            log_total = math.log(max(total_visits, 2))
        benefit = node.subtree_best
        if benefit == -math.inf:
            benefit = 0.0
        normalised = benefit / max(self._baseline_cost, 1e-9)
        exploration = self.gamma * math.sqrt(log_total / node.visits)
        return normalised + exploration

    def _expand(self, node: PolicyNode) -> None:
        """Step 1(ii) — materialise the node's child actions."""
        actions = self._legal_actions(node.config)
        if len(actions) > self.max_children:
            # Keep the highest-support additions, sample the rest.
            adds = [a for a in actions if a.kind == "add"]
            removes = [a for a in actions if a.kind == "remove"]
            keep = adds[: self.max_children // 2]
            rest = adds[self.max_children // 2 :] + removes
            self.rng.shuffle(rest)
            actions = keep + rest[: self.max_children - len(keep)]
        for action in actions:
            self.tree.child(node, action)
        node.expanded = True
        node.epoch = self.tree.epoch

    def _legal_actions(self, config: FrozenSet[IndexKey]) -> List[Action]:
        actions: List[Action] = []
        size = self._config_size(config)
        for candidate in self._candidates:
            if candidate.key in config:
                continue
            if self._budget is not None:
                extra = self.estimator.backend.index_size_bytes(candidate)
                if size + extra > self._budget:
                    continue
            actions.append(Action(kind="add", index=candidate))
        # sorted(): frozenset iteration order follows PYTHONHASHSEED,
        # and action order is a tie-break in child selection.
        for key in sorted(config):
            if key in self._protected:
                continue
            actions.append(Action(kind="remove", index=self._universe[key]))
        return actions

    def _evaluate(self, node: PolicyNode) -> float:
        """Step 2 — node benefit from its config plus K random rollouts.

        The node itself is costed as a delta against its parent when
        the parent's per-template costs are fresh (one edge away, so
        only templates touching one table get re-costed); rollouts
        then delta against the node, whose costs are fresh after its
        own evaluation.
        """
        ref = self._ref_for(node.parent)
        if node.own_benefit is None or node.epoch != self.tree.epoch:
            node.own_benefit = self._config_benefit(node.config, ref)
            node.epoch = self.tree.epoch
        best = node.own_benefit
        rollout_ref = self._ref_for(node)
        for _ in range(self.rollouts):
            best = max(best, self._rollout(node.config, rollout_ref))
        return best

    def _ref_for(
        self, node: Optional[PolicyNode]
    ) -> Optional[Tuple[FrozenSet[IndexKey], np.ndarray]]:
        """A node's (config, costs) reference, if its costs are fresh."""
        if (
            node is not None
            and node.costs is not None
            and node.costs_epoch == self.tree.epoch
        ):
            return (node.config, node.costs)
        return self._root_ref

    def _rollout(
        self,
        config: FrozenSet[IndexKey],
        ref: Optional[Tuple[FrozenSet[IndexKey], np.ndarray]] = None,
    ) -> float:
        """Randomly extend a configuration and cost the result."""
        current = set(config)
        pool = [c for c in self._candidates if c.key not in current]
        self.rng.shuffle(pool)
        steps = 0
        # Per the paper, rollouts may extend until they "arrive the
        # storage constraint"; sampling a random depth per rollout
        # keeps the leaf distribution diverse — a fixed full depth
        # would evaluate the same all-candidates configuration every
        # time and never explore subsets.
        if self.rollout_depth is not None:
            max_steps = self.rollout_depth
        else:
            max_steps = self.rng.randint(0, len(pool)) if pool else 0
        for candidate in pool:
            if steps >= max_steps:
                break
            if self._budget is not None:
                size = self._config_size(frozenset(current))
                extra = self.estimator.backend.index_size_bytes(candidate)
                if size + extra > self._budget:
                    continue
            current.add(candidate.key)
            steps += 1
        # Occasionally try dropping one removable index during rollout.
        # sorted(): rng.choice picks by position, so the candidate
        # order must not depend on set hashing.
        removable = sorted(k for k in current if k not in self._protected)
        if removable and self.rng.random() < 0.3:
            current.discard(self.rng.choice(removable))
        return self._config_benefit(frozenset(current), ref)

    def _backpropagate(self, node: PolicyNode, benefit: float) -> None:
        """Step 3 — push visits and max-benefit up the path."""
        current: Optional[PolicyNode] = node
        while current is not None:
            current.visits += 1
            if benefit > current.subtree_best:
                current.subtree_best = benefit
            current = current.parent

    # ------------------------------------------------------------------
    # benefit plumbing
    # ------------------------------------------------------------------

    def _cost_of(
        self,
        config: FrozenSet[IndexKey],
        ref: Optional[Tuple[FrozenSet[IndexKey], np.ndarray]] = None,
    ) -> Tuple[float, np.ndarray]:
        """Workload cost of ``config`` plus its per-template cost array.

        With a reference available, only templates touching tables
        whose index set differs from the reference are re-costed; the result is bitwise identical to a
        full recomputation (the estimator guarantees it).
        """
        if ref is not None:
            ref_config, ref_costs = ref
            # The frozenset symmetric difference gives the changed
            # tables directly (every index key starts with its table
            # name) — no need to materialise the reference defs.
            changed = {
                key[0] for key in config.symmetric_difference(ref_config)
            }
            return self.estimator.workload_cost_delta(
                ref_costs,
                self._templates,
                (),
                self._defs_of(config),
                changed_tables=changed,
            )
        costs = self.estimator.workload_costs(
            self._templates, self._defs_of(config)
        )
        return float(costs.sum()), costs

    def _config_benefit(
        self,
        config: FrozenSet[IndexKey],
        ref: Optional[Tuple[FrozenSet[IndexKey], np.ndarray]] = None,
    ) -> float:
        if self._budget is not None and (
            self._config_size(config) > self._budget
        ):
            return -math.inf
        self._evaluations += 1
        if ref is None:
            ref = self._root_ref
        cost, costs = self._cost_of(config, ref)
        benefit = self._baseline_cost - cost
        # Keep the registry node's own estimate (and cost array, the
        # delta reference for its children) fresh.
        node = self.tree.registry.get(config)
        if node is not None:
            if node.own_benefit is None or node.epoch != self.tree.epoch:
                node.own_benefit = benefit
                node.epoch = self.tree.epoch
            node.costs = costs
            node.costs_epoch = self.tree.epoch
        if benefit > self._best_benefit:
            self._best_benefit = benefit
            self._best_config = config
        return benefit

    def _fit_to_budget(
        self, config: FrozenSet[IndexKey]
    ) -> FrozenSet[IndexKey]:
        """Shrink an over-budget config by dropping the indexes with
        the worst marginal benefit per byte until it fits.

        This is the paper's "if the storage has arrived limit, try out
        other branches" behaviour in closed form: instead of
        truncating a ranked list like Greedy, the repair keeps the
        combination that buys the most benefit per byte of budget.
        """
        if self._budget is None:
            return config
        current = set(config)
        while self._config_size(frozenset(current)) > self._budget:
            removable = sorted(
                k for k in current if k not in self._protected
            )
            if not removable:
                return frozenset(current)  # nothing else can give
            frozen = frozenset(current)
            base_cost, base_costs = self._cost_of(frozen, self._root_ref)
            best_key = None
            best_ratio = None
            for key in removable:
                without_cost, _ = self._cost_of(
                    frozen - {key}, (frozen, base_costs)
                )
                loss = max(without_cost - base_cost, 0.0)
                size = self.estimator.backend.index_size_bytes(
                    self._universe[key]
                )
                ratio = loss / max(size, 1)
                if best_ratio is None or ratio < best_ratio:
                    best_ratio = ratio
                    best_key = key
            current.discard(best_key)
        return self._fill_budget(frozenset(current))

    def _fill_budget(
        self, config: FrozenSet[IndexKey]
    ) -> FrozenSet[IndexKey]:
        """Spend leftover budget on the best remaining candidates.

        After repair some budget may be unused; greedily add back the
        candidates with the highest marginal benefit per byte while
        they fit and actually help.
        """
        if self._budget is None:
            return config
        current = set(config)
        improved = True
        while improved:
            improved = False
            frozen = frozenset(current)
            size = self._config_size(frozen)
            base_cost, base_costs = self._cost_of(frozen, self._root_ref)
            best_key = None
            best_ratio = 0.0
            for candidate in self._candidates:
                if candidate.key in current:
                    continue
                extra = self.estimator.backend.index_size_bytes(candidate)
                if size + extra > self._budget:
                    continue
                with_cost, _ = self._cost_of(
                    frozen | {candidate.key}, (frozen, base_costs)
                )
                gain = base_cost - with_cost
                if gain <= 1e-9:
                    continue
                ratio = gain / max(extra, 1)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_key = candidate.key
            if best_key is not None:
                current.add(best_key)
                improved = True
        return frozenset(current)

    def _within_budget(self, config: FrozenSet[IndexKey]) -> bool:
        if self._budget is None:
            return True
        return self._config_size(config) <= self._budget

    def _prune(self, config: FrozenSet[IndexKey]) -> FrozenSet[IndexKey]:
        """Strip redundant/negative indexes from the winning config.

        The workflow step of Section III: after search, every
        non-protected index whose removal does not increase the
        estimated workload cost is dropped — rollouts can sweep
        freeloading indexes into an otherwise-good configuration, and
        each freeloader still costs storage and write maintenance.
        """
        current = config
        cost, costs = self._cost_of(current, self._root_ref)
        improved = True
        while improved:
            improved = False
            for key in sorted(current):
                if key in self._protected:
                    continue
                trial = current - {key}
                trial_cost, trial_costs = self._cost_of(
                    trial, (current, costs)
                )
                if trial_cost <= cost * (1.0 + 1e-9):
                    current = trial
                    cost = trial_cost
                    costs = trial_costs
                    improved = True
        return current

    def _defs_of(self, config: FrozenSet[IndexKey]) -> List[IndexDef]:
        return [self._universe[key] for key in sorted(config)]

    def _config_size(self, config: FrozenSet[IndexKey]) -> int:
        """Total bytes of the non-protected indexes in a config."""
        total = 0
        # lint: ignore[unordered-iteration] -- order-free integer sum
        for key in config:
            if key in self._protected:
                continue
            total += self.estimator.backend.index_size_bytes(self._universe[key])
        return total
