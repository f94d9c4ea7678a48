"""Boolean predicate normalization and classification.

Implements the analysis machinery behind the paper's candidate index
generation (Section IV-A, step 2):

* rewrite of arbitrary boolean predicates into *Disjunctive Normal
  Form* (DNF) so that every disjunct is a conjunction of atomic
  predicates — this resolves the paper's Example 6 ambiguity, where
  ``(a AND b) OR (a AND c)`` and ``a AND (b OR c)`` must yield the same
  candidates;
* classification of atomic predicates into **filter** predicates
  (column vs constant), **join** predicates (column vs column of a
  different table), and everything else;
* column usage extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.sql import ast

# DNF expansion is exponential in the worst case; cap the number of
# disjuncts so adversarial predicates cannot blow up candidate
# generation. Past the cap we keep the first MAX_DNF_TERMS disjuncts,
# which still covers every realistic workload query.
MAX_DNF_TERMS = 64


def to_nnf(expr: ast.Expr) -> ast.Expr:
    """Push negations down to atoms (negation normal form)."""
    if isinstance(expr, ast.Not):
        return _negate(to_nnf(expr.child))
    if isinstance(expr, ast.And):
        return ast.And(items=tuple(to_nnf(item) for item in expr.items))
    if isinstance(expr, ast.Or):
        return ast.Or(items=tuple(to_nnf(item) for item in expr.items))
    return expr


_COMPARISON_NEGATION = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


# Atoms listed in fallthrough= keep an explicit NOT wrapper (or, for
# pure value expressions, can never appear as boolean atoms):
# lint: exhaustive[Expr] fallthrough=Literal,Placeholder,ColumnRef,Star,Between,InList,Like,Arith,FuncCall,ScalarSubquery,InSubquery
def _negate(expr: ast.Expr) -> ast.Expr:
    """Return the negation of an NNF expression, staying in NNF."""
    if isinstance(expr, ast.Not):
        return expr.child
    if isinstance(expr, ast.And):
        return ast.Or(items=tuple(_negate(item) for item in expr.items))
    if isinstance(expr, ast.Or):
        return ast.And(items=tuple(_negate(item) for item in expr.items))
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(
            op=_COMPARISON_NEGATION[expr.op], left=expr.left, right=expr.right
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(expr=expr.expr, negated=not expr.negated)
    # BETWEEN / IN / LIKE atoms keep an explicit NOT wrapper.
    return ast.Not(child=expr)


def to_dnf(expr: ast.Expr) -> ast.Expr:
    """Rewrite ``expr`` into disjunctive normal form.

    The result is ``Or(And(atom...), ...)`` with single-atom layers
    collapsed, mirroring the factorized form the paper derives
    candidates from. If full expansion would exceed
    :data:`MAX_DNF_TERMS`, the original expression is returned
    unchanged — a truncated DNF would change the predicate's
    semantics, which is never acceptable for a rewrite.
    """
    terms, truncated = _dnf_terms_with_flag(expr)
    if truncated:
        return expr
    conjunctions: List[ast.Expr] = []
    for term in terms:
        if len(term) == 1:
            conjunctions.append(term[0])
        else:
            conjunctions.append(ast.And(items=tuple(term)))
    if len(conjunctions) == 1:
        return conjunctions[0]
    return ast.Or(items=tuple(conjunctions))


def dnf_terms(expr: ast.Expr) -> List[Tuple[ast.Expr, ...]]:
    """Return DNF as a list of conjunct tuples (one tuple per disjunct).

    Capped at :data:`MAX_DNF_TERMS` — callers here use the terms to
    *enumerate candidate indexes*, where analysing a prefix of an
    adversarially large expansion is the right trade-off (unlike a
    semantic rewrite; see :func:`to_dnf`).
    """
    terms, _truncated = _dnf_terms_with_flag(expr)
    return terms


def _dnf_terms_with_flag(
    expr: ast.Expr,
) -> Tuple[List[Tuple[ast.Expr, ...]], bool]:
    nnf = to_nnf(expr)
    truncated = [False]
    terms = _distribute(nnf, truncated)
    return terms, truncated[0]


def _distribute(
    expr: ast.Expr, truncated: List[bool]
) -> List[Tuple[ast.Expr, ...]]:
    if isinstance(expr, ast.Or):
        terms: List[Tuple[ast.Expr, ...]] = []
        for item in expr.items:
            terms.extend(_distribute(item, truncated))
            if len(terms) >= MAX_DNF_TERMS:
                if len(terms) > MAX_DNF_TERMS or item is not expr.items[-1]:
                    truncated[0] = True
                return terms[:MAX_DNF_TERMS]
        return terms
    if isinstance(expr, ast.And):
        terms = [()]
        for item in expr.items:
            item_terms = _distribute(item, truncated)
            combined: List[Tuple[ast.Expr, ...]] = []
            for prefix in terms:
                for suffix in item_terms:
                    combined.append(prefix + suffix)
                    if len(combined) >= MAX_DNF_TERMS:
                        break
                if len(combined) >= MAX_DNF_TERMS:
                    truncated[0] = True
                    break
            terms = combined
        return terms
    return [(expr,)]


def conjuncts_of(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Split a WHERE clause into top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.And):
        result: List[ast.Expr] = []
        for item in expr.items:
            result.extend(conjuncts_of(item))
        return result
    return [expr]


# ---------------------------------------------------------------------------
# Atomic predicate classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterPredicate:
    """Column-vs-constant atom, the unit of filter candidate generation.

    ``op`` is one of ``=``, ``<``, ``<=``, ``>``, ``>=``, ``<>``,
    ``between``, ``in``, ``like``, ``isnull``.
    """

    column: ast.ColumnRef
    op: str
    values: Tuple[object, ...] = ()

    @property
    def is_range(self) -> bool:
        return self.op in ("<", "<=", ">", ">=", "between", "like")


@dataclass(frozen=True)
class JoinPredicate:
    """Equi-join atom between columns of two different relations."""

    left: ast.ColumnRef
    right: ast.ColumnRef


@dataclass
class ClassifiedConjuncts:
    """The result of classifying a conjunction of atoms."""

    filters: List[FilterPredicate] = field(default_factory=list)
    joins: List[JoinPredicate] = field(default_factory=list)
    other: List[ast.Expr] = field(default_factory=list)


_CONST_TYPES = (ast.Literal, ast.Placeholder)


def _is_constantish(expr: ast.Expr) -> bool:
    """True for literals, placeholders, and arithmetic over them."""
    if isinstance(expr, _CONST_TYPES):
        return True
    if isinstance(expr, ast.Arith):
        return _is_constantish(expr.left) and _is_constantish(expr.right)
    return False


def _const_value(expr: ast.Expr) -> object:
    """Best-effort constant value for selectivity estimation.

    Placeholders (templated literals) yield None, which downstream
    estimation treats as "unknown value of known shape".
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    return None


def classify_atom(atom: ast.Expr) -> Tuple[str, object]:
    """Classify one atomic predicate.

    Returns ``("filter", FilterPredicate)``, ``("join",
    JoinPredicate)``, or ``("other", atom)``.
    """
    if isinstance(atom, ast.Comparison):
        left_col = isinstance(atom.left, ast.ColumnRef)
        right_col = isinstance(atom.right, ast.ColumnRef)
        if left_col and _is_constantish(atom.right):
            return (
                "filter",
                FilterPredicate(
                    column=atom.left,
                    op=atom.op,
                    values=(_const_value(atom.right),),
                ),
            )
        if right_col and _is_constantish(atom.left):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                atom.op, atom.op
            )
            return (
                "filter",
                FilterPredicate(
                    column=atom.right,
                    op=flipped,
                    values=(_const_value(atom.left),),
                ),
            )
        if left_col and right_col and atom.op == "=":
            left, right = atom.left, atom.right
            if left.table != right.table or left.table is None:
                return ("join", JoinPredicate(left=left, right=right))
    elif isinstance(atom, ast.Between) and isinstance(
        atom.expr, ast.ColumnRef
    ):
        if _is_constantish(atom.low) and _is_constantish(atom.high):
            return (
                "filter",
                FilterPredicate(
                    column=atom.expr,
                    op="between",
                    values=(_const_value(atom.low), _const_value(atom.high)),
                ),
            )
    elif isinstance(atom, ast.InList) and isinstance(atom.expr, ast.ColumnRef):
        if all(_is_constantish(item) for item in atom.items):
            return (
                "filter",
                FilterPredicate(
                    column=atom.expr,
                    op="in",
                    values=tuple(_const_value(item) for item in atom.items),
                ),
            )
    elif isinstance(atom, ast.Like) and isinstance(atom.expr, ast.ColumnRef):
        return (
            "filter",
            FilterPredicate(
                column=atom.expr,
                op="like",
                values=(_const_value(atom.pattern),),
            ),
        )
    elif isinstance(atom, ast.IsNull) and isinstance(atom.expr, ast.ColumnRef):
        op = "isnotnull" if atom.negated else "isnull"
        return (
            "filter",
            FilterPredicate(column=atom.expr, op=op, values=()),
        )
    return ("other", atom)


def classify_conjuncts(conjuncts: Sequence[ast.Expr]) -> ClassifiedConjuncts:
    """Classify each atom of a conjunction into filter/join/other."""
    result = ClassifiedConjuncts()
    for atom in conjuncts:
        kind, payload = classify_atom(atom)
        if kind == "filter":
            result.filters.append(payload)  # type: ignore[arg-type]
        elif kind == "join":
            result.joins.append(payload)  # type: ignore[arg-type]
        else:
            result.other.append(payload)  # type: ignore[arg-type]
    return result


def referenced_columns(node: ast.Node) -> Set[Tuple[Optional[str], str]]:
    """All ``(table, column)`` pairs referenced anywhere under ``node``."""
    columns: Set[Tuple[Optional[str], str]] = set()
    for item in ast.walk(node):
        if isinstance(item, ast.ColumnRef):
            columns.add((item.table, item.column))
    return columns
