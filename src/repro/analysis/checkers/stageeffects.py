"""Stage-effect contracts: stages declare what they may do, verified.

The tuning pipeline's stages have a strict effect discipline —
Observe may drop spilled indexes and flush caches, Diagnose and
Candidates are pure, Search may consume the RNG, and **only Apply**
may create indexes.  Until now that discipline lived in review
comments.  This rule makes it declarative and machine-checked: a
stage class carries a contract comment in its body::

    class ObserveStage:
        # effect: allows[ddl-drop, cache-invalidate]
        def run(self, ctx): ...

and the checker walks everything transitively reachable from the
stage's ``run`` method, classifies backend protocol calls, cache
flushes, RNG draws and template-store writes against the
:data:`~repro.analysis.checkers._domain.EFFECT_VOCABULARY`, and flags
any effect the contract does not allow — at the offending call site,
with the call chain that reaches it.  A ``*Stage`` class with a
``run`` method in the core layer *must* carry a contract; an unknown
vocabulary token in a contract is itself a violation.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.checkers._domain import (
    EFFECT_VOCABULARY,
    backend_effect_of,
    is_backend_protocol,
    is_store_class,
    render_chain,
)
from repro.analysis.core import (
    ModuleInfo,
    ProjectChecker,
    ProjectContext,
    Violation,
    register,
)
from repro.analysis.effects import EffectIndex, has_cache_hint
from repro.analysis.graph import module_name_for

_CONTRACT_RE = re.compile(r"#\s*effect:\s*allows\[([^\]]*)\]")


def _contracts_in(
    module: ModuleInfo,
) -> Dict[str, Tuple[Set[str], int, Tuple[str, ...]]]:
    """Map class name → (allowed effects, contract line, raw tokens).

    A contract comment binds to the innermost class whose body spans
    its line, so nested helper classes can carry their own contracts.
    """
    classes: List[ast.ClassDef] = [
        node
        for node in module.nodes
        if isinstance(node, ast.ClassDef)
    ]
    contracts: Dict[str, Tuple[Set[str], int, Tuple[str, ...]]] = {}
    for lineno, text in module.comments:
        match = _CONTRACT_RE.search(text)
        if match is None:
            continue
        owner: Optional[ast.ClassDef] = None
        for cls in classes:
            end = cls.end_lineno or cls.lineno
            if cls.lineno <= lineno <= end:
                if owner is None or cls.lineno > owner.lineno:
                    owner = cls
        if owner is None:
            continue
        tokens = tuple(
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        )
        contracts[owner.name] = (set(tokens), lineno, tokens)
    return contracts


def _stage_classes(module: ModuleInfo) -> List[ast.ClassDef]:
    """Top-level ``*Stage`` classes with a ``run`` method."""
    stages: List[ast.ClassDef] = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Stage"):
            continue
        has_run = any(
            isinstance(stmt, ast.FunctionDef) and stmt.name == "run"
            for stmt in node.body
        )
        if has_run:
            stages.append(node)
    return stages


@register
class StageEffectsChecker(ProjectChecker):
    name = "stage-effects"
    description = (
        "pipeline stages must declare '# effect: allows[...]' "
        "contracts and stay within them transitively; only Apply may "
        "perform DDL-create"
    )
    rationale = (
        "The pipeline's effect discipline (Observe drops/flushes,\n"
        "Diagnose and Candidates are pure, Search draws the RNG, only\n"
        "Apply creates indexes) used to live in review comments. The\n"
        "contract comment makes it declarative; this rule walks every\n"
        "function reachable from the stage's run() and flags any\n"
        "backend call, cache flush, RNG draw or store write the\n"
        "contract does not allow -- so a helper three calls deep\n"
        "cannot smuggle DDL into an observation pass."
    )
    example = (
        "src/repro/core/pipeline.py:88: [stage-effects] ObserveStage "
        "run() reaches backend.create_index (ddl-create), not in its "
        "contract allows[ddl-drop, cache-invalidate] (via run -> "
        "_refresh)"
    )

    def check_project(self, ctx: ProjectContext) -> Iterable[Violation]:
        effects = ctx.effects
        if effects is None:
            return []
        violations: List[Violation] = []
        for rel_path in sorted(ctx.modules):
            module = ctx.modules[rel_path]
            contracts = _contracts_in(module)
            stages = _stage_classes(module)
            mod_name = module_name_for(rel_path)
            contracted: Set[str] = set()
            for stage in stages:
                if module.layer == "core" and stage.name not in contracts:
                    violations.append(
                        Violation(
                            rule=self.name,
                            path=rel_path,
                            line=stage.lineno,
                            message=(
                                f"stage class '{stage.name}' has no "
                                f"effect contract; declare "
                                f"'# effect: allows[...]' in the "
                                f"class body (allowed vocabulary: "
                                f"{', '.join(EFFECT_VOCABULARY)})"
                            ),
                        )
                    )
            for class_name in sorted(contracts):
                allows, contract_line, tokens = contracts[class_name]
                contracted.add(class_name)
                unknown = [
                    t for t in tokens if t not in EFFECT_VOCABULARY
                ]
                if unknown:
                    violations.append(
                        Violation(
                            rule=self.name,
                            path=rel_path,
                            line=contract_line,
                            message=(
                                f"unknown effect token(s) "
                                f"{', '.join(unknown)} in contract "
                                f"of '{class_name}' (vocabulary: "
                                f"{', '.join(EFFECT_VOCABULARY)})"
                            ),
                        )
                    )
                    continue
                entry = f"{mod_name}:{class_name}.run"
                violations.extend(
                    self._verify(
                        effects, class_name, entry, allows
                    )
                )
        return violations

    # -- contract verification ----------------------------------------------

    def _verify(
        self,
        effects: EffectIndex,
        class_name: str,
        entry: str,
        allows: Set[str],
    ) -> Iterable[Violation]:
        reached, protocol_calls = effects.walk_from(entry)
        allow_text = f"allows[{', '.join(sorted(allows))}]"

        def forbid(
            effect: str,
            path: str,
            line: int,
            what: str,
            chain: Tuple[str, ...],
        ) -> Violation:
            return Violation(
                rule=self.name,
                path=path,
                line=line,
                message=(
                    f"{class_name} run() reaches {what} ({effect}), "
                    f"not in its contract {allow_text} "
                    f"(via {render_chain(chain)})"
                ),
            )

        for call, chain in protocol_calls:
            if not is_backend_protocol(call.protocol):
                continue
            effect = backend_effect_of(call.method)
            if effect is None or effect in allows:
                continue
            caller = effects.functions.get(call.caller)
            yield forbid(
                effect,
                caller.rel_path if caller is not None else "",
                call.line,
                f"backend.{call.method}",
                chain,
            )
        for node in reached:
            fn = node.effects
            if "cache-invalidate" not in allows:
                for method, line in fn.invalidate_calls:
                    yield forbid(
                        "cache-invalidate",
                        fn.rel_path,
                        line,
                        f"{method}()",
                        node.chain,
                    )
            if "rng" not in allows:
                for line in fn.rng_draws:
                    yield forbid(
                        "rng", fn.rel_path, line, "an rng draw",
                        node.chain,
                    )
            if "store-write" in allows:
                continue
            if (
                fn.cls is not None
                and is_store_class(fn.cls)
                and not fn.is_init
            ):
                for write in fn.self_writes:
                    if write.kind == "aug" or has_cache_hint(write.attr):
                        continue
                    yield forbid(
                        "store-write",
                        fn.rel_path,
                        write.line,
                        f"a write to TemplateStore.{write.attr}",
                        node.chain,
                    )
            for typed in fn.typed_writes:
                resolved = effects.resolve_type(typed.cls)
                if resolved is None or not is_store_class(resolved):
                    continue
                if typed.kind == "aug" or has_cache_hint(typed.attr):
                    continue
                yield forbid(
                    "store-write",
                    fn.rel_path,
                    typed.line,
                    f"a write to TemplateStore.{typed.attr}",
                    node.chain,
                )
