"""Rule protocol, project context, class index and name resolver shared by rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.graph import ImportGraph
from repro.lint.source import SourceFile
from repro.lint.violations import Violation

#: Base-class names that mark a class as outside the hot-path slots contract:
#: exceptions are raised, not shipped per-event, and these stdlib shapes
#: manage their own storage.
_EXEMPT_BASES = {
    "Exception",
    "BaseException",
    "ABC",
    "Enum",
    "IntEnum",
    "Flag",
    "IntFlag",
    "NamedTuple",
    "Protocol",
    "TypedDict",
}


@dataclass(frozen=True)
class ClassInfo:
    """What HOT01 needs to know about one class definition."""

    module: str
    name: str
    lineno: int
    slotted: bool
    exempt: bool


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return ""


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            name = _base_name(decorator.func)
            if name == "dataclass":
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
    return False


def _is_exempt(cls: ast.ClassDef) -> bool:
    names = [cls.name] + [_base_name(base) for base in cls.bases]
    for name in names:
        if not name:
            continue
        if name in _EXEMPT_BASES:
            return True
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


def build_class_index(sources: List[SourceFile]) -> Dict[Tuple[str, str], ClassInfo]:
    """``(module, class name) -> ClassInfo`` over the analyzed file set."""
    index: Dict[Tuple[str, str], ClassInfo] = {}
    for src in sources:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                index[(src.module, node.name)] = ClassInfo(
                    module=src.module,
                    name=node.name,
                    lineno=node.lineno,
                    slotted=_declares_slots(node),
                    exempt=_is_exempt(node),
                )
    return index


def _dotted_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]`` when the chain roots at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def resolve_dotted(src: SourceFile, node: ast.expr) -> Optional[str]:
    """Resolve an attribute chain to its fully-qualified dotted name.

    ``np.random.normal`` resolves through ``import numpy as np`` to
    ``numpy.random.normal``; ``datetime.now`` through ``from datetime import
    datetime`` to ``datetime.datetime.now``.
    """
    chain = _dotted_chain(node)
    if not chain:
        return None
    root = chain[0]
    module = src.module_aliases.get(root)
    if module is not None:
        return ".".join([module] + chain[1:])
    imported = src.from_imports.get(root)
    if imported is not None:
        base, original = imported
        return ".".join([base, original] + chain[1:])
    return ".".join(chain)


@dataclass
class ProjectContext:
    """Everything rules may consult beyond the single file under check."""

    config: LintConfig
    sources: List[SourceFile]
    graph: ImportGraph
    classes: Dict[Tuple[str, str], ClassInfo] = field(default_factory=dict)

    def resolve_class(self, src: SourceFile, func: ast.expr) -> Optional[ClassInfo]:
        """Resolve a call target to a class in the analyzed set, if possible."""
        if isinstance(func, ast.Name):
            info = self.classes.get((src.module, func.id))
            if info is not None:
                return info
            imported = src.from_imports.get(func.id)
            if imported is not None:
                module, original = imported
                return self.classes.get((module, original))
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = src.module_aliases.get(func.value.id)
            if module is not None:
                return self.classes.get((module, func.attr))
        return None


class Rule:
    """A named check.  Subclasses override one of the two hooks."""

    id: str = ""
    summary: str = ""

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        return iter(())

    def violation(
        self,
        src: SourceFile,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=self.id,
            path=src.rel,
            line=lineno,
            col=col,
            message=message,
            symbol=symbol,
            source_line=src.line_text(lineno),
        )


class SuppressionReasonRule(Rule):
    """LINT01: every inline suppression must say why."""

    id = "LINT01"
    summary = "# repro-lint: disable=... comments must carry a '-- reason'"

    def check_file(
        self, src: SourceFile, ctx: ProjectContext
    ) -> Iterator[Violation]:
        for suppression in src.suppressions:
            if not suppression.has_reason:
                yield Violation(
                    rule=self.id,
                    path=src.rel,
                    line=suppression.line,
                    col=0,
                    message=(
                        "suppression of "
                        + ",".join(suppression.rules)
                        + " has no reason; write "
                        "'# repro-lint: disable=RULE -- why this is safe'"
                    ),
                    source_line=src.line_text(suppression.line),
                )
