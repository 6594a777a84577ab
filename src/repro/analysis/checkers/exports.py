"""REP601 export-consistency: ``__all__`` tells the truth.

Three ways an export list rots:

* a name listed in ``__all__`` that the module no longer defines or
  imports — ``from m import *`` and every doc generator break;
* a public top-level definition missing from an existing ``__all__`` — the
  module's declared surface silently diverges from its real one;
* a *re-export* (a name imported from elsewhere and published in
  ``__all__``) appearing in a non-package module without being tracked —
  that is how deprecated aliases outlive their deprecation unnoticed.

Sanctioned re-exports live in :data:`REEXPORT_REGISTRY`, keyed by path
suffix: deprecated aliases (``resolve_threshold`` kept in
``align/bwt_sw.py`` after PR 6 moved it to ``repro.scoring.evalue``) and
intentional facade re-exports.  Package ``__init__.py`` files are facades
by definition and only get the existence/duplicate checks.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import literal_str_elements, top_level_bindings
from repro.analysis.base import BaseChecker, ParsedFile, register
from repro.analysis.findings import Finding

#: (path suffix, exported name) -> why this re-export is sanctioned.
REEXPORT_REGISTRY = {
    ("align/bwt_sw.py", "resolve_threshold"): (
        "deprecated import location kept for compatibility; canonical home "
        "is repro.scoring.evalue (moved in PR 6)"
    ),
}


def _find_all(tree: ast.Module):
    """``(names_with_lines, lineno)`` of a top-level ``__all__`` list."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return literal_str_elements(node.value), node.lineno
    return None, None


@register
class ExportConsistency(BaseChecker):
    code = "REP601"
    name = "export-consistency"
    description = (
        "__all__ entries must exist, public definitions must be exported, "
        "and re-exports in non-package modules must be in the sanctioned "
        "registry"
    )
    origin = "PR 6 (resolve_threshold deprecated re-export)"

    def check(self, target: ParsedFile, config) -> Iterable[Finding]:
        severity = config.severity_of(self.code, self.default_severity)
        names, all_line = _find_all(target.tree)
        if all_line is None:
            return  # modules without __all__ declare no public surface
        if names is None:
            yield self.finding(
                target.rel,
                all_line,
                "__all__ is not a literal list of strings; the export "
                "surface cannot be checked",
                severity,
            )
            return
        defined, imported = top_level_bindings(target.tree)
        seen: set[str] = set()
        for name, line in names:
            if name in seen:
                yield self.finding(
                    target.rel, line, f"duplicate __all__ entry {name!r}",
                    severity,
                )
                continue
            seen.add(name)
            if name not in defined and name not in imported:
                yield self.finding(
                    target.rel,
                    line,
                    f"__all__ exports {name!r} but the module neither "
                    f"defines nor imports it",
                    severity,
                )
            elif name not in defined and not target.is_init():
                if not self._sanctioned(target.rel, name):
                    yield self.finding(
                        target.rel,
                        line,
                        f"{name!r} is re-exported (imported, not defined "
                        f"here) but is not in the sanctioned re-export "
                        f"registry (repro.analysis.checkers.exports."
                        f"REEXPORT_REGISTRY)",
                        severity,
                    )
        if target.is_init():
            return
        for name, line in sorted(defined.items(), key=lambda kv: kv[1]):
            if name.startswith("_") or name == "__all__":
                continue
            if name not in seen:
                yield self.finding(
                    target.rel,
                    line,
                    f"public definition {name!r} is missing from __all__",
                    severity,
                )

    @staticmethod
    def _sanctioned(rel: str, name: str) -> bool:
        return any(
            rel.endswith(suffix) and export == name
            for (suffix, export) in REEXPORT_REGISTRY
        )
