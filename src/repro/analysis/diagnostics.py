"""Structured diagnostics: the common currency of the analysis layer.

Every check — graph verifier or platform linter — reports findings as
:class:`Diagnostic` objects collected into a :class:`Report`, instead of
raising bare ``ValueError``s.  A diagnostic carries a stable code (the
key into :data:`CODES`), a severity, a location (op/tensor for graph
findings, file/line/symbol for lint findings) and an optional fix hint,
so callers can filter or render findings without parsing
message strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Severity levels, in increasing order of badness.
SEVERITIES = ("note", "warning", "error")

#: The diagnostic-code registry: code -> (default severity, title).
#: ``G``-codes come from the graph IR verifier, ``L``-codes from the
#: platform linter.  Codes are append-only: a published code never
#: changes meaning (docs and tests refer to them).
CODES: dict[str, tuple[str, str]] = {
    # -- graph verifier: topology (subsumes the legacy Graph.validate) --
    "G001": ("error", "tensor index out of range"),
    "G002": ("error", "tensor consumed before production"),
    "G003": ("error", "tensor produced twice"),
    "G004": ("error", "op writes a constant tensor"),
    "G005": ("error", "graph output is never produced"),
    "G006": ("error", "graph input/output ids out of range"),
    # -- graph verifier: shape / dtype / attribute inference --
    "G010": ("error", "inferred shape disagrees with declared shape"),
    "G011": ("error", "inferred dtype disagrees with declared dtype"),
    "G012": ("error", "missing or invalid op attribute"),
    "G013": ("error", "wrong input/output arity for opcode"),
    # -- graph verifier: quantization consistency --
    "G020": ("error", "int8 tensor is missing quantization params"),
    "G021": ("error", "zero point outside dtype bounds"),
    "G022": ("error", "non-positive quantization scale"),
    "G023": ("error", "qparams not propagated through same-scale op"),
    "G024": ("error", "per-channel scale length mismatch"),
    "G025": ("error", "int4 weight values outside the [-8, 7] packed range"),
    "G026": ("error", "int4 dtype on a non-weight tensor"),
    # -- graph verifier: liveness --
    "G030": ("warning", "dead op (output unreachable from graph output)"),
    "G031": ("warning", "activation tensor never read or written"),
    "G040": ("error", "op reads a tensor outside its lifetime window"),
    "G041": ("error", "arena assigns overlapping memory to live tensors"),
    # -- platform linter --
    "L001": ("error", "guarded attribute accessed outside its lock"),
    "L002": ("warning", "lock-acquisition-order inversion"),
    "L003": ("warning", "bare KeyError raised in API-layer code"),
    "L010": ("warning", "route registered without required metadata"),
    "L020": ("warning", "wall-clock time.time() used for a duration"),
}

#: Codes that meant something once and are never reused (no
#: :class:`Diagnostic` can carry them).  G050/G051 reported failures of
#: the graph-rewrite pass pipeline, deleted when the plan binder took
#: over its decisions.
RETIRED_CODES: dict[str, str] = {
    "G050": "optimization pass left the graph unverifiable",
    "G051": "optimization pass raised an exception",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding.  Graph findings set ``op_index``/``tensor_id``; lint
    findings set ``file``/``line``/``symbol``."""

    code: str
    message: str
    severity: str = ""  # defaults to the registry severity for ``code``
    op_index: int | None = None
    tensor_id: int | None = None
    file: str | None = None
    line: int | None = None
    symbol: str | None = None
    hint: str | None = None

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", CODES[self.code][0])
        elif self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def location(self) -> str:
        if self.file is not None:
            where = f"{self.file}:{self.line if self.line is not None else '?'}"
            return f"{where} ({self.symbol})" if self.symbol else where
        parts = []
        if self.op_index is not None:
            parts.append(f"op {self.op_index}")
        if self.tensor_id is not None:
            parts.append(f"tensor {self.tensor_id}")
        return ", ".join(parts) or "graph"

    def format(self) -> str:
        text = f"{self.severity} {self.code} [{self.location()}]: {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "op_index": self.op_index,
            "tensor_id": self.tensor_id,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "hint": self.hint,
        }


@dataclass
class Report:
    """An ordered collection of diagnostics from one analysis run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    subject: str = ""  # graph name or lint scope, for rendering

    def add(
        self, code: str, message: str, **kwargs
    ) -> Diagnostic:
        diag = Diagnostic(code=code, message=message, **kwargs)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "Report") -> "Report":
        self.diagnostics.extend(other.diagnostics)
        return self

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings don't fail a verify)."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def format(self) -> str:
        head = f"analysis report for {self.subject or '<unnamed>'}: "
        if not self.diagnostics:
            return head + "clean"
        head += f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        return "\n".join([head] + ["  " + d.format() for d in self.diagnostics])
