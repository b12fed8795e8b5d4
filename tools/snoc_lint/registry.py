"""Registry cross-checks: the X-macro / counter tables that must stay in
lock-step with the code that feeds them.

* Every `TraceEventKind` in the SNOC_TRACE_EVENT_KIND_LIST X-macro must
  have at least one emit site (a `TraceEventKind::K` mention in src/
  outside the vocabulary header and the exporters that merely enumerate
  kinds) and at least one test reference (enumerator or wire name in
  tests/) — an orphan kind is dead vocabulary that silently skews every
  "all kinds" table.
* Every scalar `NetworkMetrics` counter must be named in the telemetry
  metrics-summary exporter and in the invariant auditor — a counter
  missing from either escapes both the artifact record and the
  self-consistency audit.
* Every `SNOC_CHECK(level, ...)` level argument must be the literal 0, 1
  or 2 (the only levels the build system accepts).
* Every `MetricId` in the SNOC_METRIC_LIST X-macro must have at least
  one emit site (`MetricId::M` in src/, bench/ or tools/ outside the
  registry's own header/impl) and its wire name must appear in both
  committed exposition goldens (JSON and Prometheus) — an orphan metric
  is dashboard vocabulary nothing ever feeds, and a golden missing a
  wire name means the expositions drifted from the table.
* Every `BackendKind` enumerator must appear in an
  `engine-equivalence-backends:` marker inside tests/ — the marker names
  the backends the determinism suite exercises, so a backend registered
  without joining it escapes the run-twice, byte-identical-report check.
"""

from __future__ import annotations

import re

from model import Finding, Project

TRACE_HEADER = "src/sim/trace.hpp"
METRIC_REGISTRY_HEADER = "src/telemetry/metrics_registry.hpp"
METRIC_GOLDENS = ("tests/golden/metrics_registry.json.golden",
                  "tests/golden/metrics_registry.prom.golden")
METRICS_HEADER = "src/core/metrics.hpp"
AUDITOR_SOURCE = "src/check/invariant_auditor.cpp"
METRICS_EXPORTER = "src/telemetry/export.cpp"
INTERCONNECT_HEADER = "src/core/interconnect.hpp"

XMACRO_ENTRY = re.compile(r'\bX\(\s*(\w+)\s*,\s*"([^"]+)"\s*\)')
# 4-arg metric rows: X(kind, Name, "wire", "help ...").  Long rows wrap
# with a backslash continuation between Name and the wire string.
METRIC_ENTRY = re.compile(
    r'\bX\(\s*(counter|gauge|histogram)\s*,\s*(\w+)\s*,[\s\\]*"([^"]+)"')
METRICS_FIELD = re.compile(r"^\s*std::size_t\s+(\w+)\s*\{0\}\s*;", re.MULTILINE)
SNOC_CHECK_CALL = re.compile(r"\bSNOC_CHECK\(\s*([^,\s][^,]*?)\s*,")
BACKEND_ENUMERATOR = re.compile(r"^\s*([A-Z]\w*)\s*,", re.MULTILINE)
EQUIVALENCE_MARKER = re.compile(r"engine-equivalence-backends:\s*([a-z][a-z ]*)")


def parse_backend_kinds(project: Project) -> list[str]:
    header = project.files.get(INTERCONNECT_HEADER)
    if header is None:
        return []
    # X-macro shape first: the SNOC_BACKEND_KIND_LIST rows up to the enum
    # that expands them.  (Scan raw text — the rows carry comments.)
    start = header.raw.find("SNOC_BACKEND_KIND_LIST(X)")
    if start >= 0:
        end = header.raw.find("enum class BackendKind", start)
        region = header.raw[start:end if end > 0 else len(header.raw)]
        names = [name for name, _wire in XMACRO_ENTRY.findall(region)]
        if names:
            return names
    # Fallback: a hand-written enum body.
    start = header.code.find("enum class BackendKind")
    if start < 0:
        return []
    end = header.code.find("};", start)
    region = header.code[start:end if end > 0 else len(header.code)]
    return BACKEND_ENUMERATOR.findall(region)


def parse_trace_kinds(project: Project) -> list[tuple[str, str]]:
    header = project.files.get(TRACE_HEADER)
    if header is None:
        return []
    start = header.raw.find("SNOC_TRACE_EVENT_KIND_LIST(X)")
    if start < 0:
        return []
    end = header.raw.find("enum class TraceEventKind", start)
    region = header.raw[start:end if end > 0 else len(header.raw)]
    return XMACRO_ENTRY.findall(region)


def parse_metric_entries(project: Project) -> list[tuple[str, str, str]]:
    """(kind, enumerator, wire) rows of SNOC_METRIC_LIST, in table order."""
    header = project.files.get(METRIC_REGISTRY_HEADER)
    if header is None:
        return []
    start = header.raw.find("#define SNOC_METRIC_LIST(X)")
    if start < 0:
        return []
    end = header.raw.find("enum class MetricId", start)
    region = header.raw[start:end if end > 0 else len(header.raw)]
    return METRIC_ENTRY.findall(region)


def parse_metrics_counters(project: Project) -> list[str]:
    header = project.files.get(METRICS_HEADER)
    if header is None:
        return []
    start = header.code.find("struct NetworkMetrics")
    if start < 0:
        return []
    return METRICS_FIELD.findall(header.code[start:])


def check_registries(project: Project) -> list[Finding]:
    findings: list[Finding] = []

    kinds = parse_trace_kinds(project)
    if kinds:
        # Emit sites: src/ minus the vocabulary header/impl and the
        # telemetry layer (exporters enumerate every kind by design, so
        # counting them would make any kind look alive).
        emit_text = "\n".join(
            f.code for f in project.by_top("src")
            if not f.rel.startswith(("src/sim/trace.", "src/telemetry/")))
        test_code = "\n".join(f.code for f in project.by_top("tests"))
        test_raw = "\n".join(f.raw for f in project.by_top("tests"))
        for name, wire in kinds:
            if f"TraceEventKind::{name}" not in emit_text:
                findings.append(Finding(
                    rule="registry-event-emit", file=TRACE_HEADER, line=0,
                    message=f"TraceEventKind::{name} has no emit site in src/ "
                            "(outside trace.hpp and the exporters); dead "
                            "vocabulary skews every all-kinds table",
                    key=f"emit:{name}"))
            if (f"TraceEventKind::{name}" not in test_code
                    and f'"{wire}"' not in test_raw):
                findings.append(Finding(
                    rule="registry-event-test", file=TRACE_HEADER, line=0,
                    message=f"TraceEventKind::{name} (wire \"{wire}\") is "
                            "never referenced by a test in tests/",
                    key=f"test:{name}"))

    counters = parse_metrics_counters(project)
    if counters:
        exporter = project.files.get(METRICS_EXPORTER)
        auditor = project.files.get(AUDITOR_SOURCE)
        for counter in counters:
            if exporter is not None and \
                    not re.search(rf"\b{counter}\b", exporter.code):
                findings.append(Finding(
                    rule="registry-metrics-telemetry", file=METRICS_HEADER,
                    line=0,
                    message=f"NetworkMetrics::{counter} is missing from the "
                            f"metrics summary exporter ({METRICS_EXPORTER})",
                    key=f"telemetry:{counter}"))
            if auditor is not None and \
                    not re.search(rf"\b{counter}\b", auditor.code):
                findings.append(Finding(
                    rule="registry-metrics-audit", file=METRICS_HEADER, line=0,
                    message=f"NetworkMetrics::{counter} is missing from the "
                            f"invariant auditor's self-consistency/"
                            f"monotonicity checks ({AUDITOR_SOURCE})",
                    key=f"audit:{counter}"))

    metrics = parse_metric_entries(project)
    if metrics:
        # Emit sites: anywhere in src/, bench/ or tools/ except the
        # registry's own header/impl (which enumerates every id by
        # construction, so counting it would make any metric look alive).
        emit_text = "\n".join(
            f.code for f in project.by_top("src", "bench", "tools")
            if not f.rel.startswith("src/telemetry/metrics_registry."))
        goldens = {}
        for rel in METRIC_GOLDENS:
            path = project.root / rel
            if path.exists():
                goldens[rel] = path.read_text()
            else:
                findings.append(Finding(
                    rule="registry-metric-exposition",
                    file=METRIC_REGISTRY_HEADER, line=0,
                    message=f"exposition golden {rel} is missing — run "
                            "test_metrics_registry with SNOC_UPDATE_GOLDEN=1 "
                            "to capture it",
                    key=f"metric-golden:{rel}"))
        for kind, name, wire in metrics:
            if f"MetricId::{name}" not in emit_text:
                findings.append(Finding(
                    rule="registry-metric-emit",
                    file=METRIC_REGISTRY_HEADER, line=0,
                    message=f"MetricId::{name} ({kind} \"{wire}\") has no "
                            "emit site outside the registry itself — an "
                            "orphan metric is dashboard vocabulary nothing "
                            "ever feeds",
                    key=f"metric-emit:{name}"))
            for rel, text in goldens.items():
                if wire not in text:
                    findings.append(Finding(
                        rule="registry-metric-exposition",
                        file=METRIC_REGISTRY_HEADER, line=0,
                        message=f"metric \"{wire}\" is missing from {rel} — "
                                "the committed exposition drifted from "
                                "SNOC_METRIC_LIST; refresh the golden",
                        key=f"metric-exposition:{wire}:{rel}"))

    backends = parse_backend_kinds(project)
    if backends:
        # The markers live in comments, so scan raw test text; every
        # marker found contributes its backend names (several suites may
        # split coverage between them).
        covered: set[str] = set()
        for f in project.by_top("tests"):
            for m in EQUIVALENCE_MARKER.finditer(f.raw):
                covered.update(m.group(1).split())
        for name in backends:
            if name.lower() not in covered:
                findings.append(Finding(
                    rule="registry-backend-equivalence",
                    file=INTERCONNECT_HEADER, line=0,
                    message=f"BackendKind::{name} is missing from every "
                            "engine-equivalence-backends marker in tests/ — "
                            "extend the engine-equivalence suite to cover the "
                            "new backend and add it to the marker list",
                    key=f"backend:{name}"))

    define_line = re.compile(r"^\s*#\s*define\b")
    for src in project.by_top("src", "bench", "tests"):
        for lineno, line in enumerate(src.code_lines(), 1):
            if define_line.match(line):  # the macro's own definition.
                continue
            for m in SNOC_CHECK_CALL.finditer(line):
                level = m.group(1).strip()
                if level not in {"0", "1", "2"}:
                    findings.append(Finding(
                        rule="check-level", file=src.rel, line=lineno,
                        message=f"SNOC_CHECK level '{level}' is not the "
                                "literal 0, 1 or 2 (the only levels "
                                "SNOC_CHECK_LEVEL accepts)",
                        key=f"level:{level}"))
    return findings
