"""Metric arithmetic and the ``BENCHMARK.json`` schema check."""

from __future__ import annotations

import json
import re
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DIRECTIONS = ("higher", "lower")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


def tail_percentile(samples, beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)``, or None when there are not
    more than ``beyond`` samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, ordered[index], n


def validate_benchmark(doc) -> list[str]:
    """Every way ``doc`` breaks the benchmark schema (empty when valid)."""
    if not isinstance(doc, dict):
        return ["BENCHMARK.json must hold an object"]
    errors = []
    if set(doc) != TOP_KEYS:
        errors.append(f"keys must be exactly {sorted(TOP_KEYS)}, "
                      f"got {sorted(doc)}")
    seconds = doc.get("run_seconds")
    if not isinstance(seconds, int) or isinstance(seconds, bool) \
            or not 1 <= seconds <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")
    seen: set[str] = set()

    def check_name(where: str, name) -> None:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            errors.append(f"{where}: bad name {name!r}")
        elif name in seen:
            errors.append(f"{where}: name {name!r} used twice")
        else:
            seen.add(name)

    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads must list 2 to 8 entries")
        workloads = []
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            errors.append(f"workload {entry!r} needs exactly name and why")
            continue
        check_name("workload", entry["name"])
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 \
                or "\n" in why:
            errors.append(f"workload {entry['name']!r}: why must be one "
                          "line of at most 200 characters")
    for key, limit, bounded in (("end_to_end", MAX_END_TO_END, True),
                                ("per_layer", MAX_PER_LAYER, False)):
        metrics = doc.get(key)
        if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
            errors.append(f"{key} must list 1 to {limit} metrics")
            continue
        fields = {"name", "unit", "better"} | ({"bound"} if bounded
                                               else set())
        for metric in metrics:
            if not isinstance(metric, dict) or set(metric) != fields:
                errors.append(f"{key} metric {metric!r} needs exactly "
                              f"{sorted(fields)}")
                continue
            check_name(key, metric["name"])
            if not isinstance(metric["unit"], str) \
                    or not UNIT.fullmatch(metric["unit"]):
                errors.append(f"{metric['name']}: bad unit "
                              f"{metric['unit']!r}")
            if metric["better"] not in DIRECTIONS:
                errors.append(f"{metric['name']}: better must be one of "
                              f"{DIRECTIONS}")
            if bounded:
                bound = metric["bound"]
                if not isinstance(bound, (int, float)) \
                        or isinstance(bound, bool) \
                        or not 0 < bound <= MAX_BOUND:
                    errors.append(f"{metric['name']}: bound must be in "
                                  f"(0, {MAX_BOUND}]")
    setup = [m for m in doc.get("end_to_end") or []
             if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    return errors


def load_benchmark(path: Path) -> dict:
    """Parse and validate ``BENCHMARK.json``; raises ValueError."""
    doc = json.loads(path.read_text())
    errors = validate_benchmark(doc)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return doc
