"""Fuzz harness: a seeded attack campaign with coverage gating.

``python -m repro.experiments.fuzz`` generates a deterministic corpus
(:mod:`repro.trace.fuzz`), runs every campaign against each guardian
kernel through the normal :class:`~repro.service.client.Client` /
:class:`~repro.runner.spec.RunSpec` path (streamed FGTRACE1
composition, result-store read-through, fabric dispatch — everything
the production path does), joins detections against the fuzzer's
exact ground truth into a :class:`~repro.analysis.coverage.
CoverageMatrix`, writes the ``COVERAGE_fuzz.json`` artifact, and
exits non-zero if any attack-kind × matching-kernel cell is
undetected or any clean record alarmed.

The ground truth is the attack-site list of the composition the runner
executed (:func:`repro.runner.worker.scenario_sites`), checked against
each record's ``trace_digest`` and injected count — so an in-process
client composes each campaign once, and the truth is tied to the trace
that actually ran.  For a process pool or the fabric, this process
composes the campaign itself, as the oracle always did.

Knobs (see EXPERIMENTS.md): ``REPRO_FUZZ_SEED``,
``REPRO_FUZZ_CAMPAIGNS``, ``REPRO_FUZZ_FAMILIES`` (comma-separated
filter), ``REPRO_FUZZ_OUT``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis.coverage import CoverageMatrix
from repro.analysis.report import format_table
from repro.experiments.common import resolve_client, stream_cells
from repro.kernels import KERNELS
from repro.runner import RunSpec
from repro.runner.worker import scenario_sites
from repro.service import Client
from repro.trace.fuzz import (
    DEFAULT_FUZZ_SEED,
    FuzzCase,
    FuzzConfig,
    corpus_digest,
    fuzz_corpus,
)

ENV_SEED = "REPRO_FUZZ_SEED"
ENV_CAMPAIGNS = "REPRO_FUZZ_CAMPAIGNS"
ENV_FAMILIES = "REPRO_FUZZ_FAMILIES"
ENV_OUT = "REPRO_FUZZ_OUT"

#: 16 campaigns = 12 armed, enough for the Latin-square schedule to
#: land every attack kind on every family at least once.
DEFAULT_CAMPAIGNS = 16
DEFAULT_OUT = "COVERAGE_fuzz.json"

#: Small engine groups keep a 4-kernel × N-campaign sweep cheap; the
#: identity grids already pin that engine count never changes
#: verdicts, only timing.
ENGINES_PER_KERNEL = 2


def env_config() -> FuzzConfig:
    """The fuzz config the environment requests."""
    kwargs: dict = {
        "seed": int(os.environ.get(ENV_SEED, DEFAULT_FUZZ_SEED)),
        "campaigns": int(os.environ.get(ENV_CAMPAIGNS,
                                        DEFAULT_CAMPAIGNS)),
    }
    families = os.environ.get(ENV_FAMILIES)
    if families:
        kwargs["families"] = tuple(
            name.strip() for name in families.split(",")
            if name.strip())
    return FuzzConfig(**kwargs)


def case_spec(case: FuzzCase, kernel: str,
              stream: bool = True) -> RunSpec:
    """The production-path spec for one (campaign, kernel) cell.

    ``length`` pins the scenario's own total so ``REPRO_TRACE_LEN``
    can never rescale a fuzzed composition away from its ground
    truth; detections are the payload, so no baseline run.
    """
    return RunSpec(benchmark=case.scenario.name,
                   kernels=(kernel,),
                   engines_per_kernel=ENGINES_PER_KERNEL,
                   seed=case.seed,
                   length=case.scenario.total_length(),
                   scenario=case.scenario,
                   stream=stream,
                   need_baseline=False)


def run(config: FuzzConfig | None = None,
        kernels: tuple[str, ...] = tuple(sorted(KERNELS)),
        stream: bool = True,
        client: Client | None = None,
        ) -> tuple[CoverageMatrix, tuple[FuzzCase, ...], str]:
    """Run the corpus; returns (matrix, cases, corpus digest)."""
    config = config if config is not None else env_config()
    client = resolve_client(client)
    cases = fuzz_corpus(config)
    digest = corpus_digest(cases)
    cells = []
    for case in cases:
        for kernel in kernels:
            spec = case_spec(case, kernel, stream=stream)
            cells.append(((case, kernel, spec), spec))
    matrix = CoverageMatrix()
    for (case, kernel, spec), record in stream_cells(cells, client):
        trace_digest, sites = scenario_sites(spec)
        if record.trace_digest != trace_digest:
            raise AssertionError(
                f"campaign {case.index} ({case.scenario.name}) ran "
                f"trace {record.trace_digest[:12] or '(in memory)'} "
                f"but the ground truth comes from "
                f"{trace_digest[:12] or '(in memory)'} — fuzzer "
                f"determinism is broken")
        if record.injected_attacks != len(sites):
            raise AssertionError(
                f"campaign {case.index} ({case.scenario.name}) "
                f"injected {record.injected_attacks} attacks in the "
                f"worker but the oracle composed {len(sites)} — "
                f"fuzzer determinism is broken")
        matrix.record(family=case.family, kernel=kernel, sites=sites,
                      result=record.result,
                      attack_free=case.attack_free)
    return matrix, cases, digest


def write_artifact(matrix: CoverageMatrix, config: FuzzConfig,
                   digest: str, path: str | Path) -> Path:
    path = Path(path)
    document = matrix.to_dict(
        seed=config.seed, campaigns=config.campaigns,
        families=list(config.families), corpus_digest=digest)
    path.write_text(json.dumps(document, indent=2, sort_keys=True)
                    + "\n")
    return path


def main() -> int:
    config = env_config()
    matrix, cases, digest = run(config)
    out = format_table(
        matrix.rows(),
        title=f"Fuzz coverage (seed={config.seed}, "
              f"{config.campaigns} campaigns, corpus "
              f"{digest[:12]})")
    print(out)
    clean = sum(1 for case in cases if case.attack_free)
    print(f"campaigns: {len(cases)} ({clean} attack-free), "
          f"families: {','.join(config.families)}")
    for kind, families in sorted(matrix.kind_families().items()):
        print(f"  {kind}: fully detected on "
              f"{len(families)} families ({', '.join(families) or '-'})")
    artifact = write_artifact(
        matrix, config, digest, os.environ.get(ENV_OUT, DEFAULT_OUT))
    print(f"wrote {artifact}")
    gaps = matrix.gaps()
    for cell in gaps:
        print(f"COVERAGE GAP: {cell.kind} x {cell.kernel} on "
              f"{cell.family}: {cell.detected}/{cell.injected} "
              f"detected")
    fps = matrix.total_false_positives()
    if fps:
        print(f"FALSE POSITIVES: {fps} clean-record alarms "
              f"({matrix.false_positives})")
    return 0 if matrix.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
