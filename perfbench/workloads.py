"""The benchmark's three workloads, run through the production path.

Every workload is a closed loop: one client submits a whole batch,
one worker thread (``Client(workers=1, fabric=False)``) executes it,
and the program's defaults stay in force. A *round* is one pass over
the batch. Cold rounds start from empty per-process caches
(``repro.runner.worker.clear_caches``), a fresh result store and a
fresh client, so every round repeats the same work and must return
byte-identical records.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.experiments import fuzz as fuzz_harness
from repro.experiments.common import make_spec
from repro.runner import RunSpec, worker
from repro.service import Client
from repro.service.serialization import dumps_record
from repro.trace.fuzz import FuzzConfig, fuzz_corpus
from repro.utils.stats import geomean


class Sandbox:
    """Temporary directories for one benchmark run, removed at the end."""

    def __init__(self, parent: Path):
        parent.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
        self.spool = self.root / "spool"
        self.spool.mkdir()

    def fresh(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.root))

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:  # another run still uses it
            pass


class TimedClient(Client):
    """A client that notes when ``map`` starts and when each record
    comes back. The worker runs specs one after another, so the gap
    between two records is the later spec's service time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.marks: list[float] = []
        self.records: list = []

    def map(self, specs):
        self.marks.append(perf_counter())
        for record in super().map(specs):
            self.marks.append(perf_counter())
            self.records.append(record)
            yield record


@dataclass
class Round:
    """One pass over a workload's batch, as raw ``perf_counter``
    readings: spec ``i`` ran from ``marks[i]`` to ``marks[i + 1]``."""

    start: float
    end: float
    specs: int
    records: list
    marks: list[float]
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    matrix: object = None
    committed: int = 0

    @property
    def complete(self) -> bool:
        return not self.failures and len(self.records) == self.specs


def record_digest(record) -> str:
    return hashlib.sha256(dumps_record(record)).hexdigest()


def _seeds(seed: int, salt: int):
    rng = random.Random(seed * 7919 + salt)
    while True:
        yield rng.randrange(1, 2 ** 31)


class Workload:
    """Base: ``setup`` may run several times; ``round`` runs the batch."""

    name = ""
    #: Whether the generated inputs depend on ``--seed``.
    seeded = True
    #: Whether each round's records are checked against the digests.
    digest_rounds = True
    #: Whether to free the last round's garbage before the next one,
    #: rather than at a random point inside it (long cold rounds).
    collect_between_rounds = True

    def __init__(self, seed: int, sandbox: Sandbox):
        self.seed = seed
        self.sandbox = sandbox
        self.specs: list[RunSpec] = []

    def setup(self) -> None:
        self.specs = self.build_specs()
        Client(workers=1, store=self.sandbox.fresh("open-"),
               fabric=False).close()

    def build_specs(self) -> list[RunSpec]:
        raise NotImplementedError

    def submit(self, client: TimedClient) -> object:
        """Run the batch; returns the coverage matrix, if any."""
        for _ in client.map(self.specs):
            pass
        return None

    def round(self) -> Round:
        worker.clear_caches()
        store = self.sandbox.fresh("store-")
        failures: list[str] = []
        matrix = None
        start = perf_counter()
        client = TimedClient(workers=1, store=store, fabric=False)
        try:
            matrix = self.submit(client)
        except Exception as exc:  # a failed spec aborts the batch
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            client.close()
        end = perf_counter()
        shutil.rmtree(store, ignore_errors=True)
        return Round(start, end, len(self.specs), client.records,
                     client.marks, failures=failures,
                     failed=len(self.specs) - len(client.records),
                     matrix=matrix)

    def cold_records(self) -> list:
        """Records to pin, when they come from set-up (warm-store)."""
        return []

    def model(self, rnd: Round) -> dict:
        """Simulated-model metrics of one round (deterministic)."""
        return {"slowdown_geomean": geomean(
            r.slowdown for r in rnd.records)}

    def wrong_outputs(self, rnd: Round) -> tuple[int, list[str]]:
        """Workload-specific output checks: (wrong specs, reasons)."""
        return 0, []


class PaperGrid(Workload):
    """In-memory PARSEC traces x the fig 7/9 kernel mixes; each trace
    is shared by six systems."""

    name = "paper-grid"
    BENCHMARKS = ("blackscholes", "bodytrack", "dedup", "ferret",
                  "swaptions", "x264")
    SYSTEMS = ((("asan",), 4, ()), (("asan",), 12, ()),
               (("pmc",), 4, ("pmc",)), (("shadow_stack",), 4, ()),
               (("uaf",), 4, ()),
               (("asan", "pmc", "shadow_stack", "uaf"), 2, ()))
    LENGTH = 1200

    def build_specs(self) -> list[RunSpec]:
        seeds = _seeds(self.seed, 1)
        return [make_spec(bench, kernels, engines_per_kernel=engines,
                          accelerated=frozenset(ha), seed=trace_seed,
                          length=self.LENGTH)
                for bench, trace_seed in zip(self.BENCHMARKS, seeds)
                for kernels, engines, ha in self.SYSTEMS]


class FuzzCampaign(Workload):
    """The fixed-seed fuzz corpus through ``experiments.fuzz.run``."""

    name = "fuzz-campaign"
    seeded = False
    CONFIG = FuzzConfig(campaigns=6)

    def build_specs(self) -> list[RunSpec]:
        return [fuzz_harness.case_spec(case, kernel)
                for case in fuzz_corpus(self.CONFIG)
                for kernel in sorted(fuzz_harness.KERNELS)]

    def submit(self, client: TimedClient) -> object:
        matrix, _cases, _digest = fuzz_harness.run(self.CONFIG,
                                                   client=client)
        return matrix

    def model(self, rnd: Round) -> dict:
        matrix = rnd.matrix
        matching = [c for c in matrix.cells.values() if c.matching]
        injected = sum(c.injected for c in matching)
        return {"detect_recall":
                sum(c.detected for c in matching) / injected,
                "false_alarms": matrix.total_false_positives()}

    def wrong_outputs(self, rnd: Round) -> tuple[int, list[str]]:
        matrix = rnd.matrix
        if matrix is None or matrix.ok():
            return 0, []
        gaps = matrix.gaps()
        reasons = [f"coverage gap: {c.kind} x {c.kernel} on {c.family} "
                   f"{c.detected}/{c.injected}" for c in gaps]
        fps = matrix.total_false_positives()
        if fps:
            reasons.append(f"{fps} false alarms")
        return sum(c.runs for c in gaps) + fps, reasons


class WarmStore(Workload):
    """A store filled in set-up; every timed answer is a store read."""

    name = "warm-store"
    BENCHMARKS = ("blackscholes", "bodytrack", "dedup", "ferret",
                  "fluidanimate", "freqmine", "streamcluster", "x264")
    SYSTEMS = ((("asan",), 4, ()), (("pmc",), 4, ("pmc",)),
               (("shadow_stack",), 4, ()))
    LENGTH = 1000
    # Answers are compared byte for byte with the cold fill instead,
    # whose digests are checked once after set-up.
    digest_rounds = False
    collect_between_rounds = False

    def build_specs(self) -> list[RunSpec]:
        seeds = _seeds(self.seed, 4)
        return [make_spec(bench, kernels, engines_per_kernel=engines,
                          accelerated=frozenset(ha), seed=trace_seed,
                          length=self.LENGTH)
                for bench, trace_seed in zip(self.BENCHMARKS, seeds)
                for kernels, engines, ha in self.SYSTEMS]

    def setup(self) -> None:
        old = getattr(self, "store", None)
        self.specs = self.build_specs()
        worker.clear_caches()
        self.store = self.sandbox.fresh("warm-")
        with Client(workers=1, store=self.store, fabric=False) as client:
            self._cold = client.run(self.specs)
        self.cold_bytes = [dumps_record(r) for r in self._cold]
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)

    def cold_records(self) -> list:
        return self._cold

    def round(self) -> Round:
        answers = []
        failures: list[str] = []
        start = perf_counter()
        client = Client(workers=1, store=self.store, fabric=False)
        marks = [perf_counter()]
        try:
            for spec in self.specs:
                answers.append(client.submit(spec).result())
                marks.append(perf_counter())
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            client.close()
        end = perf_counter()
        executed = client.stats.executed
        rnd = Round(start, end, len(self.specs), answers, marks,
                    failures=failures,
                    failed=len(self.specs) - len(answers))
        if executed:
            rnd.failed += executed
            rnd.failures.append(f"{executed} warm answers were simulated"
                                " instead of read from the store")
        return rnd

    def wrong_outputs(self, rnd: Round) -> tuple[int, list[str]]:
        bad = sum(dumps_record(answer) != cold
                  for answer, cold in zip(rnd.records, self.cold_bytes))
        if not bad:
            return 0, []
        return bad, [f"{bad} warm answers differ from their cold records"]


WORKLOADS = {w.name: w for w in (PaperGrid, FuzzCampaign, WarmStore)}
