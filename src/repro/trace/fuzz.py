"""Seed-deterministic attack-campaign fuzzer (ROADMAP: scenario
diversity).

The paper spot-checks each guardian kernel on fixed workloads with
fixed injection mixes; this module generates an open-ended corpus
instead.  :func:`fuzz_corpus` expands a :class:`FuzzConfig` into
campaigns: each campaign draws a workload-family member
(:mod:`repro.trace.families`) and arms some of its phases with
randomized :class:`~repro.trace.attacks.AttackPlan` mixes — all four
:class:`~repro.trace.attacks.AttackKind`\\ s, including the
adversarial placements (``early``/``late``/``gap``) that park attacks
against phase boundaries, the compositor's balancing unwind returns,
and the redzones bordering the inter-phase heap gaps.  Every k-th
campaign is generated attack-free, the false-positive control.

Everything is derived from one :class:`~repro.utils.rng.
DeterministicRng` stream, so a seed fully determines the corpus: the
same :class:`FuzzConfig` produces scenarios with identical
:meth:`~repro.trace.scenario.Scenario.cache_token`\\ s, identical
composed traces, and therefore identical FGTRACE1 digests and
:class:`~repro.runner.spec.RunRecord`\\ s in any process under any
``PYTHONHASHSEED`` (pinned by ``tests/test_fuzz_properties.py``).

Coverage is guaranteed, not hoped for: campaign *i*'s primary attack
kind cycles through all four kinds and its family walks a Latin-square
schedule against that cycle, so a corpus of ``4 * len(families)``
campaigns exercises every (kind, family) pair at least once.
Secondary plans, counts, placements and profiles stay fuzzed.

Ground truth is exact, not estimated: :meth:`FuzzCase.ground_truth`
composes the scenario and returns the per-attack
:class:`~repro.trace.attacks.AttackSite` list.  The fuzz harness
(:mod:`repro.experiments.fuzz`) takes the same list from the
composition the runner executed
(:func:`repro.runner.worker.scenario_sites`) and checks it against
each record's trace digest, so the oracle the detection-coverage
matrix (:mod:`repro.analysis.coverage`) joins against executed
detections is the truth of the trace that actually ran.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import ConfigError
from repro.trace.attacks import AttackKind, AttackPlan, AttackSite
from repro.trace.families import (
    FAMILY_KINDS,
    FamilyConfig,
    make_family_scenario,
    resolve_family_profile,
)
from repro.trace.profiles import PARSEC_PROFILES, WorkloadProfile
from repro.trace.scenario import IDLE_PROFILE, Scenario, compose_trace
from repro.utils.rng import DeterministicRng

DEFAULT_FUZZ_SEED = 7

#: Campaign i's primary kind: the cycle that guarantees every kernel
#: is exercised every four campaigns.
KIND_ORDER: tuple[AttackKind, ...] = (
    AttackKind.RET_HIJACK,
    AttackKind.OOB_ACCESS,
    AttackKind.UAF_ACCESS,
    AttackKind.PMC_BOUND,
)

#: Placement draw for fuzzed plans: adversarial corners are weighted
#: equally with the paper's spread sampling.
_PLACEMENTS = ("spread", "early", "late")

#: A use-after-free plan needs the free, the ~1100-record quarantine
#: ageing gap and the dangling load inside one phase (see
#: Scenario._MIN_UAF_PHASE); armed phases are stretched to this floor.
UAF_PHASE_FLOOR = 2800

#: Profiles this allocation-light get no heap-shaped (OOB) plans —
#: there would be no live object to poke, so the plan would fuzz
#: nothing.
_MIN_OOB_ALLOC_RATE = 0.2


@dataclass(frozen=True)
class FuzzConfig:
    """The campaign generator's parameter vector.  Hashable, so a
    config can key caches; every field participates in generation and
    therefore in the corpus digest."""

    seed: int = DEFAULT_FUZZ_SEED
    campaigns: int = 8
    families: tuple[str, ...] = FAMILY_KINDS
    profiles: tuple[str, ...] = ("dedup", "swaptions", "x264",
                                 "ferret", IDLE_PROFILE.name)
    min_phase: int = 700
    max_phase: int = 1400
    min_phases: int = 2
    max_phases: int = 4
    max_plans: int = 2
    min_count: int = 2
    max_count: int = 4
    attack_free_every: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.families, tuple):
            object.__setattr__(self, "families", tuple(self.families))
        if not isinstance(self.profiles, tuple):
            object.__setattr__(self, "profiles", tuple(self.profiles))
        if self.campaigns < 1:
            raise ConfigError("fuzz config needs at least one campaign")
        for family in self.families:
            if family not in FAMILY_KINDS:
                raise ConfigError(
                    f"unknown family {family!r} in fuzz config; "
                    f"available: {sorted(FAMILY_KINDS)}")
        if not self.families:
            raise ConfigError("fuzz config needs at least one family")
        for profile in self.profiles:
            resolve_family_profile(profile)
        if len(self.profiles) < 2:
            raise ConfigError(
                "fuzz config needs at least two profiles (the "
                "oscillating/bursty families alternate two)")
        if not 400 <= self.min_phase <= self.max_phase:
            raise ConfigError(
                f"fuzz phase bounds invalid: [{self.min_phase}, "
                f"{self.max_phase}] (min 400)")
        if not 1 <= self.min_phases <= self.max_phases:
            raise ConfigError(
                f"fuzz phase-count bounds invalid: "
                f"[{self.min_phases}, {self.max_phases}]")
        if not 1 <= self.min_count <= self.max_count:
            raise ConfigError(
                f"fuzz attack-count bounds invalid: "
                f"[{self.min_count}, {self.max_count}]")
        if self.max_plans < 1:
            raise ConfigError("fuzz config needs max_plans >= 1")
        if self.attack_free_every < 0:
            raise ConfigError("attack_free_every must be >= 0 "
                              "(0 disables clean campaigns)")


@dataclass(frozen=True)
class FuzzCase:
    """One generated campaign: the scenario, the seed it composes
    under, and how it was drawn."""

    index: int
    family: str
    scenario: Scenario
    seed: int
    attack_free: bool

    def planned_kinds(self) -> frozenset[AttackKind]:
        """The attack kinds this campaign's plans request (the
        composed ground truth may fulfil fewer sites, never more
        kinds)."""
        return frozenset(plan.kind for phase in self.scenario.phases
                         for plan in phase.attacks)

    def ground_truth(self) -> tuple[AttackSite, ...]:
        """Exact per-attack ground truth: compose the scenario and
        return every injected site (id, composed seq, kind)."""
        _, sites = compose_trace(self.scenario, self.seed)
        return tuple(sites)


def _profile_alloc_rate(profile: str | WorkloadProfile) -> float:
    resolved = resolve_family_profile(profile)
    if isinstance(resolved, str):
        resolved = PARSEC_PROFILES[resolved]
    return resolved.alloc_per_kilo


def _draw_profiles(rng: DeterministicRng, config: FuzzConfig,
                   want: int) -> tuple[str, ...]:
    """``want`` distinct profile names, order-deterministic."""
    pool = list(config.profiles)
    chosen = []
    for _ in range(min(want, len(pool))):
        pick = pool[rng.randint(0, len(pool) - 1)]
        pool.remove(pick)
        chosen.append(pick)
    return tuple(chosen)


def _draw_plan(rng: DeterministicRng, config: FuzzConfig,
               kind: AttackKind) -> AttackPlan:
    placements = _PLACEMENTS + (("gap",)
                                if kind is AttackKind.OOB_ACCESS
                                else ())
    pmc_bounds = None
    if kind is AttackKind.PMC_BOUND:
        from repro.kernels.pmc import DEFAULT_BOUND_HI, DEFAULT_BOUND_LO

        pmc_bounds = (DEFAULT_BOUND_LO, DEFAULT_BOUND_HI)
    return AttackPlan(
        kind=kind,
        count=rng.randint(config.min_count, config.max_count),
        pmc_bounds=pmc_bounds,
        placement=placements[rng.randint(0, len(placements) - 1)])


def _suitable_kind(kind: AttackKind,
                   profile: str | WorkloadProfile) -> AttackKind:
    """Retarget heap-shaped plans away from allocation-starved
    profiles (there would be nothing to inject into)."""
    if kind is AttackKind.OOB_ACCESS \
            and _profile_alloc_rate(profile) < _MIN_OOB_ALLOC_RATE:
        return AttackKind.PMC_BOUND
    return kind


def _arm_phases(rng: DeterministicRng, config: FuzzConfig,
                scenario: Scenario, primary: AttackKind) -> Scenario:
    """Arm 1-2 phases of a clean family member with fuzzed plans; the
    first plan carries the campaign's primary kind, and its phase is
    drawn among those whose profile can host it (so the corpus's
    kind-coverage schedule survives allocation-starved profiles)."""
    phases = list(scenario.phases)
    armed_count = rng.randint(1, min(2, len(phases)))
    indices = list(range(len(phases)))
    first = True
    for _ in range(armed_count):
        pool = indices
        if first:
            suitable = [i for i in indices if _suitable_kind(
                primary, phases[i].profile) is primary]
            pool = suitable or indices
        pidx = pool[rng.randint(0, len(pool) - 1)]
        indices.remove(pidx)
        phase = phases[pidx]
        plans = []
        for _ in range(rng.randint(1, config.max_plans)):
            kind = primary if first else \
                KIND_ORDER[rng.randint(0, len(KIND_ORDER) - 1)]
            first = False
            kind = _suitable_kind(kind, phase.profile)
            plans.append(_draw_plan(rng, config, kind))
        length = phase.length
        if any(plan.kind is AttackKind.UAF_ACCESS for plan in plans):
            length = max(length, UAF_PHASE_FLOOR)
        phases[pidx] = replace(phase, attacks=tuple(plans),
                               length=length)
    return Scenario(name=scenario.name, phases=tuple(phases))


def fuzz_case(config: FuzzConfig, index: int) -> FuzzCase:
    """Generate campaign ``index`` of the corpus (campaigns are
    independent forks of the config seed, so any slice of the corpus
    can be regenerated without the rest)."""
    if not 0 <= index < config.campaigns:
        raise ConfigError(
            f"campaign index {index} outside the configured "
            f"{config.campaigns} campaigns")
    rng = DeterministicRng(config.seed).fork(index + 1)
    attack_free = bool(config.attack_free_every) and \
        index % config.attack_free_every == config.attack_free_every - 1
    # Latin-square schedule over the *armed* campaign ordinal: the
    # primary kind cycles with period 4 and the family walks against
    # it, so (kind, family) pairs cover the full product every
    # len(families)*4 armed campaigns.  Scheduling on the raw index
    # would alias the attack-free stride onto one kind slot and
    # silently starve that kernel of primaries.
    armed_index = index - (index // config.attack_free_every
                           if config.attack_free_every else 0)
    family = config.families[
        (armed_index + armed_index // len(KIND_ORDER))
        % len(config.families)]
    primary = KIND_ORDER[armed_index % len(KIND_ORDER)]
    want_profiles = 2 if family in ("oscillating", "bursty") \
        else 1 + rng.randint(0, 1)
    fam_config = FamilyConfig(
        family=family,
        profiles=_draw_profiles(rng, config, want_profiles),
        phases=rng.randint(config.min_phases, config.max_phases),
        phase_length=rng.randint(config.min_phase, config.max_phase),
        intensity=round(1.5 + rng.random() * 2.0, 2),
        label=f"fuzz-{config.seed}-{index:03d}-{family}")
    scenario = make_family_scenario(fam_config)
    if not attack_free:
        scenario = _arm_phases(rng, config, scenario, primary)
    compose_seed = rng.fork(0x5EED).next_u64() & 0x7FFF_FFFF
    return FuzzCase(index=index, family=family, scenario=scenario,
                    seed=compose_seed, attack_free=attack_free)


def iter_corpus(config: FuzzConfig) -> Iterator[FuzzCase]:
    for index in range(config.campaigns):
        yield fuzz_case(config, index)


def fuzz_corpus(config: FuzzConfig) -> tuple[FuzzCase, ...]:
    """The whole corpus for a config, deterministically."""
    return tuple(iter_corpus(config))


def corpus_digest(cases: tuple[FuzzCase, ...] | list[FuzzCase]) -> str:
    """A stable identity for a generated corpus: the sha256 of every
    scenario's cache token plus its compose seed.  Identical fuzz
    seeds must produce identical digests in any process — the
    seed-stability regression tests pin this."""
    payload = repr(tuple(
        (case.index, case.family, case.seed, case.attack_free,
         case.scenario.cache_token())
        for case in cases))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
