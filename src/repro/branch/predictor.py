"""Front-end predictor combining TAGE, BTB, and RAS.

The OoO core's verdict for every control-flow instruction comes from
here: :meth:`~repro.ooo.core.MainCore.prepare` walks the trace through
the predictor once, in the record order dispatch follows, and every
run replays those verdicts.  A wrong direction or target costs a
redirect (the pipeline-depth penalty configured in the core
parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.btb import Btb
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage import TageParams, TagePredictor
from repro.isa.opcodes import InstrClass


@dataclass(frozen=True)
class PredictorParams:
    tage: TageParams = field(default_factory=TageParams)
    btb_entries: int = 256
    ras_entries: int = 32


class FrontEndPredictor:
    """Predicts each control-flow instruction; reports mispredicts."""

    def __init__(self, params: PredictorParams | None = None):
        self.params = params or PredictorParams()
        self.tage = TagePredictor(self.params.tage)
        self.btb = Btb(self.params.btb_entries)
        self.ras = ReturnAddressStack(self.params.ras_entries)
        self.stat_branches = 0
        self.stat_mispredicts = 0

    def reset(self) -> None:
        """Untrained predictor: rebuild TAGE/BTB/RAS from parameters."""
        self.tage = TagePredictor(self.params.tage)
        self.btb = Btb(self.params.btb_entries)
        self.ras = ReturnAddressStack(self.params.ras_entries)
        self.stat_branches = 0
        self.stat_mispredicts = 0

    def predict_and_train(self, iclass: InstrClass, pc: int, taken: bool,
                          target: int) -> bool:
        """Predict the instruction, train on the actual outcome, and
        return True when the prediction was wrong (redirect needed).

        ``taken``/``target`` are the architectural outcomes from the
        trace (the simulator is trace-driven, so the oracle outcome is
        known; the predictor decides whether the front end would have
        followed it without a redirect).
        """
        self.stat_branches += 1
        mispredicted = False

        if iclass is InstrClass.BRANCH:
            predicted_taken = self.tage.predict(pc)
            self.tage.update(pc, taken)
            mispredicted = predicted_taken != taken
        elif iclass is InstrClass.CALL:
            # Direct calls always predict; push the return address.
            self.ras.push(pc + 4)
            predicted_target = self.btb.predict(pc)
            if predicted_target != target:
                mispredicted = predicted_target is not None or self._is_indirect(pc)
            self.btb.update(pc, target)
        elif iclass is InstrClass.RET:
            predicted_target = self.ras.pop()
            mispredicted = predicted_target != target
        elif iclass is InstrClass.JUMP:
            predicted_target = self.btb.predict(pc)
            mispredicted = predicted_target != target
            self.btb.update(pc, target)

        if mispredicted:
            self.stat_mispredicts += 1
        return mispredicted

    @staticmethod
    def _is_indirect(pc: int) -> bool:
        # Direct jal calls are decoded in the front end and never
        # mispredict the target; the trace does not distinguish them,
        # so treat first-sighting direct calls as predictable.
        return False

    @property
    def mispredict_rate(self) -> float:
        if not self.stat_branches:
            return 0.0
        return self.stat_mispredicts / self.stat_branches
