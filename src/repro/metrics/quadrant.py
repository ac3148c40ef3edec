"""The 2x2 quadrant table and the paper's four diagnostic-test metrics.

Section 2 of the paper recasts confidence estimation as a screening
test: every dynamic branch lands in one quadrant of

    =====  =========  =========
    .      correct    incorrect
    HC     C_HC       I_HC
    LC     C_LC       I_LC
    =====  =========  =========

and four "higher is better" statistics summarise an estimator:

* SENS = P[HC|C]  -- correct predictions tagged high-confidence
* PVP  = P[C|HC]  -- high-confidence tags that are right
* SPEC = P[LC|I]  -- mispredictions tagged low-confidence
* PVN  = P[I|LC]  -- low-confidence tags that are right

SENS and SPEC are properties of the correct / incorrect populations
alone and therefore independent of predictor accuracy; PVP and PVN mix
in the accuracy ``p`` (see :mod:`repro.metrics.parametric` for the
closed forms behind the paper's Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: ratio name -> (numerator, denominator population), each a cell or a
#: population sum of :class:`QuadrantCounts`.  A ratio is *undefined*
#: (``None``) when its denominator population is empty -- e.g. PVN for
#: an estimator that never emits a low-confidence tag.
METRIC_POPULATIONS = {
    "sens": ("c_hc", "correct"),
    "spec": ("i_lc", "incorrect"),
    "pvp": ("c_hc", "high_confidence"),
    "pvn": ("i_lc", "low_confidence"),
    "accuracy": ("correct", "total"),
    "misprediction_rate": ("incorrect", "total"),
    "coverage": ("low_confidence", "total"),
    "confidence_misprediction_rate": ("misestimated", "total"),
}


@dataclass
class QuadrantCounts:
    """Counts (or normalised frequencies) of the four outcomes.

    Every ratio is ``None`` when its denominator population is empty:
    an estimator that never emits LC has *no* PVN, which the paper
    treats as undefined, not as zero.  Renderers map ``None`` to
    ``n/a`` (see :func:`repro.harness.tables.pct`).
    """

    c_hc: float = 0.0
    i_hc: float = 0.0
    c_lc: float = 0.0
    i_lc: float = 0.0

    def __post_init__(self) -> None:
        for name in ("c_hc", "i_hc", "c_lc", "i_lc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    # population sums
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        return self.c_hc + self.i_hc + self.c_lc + self.i_lc

    @property
    def correct(self) -> float:
        """Correctly predicted branches (irrespective of confidence)."""
        return self.c_hc + self.c_lc

    @property
    def incorrect(self) -> float:
        return self.i_hc + self.i_lc

    @property
    def high_confidence(self) -> float:
        return self.c_hc + self.i_hc

    @property
    def low_confidence(self) -> float:
        return self.c_lc + self.i_lc

    @property
    def misestimated(self) -> float:
        """Branches whose confidence tag disagrees with the outcome."""
        return self.i_hc + self.c_lc

    # ------------------------------------------------------------------
    # the paper's four metrics
    # ------------------------------------------------------------------

    @property
    def sens(self) -> Optional[float]:
        """Sensitivity P[HC|C]."""
        return self._ratio("sens")

    @property
    def pvp(self) -> Optional[float]:
        """Predictive value of a positive test, P[C|HC]."""
        return self._ratio("pvp")

    @property
    def spec(self) -> Optional[float]:
        """Specificity P[LC|I]."""
        return self._ratio("spec")

    @property
    def pvn(self) -> Optional[float]:
        """Predictive value of a negative test, P[I|LC]."""
        return self._ratio("pvn")

    # ------------------------------------------------------------------
    # auxiliary statistics
    # ------------------------------------------------------------------

    @property
    def accuracy(self) -> Optional[float]:
        """Branch prediction accuracy p (independent of the estimator)."""
        return self._ratio("accuracy")

    @property
    def misprediction_rate(self) -> Optional[float]:
        return self._ratio("misprediction_rate")

    @property
    def coverage(self) -> Optional[float]:
        """Jacobsen et al.'s coverage: fraction of branches tagged LC."""
        return self._ratio("coverage")

    @property
    def confidence_misprediction_rate(self) -> Optional[float]:
        """Jacobsen et al.'s single-number metric (estimator "wrong"
        whenever it disagrees with the eventual outcome); kept for
        comparison, the paper argues it conflates HC and LC uses."""
        return self._ratio("confidence_misprediction_rate")

    def _ratio(self, name: str) -> Optional[float]:
        numerator, denominator = METRIC_POPULATIONS[name]
        population = getattr(self, denominator)
        return getattr(self, numerator) / population if population else None

    # ------------------------------------------------------------------
    # construction and arithmetic
    # ------------------------------------------------------------------

    def record(self, correct: bool, high_confidence: bool, weight: float = 1.0) -> None:
        """Accumulate one assessed branch into the table."""
        if high_confidence:
            if correct:
                self.c_hc += weight
            else:
                self.i_hc += weight
        elif correct:
            self.c_lc += weight
        else:
            self.i_lc += weight

    def normalized(self) -> "QuadrantCounts":
        """Frequencies summing to one (the paper's presentation)."""
        total = self.total
        if total == 0:
            return QuadrantCounts()
        return QuadrantCounts(
            c_hc=self.c_hc / total,
            i_hc=self.i_hc / total,
            c_lc=self.c_lc / total,
            i_lc=self.i_lc / total,
        )

    def __add__(self, other: "QuadrantCounts") -> "QuadrantCounts":
        return QuadrantCounts(
            c_hc=self.c_hc + other.c_hc,
            i_hc=self.i_hc + other.i_hc,
            c_lc=self.c_lc + other.c_lc,
            i_lc=self.i_lc + other.i_lc,
        )

    def summary(self) -> str:
        """One-line rendering used by examples and the CLI; an
        undefined ratio renders as ``n/a`` rather than ``0.0%``."""

        def fmt(value: Optional[float], decimals: int = 1) -> str:
            return "   n/a" if value is None else f"{value:6.{decimals}%}"

        return (
            f"sens={fmt(self.sens)} spec={fmt(self.spec)} "
            f"pvp={fmt(self.pvp)} pvn={fmt(self.pvn)} "
            f"(accuracy={fmt(self.accuracy, 2)}, n={self.total:.0f})"
        )
