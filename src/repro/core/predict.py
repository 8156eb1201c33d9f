"""Lemma prediction from counterexamples to propagation (the paper's core).

When a lemma ``¬c2`` of frame ``F_{i-1}`` fails to be pushed to ``F_i``,
the failed SAT query produces a *counterexample to propagation* (CTP): a
successor state ``t`` with ``t ⊨ c2`` that is still reachable from
``F_{i-1}``.  :class:`CtpTable` records these states keyed by
``(lemma, level)``, exactly like the ``failure_push`` hash table of
Algorithm 2.

Later, when IC3 must block a cube ``b`` at level ``i`` and ``¬c2`` is a
*parent lemma* of ``¬b`` (``c2 ⊆ b``), :class:`LemmaPredictor` tries to
skip the literal-dropping generalization altogether:

* if ``diff(b, t) = ∅`` the cubes ``b`` and ``t`` intersect, so blocking
  ``b`` may have invalidated the CTP — try to push the parent lemma itself;
* otherwise each literal ``d ∈ diff(b, t)`` yields the candidate
  ``c3 = c2 ∪ {d}`` (Equation 6), which excludes ``t``, still contains
  ``b`` and is only one literal larger than the parent — a single
  consecution query validates it.

A failed candidate returns a fresh CTP which (optionally) refines the diff
set before the next candidate is tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.frames import FrameManager
from repro.core.options import IC3Options
from repro.core.stats import IC3Stats
from repro.logic.cube import Cube, diff


class PredictionInvariantError(AssertionError):
    """Raised in checking mode when a predicted lemma violates Section 3.2."""


@dataclass
class Prediction:
    """A successful prediction."""

    cube: Cube
    """The predicted blocked cube (the lemma is its negation)."""

    parent: Cube
    """The parent lemma's cube c2 the prediction was derived from."""

    kind: str
    """Either ``"push-parent"`` (diff set empty) or ``"extended"`` (Eq. 6)."""


class CtpTable:
    """The ``failure_push`` hash table of Algorithm 2."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[Cube, int], Cube] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[Cube, int]) -> bool:
        return key in self._entries

    def record(self, lemma_cube: Cube, level: int, successor: Cube) -> None:
        """Store the CTP successor state for a failed push of ``¬lemma_cube``."""
        self._entries[(lemma_cube, level)] = successor

    def lookup(self, lemma_cube: Cube, level: int) -> Optional[Cube]:
        """The recorded CTP state for ``(lemma, level)``, if any."""
        return self._entries.get((lemma_cube, level))

    def clear(self) -> None:
        """Drop every entry (Algorithm 2 line 44)."""
        self._entries.clear()

    def entries(self) -> Dict[Tuple[Cube, int], Cube]:
        """A copy of the table content (for inspection and tests)."""
        return dict(self._entries)


class LemmaPredictor:
    """Implements the prediction part of Algorithm 2 (lines 10-27)."""

    def __init__(self, frames: FrameManager, options: IC3Options, stats: IC3Stats):
        self.frames = frames
        self.options = options
        self.stats = stats
        self.table = CtpTable()

    # ------------------------------------------------------------------
    # Table maintenance (lines 36-38 and 43-50 of Algorithm 2)
    # ------------------------------------------------------------------
    def record_push_failure(self, lemma_cube: Cube, level: int, successor: Optional[Cube]) -> None:
        """Record the CTP obtained when ``¬lemma_cube`` failed to reach level+1."""
        if successor is None:
            return
        self.table.record(lemma_cube, level, successor)
        self.stats.ctp_recorded += 1

    def clear_table(self) -> None:
        """Clear the failure-push table (start of each propagation phase)."""
        if len(self.table):
            self.stats.ctp_table_clears += 1
        self.table.clear()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def parent_lemmas(self, cube: Cube, level: int) -> List[Cube]:
        """Parent lemmas of ``¬cube`` at ``level``: cubes of F_level \\ F_{level+1} contained in ``cube``."""
        if level < 1:
            return []
        cube_lits = cube.literal_set
        return [
            parent
            for parent in self.frames.lemmas_exactly_at(level)
            if parent.literal_set <= cube_lits
        ]

    def predict(self, bad_cube: Cube, level: int) -> Optional[Prediction]:
        """Try to predict a lemma blocking ``bad_cube`` at ``level``.

        Returns a :class:`Prediction` whose cube can be blocked at
        ``level`` (its negation is inductive relative to ``F_{level-1}``),
        or None when no usable parent lemma / candidate validates.
        """
        parents = self.parent_lemmas(bad_cube, level - 1)
        self.stats.parent_lemmas_found += len(parents)
        if not parents:
            return None

        queries_left = self.options.max_prediction_candidates
        found_ctp_parent = False

        for parent in parents:
            ctp_state = self.table.lookup(parent, level - 1)
            if ctp_state is None:
                continue  # no failed push recorded for this parent (lines 12-13)
            if not found_ctp_parent:
                found_ctp_parent = True
                self.stats.parent_lemma_hits += 1

            prediction = self._predict_from_parent(
                bad_cube, parent, ctp_state, level, queries_left
            )
            if isinstance(prediction, Prediction):
                self.stats.prediction_successes += 1
                return prediction
            queries_left = prediction
            if queries_left <= 0:
                break
        return None

    def _predict_from_parent(
        self,
        bad_cube: Cube,
        parent: Cube,
        ctp_state: Cube,
        level: int,
        queries_left: int,
    ):
        """Run lines 14-27 of Algorithm 2 for one parent lemma.

        Returns either a :class:`Prediction` or the remaining query budget.
        """
        diff_set = diff(bad_cube, ctp_state)

        if not diff_set:
            # The CTP intersects the cube being blocked: blocking bad_cube may
            # have removed the obstacle, so try to push the parent itself.
            if queries_left <= 0:
                return queries_left
            result = self.frames.consecution(level - 1, parent)
            self.stats.prediction_queries += 1
            queries_left -= 1
            if result.holds:
                self.stats.predicted_push_parent += 1
                prediction = Prediction(cube=parent, parent=parent, kind="push-parent")
                self._check_prediction(prediction, bad_cube, ctp_state)
                return prediction
            self.record_push_failure(parent, level - 1, result.successor)
            return queries_left

        # Equation 6: extend the parent cube by one literal of the diff set.
        remaining = sorted(diff_set, key=abs)
        while remaining and queries_left > 0:
            literal = remaining.pop(0)
            candidate = parent.extended(literal)
            result = self.frames.consecution(level - 1, candidate)
            self.stats.prediction_queries += 1
            queries_left -= 1
            if result.holds:
                self.stats.predicted_extended += 1
                prediction = Prediction(cube=candidate, parent=parent, kind="extended")
                self._check_prediction(prediction, bad_cube, ctp_state)
                return prediction
            # Line 27: the new counterexample successor is (very likely) another
            # CTP of the parent; eliminate candidates it also defeats.
            if self.options.refine_diff_set and result.successor is not None:
                refined = diff_set & diff(bad_cube, result.successor)
                remaining = [l for l in remaining if l in refined]
        return queries_left

    # ------------------------------------------------------------------
    def _check_prediction(self, prediction: Prediction, bad_cube: Cube, ctp_state: Cube) -> None:
        """Assert the Section 3.2 properties of a predicted cube (debug mode)."""
        if not self.options.check_predicted_lemmas:
            return
        c3 = prediction.cube
        if not prediction.parent.literal_set <= c3.literal_set:
            raise PredictionInvariantError("predicted cube does not extend its parent (Eq. 4)")
        if not c3.literal_set <= bad_cube.literal_set:
            raise PredictionInvariantError("predicted cube is not contained in the bad cube (Eq. 3)")
        if prediction.kind == "extended" and not diff(c3, ctp_state):
            raise PredictionInvariantError("predicted cube does not exclude the CTP state (Eq. 2)")
