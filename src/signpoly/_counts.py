"""What the library did, counted where it happens.

Every layer adds its own work to :data:`COUNTS`, the current
:class:`_Counts`, under these names:

- the simplex kernel (:mod:`signpoly.simplex`): phase-1 ``solves``,
  phase-2 loops (``rays``) and the rays ``_ray_maxima`` ``stopped``
  early; pivots by where they happen (``phase1``, ``drive_out`` of the
  artificials, ``phase2``); pricing ``passes``, the columns of a matrix
  ``priced``, the passes priced by one sort (``sorts``), ``aimed``
  entries and the passes that applied Bland's rule (``bland``); and
  basis inversions (``phase1_inversions``: phase 1's refreshes and the
  rebuild that ends it; ``phase2_inversions``: phase 2's refreshes;
  ``batch_inversions``).  A pivot loop adds its pivots and passes once,
  when it ends or raises; every inversion is counted by
  ``simplex._invert_into``, the one caller of ``np.linalg.inv``;
- the enumerator (:mod:`signpoly._enum`): the ``blocks``
  ``signed_arrangements`` yields and the rows they hold (``streamed``),
  the block descriptions ``_descriptions`` builds (``described``; a
  cached shape is not described again), and the rows ``SignBlock.rows``
  builds (``built``);
- the quantum layer (:mod:`signpoly.quantum`): the matrices
  ``_check_states`` checks (``checked``), the hyperdeterminants
  ``_cayley`` computes (``determinants``), and the chart rows
  ``_pure_chart_states`` passes to ``eigvalsh`` (``diagonalized``);
- majorization (:mod:`signpoly.majorization`): each verdict of
  ``_majorized`` by the rule that settled it, the largest entries
  (``largest``), entrywise domination (``dominated``) or the partial
  sums (``sums``).

:func:`_counting` installs fresh counts for a block of code by
rebinding :data:`COUNTS`, so a writer reads ``_counts.COUNTS`` when it
counts, never a name bound at import.  Counting has no off switch:
outside any :func:`_counting` block the counts go to a default
:class:`_Counts` that no one reads.  This module imports nothing from
``signpoly``, so every layer can import it.
"""

from __future__ import annotations

import contextlib


class _Counts:
    """What the library did (see the module docstring), in plain ints."""

    __slots__ = (
        # simplex
        "solves", "rays", "stopped", "phase1", "drive_out", "phase2", "passes", "priced",
        "sorts", "aimed", "bland", "phase1_inversions", "phase2_inversions",
        "batch_inversions",
        # _enum
        "blocks", "streamed", "described", "built",
        # quantum
        "checked", "determinants", "diagonalized",
        # majorization
        "largest", "dominated", "sums")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def pivots(self):
        return self.phase1 + self.drive_out + self.phase2


COUNTS = _Counts()


@contextlib.contextmanager
def _counting():
    """Count the library's work inside the block into fresh
    :class:`_Counts`, which it yields; a nested block's work goes to that
    block's alone."""
    global COUNTS
    outer, COUNTS = COUNTS, _Counts()
    try:
        yield COUNTS
    finally:
        COUNTS = outer
