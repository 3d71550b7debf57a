"""Concurrent proportional imitation *without* elasticity damping.

Section 2.3 of the paper motivates the ``1/d`` damping factor with a two-link
example: with a constant link and an ``x**d`` link, an undamped
proportional-imitation rule lets an expected ``Theta(b * d)`` latency mass
flood the fast link and overshoot the balanced state by a factor ``d``.  This
module packages the undamped rule as a first-class baseline protocol so that
the overshooting ablation (experiment E5) can run both rules through exactly
the same engine.

Two variants are exported:

* :class:`ProportionalImitationProtocol` — migration probability
  ``lambda * (l_P - l_Q(x+1_Q-1_P)) / l_P`` with the usual ``nu`` threshold;
* :func:`make_aggressive_proportional_protocol` — the same rule with
  ``lambda = 1`` and no threshold, the most aggressive (and most
  overshoot-prone) member of the family.
"""

from __future__ import annotations

from ..core.imitation import UndampedImitationProtocol

__all__ = ["ProportionalImitationProtocol", "make_aggressive_proportional_protocol"]


class ProportionalImitationProtocol(UndampedImitationProtocol):
    """Alias of :class:`~repro.core.imitation.UndampedImitationProtocol`.

    Kept as a distinct name so experiment tables can talk about the baseline
    without referencing the internals of the core package.  Its rule, the
    inherited :meth:`~repro.core.imitation.ImitationProtocol.kernel_components`
    with damping 1, runs on every engine like the paper's protocols.
    """

    name = "proportional-imitation"


def make_aggressive_proportional_protocol() -> ProportionalImitationProtocol:
    """The fully undamped, threshold-free proportional imitation rule
    (``lambda = 1``), maximising the overshooting effect."""
    return ProportionalImitationProtocol(1.0, use_nu_threshold=False)
