"""The paper's rigorous analytical framework (§4, §5, Appendices D–H).

* :mod:`repro.analysis.balls_bins` — closed-form balls-into-bins
  probabilities (ideal case, type I/II exceptions of §2.3).
* :mod:`repro.analysis.markov` — the Markov-chain transition matrix ``M``
  computed by the Appendix-E dynamic program over sub-states ``(i, j, k)``.
* :mod:`repro.analysis.success` — ``Pr[x ->r 0]``, the per-group success
  probability ``alpha(n, t)`` and the rigorous lower bound
  ``1 - 2(1 - alpha^g)`` on ``Pr[R <= r]`` (Appendix F).
* :mod:`repro.analysis.optimizer` — the (n, t) parameter optimization of
  §5.1/Appendix H and the target-rounds sweep of §5.2.
* :mod:`repro.analysis.piecewise` — expected per-round reconciled fractions
  (§5.3, Appendix G).
* :mod:`repro.analysis.overhead` — analytic communication-overhead formulas
  for PBS, PinSketch(/WP) and D.Digest (Formula (1), §8.3).
"""
