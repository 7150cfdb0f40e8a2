"""Bar recursion over finite sequences and finite partial functions.

Public surface: the carrier types and combinators (``pfun``), thread
construction and termination witnesses (``threads``), the instrumented
recursors (``recursors``), the countable choice solvers (``choice``), the
recursor-to-recursor translations (``interdef``), the injectivity
refutation case study (``noinjection``), and a small DSL for control
functionals (``hdsl``).
"""

from .context import (DEFAULT_FUEL, EvalContext, FuelExhausted,
                      InternalInvariantViolation, Metrics)
from .pfun import (EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn,
                   bounded_search, extend_hat)
from .threads import (ThreadStep, ThreadTrace, is_thread, spec_witness,
                      sspec_witness, theta_bound, thread_decomposition,
                      thread_of_partial, thread_of_total, trace_thread)
from .recursors import RecursorParams, br, sbr, sbr_discrete, theta
from .choice import (ChoiceParams, SpectorSolution, phi_spector,
                     psi_symmetric, psi_via_sbr, solve_spector,
                     solve_symmetric, values_equal, verify_equations)
from .interdef import (TaggedValue, YPair, br_from_sbr, carrier_stages,
                       diag_finite, diag_infinite, sbr_from_br,
                       theta_from_br)
from .noinjection import (Counterexample, builtin_dsl, builtin_h,
                          counterexample, make_choice_params,
                          verify_counterexample)
from .hdsl import ParseError, UnboundVariable, as_functional, parse, to_text

__all__ = [
    "DEFAULT_FUEL", "EvalContext", "FuelExhausted",
    "InternalInvariantViolation", "Metrics",
    "EMPTY", "EMPTY_SEQ", "FiniteSeq", "InfSeq", "PartialFn",
    "bounded_search", "extend_hat",
    "ThreadStep", "ThreadTrace", "is_thread", "spec_witness",
    "sspec_witness", "theta_bound", "thread_decomposition",
    "thread_of_partial", "thread_of_total", "trace_thread",
    "RecursorParams", "br", "sbr", "sbr_discrete", "theta",
    "ChoiceParams", "SpectorSolution", "phi_spector", "psi_symmetric",
    "psi_via_sbr", "solve_spector", "solve_symmetric", "values_equal",
    "verify_equations",
    "TaggedValue", "YPair", "br_from_sbr", "carrier_stages", "diag_finite",
    "diag_infinite", "sbr_from_br", "theta_from_br",
    "Counterexample", "builtin_dsl", "builtin_h", "counterexample",
    "make_choice_params", "verify_counterexample",
    "ParseError", "UnboundVariable", "as_functional", "parse", "to_text",
]
