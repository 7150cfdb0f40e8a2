"""Bar recursion over finite sequences and finite partial functions.

Public surface, one module each: the carrier types and combinators
(``pfun``), thread construction and termination witnesses (``threads``),
the instrumented recursors (``recursors``), the countable choice solvers
(``choice``), the recursor-to-recursor translations (``interdef``), the
injectivity refutation case study (``noinjection``), and a small DSL for
control functionals (``hdsl``).  The package re-exports nothing: import
names from their modules, as in ``from barrec.recursors import br``.
"""
