"""Exact and asymptotic computation of truncated theta series coefficients.

The package is used through its modules; the root holds only ``__version__``.

Layers:
  kernels      pure-Python big-integer loops of the exact series
  series       exact truncated integer power series and q-products
  families     the C / Cprime / D / Dprime generating functions and the
               classical identities used as oracles
  asymptotics  scaled Bessel functions and each family's one-rung
               closed-form main term, evaluated in log space
  analytic     circle-method quadrature of a block coefficient with its arc
               diagnostics
  cli          the ``theta-trunc`` command line front end
"""

__version__ = "0.1.0"
