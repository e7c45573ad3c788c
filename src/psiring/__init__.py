"""psiring: exact workbench for the multigraded section algebras of pointed
rational curves.

Each layer is its own module, and each name is imported from the module that
defines it: `presentation` builds the quadratic presentations, `series`
expands their Hilbert series, `slices` ranks graded slices, `groebner`
completes Groebner bases and reads Krull dimensions, `koszul` computes the
Koszul-dual dimension tower, and `geometry` samples rational points
(vanishing, Jacobian ranks, singular loci).  `exactla` holds the exact
linear algebra beneath them, and `cli` runs every check as a report.
"""

__version__ = "0.1.0"
