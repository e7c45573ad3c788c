"""Variable symbols for the presentations.

Two kinds of generators appear:
  Alpha(i, j)  written a[i,j]:   value of the i-th section at the j-th marked point,
  Phi(r, i)    written phi[r,i]: value of the i-th section at the r-th extra point.
Both carry multidegree e_i (block i).  Indices are 1-based everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Alpha:
    i: int
    j: int

    @property
    def block(self) -> int:
        return self.i

    def text(self) -> str:
        return f"a[{self.i},{self.j}]"


@dataclass(frozen=True, order=True)
class Phi:
    r: int
    i: int

    @property
    def block(self) -> int:
        return self.i

    def text(self) -> str:
        return f"phi[{self.r},{self.i}]"


VarIndex = Alpha | Phi
