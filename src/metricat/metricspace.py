"""Classical finite metric spaces over exact rationals.

These are the feedstock for the indiscrete embedding and for the geometry
operations (Hausdorff, Gromov-Hausdorff, bi-Lipschitz).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .weight import common_denominator


@dataclass(eq=True)
class FiniteMetricSpace:
    points: tuple[str, ...]
    d: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_matrix(cls, points, matrix) -> "FiniteMetricSpace":
        pts = tuple(str(p) for p in points)
        rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        space = cls(pts, rows)
        errs = space.metric_errors()
        if errs:
            raise ValueError("not a metric space: " + "; ".join(errs))
        return space

    def __len__(self) -> int:
        return len(self.points)

    def metric_errors(self) -> list[str]:
        """Names every violated metric axiom instance."""
        errs: list[str] = []
        n = len(self.points)
        if len(self.d) != n or any(len(row) != n for row in self.d):
            return [f"distance matrix is not {n}x{n}"]
        # exact on an integer rescaling, and far cheaper than Fraction sums
        scale = common_denominator(v for row in self.d for v in row)
        s = [[v.numerator * (scale // v.denominator) for v in row] for row in self.d]
        for i in range(n):
            if s[i][i] != 0:
                errs.append(f"reflexivity: d({self.points[i]},{self.points[i]}) = {self.d[i][i]} != 0")
        for i in range(n):
            for j in range(i + 1, n):
                if s[i][j] != s[j][i]:
                    errs.append(
                        f"symmetry: d({self.points[i]},{self.points[j]}) = {self.d[i][j]} "
                        f"but d({self.points[j]},{self.points[i]}) = {self.d[j][i]}"
                    )
                if s[i][j] <= 0:
                    errs.append(f"positivity: d({self.points[i]},{self.points[j]}) = {self.d[i][j]}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if s[i][k] > s[i][j] + s[j][k]:
                        errs.append(
                            "triangle inequality: "
                            f"d({self.points[i]},{self.points[k]}) > "
                            f"d({self.points[i]},{self.points[j]}) + d({self.points[j]},{self.points[k]})"
                        )
        return errs


def line_metric(coords, labels=None) -> FiniteMetricSpace:
    """Points on the rational line with |s - t| distances."""
    cs = [Fraction(c) for c in coords]
    pts = labels if labels is not None else [str(c) for c in cs]
    matrix = [[abs(a - b) for b in cs] for a in cs]
    return FiniteMetricSpace.from_matrix(pts, matrix)


def shortest_path_repair(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Floyd-Warshall closure: the largest matrix below the input satisfying
    the triangle inequality.  Used by generators of random (quasi)metrics."""
    n = len(matrix)
    d = [[Fraction(v) for v in row] for row in matrix]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d
