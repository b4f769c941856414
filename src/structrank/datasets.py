"""Built-in structures and systems from ecology, systems biology, and robotics.

Each dataset records, where the source states one, the expected generic
rank, so the test suite can cross-check the bundled transcriptions against
the published numbers. The class and solution dimension follow from that
rank and the shape. No dataset adds self-loops by policy: a
self-dependency is written into its rows where the model has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import StructrankError
from .structure import DerivedVariableSpec, GeneralizedStructure, StructurePattern

__all__ = ["Dataset", "DATASETS", "get_dataset", "dataset_names"]


@dataclass(frozen=True)
class Dataset:
    """A named structure (optionally with a concrete system) plus provenance.

    A concrete system is stored as ``system_terms``, (degree, one tuple of
    (exponents, coefficient) pairs per equation), and ``system`` builds it on
    its first read, so a dataset that is only listed or ranked loads no numpy.
    """

    name: str
    title: str
    structure: StructurePattern | GeneralizedStructure
    source: str
    expected_rank: int | None = None
    system_terms: tuple | None = None

    @property
    def has_system(self) -> bool:
        return self.system_terms is not None

    @cached_property
    def system(self):
        """The bundled StructuredPolySystem (None without one), built once."""
        if self.system_terms is None:
            return None
        from .polysys import system_from_terms

        degree, terms = self.system_terms
        return system_from_terms(self.structure, degree, [dict(eq) for eq in terms])


def _rows(rows_1based, num_variables=None):
    return StructurePattern.from_rows(
        [{v - 1 for v in row} for row in rows_1based], num_variables
    )


def _undirected(n, pairs_1based):
    allowed = set()
    for a, b in pairs_1based:
        allowed.add((a - 1, b - 1))
        allowed.add((b - 1, a - 1))
    return StructurePattern(n, n, frozenset(allowed))


_CEP3 = _rows([[3], [3], [1, 2, 3]])

def _terms(degree, *equations):
    return degree, tuple(tuple(eq.items()) for eq in equations)


_EQCEP1 = _terms(
    4,
    {(2,): 1.0},                                  # x3^2
    {(4,): 1.0, (0,): 1.0},                       # x3^4 + 1
    {(2, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 4): 1.0},  # x1^2 - x2 + x3^4
)

_XY_PATTERN = _rows([[1, 2]])

_XY = _terms(2, {(1, 1): 1.0})

_EXAMPLE5 = GeneralizedStructure(
    num_variables=4,
    dependencies=(
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 3}),
        frozenset({"z"}),
        frozenset({"z"}),
    ),
    derived=(DerivedVariableSpec("z", ((0, 1.0), (1, 2.0))),),
)

_TROPHIC5 = _rows([[4, 5], [4, 5], [4, 5], [1, 2, 3], [1, 2, 3]])

_SOLE26_LINKS = [
    (1, 8), (2, 9), (3, 11), (4, 12), (4, 14), (4, 18), (5, 13), (6, 15),
    (7, 15), (8, 16), (8, 17), (9, 17), (10, 16), (10, 17), (10, 18),
    (10, 19), (11, 17), (12, 17), (13, 18), (14, 17), (14, 19), (15, 19),
    (16, 21), (16, 23), (17, 20), (17, 21), (17, 22), (17, 23), (18, 23),
    (19, 23), (19, 24), (19, 25), (19, 26),
]


def _build():
    datasets = [
        Dataset(
            name="cep3",
            title="Competitive exclusion, two predators on one prey",
            structure=_CEP3,
            source="competitive exclusion principle; predator growth depends only "
                   "on the shared prey density",
            expected_rank=2,
        ),
        Dataset(
            name="robust4",
            title="Competitive exclusion made robust by a second prey",
            structure=_rows([[3, 4], [3, 4], [1, 2, 3], [1, 2]]),
            source="competitive-exclusion web extended with a fourth species so "
                   "the dependency matrix is generically nonsingular",
            expected_rank=4,
        ),
        Dataset(
            name="example5",
            title="Two predators on an aggregated resource z = x1 + 2*x2",
            structure=_EXAMPLE5,
            source="two prey species nourish two predators only through the "
                   "combination z = a*x1 + b*x2 (a=1, b=2); the predator rows of "
                   "the Jacobian are proportional, so the generic rank is 3, below "
                   "the expanded-pattern bound of 4",
            expected_rank=3,
        ),
        Dataset(
            name="eqcep1",
            title="Concrete quartic competitive-exclusion system",
            structure=_CEP3,
            source="the polynomial instance (x3^2, x3^4 + 1, x1^2 - x2 + x3^4); "
                   "its level sets are parabolas",
            expected_rank=2,
            system_terms=_EQCEP1,
        ),
        Dataset(
            name="robotarm",
            title="Arm linkage with two free joints in R^3",
            structure=_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3, 4, 5, 6]]),
            source="length constraints on an elbow u1 and wrist u2 with pinned "
                   "shoulder and hand; three equations in six unknowns",
            expected_rank=3,
        ),
        Dataset(
            name="twogene",
            title="Two-gene regulatory network",
            structure=_rows([[1, 3, 4], [2, 3], [1, 3], [2, 4]]),
            source="mRNA/protein equilibrium model of two mutually regulating "
                   "genes (Chesi 2008); self-dependencies are part of the model "
                   "equations, not policy-added",
            expected_rank=4,
        ),
        Dataset(
            name="jakstat",
            title="JaK/Stat signaling pathway (model MedB-1)",
            structure=_rows([
                [1, 2],
                [1, 2],
                [1, 3, 7],
                [3, 4, 7],
                [4, 5],
                [3, 4, 6, 7, 11],
                [3, 4, 6, 7, 11],
                [7, 8, 9],
                [7, 8, 9],
                [9],
                [10, 11],
                [9],
            ], num_variables=12),
            source="steady states of the IL13-induced JaK/Stat pathway, "
                   "model MedB-1 (Raia et al. 2011); node 12 is CD274mRNA; "
                   "self-dependencies are part of the model equations",
            expected_rank=11,
        ),
        Dataset(
            name="trophic5",
            title="Trophic web: three predators, two prey",
            structure=_TROPHIC5,
            source="bipartite predator/prey web with no intralevel interactions",
            expected_rank=4,
        ),
        Dataset(
            name="trophic5plus",
            title="Trophic web plus one predator-predator link",
            structure=_TROPHIC5.with_entry(1, 0),
            source="the trophic web with one added interaction, species 1 "
                   "appearing in the equation of species 2",
            expected_rank=5,
        ),
        Dataset(
            name="sole26",
            title="26-species food web of Sole and Montoya",
            structure=_undirected(26, _SOLE26_LINKS),
            source="food web proposed by Sole and Montoya (2001); links "
                   "transcribed as bidirectional with no self-dependencies",
            expected_rank=20,
        ),
        Dataset(
            name="xy",
            title="Product of two variables",
            structure=_XY_PATTERN,
            source="F(x1, x2) = x1*x2; level sets are hyperbola branches except "
                   "through the axes, where the solution set is not a manifold",
            expected_rank=1,
            system_terms=_XY,
        ),
    ]
    return {d.name: d for d in datasets}


DATASETS: dict[str, Dataset] = _build()


def dataset_names():
    return sorted(DATASETS)


def get_dataset(name: str) -> Dataset:
    try:
        return DATASETS[name]
    except KeyError:
        raise StructrankError(
            f"unknown dataset {name!r}; available: {', '.join(dataset_names())}"
        ) from None
