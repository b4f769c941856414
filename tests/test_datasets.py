from itertools import dropwhile, takewhile
from pathlib import Path

import numpy as np
import pytest

from structrank import (
    GeneralizedStructure,
    StructrankError,
    StructurePattern,
    classify,
    generic_rank_randomized,
)
from structrank.datasets import DATASETS, dataset_names, get_dataset

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_NAMES = {
    "cep3", "robust4", "example5", "eqcep1", "robotarm", "twogene",
    "jakstat", "trophic5", "trophic5plus", "sole26", "xy",
}


def test_bundle_contents():
    assert set(dataset_names()) == EXPECTED_NAMES


def test_unknown_name_lists_alternatives():
    with pytest.raises(StructrankError, match="available"):
        get_dataset("missing")


def test_every_dataset_has_provenance():
    for dataset in DATASETS.values():
        assert dataset.source
        assert dataset.title


def readme_datasets():
    """The README's "Bundled datasets" table: {name: (size, rank, class)}, as written."""
    lines = (ROOT / "README.md").read_text().split("## Bundled datasets", 1)[1].splitlines()
    lines = dropwhile(lambda line: not line.startswith("|"), lines)  # up to the table
    table = list(takewhile(lambda line: line.startswith("|"), lines))  # and no further
    return {cells[0]: (cells[1], int(cells[2]), cells[3])
            for line in table[2:]  # past the header and its rule
            for cells in [[c.strip() for c in line.strip("|").split("|")]]}


def test_readme_lists_every_dataset():
    assert set(readme_datasets()) == EXPECTED_NAMES


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_published_ranks_and_classes(name):
    """The README's size, rank and class follow from the shape and ``expected_rank``.

    The class is robust iff the rank is M; the library's computation
    (``classify``, or sampled members for a derived-variable structure)
    must give the same rank, class and solution dimension N - rank.
    """
    dataset = get_dataset(name)
    size, rank, published_class = readme_datasets()[name]
    m, n = dataset.structure.num_equations, dataset.structure.num_variables
    assert size == f"{m}x{n}"
    assert rank == dataset.expected_rank
    assert published_class == ("robust" if rank == m else "fragile")
    if isinstance(dataset.structure, GeneralizedStructure):
        report = generic_rank_randomized(dataset.structure, trials=100, seed=0)
        assert report.estimated_rank == rank
        return
    report = classify(dataset.structure)
    assert report.structural_rank == rank
    assert report.classification == published_class
    assert report.solution_dimension == n - rank


def test_concrete_systems_match_their_patterns():
    for name in ("eqcep1", "xy"):
        dataset = get_dataset(name)
        assert dataset.system is not None
        assert dataset.system.structure == dataset.structure


def test_quartic_system_values():
    sys = get_dataset("eqcep1").system
    x = np.array([2.0, -1.0, 0.5])
    expected = np.array([0.25, 0.5**4 + 1.0, 4.0 + 1.0 + 0.5**4])
    np.testing.assert_allclose(sys.evaluate(x), expected)


def test_food_web_structure_is_symmetric_without_diagonal():
    pattern = get_dataset("sole26").structure
    assert isinstance(pattern, StructurePattern)
    assert pattern.shape == (26, 26)
    assert all((v, e) in pattern.allowed for e, v in pattern.allowed)
    assert not any(e == v for e, v in pattern.allowed)
    # 33 feeding links, stored as directed pairs.
    assert len(pattern.allowed) == 66


def test_trophic_variant_differs_by_one_entry():
    base = get_dataset("trophic5").structure
    plus = get_dataset("trophic5plus").structure
    assert plus.allowed - base.allowed == {(1, 0)}
