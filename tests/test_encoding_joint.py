"""The exact joint of the encoding round against independent routes.

``bases.encoding_joint`` is the one place the exact code applies the
encoding operations; the decode table, ``decode_oracle`` and
``eve_group_information`` are read from it.  ``encoding_reference``
works the round out again without it.
"""

import numpy as np
import pytest

from csdcsim.attacks import (
    EntangleMeasure, _tap_branches, attack_cell_label, decode_oracle, eve_group_information,
    group_joint,
)
from csdcsim.bases import build_decode_table
from csdcsim.cli import SWEEP_CELLS
from encoding_reference import folded_joint, ghz_triplet_information, pair_decode_table

# the receiver's exact accuracy by cell, as derived in
# test_decode_accuracy_of_each_sweep_cell_matches_its_exact_value
EXACT_ACCURACY = (1.0, 9 / 16, 1 / 2, 3 / 4, 1 / 2)


def test_decode_table_is_the_support_of_the_honest_joint():
    assert np.array_equal(build_decode_table().dense, pair_decode_table())


def test_probe_information_matches_the_ghz_triplets():
    reference = ghz_triplet_information()
    assert max(reference) - min(reference) <= 1e-12
    assert abs(eve_group_information() - reference[0]) <= 1e-12


@pytest.mark.parametrize("parties", [3, 4, 5])
@pytest.mark.parametrize("cell", SWEEP_CELLS, ids=attack_cell_label)
def test_one_controller_stands_for_every_controller_pattern(cell, parties):
    joint = group_joint(cell)
    folded = folded_joint(_tap_branches(cell, parties), parties)
    assert joint.shape == folded.shape
    assert np.max(np.abs(joint - folded)) <= 1e-12


@pytest.mark.parametrize("cell", SWEEP_CELLS, ids=attack_cell_label)
def test_each_cells_joint_is_a_distribution(cell):
    joint = group_joint(cell)
    # a probe adds its ancilla pair's outcome
    assert joint.shape == (4, 2, 2, 4, 4) + ((4,) if isinstance(cell, EntangleMeasure) else ())
    assert joint.min() >= 0.0
    assert abs(joint.sum() - 1.0) <= 1e-12
    # the operation is uniform, and so is each controller parity
    assert np.allclose(joint.sum(axis=(1, 2, 3, 4, *range(5, joint.ndim))), 0.25, atol=1e-12)
    assert np.allclose(joint.sum(axis=(0, 2, 3, 4, *range(5, joint.ndim))), 0.5, atol=1e-12)


def test_decode_oracle_gives_each_cells_exact_accuracy():
    for cell, accuracy in zip(SWEEP_CELLS, EXACT_ACCURACY):
        assert abs(decode_oracle(cell) - accuracy) <= 1e-12, cell
