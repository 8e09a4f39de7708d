"""Data processing orders two reports. Mutual entropies do not increase under
a channel, and a channel on H2 after the instrument, a merge of two outcomes
and a merge of two letters are each a channel, so the panel entries that read
the channel's output cannot rise, and those that read neither side of it stay.
A unitary on H2, and an outcome split by a coin and merged back, are channels
with an inverse: every entry stays. The relations need no recorded reference.
Each runs at 1e-12 on the acceptance grid, on the benchmark's rank_deficient
edge slots and on the hand-built null-cell scenarios, its random channel
seeded by its case."""

import numpy as np
import pytest

from oracle import merge_outcomes
from qinstr.harness import ACCEPTANCE_GRID, Scenario, example_scenario, random_scenario
from qinstr.infobounds import analyze, entropy_panel
from qinstr.instrument import Instrument, KrausMap, random_instrument
from qinstr.qstate import Ensemble
from test_infobounds import NULL_CELL_SCENARIOS
from test_symmetry import EDGE_SLOTS, edge_id, edge_scenario

TOL = 1e-12
DESK = example_scenario("zero-one-plus")
PANEL = tuple(entropy_panel(analyze(DESK.ensemble, DESK.instrument)))  # every panel entry's name


def after_channel(ins: Instrument, channel: Instrument) -> Instrument:
    """``ins`` followed by a one-outcome channel on H2: each Kraus operator K
    becomes the products C K, one per Kraus operator C of the channel."""
    c = channel.maps[0].kraus
    return Instrument(ins.outcomes, tuple(
        KrausMap(ins.dim_in, ins.dim_out, (c[:, None] @ m.kraus).reshape(-1, ins.dim_out, ins.dim_in))
        for m in ins.maps
    ))


def merge_letters(e: Ensemble) -> Ensemble:
    """Letters 0 and 1 merged into their mixture, at the sum of their priors."""
    p = e.probs[:2].sum()
    mix = np.einsum("a,aij->ij", e.probs[:2], e.states[:2]) / p
    return Ensemble(("0+1", *e.letters[2:]), np.array([p, *e.probs[2:]]), np.concatenate([mix[None], e.states[2:]]))


# Each relation takes (scenario, seed) to the (ensemble, instrument) after its
# channel.

def merged_outcomes(s, seed):
    ins = s.instrument
    return s.ensemble, merge_outcomes(ins, ins.outcomes[0], ins.outcomes[1])


def channel_after(s, seed):
    d2 = s.instrument.dim_out
    return s.ensemble, after_channel(s.instrument, random_instrument(d2, d2, 1, 2, seed=seed))


def merged_letters(s, seed):
    return merge_letters(s.ensemble), s.instrument


def unitary_after(s, seed):
    # a one-Kraus channel is a unitary: the polar part of a Ginibre draw, Haar-distributed
    d2 = s.instrument.dim_out
    return s.ensemble, after_channel(s.instrument, random_instrument(d2, d2, 1, 1, seed=seed))


def split_and_merged_back(s, seed):
    ins, c = s.instrument, 0.3
    kraus = (np.sqrt(c) * ins.maps[0].kraus, *(m.kraus for m in ins.maps[1:]), np.sqrt(1 - c) * ins.maps[0].kraus)
    split = Instrument((*ins.outcomes, "split"), tuple(KrausMap(ins.dim_in, ins.dim_out, k) for k in kraus))
    return s.ensemble, merge_outcomes(split, ins.outcomes[0], "split")


# relation: (channel, entries that cannot rise, entries that stay). Merging two
# outcomes is a channel on the outcome register, after the instrument, and
# merging two letters one on the letter register, before it; mean chi given
# out has no order under the first and mean chi given in none under the second.
RELATIONS = {
    "merged_outcomes": (
        merged_outcomes,
        ("classical_mi", "chi_out", "chi_joint", "mean_chi_given_in", "tripartite"),
        ("chi_initial", "chi_post"),
    ),
    "channel_after": (
        channel_after,
        ("chi_post", "chi_out", "chi_joint", "mean_chi_given_in", "mean_chi_given_out", "tripartite"),
        ("chi_initial", "classical_mi"),
    ),
    "merged_letters": (
        merged_letters,
        ("chi_initial", "chi_post", "chi_joint", "mean_chi_given_out", "classical_mi", "tripartite"),
        ("chi_out",),
    ),
    "unitary_after": (unitary_after, (), PANEL),
    "split_and_merged_back": (split_and_merged_back, (), PANEL),
}


def assert_ordered(s, relation, seed):
    """The panel after ``relation``'s channel against the scenario's own: each
    entry that cannot rise rises by at most TOL, and each that stays moves by
    at most TOL."""
    channel, fall, stay = RELATIONS[relation]
    fine = entropy_panel(analyze(s.ensemble, s.instrument))
    coarse = entropy_panel(analyze(*channel(s, seed)))
    for name in fall:
        assert coarse[name] <= fine[name] + TOL, name
    for name in stay:
        assert abs(coarse[name] - fine[name]) <= TOL, name


GRID = pytest.mark.parametrize("index, shape", list(enumerate(ACCEPTANCE_GRID)))


class TestMergeOutcomes:
    @GRID
    def test_coarse_graining_orders_the_panel(self, index, shape):
        assert_ordered(random_scenario(*shape, seed=index), "merged_outcomes", index)


class TestDataProcessing:
    @GRID
    def test_a_channel_after_the_instrument_orders_the_panel(self, index, shape):
        assert_ordered(random_scenario(*shape, seed=index), "channel_after", index)

    @GRID
    def test_merging_letters_orders_the_panel(self, index, shape):
        assert_ordered(random_scenario(*shape, seed=index), "merged_letters", index)

    @GRID
    def test_a_unitary_after_the_instrument_moves_no_entry(self, index, shape):
        assert_ordered(random_scenario(*shape, seed=index), "unitary_after", index)

    @GRID
    def test_an_outcome_split_by_a_coin_and_merged_back_moves_no_entry(self, index, shape):
        assert_ordered(random_scenario(*shape, seed=index), "split_and_merged_back", index)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("slot", EDGE_SLOTS, ids=edge_id)
def test_an_edge_slot_is_ordered(slot, relation):
    assert_ordered(edge_scenario(slot), relation, slot)


NULL_CELL_CASES = [(name, relation) for name in NULL_CELL_SCENARIOS for relation in RELATIONS]


@pytest.mark.parametrize("name, relation", NULL_CELL_CASES)
def test_a_null_cell_scenario_is_ordered(name, relation):
    assert_ordered(Scenario(*NULL_CELL_SCENARIOS[name]), relation, list(NULL_CELL_SCENARIOS).index(name))
