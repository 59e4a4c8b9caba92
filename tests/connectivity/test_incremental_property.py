"""Property tests: incremental ComponentTracker vs the full-relabel oracle.

The incremental path (DESIGN.md §8) applies one site/link flip at a time
— merge on recovery, split search on failure — with the full
``component_labels`` recompute kept as the correctness oracle. These
tests drive ComponentTracker through arbitrary random fail/repair
sequences on ring, complete, chorded-ring and irregular topologies
(including link-failure-heavy sequences, where the split search does
most of the work) and require exact agreement with an oracle tracker
that is forced to recompute from scratch at every step (its journal
never bridges the gap because it is constructed fresh each time).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.components import component_labels, component_vote_totals
from repro.connectivity.dynamic import ComponentTracker, NetworkState
from repro.topology.generators import (
    erdos_renyi,
    fully_connected,
    paper_topology,
    ring,
    ring_with_chords,
)

TOPOLOGIES = {
    "ring": lambda: ring(9),
    "complete": lambda: fully_connected(7),
    "complete-16": lambda: fully_connected(16),
    "chorded-24": lambda: ring_with_chords(24, 40),
    "irregular": lambda: erdos_renyi(10, 0.35, seed=5, ensure_connected=True),
}


def _assert_matches_oracle(tracker: ComponentTracker, state: NetworkState) -> None:
    """Labels must match the full recompute up to a component bijection."""
    expected = component_labels(state.topology, state.site_up, state.link_up)
    actual = tracker.labels
    assert actual.shape == expected.shape
    # Down sites agree exactly (-1); up sites agree up to renaming.
    down = expected < 0
    assert (actual[down] == -1).all()
    mapping = {}
    for mine, theirs in zip(actual[~down], expected[~down]):
        assert mapping.setdefault(mine, theirs) == theirs
    assert len(set(mapping.values())) == len(mapping)
    # Labels stay consecutive 0..k-1 — protocol consumers iterate
    # range(max+1) and crash on gaps.
    up_labels = actual[~down]
    if up_labels.size:
        assert sorted(set(up_labels)) == list(range(up_labels.max() + 1))
    expected_votes = component_vote_totals(expected, state.topology.votes)
    assert np.array_equal(tracker.vote_totals, expected_votes)


@st.composite
def event_sequences(draw):
    topo_name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = TOPOLOGIES[topo_name]()
    n_events = draw(st.integers(1, 60))
    events = [
        (
            draw(st.sampled_from(["site", "link"])),
            draw(st.integers(0, 10_000)),
            draw(st.booleans()),
        )
        for _ in range(n_events)
    ]
    return topology, events


@st.composite
def link_failure_heavy_sequences(draw):
    """Nine in ten events flip a link, and four in five flips are failures."""
    topo_name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = TOPOLOGIES[topo_name]()
    n_events = draw(st.integers(1, 80))
    events = [
        (
            "link" if draw(st.integers(0, 9)) < 9 else "site",
            draw(st.integers(0, 10_000)),
            draw(st.integers(0, 4)) == 0,
        )
        for _ in range(n_events)
    ]
    return topology, events


ANY_SEQUENCE = st.one_of(event_sequences(), link_failure_heavy_sequences())


def _apply(state, topology, event):
    kind, raw_index, up = event
    if kind == "site":
        state.set_site(raw_index % topology.n_sites, up)
    else:
        state.set_link(raw_index % topology.n_links, up)


@settings(max_examples=80, deadline=None)
@given(ANY_SEQUENCE)
def test_incremental_tracker_matches_full_relabel(case):
    topology, events = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels  # prime the cache so subsequent refreshes are incremental
    for event in events:
        _apply(state, topology, event)
        _assert_matches_oracle(tracker, state)
    assert tracker.n_incremental > 0 or len(events) == 0


@settings(max_examples=80, deadline=None)
@given(ANY_SEQUENCE, st.integers(2, 4))
def test_incremental_tracker_matches_oracle_with_deferred_refresh(case, stride):
    """Multiple journalled changes replayed in ONE refresh stay correct.

    The one-event-per-refresh test above can never catch replay-staleness
    bugs: with several pending entries, the state's mask arrays already
    reflect *later* entries while the earlier ones are being applied, so
    incremental ops must gate on the tracker's own labels. (A missed gate
    here once let a merge run through a detached endpoint's ``-1`` label,
    resurrecting every down site into one corrupt component.)
    """
    topology, events = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels
    for start in range(0, len(events), stride):
        for event in events[start:start + stride]:
            _apply(state, topology, event)
        # One refresh now replays the whole slice of journal entries.
        _assert_matches_oracle(tracker, state)
    assert tracker.n_incremental > 0 or len(events) == 0


def test_adjacent_recoveries_in_one_refresh_do_not_resurrect_down_sites():
    """Regression: two adjacent sites coming up inside a single refresh.

    While attaching the first, the state mask already shows the second as
    up but its tracker label is still -1; merging through that label
    matches every down site. Site 1 must stay down afterwards.
    """
    topology = ring(5)
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels
    for site in (1, 3, 4):
        state.set_site(site, False)
    _assert_matches_oracle(tracker, state)
    state.set_site(3, True)
    state.set_site(4, True)  # no tracker read in between: one refresh, 2 entries
    assert tracker.labels[1] == -1
    assert tracker.vote_totals[1] == 0
    _assert_matches_oracle(tracker, state)


@settings(max_examples=25, deadline=None)
@given(event_sequences())
def test_self_audit_never_fires_on_correct_tracker(case):
    """The built-in audit (oracle cross-check) stays silent on every step."""
    topology, events = case
    state = NetworkState(topology)
    tracker = ComponentTracker(state, audit_interval=1)
    tracker.labels
    for event in events:
        _apply(state, topology, event)
        tracker.labels  # raises TopologyError if the audit finds divergence


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1,
             max_size=40),
    st.sampled_from(sorted(TOPOLOGIES)),
)
def test_burst_changes_fall_back_to_full_recompute(flips, topo_name):
    """Many flips between reads exceed INCREMENTAL_LIMIT → full recompute."""
    topology = TOPOLOGIES[topo_name]()
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels
    for raw_index, up in flips:
        state.set_site(raw_index % topology.n_sites, up)
    _assert_matches_oracle(tracker, state)


def _replay_slices(topology, slices):
    """One refresh per slice of events, each checked against the oracle."""
    state = NetworkState(topology)
    tracker = ComponentTracker(state)
    tracker.labels
    for events in slices:
        for event in events:
            _apply(state, topology, event)
        _assert_matches_oracle(tracker, state)


def test_split_search_reads_step_time_links_not_final_ones_after_site_failures():
    """Regression: a replayed site failure must not see later link failures.

    When site 7 fails, the remaining path 8-0-1 is still whole; link 0
    (0-1) only fails two entries later. A search over the final link mask
    cuts {8, 0} off from 1 at the wrong step, and the later failure of
    site 0 then leaves 1 labelled with {3, 4, 5, 6}.
    """
    topology = ring(9)
    assert topology.links[0].endpoints() == (0, 1)
    _replay_slices(topology, [
        [("site", 2, False)],
        [("site", 7, False), ("site", 0, False), ("link", 0, False)],
    ])


def test_split_search_roots_come_from_step_time_links():
    """Regression: a failed site's search roots use the step-time links.

    Site 2's failure cuts 1 off from 3..8. Link 2-3 fails in the same
    refresh, after it; a root filter over the final link mask drops 3,
    leaves one root and so misses the split.
    """
    topology = ring(9)
    _replay_slices(topology, [
        [("site", 0, False)],
        [("site", 2, False), ("link", topology.link_id(2, 3), False)],
    ])


def test_audit_holds_at_paper_scale_on_the_fully_connected_topology():
    """The split search under its oracle on the paper's 4949-chord network.

    ``audit_interval=1`` cross-checks every incremental refresh against
    the full relabel. Seeded link and site fail/repair events exercise
    the meeting searches. Cutting site 17's links one by one ends in a
    link failure that splits; leaving it hanging off site 42 alone and
    then failing 42 ends in a site failure that splits.
    """
    topology = paper_topology(4949)
    assert topology.n_sites == 101 and topology.is_fully_connected()
    state = NetworkState(topology)
    tracker = ComponentTracker(state, audit_interval=1)
    tracker.labels
    rng = np.random.default_rng(4949)
    for _ in range(300):
        if rng.random() < 0.8:
            state.set_link(int(rng.integers(topology.n_links)), rng.random() < 0.3)
        else:
            state.set_site(int(rng.integers(topology.n_sites)), rng.random() < 0.5)
        tracker.labels
    for site in (17, 42):
        state.repair_site(site)
        tracker.labels
    spokes = [lid for lid, link in enumerate(topology.links) if 17 in link.endpoints()]
    for lid in spokes:
        state.fail_link(lid)
        tracker.labels
    assert tracker.vote_totals[17] == 1
    state.repair_link(topology.link_id(17, 42))
    assert tracker.vote_totals[17] > 2
    state.fail_site(42)
    assert tracker.vote_totals[17] == 1
    for lid in spokes:
        state.repair_link(lid)
        tracker.labels
    assert tracker.n_full == 1 and tracker.n_incremental > 400
    _assert_matches_oracle(tracker, state)
