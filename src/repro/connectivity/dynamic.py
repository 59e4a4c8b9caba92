"""Mutable network state + incremental component tracking for the simulator.

The discrete-event simulator flips one site or link per failure/recovery
event and then needs, possibly many times before the next flip, the vector
of per-site component vote totals. :class:`ComponentTracker` caches that
vector and maintains it incrementally (DESIGN.md §8) from the short
journal of recent flips that :class:`NetworkState` keeps:

- a **recovery** can only *merge* components: a vectorized label rewrite;
- a **failure** can only *split* the failed element's component. Even &
  Shiloach's interleaved search ("An On-Line Edge-Deletion Problem",
  JACM 1981) runs inside it from both ends of a failed link, or from a
  failed site's neighbours, one incident link per search in turn.
  Searches that meet merge; once one is left nothing (more) split, which
  on a dense graph takes about one neighbour scan. A search that runs
  out first found a side the rest cannot reach: only that side gets a
  fresh label, and its votes leave the rest's total;
- anything else (bulk mutations, a stale journal, a new tracker) falls
  back to the full :func:`~repro.connectivity.components.component_labels`
  recompute, which doubles as the oracle (``audit_interval``).

One refresh may replay several entries while ``state.site_up`` and
``state.link_up`` already show the *last* one, so every incremental step
reads step-time state: site liveness from the tracker's own labels, links
from its own mask (copied on a full recompute, set as each entry replays).
Labels stay consecutive ``0..k-1`` over up sites (``-1`` for down ones):
a refresh that changed anything compacts fresh copies in O(n); one that
changed nothing (a failure that split nothing) keeps the previous arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.connectivity.components import (
    DOWN_LABEL,
    component_labels,
    component_vote_totals,
)
from repro.errors import TopologyError
from repro.topology.model import Topology

__all__ = ["NetworkState", "ComponentTracker", "NetworkChange"]

#: Journal capacity: how many consecutive single-element flips a tracker
#: may lag behind the state before it must fall back to a full relabel.
#: The engine refreshes after every event, so in practice the journal
#: never holds more than a handful of entries.
JOURNAL_LIMIT = 64

#: Pending-change count above which one full relabel beats replaying the
#: journal (each replayed failure may search most of a component; scripted
#: partitions flip dozens of links at a single instant).
INCREMENTAL_LIMIT = 4


class NetworkChange(NamedTuple):
    """One journalled mutation: the state version it produced and the flip."""

    version: int
    kind: str  # "site" | "link"
    index: int
    up: bool
    was_up: bool


class NetworkState:
    """Boolean up/down state for every site and link of a topology."""

    __slots__ = ("topology", "site_up", "link_up", "_version", "_journal")

    def __init__(
        self,
        topology: Topology,
        site_up: Optional[np.ndarray] = None,
        link_up: Optional[np.ndarray] = None,
    ) -> None:
        self.topology = topology
        if site_up is None:
            self.site_up = np.ones(topology.n_sites, dtype=bool)
        else:
            self.site_up = np.array(site_up, dtype=bool)
            if self.site_up.shape != (topology.n_sites,):
                raise TopologyError(
                    f"site_up must have shape ({topology.n_sites},), got {self.site_up.shape}"
                )
        if link_up is None:
            self.link_up = np.ones(topology.n_links, dtype=bool)
        else:
            self.link_up = np.array(link_up, dtype=bool)
            if self.link_up.shape != (topology.n_links,):
                raise TopologyError(
                    f"link_up must have shape ({topology.n_links},), got {self.link_up.shape}"
                )
        #: Monotone counter bumped on every mutation; lets caches detect staleness.
        self._version = 0
        #: Recent mutations, one entry per version bump (bounded).
        self._journal: Deque[NetworkChange] = deque(maxlen=JOURNAL_LIMIT)

    @property
    def version(self) -> int:
        return self._version

    def changes_since(self, version: int) -> Optional[List[NetworkChange]]:
        """The journalled mutations after ``version``, oldest first.

        Returns ``None`` when the journal no longer covers the gap (too
        many intervening mutations) — the caller must recompute from
        scratch.
        """
        gap = self._version - version
        if gap < 0:
            return None
        if gap == 0:
            return []
        entries = [e for e in self._journal if e.version > version]
        if len(entries) != gap:
            return None
        return entries

    def set_site(self, site: int, up: bool) -> None:
        """Set a site's state; no-op mutations still count as changes."""
        if not 0 <= site < self.topology.n_sites:
            raise TopologyError(f"unknown site {site}")
        was = bool(self.site_up[site])
        self.site_up[site] = up
        self._version += 1
        self._journal.append(NetworkChange(self._version, "site", site, bool(up), was))

    def set_link(self, link_id: int, up: bool) -> None:
        """Set a link's state by link id."""
        if not 0 <= link_id < self.topology.n_links:
            raise TopologyError(f"unknown link id {link_id}")
        was = bool(self.link_up[link_id])
        self.link_up[link_id] = up
        self._version += 1
        self._journal.append(NetworkChange(self._version, "link", link_id, bool(up), was))

    def fail_site(self, site: int) -> None:
        self.set_site(site, False)

    def repair_site(self, site: int) -> None:
        self.set_site(site, True)

    def fail_link(self, link_id: int) -> None:
        self.set_link(link_id, False)

    def repair_link(self, link_id: int) -> None:
        self.set_link(link_id, True)

    def all_up(self) -> bool:
        """True iff every site and every link is operational."""
        return bool(self.site_up.all() and self.link_up.all())

    def n_up_sites(self) -> int:
        return int(self.site_up.sum())

    def copy(self) -> "NetworkState":
        return NetworkState(self.topology, self.site_up, self.link_up)


class ComponentTracker:
    """Maintains component labels and vote totals for a :class:`NetworkState`.

    All getters refresh lazily when the underlying state's version has
    moved; between network changes they are O(1). The refresh consumes
    the state's mutation journal incrementally (merge on recovery,
    split search on failure) and falls back to the full recompute when
    the journal cannot bridge the gap.

    ``votes`` overrides the topology's vote vector — several trackers
    with different vote vectors (one per replicated item) can share one
    network state, which is how the multi-item database gives each item
    its own quorum space over a single failure process.

    ``audit_interval`` (0 = off) cross-checks the incrementally
    maintained state against the full relabel every N incremental
    refreshes, raising :class:`~repro.errors.TopologyError` on any
    divergence — the correctness oracle for tests and paranoid runs.
    """

    __slots__ = (
        "state", "votes", "_cached_version", "_labels", "_vote_totals",
        "_incident", "_link_up", "_copied", "_next_label", "audit_interval",
        "n_incremental", "n_full", "_audit_countdown",
    )

    def __init__(self, state: NetworkState,
                 votes: Optional[np.ndarray] = None,
                 audit_interval: int = 0) -> None:
        self.state = state
        if votes is None:
            self.votes = state.topology.votes
        else:
            votes = np.asarray(votes, dtype=np.int64)
            if votes.shape != (state.topology.n_sites,):
                raise TopologyError(
                    f"votes must have shape ({state.topology.n_sites},), "
                    f"got {votes.shape}"
                )
            self.votes = votes
        self._cached_version = -1
        self._labels: Optional[np.ndarray] = None
        self._vote_totals: Optional[np.ndarray] = None
        #: Per-site incident links as ``[(link_id, other_endpoint), ...]``.
        self._incident: Optional[List[List[Tuple[int, int]]]] = None
        #: Step-time link mask (see module doc); set by a full recompute.
        self._link_up: List[bool] = []
        self._copied = False  # this refresh already copied the last arrays
        self._next_label = 0
        self.audit_interval = int(audit_interval)
        self._audit_countdown = self.audit_interval
        #: Maintenance statistics (observability + benchmarks).
        self.n_incremental = 0
        self.n_full = 0

    # ------------------------------------------------------------------
    # Refresh machinery
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        state = self.state
        if self._cached_version == state.version:
            return
        changes = (None if self._labels is None
                   else state.changes_since(self._cached_version))
        if changes is None or len(changes) > INCREMENTAL_LIMIT:
            self._full_recompute()
        else:
            self._copied = False
            for change in changes:
                self._apply_change(change)
            if self._copied:
                self._compact_labels()
            self.n_incremental += 1
            if self.audit_interval > 0:
                self._audit_countdown -= 1
                if self._audit_countdown <= 0:
                    self._audit_countdown = self.audit_interval
                    self._audit()
        self._cached_version = state.version

    def _full_recompute(self) -> None:
        topo = self.state.topology
        self._labels = component_labels(topo, self.state.site_up, self.state.link_up)
        self._vote_totals = component_vote_totals(self._labels, self.votes)
        up = self._labels >= 0
        self._next_label = int(self._labels.max()) + 1 if up.any() else 0
        self._link_up = self.state.link_up.tolist()
        self.n_full += 1

    def _audit(self) -> None:
        """Assert the incremental state matches the full relabel (oracle)."""
        topo = self.state.topology
        oracle_labels = component_labels(topo, self.state.site_up, self.state.link_up)
        oracle_totals = component_vote_totals(oracle_labels, self.votes)
        ours, theirs = self._labels.tolist(), oracle_labels.tolist()
        # Partitions agree iff down sites agree and the pairing is a bijection.
        pairs = len(set(zip(ours, theirs)))
        if (
            not np.array_equal(self._labels < 0, oracle_labels < 0)
            or pairs != len(set(ours)) or pairs != len(set(theirs))
            or not np.array_equal(self._vote_totals, oracle_totals)
        ):
            raise TopologyError(
                "incremental component state diverged from the full relabel "
                f"(version {self.state.version}): labels {self._labels.tolist()} "
                f"vs oracle {oracle_labels.tolist()}, totals "
                f"{self._vote_totals.tolist()} vs {oracle_totals.tolist()}"
            )

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def _incident_links(self) -> List[List[Tuple[int, int]]]:
        if self._incident is None:
            topo = self.state.topology
            incident: List[List[Tuple[int, int]]] = [[] for _ in range(topo.n_sites)]
            for lid, link in enumerate(topo.links):
                incident[link.a].append((lid, link.b))
                incident[link.b].append((lid, link.a))
            self._incident = incident
        return self._incident

    def _apply_change(self, change: NetworkChange) -> None:
        if change.kind == "link":
            self._link_up[change.index] = change.up
        if change.up == change.was_up:
            return  # no-op flip: version moved, structure did not
        if change.kind == "site":
            if change.up:
                self._attach_site(change.index)
            else:
                self._detach_site(change.index)
        else:
            self._flip_link(change.index, change.up)

    def _writable(self) -> Tuple[np.ndarray, np.ndarray]:
        """Labels and totals to mutate: callers may hold the last ones."""
        if not self._copied:
            self._labels = self._labels.copy()
            self._vote_totals = self._vote_totals.copy()
            self._copied = True
        return self._labels, self._vote_totals

    def _merge(self, a: int, b: int) -> None:
        """Union the components of up sites ``a`` and ``b`` (weighted)."""
        la, lb = int(self._labels[a]), int(self._labels[b])
        if la < 0 or lb < 0:
            # ``labels == -1`` matches *every* down site: the rewrite below
            # would resurrect them all. Callers gate on step-time labels.
            raise TopologyError(
                f"cannot merge detached site (labels {la}, {lb} for sites {a}, {b})"
            )
        if la == lb:
            return
        labels, totals = self._writable()
        if (labels == la).sum() < (labels == lb).sum():
            la, lb = lb, la  # the larger side keeps its label
        labels[labels == lb] = la
        totals[labels == la] = int(totals[a]) + int(totals[b])

    def _attach_site(self, site: int) -> None:
        """A site came up: start it as a singleton, then merge over links.

        Neighbours are gated on step-time labels: one that a pending entry
        brings up is still ``-1`` here, and that entry merges it later.
        """
        labels, totals = self._writable()
        labels[site] = self._next_label
        self._next_label += 1
        totals[site] = self.votes[site]
        link_up = self._link_up
        for lid, other in self._incident_links()[site]:
            if link_up[lid] and labels[other] >= 0:
                self._merge(site, other)

    def _detach_site(self, site: int) -> None:
        """A site went down: drop it, then split search from its neighbours."""
        labels, totals = self._writable()
        old = int(labels[site])
        labels[site] = DOWN_LABEL
        totals[labels == old] -= self.votes[site]
        totals[site] = 0
        link_up = self._link_up
        self._split([other for lid, other in self._incident_links()[site]
                     if link_up[lid] and labels[other] == old], old)

    def _flip_link(self, link_id: int, up: bool) -> None:
        link = self.state.topology.links[link_id]
        labels = self._labels
        if labels[link.a] < 0 or labels[link.b] < 0:
            return  # a detached endpoint: the link carries no connectivity
        if up:
            self._merge(link.a, link.b)
        elif labels[link.a] == labels[link.b]:
            self._split([link.a, link.b], int(labels[link.a]))

    def _split(self, roots: List[int], old: int) -> None:
        """Relabel whatever a failure cut off from component ``old``.

        ``roots``: distinct members of ``old`` touching every piece it may
        have split into. One depth-first search per root, one incident
        link each in turn; searches that meet merge (smaller into larger).
        A search that runs out has a whole piece without other roots: it
        takes a fresh label and its votes. The last search keeps ``old``.
        """
        if len(roots) < 2:
            return
        step_labels = self._labels.tolist()
        link_up = self._link_up
        incident = self._incident_links()
        owner = {root: g for g, root in enumerate(roots)}
        seen = [[root] for root in roots]
        stacks = [[iter(incident[root])] for root in roots]
        cut: List[List[int]] = []
        live = len(roots)
        active = range(live)
        while live > 1:
            for g in active:
                stack = stacks[g]
                if not stack:
                    continue  # merged away or cut earlier in this round
                step = next(stack[-1], None)
                if step is None:
                    stack.pop()
                    if stack:
                        continue
                    cut.append(seen[g])
                else:
                    lid, other = step
                    h = owner.get(other)
                    if h == g or not link_up[lid] or step_labels[other] != old:
                        continue
                    if h is None:
                        owner[other] = g
                        seen[g].append(other)
                        stack.append(iter(incident[other]))
                        continue
                    if len(seen[g]) < len(seen[h]):
                        g, h = h, g
                    for site in seen[h]:
                        owner[site] = g
                    seen[g].extend(seen[h])
                    stacks[g].extend(stacks[h])
                    stacks[h] = []
                live -= 1
                if live == 1:
                    break
            active = [g for g in active if stacks[g]]
        if not cut:
            return
        labels, totals = self._writable()
        rest = int(totals[roots[0]])
        for piece in cut:
            piece_votes = int(self.votes[piece].sum())
            labels[piece] = self._next_label
            self._next_label += 1
            totals[piece] = piece_votes
            rest -= piece_votes
        totals[labels == old] = rest

    def _compact_labels(self) -> None:
        """Renumber labels onto ``0..k-1`` (the documented contract)."""
        labels = self._labels
        up = labels >= 0
        if not up.any():
            self._next_label = 0
            return
        uniq, inv = np.unique(labels[up], return_inverse=True)
        labels[up] = inv
        self._next_label = uniq.shape[0]

    # ------------------------------------------------------------------
    # Getters
    # ------------------------------------------------------------------
    @property
    def labels(self) -> np.ndarray:
        """Component label per site (``-1`` for down sites)."""
        self._refresh()
        assert self._labels is not None
        return self._labels

    @property
    def vote_totals(self) -> np.ndarray:
        """Per-site votes of the containing component (0 for down sites)."""
        self._refresh()
        assert self._vote_totals is not None
        return self._vote_totals

    def votes_at(self, site: int) -> int:
        """Votes in the component containing ``site``."""
        return int(self.vote_totals[site])

    def max_component_votes(self) -> int:
        """Votes of the best-connected component (0 when all sites are down).

        This is the quantity SURV-style metrics care about: *some* site can
        access the item iff the largest component clears the quorum.
        """
        totals = self.vote_totals
        return int(totals.max()) if totals.size else 0

    def component_of(self, site: int) -> np.ndarray:
        """Site ids of the component containing ``site`` (empty if down)."""
        labels = self.labels
        if labels[site] < 0:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(labels == labels[site])[0]

    def same_component(self, a: int, b: int) -> bool:
        """True iff up sites ``a`` and ``b`` can currently communicate."""
        labels = self.labels
        return labels[a] >= 0 and labels[a] == labels[b]
