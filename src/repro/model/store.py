"""Interned fact store: the chase engine's integer data plane.

The legacy hot path pays Python object costs per probe: every join
step hashes a ``(Predicate, args)`` tuple, allocates :class:`Atom`
objects for candidate results, and intersects ``Set[Atom]`` buckets.
:class:`FactStore` dictionary-encodes the data plane instead:

* predicates and ground terms are interned to dense integer ids;
* each predicate's facts are packed tuples of term ids;
* a positional posting index replaces the per-position atom buckets,
  so joins run over packed int tuples instead of boxed terms;
* labelled nulls are invented as bare ids with a *decode recipe*
  (rule id, variable, label names, label term ids) and only
  materialised as :class:`~repro.model.terms.Null` objects at API
  boundaries — :meth:`term_of_id` builds the exact structural null the
  legacy engine would have built, so decoded instances compare equal
  atom for atom and fingerprint identically.

The storage is columnar.  Facts over a predicate live in one
insertion-ordered row table (their position is the fact's *row id*);
each ``(predicate, position, term)`` posting bucket is an append-only
column holding the facts in ascending row order.  Because the store is
add-only and a fact enters each bucket at most once, the columns are
sorted by row id and deduplicated *by construction* — nothing is ever
sorted or hashed on the append path.  Multi-position *enumeration*
walks the smallest column and filters it by direct position compares;
multi-position *existence* tests (the restricted chase's
head-satisfaction probe) are one hash lookup in a lazily built
projection index per position signature, carrying a dirty watermark
that marks how far it has caught up with the row table (appends
between probes cost nothing until a probe needs them).  Earlier
iterations kept the columns as ``array('q')`` row ids galloped with
cursors + ``bisect`` (lost: every probe re-boxed machine ints into
Python objects), intersected via per-column watermarked hash sets
(lost: direct compares need no maintenance at all), or kept one Python
``set`` of packed facts per posting key (lost: hashing on every add) —
the packed ``array('q')`` form survives as the snapshot wire format,
where it belongs.

The store is add-only (the chase never retracts facts), which is what
makes the incremental ``size``/``max_depth`` counters exact, the
posting columns naturally row-sorted, and the :meth:`snapshot`/
:meth:`restore` pair a faithful transfer format: a snapshot packs the
interner tables plus the per-predicate fact columns
(``array('q').tobytes()``) into one plain-bytes blob that a worker
process can restore without re-parsing or re-hashing any text.
Because every key in the hot dictionaries is an int or a tuple of
ints, derivation order is independent of string hash randomisation.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Instance
from repro.model.terms import (
    Constant,
    Null,
    Term,
    Variable,
    intern_null_labels,
    term_label,
)

#: A fact as (predicate id, packed term-id tuple).
Fact = Tuple[int, Tuple[int, ...]]

#: Magic prefix of the snapshot wire format (bumped on format changes).
SNAPSHOT_MAGIC = b"RSNP1\n"

_pause_lock = threading.Lock()
_pause_depth = 0
_pause_restores = False


@contextmanager
def collector_paused():
    """Hold CPython's cyclic garbage collector off for the block.

    The store's data is acyclic: packed int tuples, interner dicts and
    lists, and decoded atoms and nulls that reference only terms.  The
    store driver and the decode allocate millions of such objects, and
    every collection would walk them and free nothing; reference
    counting alone reclaims all of it.  The pause is process-wide and
    reentrant: a depth counter under a lock lets nested pauses and
    overlapping chases on several threads share it.

    When the collector is on at the outermost entry, one young and
    middle collection (``gc.collect(1)``) runs first.  It walks only
    what was allocated since the last collection, frees young cyclic
    garbage on CPython's normal path, and leaves the region with empty
    young generations.  It runs outside the lock, because a finalizer
    it triggers may itself enter the pause.  The outermost entry then
    disables the collector.  The outermost exit promotes everything
    the region left alive to the oldest generation with
    ``gc.freeze(); gc.unfreeze()`` (no walk), so no young collection
    re-walks the run's output, and re-enables the collector only if
    it was enabled at that entry: a caller that turned it off keeps
    it off, and gets neither the collection nor the promotion.  The
    promotion is skipped while the process holds frozen objects, which
    must stay frozen.
    """
    global _pause_depth, _pause_restores
    # An unlocked read: a stale answer costs one redundant or one
    # skipped young collection, never a wrong collector state.
    if not _pause_depth and gc.isenabled():
        gc.collect(1)
    with _pause_lock:
        if not _pause_depth:
            _pause_restores = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if not _pause_depth and _pause_restores:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()


class FactStore:
    """Interned predicates, terms and facts with positional posting lists."""

    __slots__ = (
        "_pid_of",
        "_pred_of",
        "_id_of_term",
        "_term_of_id",
        "_depth_of_id",
        "_null_ids",
        "_null_recipe",
        "_size",
        "_max_depth",
        "_has_foreign_nulls",
        "index_builds",
        "_index_profile",
        "restored_rounds",
        "_rows",
        "_row_of",
        "_cols",
        "_built",
        "_proj",
        "_depth_marks",
    )

    def __init__(self) -> None:
        self._pid_of: Dict[Predicate, int] = {}
        self._pred_of: List[Predicate] = []
        self._id_of_term: Dict[Term, int] = {}
        # Decoded term per id; ``None`` marks a store-invented null that
        # has not been materialised yet (see :meth:`term_of_id`).
        self._term_of_id: List[Optional[Term]] = []
        self._depth_of_id: List[int] = []
        # (rule_id, variable, label names, label ids) -> null term id.
        self._null_ids: Dict[Tuple[str, str, Tuple[str, ...], Tuple[int, ...]], int] = {}
        self._null_recipe: Dict[int, Tuple[str, str, Tuple[str, ...], Tuple[int, ...]]] = {}
        self._size = 0
        self._max_depth = 0
        # True once a null built *outside* the store has been interned
        # (e.g. the input instance is itself a chase result).  Invented
        # nulls must then unify structurally with the foreign ones, or
        # one null could end up with two ids and break fact dedup.
        self._has_foreign_nulls = False
        # Telemetry: lazy index constructions (posting columns +
        # projection signatures) since creation.  Maintained on the
        # cold build paths only — the add/probe hot paths never touch
        # it — so reading it is free visibility, not new overhead.
        self.index_builds = 0
        # Per-predicate build attribution: pid -> [builds, seconds].
        # Stamped only on the same cold paths as index_builds, so the
        # add/probe hot paths stay untouched; read by the profiler via
        # index_build_profile().
        self._index_profile: Dict[int, List] = {}
        # Rounds stamped into the snapshot this store was restored
        # from, if any (``None`` for stores built from scratch).  Lets
        # a resumed chase report its base-run round offset.
        self.restored_rounds: Optional[int] = None
        # Row tables: _rows[pid] lists packed facts in insertion order
        # (the index is the row id) and _row_of[pid] maps a fact back
        # to its row (containment + dedup).
        # _cols[pid][position] maps a term id to its posting column
        # (facts ascending by row id) — built *lazily* on the first
        # probe of that (predicate, position): positions no join ever
        # binds (most of a wide predicate) are never indexed, and the
        # add path only maintains the columns in _built[pid].
        self._rows: List[List[Tuple[int, ...]]] = []
        self._row_of: List[Dict[Tuple[int, ...], int]] = []
        self._cols: List[List[Optional[Dict[int, List[Tuple[int, ...]]]]]] = []
        self._built: List[List[int]] = []
        # Projection existence indexes: per predicate, a position
        # signature (e.g. ``(0, 2)``) maps to a
        # ``[projection set, watermark, getter]`` triple used by
        # multi-position existence probes (see has_projection).
        self._proj: List[Dict[Tuple[int, ...], list]] = []
        # Depth bookkeeping is deferred too: rows before this
        # per-predicate watermark have been folded into _max_depth.
        self._depth_marks: List[int] = []

    # -- interning ---------------------------------------------------------

    def intern_predicate(self, predicate: Predicate) -> int:
        """Dense id for ``predicate`` (created on first sight)."""
        pid = self._pid_of.get(predicate)
        if pid is None:
            pid = len(self._pred_of)
            self._pid_of[predicate] = pid
            self._pred_of.append(predicate)
            self._rows.append([])
            self._row_of.append({})
            self._cols.append([None] * predicate.arity)
            self._built.append([])
            self._proj.append({})
            self._depth_marks.append(0)
        return pid

    def intern_term(self, term: Term) -> int:
        """Dense id for a ground term (constant or externally-built null)."""
        tid = self._id_of_term.get(term)
        if tid is None:
            if isinstance(term, Variable):
                raise ValueError(f"only ground terms can be interned, got {term!r}")
            if isinstance(term, Null):
                # The null may already live here as a bare recipe id —
                # e.g. this store was restored from a snapshot and the
                # caller re-interns a null of the original input (the
                # resume_from delta path).  Handing out a second id
                # would break fact dedup, so match the recipe first.
                tid = self._match_null_recipe(term)
                if tid is not None:
                    self._id_of_term[term] = tid
                    if self._term_of_id[tid] is None:
                        self._term_of_id[tid] = term
                    self._has_foreign_nulls = True
                    return tid
            tid = len(self._term_of_id)
            self._id_of_term[term] = tid
            self._term_of_id.append(term)
            self._depth_of_id.append(term.depth)
            if isinstance(term, Null):
                self._has_foreign_nulls = True
        return tid

    def _match_null_recipe(self, null: Null) -> Optional[int]:
        """The id already registered for ``null``'s structural label, if any.

        Resolves the null's binding terms through the intern table
        (recursing through nested nulls, memoising hits) and looks the
        resulting ``(rule, variable, names, ids)`` key up in the recipe
        registry.  Returns ``None`` when any binding term is unknown —
        then the null genuinely is foreign to this store.
        """
        label_ids: List[int] = []
        for _, term in null.binding:
            tid = self._id_of_term.get(term)
            if tid is None and isinstance(term, Null):
                tid = self._match_null_recipe(term)
                if tid is not None:
                    self._id_of_term[term] = tid
            if tid is None:
                return None
            label_ids.append(tid)
        names = tuple(name for name, _ in null.binding)
        return self._null_ids.get(
            (null.rule_id, null.variable, names, tuple(label_ids))
        )

    def intern_null(
        self,
        rule_id: str,
        variable: str,
        label_names: Tuple[str, ...],
        label_ids: Tuple[int, ...],
    ) -> int:
        """Id of the labelled null ``⊥^variable_{rule, binding}``.

        ``label_names``/``label_ids`` are the null's binding as parallel
        tuples, already in sorted-name order (the rule templates
        precompute the name tuple once).  No :class:`Null` object is
        built here; the key tuple *is* the identity, and the recipe is
        kept so :meth:`term_of_id` can materialise the structurally
        identical null later.  Depth follows Definition 4.3:
        ``1 + max(depth of binding terms, 0)``.
        """
        key = (rule_id, variable, label_names, label_ids)
        tid = self._null_ids.get(key)
        if tid is None:
            if self._has_foreign_nulls:
                # Slow path: the input contained nulls, so an invented
                # null may already exist under a foreign id.  Build it
                # structurally and unify through the term intern table.
                binding = tuple(
                    (n, self.term_of_id(i)) for n, i in zip(label_names, label_ids)
                )
                tid = self.intern_term(
                    Null(rule_id=rule_id, variable=variable, binding=binding)
                )
                self._null_ids[key] = tid
                self._null_recipe.setdefault(tid, key)
                return tid
            depths = self._depth_of_id
            tid = len(self._term_of_id)
            self._null_ids[key] = tid
            self._null_recipe[tid] = key
            depth = 0
            for i in label_ids:
                candidate = depths[i]
                if candidate > depth:
                    depth = candidate
            self._term_of_id.append(None)
            self._depth_of_id.append(depth + 1)
        return tid

    def intern_atom(self, atom: Atom) -> Fact:
        """Intern a ground atom as ``(pid, ids)`` without storing it."""
        return (
            self.intern_predicate(atom.predicate),
            tuple(self.intern_term(t) for t in atom.args),
        )

    # -- decoding (the API boundary) ---------------------------------------

    def predicate_of(self, pid: int) -> Predicate:
        return self._pred_of[pid]

    def pid(self, predicate: Predicate) -> Optional[int]:
        """The id of an already-interned predicate, else ``None``."""
        return self._pid_of.get(predicate)

    def term_of_id(self, tid: int) -> Term:
        """Materialise the term behind ``tid``.

        Store-invented nulls are built lazily from their recipe; the
        resulting :class:`Null` is *equal* (same intern uid) to the
        null a legacy run labels with the same rule, variable and
        binding.  The dependency chain is resolved with an explicit
        stack — a budget-stopped non-terminating run nests nulls deeper
        than Python's recursion limit.  Each null gets the depth the
        store tracked for its id, as in :meth:`to_instance`.
        """
        terms = self._term_of_id
        term = terms[tid]
        if term is not None:
            return term
        recipes = self._null_recipe
        depths = self._depth_of_id
        stack = [tid]
        while stack:
            current = stack[-1]
            if terms[current] is not None:
                stack.pop()
                continue
            rule_id, variable, names, ids = recipes[current]
            missing = [i for i in ids if terms[i] is None]
            if missing:
                stack.extend(missing)
                continue
            null = Null.from_trusted(
                rule_id,
                variable,
                tuple((n, terms[i]) for n, i in zip(names, ids)),
                depths[current],
            )
            terms[current] = null
            self._id_of_term.setdefault(null, current)
            stack.pop()
        return terms[tid]

    def decode_fact(self, pid: int, ids: Tuple[int, ...]) -> Atom:
        terms = self._term_of_id
        term_of_id = self.term_of_id
        return Atom.from_trusted(
            self._pred_of[pid],
            # Inline the decoded-null check; term_of_id only for misses.
            tuple(terms[t] if terms[t] is not None else term_of_id(t) for t in ids),
        )

    def _materialise_nulls(self) -> None:
        """Build every store-invented null a stored fact can mention.

        Two forward passes over the recipes in id order.  The first
        interns each null's label in bulk (:func:`intern_null_labels`),
        keyed by a per-id label list, so no binding is walked term by
        term.  :meth:`intern_null` hands out an id only after the ids of
        the null's binding terms, so each binding is already labelled
        when its null is reached.  Entries that break that order —
        restored snapshots with foreign nulls, whose binding terms were
        interned after them — fall back to the stack-based
        :meth:`term_of_id` outside the intern lock, which keeps the
        order in which new labels get their uids.  The second pass
        builds the nulls.  Nulls deeper than every stored fact
        (invented, then truncated away) are skipped: no fact mentions
        them.
        """
        terms = self._term_of_id
        depths = self._depth_of_id
        recipes = self._null_recipe
        limit = self.max_depth()
        pending = [
            (tid, recipe)
            for tid, recipe in recipes.items()
            if terms[tid] is None and depths[tid] <= limit
        ]
        labels = [None if t is None else term_label(t) for t in terms]
        remaining = iter(pending)
        while (tid := intern_null_labels(remaining, labels)) is not None:
            self.term_of_id(tid)
            # Label what the fallback built: the null and its unlabelled
            # dependencies.
            stack = [tid]
            while stack:
                current = stack.pop()
                if labels[current] is None:
                    labels[current] = term_label(terms[current])
                    stack.extend(recipes[current][3])
        term = terms.__getitem__
        id_of_term = self._id_of_term
        from_trusted = Null.from_trusted
        for tid, (rule_id, variable, names, ids) in pending:
            if terms[tid] is None:
                null = from_trusted(
                    rule_id,
                    variable,
                    tuple(zip(names, map(term, ids))),
                    depths[tid],
                    labels[tid],
                )
                terms[tid] = null
                id_of_term.setdefault(null, tid)

    @collector_paused()
    def to_instance(self) -> Instance:
        """Decode every stored fact into a fresh :class:`Instance`.

        The nulls are materialised first (:meth:`_materialise_nulls`);
        after that every id a fact mentions has its term, so each fact
        decodes with one C-level lookup per argument.  The instance's lazy indexes stay
        unbuilt.  The decode allocates only acyclic atoms and nulls, so
        it runs under :func:`collector_paused`.
        """
        self._materialise_nulls()
        term = self._term_of_id.__getitem__
        instance = Instance()
        for pid, predicate in enumerate(self._pred_of):
            instance.extend_unique_ground(
                Atom.many_from_trusted(
                    predicate, [tuple(map(term, ids)) for ids in self._rows[pid]]
                )
            )
        return instance

    # -- storage -----------------------------------------------------------

    def add(self, pid: int, ids: Tuple[int, ...]) -> bool:
        """Store a fact; return True if it was new."""
        rows = self._rows[pid]
        row = len(rows)
        # setdefault: one hash probe decides "duplicate?" and inserts
        # the new row id in the same motion.
        if self._row_of[pid].setdefault(ids, row) != row:
            return False
        rows.append(ids)
        # Appends in row order keep every column sorted and
        # deduplicated without hashing — and only the columns some
        # probe has actually built get maintained at all (a
        # single-atom-body rule set never builds any).
        cols = self._cols[pid]
        for position in self._built[pid]:
            tid = ids[position]
            column = cols[position]
            bucket = column.get(tid)
            if bucket is None:
                column[tid] = [ids]
            else:
                bucket.append(ids)
        # Depth folding is deferred: max_depth() scans the rows past
        # each predicate's depth watermark on read.
        self._size += 1
        return True

    def add_atom(self, atom: Atom) -> Fact:
        """Intern and store a ground atom; returns its ``(pid, ids)``."""
        pid, ids = self.intern_atom(atom)
        self.add(pid, ids)
        return (pid, ids)

    def contains(self, pid: int, ids: Tuple[int, ...]) -> bool:
        return ids in self._row_of[pid]

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def count(self, pid: int) -> int:
        """Number of stored facts over predicate id ``pid`` (O(1))."""
        return len(self._rows[pid])

    def max_depth(self) -> int:
        """Maximum term depth over all stored facts.

        The fold is deferred to this read, scanning only the rows
        appended since the last call (per-predicate watermarks), so
        unbudgeted chase runs pay for depth bookkeeping once instead of
        per fact.
        """
        best = self._max_depth
        depths = self._depth_of_id
        marks = self._depth_marks
        for pid, rows in enumerate(self._rows):
            mark = marks[pid]
            if mark != len(rows):
                for ids in rows[mark:]:
                    for tid in ids:
                        depth = depths[tid]
                        if depth > best:
                            best = depth
                marks[pid] = len(rows)
        self._max_depth = best
        return best

    def null_count(self) -> int:
        """Number of labelled nulls known to this store (O(1)).

        Counts both store-invented and foreign (input) nulls; the chase
        probe diffs it across rounds to report nulls invented per round.
        """
        return len(self._null_ids)

    def index_build_profile(self) -> Dict[str, Dict[str, object]]:
        """Per-predicate lazy index construction: name -> builds/seconds.

        Covers posting-column backfills and projection-signature
        builds (the same events :attr:`index_builds` counts), with the
        wall time each cost.
        """
        return {
            self._pred_of[pid].name: {"builds": entry[0], "seconds": entry[1]}
            for pid, entry in self._index_profile.items()
        }

    def posting_memory(self) -> Dict[str, int]:
        """Approximate per-predicate index memory (bytes), on demand.

        Sums ``sys.getsizeof`` over the posting containers — the row
        table, built columns and their buckets, and projection sets.
        Container overhead only (the packed fact tuples themselves are
        shared with the row tables), which is the part the lazy index
        strategy actually controls.  Walks every built bucket, so call
        it at run end, not per round.
        """
        sizes: Dict[str, int] = {}
        getsizeof = sys.getsizeof
        for pid, predicate in enumerate(self._pred_of):
            total = getsizeof(self._rows[pid])
            for position in self._built[pid]:
                column = self._cols[pid][position]
                total += getsizeof(column)
                total += sum(map(getsizeof, column.values()))
            for entry in self._proj[pid].values():
                total += getsizeof(entry[0])
            sizes[predicate.name] = total
        return sizes

    def fact_depth(self, ids: Tuple[int, ...]) -> int:
        """Depth of a fact: max over its terms' depths (0 if nullary)."""
        depths = self._depth_of_id
        return max((depths[t] for t in ids), default=0)

    def facts_of(self, pid: int):
        """All facts over ``pid`` as a live, do-not-mutate list.

        This is the row table itself (insertion order), aliased for
        speed — treat it as frozen.
        """
        return self._rows[pid]

    def row_marks(self) -> List[int]:
        """Per-predicate row counts: the delta watermark.

        The chase driver snapshots this before applying a round and
        reads the round's delta back with :meth:`rows_since` — no
        per-fact bookkeeping, because new facts simply occupy the row
        range past the mark.
        """
        return [len(rows) for rows in self._rows]

    def rows_since(self, pid: int, mark: int) -> List[Tuple[int, ...]]:
        """The facts over ``pid`` appended after ``mark``."""
        return self._rows[pid][mark:]

    def column(self, pid: int, position: int) -> Dict[int, List[Tuple[int, ...]]]:
        """The posting column index for (pid, position), built on first use.

        Backfilled from the row table in insertion order (so buckets
        come out ascending by row id) and maintained by ``add`` from
        then on.  The dict is live index state (the chase's join
        kernels probe it directly): read it, never mutate it.
        """
        column = self._cols[pid][position]
        if column is None:
            build_start = perf_counter()
            self.index_builds += 1
            column = {}
            for ids in self._rows[pid]:
                tid = ids[position]
                bucket = column.get(tid)
                if bucket is None:
                    column[tid] = [ids]
                else:
                    bucket.append(ids)
            self._cols[pid][position] = column
            self._built[pid].append(position)
            entry = self._index_profile.get(pid)
            if entry is None:
                self._index_profile[pid] = [1, perf_counter() - build_start]
            else:
                entry[0] += 1
                entry[1] += perf_counter() - build_start
        return column

    def posting(self, pid: int, position: int, tid: int):
        """Read-only posting list for ``(pid, position, tid)``.

        This is the safe public accessor (the join hot path probes
        :meth:`column` instead): an immutable tuple of the
        column's packed facts in row order.
        """
        bucket = self.column(pid, position).get(tid)
        if not bucket:
            return ()
        return tuple(bucket)

    def has_projection(
        self, pid: int, signature: Tuple[int, ...], value: Tuple[int, ...]
    ) -> bool:
        """True iff some stored fact over ``pid`` has ``value`` at the
        positions ``signature``.

        The existence-only twin of :meth:`candidates`, with the probe
        pre-split into the tuple of bound positions and the term ids at
        them — the form compiled head plans can build with one
        itemgetter.  A multi-position probe is one lookup in the
        projection index.
        """
        if not signature:
            return self.count(pid) > 0
        if len(signature) == 1:
            return value[0] in self.column(pid, signature[0])
        rows = self._rows[pid]
        entry = self._proj[pid].get(signature)
        if entry is None:
            build_start = perf_counter()
            self.index_builds += 1
            getter = itemgetter(*signature)
            projections = set(map(getter, rows))
            self._proj[pid][signature] = [projections, len(rows), getter]
            profile = self._index_profile.get(pid)
            if profile is None:
                self._index_profile[pid] = [1, perf_counter() - build_start]
            else:
                profile[0] += 1
                profile[1] += perf_counter() - build_start
        else:
            projections, watermark, getter = entry
            if watermark != len(rows):
                projections.update(map(getter, rows[watermark:]))
                entry[1] = len(rows)
        return value in projections

    def candidates(self, pid: int, bound: Sequence[Tuple[int, int]]):
        """Facts over ``pid`` matching the bound ``(position, tid)`` pairs.

        Returns an iterable of packed fact tuples; it may alias live
        index state and must not be kept across mutations.  The probe
        walks the *smallest* posting column and filters it by direct
        position compares, yielding facts in insertion (row) order.  A
        provably empty probe returns a falsy empty container.
        """
        if not bound:
            return self._rows[pid]
        if len(bound) == 1:
            position, tid = bound[0]
            return self.column(pid, position).get(tid, ())
        # Multi-position probe: walk the smallest column and keep the
        # facts whose remaining bound positions match.  A direct
        # ``ids[position] == tid`` compare per fact beats any hash
        # index here — same O(smallest column) as a set intersection,
        # but with int compares instead of tuple hashes and zero index
        # maintenance on the add path.
        buckets: List[Tuple[int, int, List[Tuple[int, ...]]]] = []
        for position, tid in bound:
            bucket = self.column(pid, position).get(tid)
            if not bucket:
                return ()
            buckets.append((position, tid, bucket))
        best = 0
        for index in range(1, len(buckets)):
            if len(buckets[index][2]) < len(buckets[best][2]):
                best = index
        smallest = buckets[best][2]
        if len(buckets) == 2:
            position, tid, _ = buckets[1 - best]
            return [ids for ids in smallest if ids[position] == tid]
        rest = [
            (position, tid)
            for index, (position, tid, _) in enumerate(buckets)
            if index != best
        ]
        return [
            ids
            for ids in smallest
            if all(ids[position] == tid for position, tid in rest)
        ]

    # -- snapshots ---------------------------------------------------------

    def snapshot(
        self, complete: Optional[bool] = None, rounds: Optional[int] = None
    ) -> bytes:
        """Encode the whole store as one plain-bytes blob.

        ``complete`` stamps the header with what the caller knows about
        the store's provenance: ``True`` for a *terminated* chase
        result (safe to resume from), ``False`` for a budget-stopped
        prefix (resuming would silently drop the still-pending
        triggers), ``None``/absent when the store is not a chase result
        at all (e.g. an encoded database shipped to a worker).

        ``rounds`` optionally stamps how many chase rounds produced the
        store (cumulative across resumes); a run resumed from the
        snapshot reports it as its base-run offset.  The key is only
        written when given, so snapshots of plain databases keep their
        exact pre-existing byte layout.

        The wire format is a JSON header (interner tables: predicates,
        constants, null recipes) followed by packed binary columns —
        the per-id depth column and, per predicate, the fact rows as
        ``array('q').tobytes()``.  :meth:`restore` rebuilds an
        equivalent store without parsing any fact text
        or re-deriving any null label; decoding the restored store
        yields atoms equal to the original's, and canonical
        fingerprints are preserved.

        Foreign nulls (interned from an input instance rather than
        invented here) are recipe-encoded first
        (:meth:`register_foreign_nulls`).
        """
        self.register_foreign_nulls()
        terms: List[object] = []
        for index, term in enumerate(self._term_of_id):
            recipe = self._null_recipe.get(index)
            if recipe is not None:
                rule_id, variable, names, ids = recipe
                terms.append([rule_id, variable, list(names), list(ids)])
            else:
                assert isinstance(term, Constant), "id without a term or a recipe"
                terms.append(term.name)
        header = {
            "version": 1,
            "byteorder": sys.byteorder,
            "itemsize": array("q").itemsize,
            "predicates": [[p.name, p.arity] for p in self._pred_of],
            "terms": terms,
            "facts": [self.count(pid) for pid in range(len(self._pred_of))],
            "size": self._size,
            # max_depth() first: depths are folded lazily.
            "max_depth": self.max_depth(),
            "foreign": self._has_foreign_nulls,
            "complete": complete,
        }
        if rounds is not None:
            header["rounds"] = rounds
        header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
        chunks = [
            SNAPSHOT_MAGIC,
            len(header_bytes).to_bytes(8, "little"),
            header_bytes,
            array("q", self._depth_of_id).tobytes(),
        ]
        for pid in range(len(self._pred_of)):
            flat = array("q")
            for ids in self.facts_of(pid):
                flat.extend(ids)
            chunks.append(flat.tobytes())
        return b"".join(chunks)

    def register_foreign_nulls(self) -> None:
        """Give every foreign null the recipe its inventor would have used.

        A null interned from an input instance (rather than invented
        here) gets its ``(rule, variable, names, ids)`` key registered
        as if :meth:`intern_null` had made it, which is how
        :meth:`snapshot` encodes it and how :meth:`restore` brings it
        back.  A store seeded from an instance with nulls therefore
        reads exactly like its restored snapshot: a re-invented input
        null is found on the fast path, and :meth:`null_count` counts
        input nulls from the start.  The binding terms are interned on
        the fly (the walk picks up any it appends), which may add a few
        terms to this store — harmless, since interning never changes
        the stored facts.
        """
        if not self._has_foreign_nulls:
            return
        terms = self._term_of_id
        recipes = self._null_recipe
        index = 0
        while index < len(terms):
            term = terms[index]
            if index not in recipes and isinstance(term, Null):
                ids = tuple(self.intern_term(t) for _, t in term.binding)
                names = tuple(n for n, _ in term.binding)
                key = (term.rule_id, term.variable, names, ids)
                recipes[index] = key
                self._null_ids.setdefault(key, index)
            index += 1

    @classmethod
    def restore(cls, data: bytes) -> "FactStore":
        """Rebuild a store from :meth:`snapshot` bytes."""
        header, offset = inspect_snapshot(data, _with_offset=True)
        store = cls()
        itemsize = int(header["itemsize"])
        arities = [int(arity) for _, arity in header["predicates"]]
        expected = (
            offset
            + len(header["terms"]) * itemsize
            + sum(
                int(count) * arity * itemsize
                for count, arity in zip(header["facts"], arities)
            )
        )
        if len(data) != expected:
            # A crash mid-write (or a clipped base64 cache line) must
            # fail loudly, not restore a silently incomplete store.
            raise ValueError(
                f"truncated or padded snapshot: {len(data)} bytes, "
                f"header promises {expected}"
            )
        for name, arity in header["predicates"]:
            store.intern_predicate(Predicate(str(name), int(arity)))
        id_of_term = store._id_of_term
        term_of_id = store._term_of_id
        null_ids = store._null_ids
        null_recipe = store._null_recipe
        for entry in header["terms"]:
            tid = len(term_of_id)
            if isinstance(entry, str):
                constant = Constant(entry)
                id_of_term[constant] = tid
                term_of_id.append(constant)
            else:
                rule_id, variable, names, ids = entry
                key = (str(rule_id), str(variable), tuple(names), tuple(ids))
                null_ids[key] = tid
                null_recipe[tid] = key
                term_of_id.append(None)
        term_count = len(term_of_id)
        depths = array("q")
        depths.frombytes(data[offset : offset + term_count * itemsize])
        offset += term_count * itemsize
        if header["byteorder"] != sys.byteorder:  # pragma: no cover - cross-endian
            depths.byteswap()
        store._depth_of_id = list(depths)
        for pid, fact_count in enumerate(header["facts"]):
            arity = store._pred_of[pid].arity
            length = fact_count * arity * itemsize
            flat = array("q")
            flat.frombytes(data[offset : offset + length])
            offset += length
            if header["byteorder"] != sys.byteorder:  # pragma: no cover
                flat.byteswap()
            store._load_facts(pid, arity, flat, fact_count)
        store._size = int(header["size"])
        store._max_depth = int(header["max_depth"])
        store._has_foreign_nulls = bool(header["foreign"])
        rounds = header.get("rounds")
        store.restored_rounds = int(rounds) if rounds is not None else None
        return store

    def _load_facts(self, pid: int, arity: int, flat: array, fact_count: int) -> None:
        """Bulk-load trusted (pre-deduplicated) facts from a flat column."""
        if arity == 0:
            # A nullary predicate holds at most the empty fact.
            facts = [()] * fact_count
        else:
            facts = [
                tuple(flat[base : base + arity])
                for base in range(0, fact_count * arity, arity)
            ]
        rows = self._rows[pid]
        row_of = self._row_of[pid]
        for ids in facts:
            row_of[ids] = len(rows)
            rows.append(ids)
        # Posting columns stay unbuilt (they backfill lazily on first
        # probe), and the caller (restore) sets _max_depth from the
        # header: these rows are already folded.
        self._depth_marks[pid] = len(rows)


def inspect_snapshot(data: bytes, _with_offset: bool = False):
    """Decode just the JSON header of a snapshot (cheap: no fact load).

    Returns the header dict — predicates, interner tables, fact counts,
    size, max depth — which is what ``python -m repro snapshot inspect``
    prints.
    """
    if not data.startswith(SNAPSHOT_MAGIC):
        raise ValueError("not a fact-store snapshot (bad magic)")
    start = len(SNAPSHOT_MAGIC)
    header_length = int.from_bytes(data[start : start + 8], "little")
    header_start = start + 8
    header = json.loads(data[header_start : header_start + header_length])
    if header.get("version") != 1:
        raise ValueError(f"unsupported snapshot version {header.get('version')!r}")
    if _with_offset:
        return header, header_start + header_length
    return header
