"""The batched faulted-ledger path against the per-chunk code it replaced.

:meth:`DestinationLedger._sync_faulted` books a whole sync's completions
as one batch (column slice or fancy-index writes, vector SplitMix64
in-flight draws, one ``_order`` update), the at-rest strike draws every
durable chunk in one vector, ``begin_pass`` builds its queue with array
ops, and :meth:`VerifiedTransfer._verified_resume` checks every claim in
one compare.  The per-chunk forms they replaced are embedded below
verbatim as the oracle (:class:`OracleLedger`, :func:`oracle_verified_resume`).
A hypothesis sweep drives both through the same operations and requires
identical status/digest/send columns, ``_order``, queue state, returned
completions, raised errors and journal bytes, across:

* overlapping in-flight :class:`DataCorruption` windows (rates 0, 1 and in
  between), :class:`TornWrite`, :class:`SilentTruncation` and at-rest
  corruption;
* repair passes over id subsets, with and without demotion (re-sends);
* sub-chunk deltas, stale observations, overshoot, ±0.5-byte edges around
  chunk boundaries, and fractional chunk and file sizes (as in mixed
  datasets).
"""

import math
import tempfile
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import StaticController
from repro.emulator import (
    DataCorruption,
    FaultSchedule,
    NetworkConfig,
    SilentTruncation,
    StorageConfig,
    Testbed,
    TestbedConfig,
    TornWrite,
)
from repro.parallel.seeds import spawn_key
from repro.transfer import (
    ChunkJournal,
    DestinationLedger,
    EngineConfig,
    IntegrityConfig,
    ModularTransferEngine,
    SupervisorConfig,
    TransferManifest,
    TransferSupervisor,
    VerifiedTransfer,
)
from repro.transfer.files import Dataset, FileSpec
from repro.transfer.integrity import (
    _COMPLETE_EPS,
    _CORRUPT,
    _DRAW_ATREST,
    _DRAW_INFLIGHT,
    _MISSING,
    _OK,
    _TORN,
    _U64,
)
from repro.utils.errors import IntegrityError
from repro.utils.units import GiB


def left_fold(values) -> float:
    """``((v0 + v1) + v2) + …`` — what the resume offsets must add up to."""
    total = 0.0
    for value in values:
        total += value
    return total


# ------------------------------------------------- the per-chunk code (oracle)
class OracleLedger(DestinationLedger):
    """The ledger with its per-chunk faulted path, verbatim.

    One line differs: ``_apply_instant`` re-syncs ``_clean_tail`` after a
    silent truncation.  Without it a truncation that no completion follows
    leaves ``_clean_tail`` past the end of ``_order``, and the next column
    read raises ``IndexError`` (see ``test_truncation_without_progress``).
    """

    def _uniform(self, tag: int, chunk_id: int, send: int) -> float:
        """Deterministic uniform draw in [0, 1) for one (chunk, send) pair."""
        return spawn_key(self.seed, (tag, chunk_id, send)) / _U64

    def _complete_chunk(self, chunk_id: int, t: float) -> int:
        """Mark one chunk durable; returns the digest the destination holds."""
        send = int(self._send_arr[chunk_id]) + 1
        self._send_arr[chunk_id] = send
        if self._torn_pending:
            self._torn_pending = False
            code, digest = _TORN, self._divergent_digest(chunk_id, b"|torn:%d" % send)
        else:
            rate = self.faults.corruption_rate(t) if self.faults is not None else 0.0
            if rate > 0.0 and self._uniform(_DRAW_INFLIGHT, chunk_id, send) < rate:
                code, digest = _CORRUPT, self._divergent_digest(
                    chunk_id, b"|flip:%d" % send
                )
            else:
                code, digest = _OK, self._expected[chunk_id]
        self._status_arr[chunk_id] = code
        self._digest_arr[chunk_id] = digest
        order_set = self._ordered_ids()
        if chunk_id in order_set:  # re-send: move to the tail (rare)
            self._order.remove(chunk_id)
        else:
            order_set.add(chunk_id)
        self._order.append(chunk_id)
        self._clean_tail = len(self._order)  # columns are current for this entry
        return digest

    def _apply_instant(self, event) -> None:
        if isinstance(event, TornWrite):
            # The chunk in flight at the tear completes with a garbage tail.
            if self._head < len(self._pending):
                self._torn_pending = True
        elif isinstance(event, SilentTruncation):
            # The destination silently loses its most recent durable chunks.
            lost = self._order[-event.chunks :]
            if lost:
                ids = np.asarray(lost, dtype=np.int64)
                self._status_arr[ids] = _MISSING
                self._digest_arr[ids] = -1
                self._ordered_ids().difference_update(lost)
            del self._order[len(self._order) - min(event.chunks, len(self._order)) :]
            self._clean_tail = len(self._order)  # the one added line
        elif isinstance(event, DataCorruption):  # site == "storage", at-rest
            for chunk_id in list(self._order):
                if self._status_arr[chunk_id] != _OK:
                    continue
                send = int(self._send_arr[chunk_id])
                if self._uniform(_DRAW_ATREST, chunk_id, send) < event.rate:
                    self._status_arr[chunk_id] = _CORRUPT
                    self._digest_arr[chunk_id] = self._divergent_digest(
                        chunk_id, b"|rest:%d" % send
                    )

    def begin_pass(self, chunk_ids, *, start_bytes: float) -> None:
        self._materialize()  # fold the previous pass before swapping queues
        self._order_head = 0
        if isinstance(chunk_ids, range) and chunk_ids == range(len(self._all_ids)):
            ids = None  # full pass, checked O(1)
        elif isinstance(chunk_ids, range):
            ids = list(chunk_ids) if chunk_ids.step == 1 else sorted(chunk_ids)
        else:
            ids = sorted(int(c) for c in chunk_ids)
        if ids is None or (
            len(ids) == len(self._all_ids)
            and (not ids or (ids[0] == 0 and ids[-1] == len(ids) - 1))
        ):
            # Full pass (sorted distinct ids spanning 0..n-1): reuse the
            # precomputed queue instead of rebuilding 3 × n-element lists.
            self._pending = self._all_ids
            self._pend_cum = self._full_cum
            self._pend_dig = self._expected
        else:
            sizes, expected = self._sizes, self._expected
            self._pending = ids
            self._pend_cum = list(accumulate(sizes[c] for c in ids))
            self._pend_dig = [expected[c] for c in ids]
        self._head = 0
        self._partial = 0.0
        self._consumed = 0.0
        self._synced_bytes = float(start_bytes)
        self._torn_pending = False

    def _sync_faulted(self, delta, t, journal):
        """Scalar delta mapping for faulted ledgers (torn/corrupt outcomes)."""
        pending, sizes, head, partial = (
            self._pending,
            self._sizes,
            self._head,
            self._partial,
        )
        count = len(pending)
        completed: list[tuple[int, int]] = []
        while delta > 0.0 and head < count:
            chunk_id = pending[head]
            need = sizes[chunk_id] - partial
            if delta >= need - _COMPLETE_EPS:
                delta -= need
                partial = 0.0
                head += 1
                completed.append((chunk_id, self._complete_chunk(chunk_id, t)))
            else:
                partial += delta
                delta = 0.0
        self._head, self._partial = head, partial
        self._consumed = (self._pend_cum[head - 1] if head else 0.0) + partial
        if delta > _COMPLETE_EPS and head >= count:
            raise IntegrityError(
                f"destination received {delta:.0f} bytes beyond the pending chunk set"
            )
        if journal is not None and completed:
            journal.record_batch(
                [c for c, _ in completed], [d for _, d in completed], t
            )
            return []
        return completed

    def demote(self, chunk_ids: list[int]) -> None:
        """Mark chunks non-durable so a repair pass re-transfers them."""
        self._materialize()
        if len(chunk_ids):
            ids = np.asarray(list(chunk_ids), dtype=np.int64)
            self._status_arr[ids] = _MISSING
            self._digest_arr[ids] = -1
            dropped = set(int(c) for c in chunk_ids) & self._ordered_ids()
            if dropped:
                self._order = [c for c in self._order if c not in dropped]
                self._order_set -= dropped
        self._clean_tail = len(self._order)


def oracle_verified_resume(self) -> tuple[float, int, list[int]]:
    """The per-claim resume, verbatim but for ``sum`` → :func:`left_fold`
    (builtin ``sum`` is a left fold before Python 3.12 and compensated from
    3.12 on; the resume offset is the left fold on every version)."""
    claims = self.journal.replay()
    expected = self.manifest.expected()
    verified: list[int] = []
    resent: list[int] = []
    for chunk_id, claim in claims.items():
        if chunk_id not in expected:
            continue  # journal from another manifest; ignore the claim
        if claim == expected[chunk_id] and self.ledger.matches(chunk_id):
            verified.append(chunk_id)
        else:
            resent.append(chunk_id)
    self.ledger.demote(resent)
    # Unclaimed-but-durable chunks (journal buffer lost in the crash)
    # are NOT trusted: conservative WAL semantics re-transfer them.
    resent_set = set(resent)
    unclaimed = [
        cid
        for cid in range(len(self.manifest))
        if cid not in claims or cid in resent_set
    ]
    self.ledger.demote([c for c in unclaimed if c not in resent_set])
    start_bytes = left_fold(self.manifest.size_of(c) for c in verified)
    self.ledger.begin_pass(unclaimed, start_bytes=start_bytes)
    return start_bytes, len(verified), resent


# ---------------------------------------------------------------- comparison
def ledger_state(ledger) -> dict:
    """Everything a later sync, read or resume depends on.

    The columns are read as a reader would see them — the deferred ok
    completions ``_order[_clean_tail:]`` folded in — but on copies, so
    the live ledger keeps its fold timing (a strike that forgot to fold
    first would clobber or miss deferred completions, and must show).
    """
    status, digests, sends = (
        arr.copy() for arr in (ledger._status_arr, ledger._digest_arr, ledger._send_arr)
    )
    assert 0 <= ledger._clean_tail <= len(ledger._order)
    tail = np.array(ledger._order[ledger._clean_tail :], dtype=np.int64)
    status[tail] = _OK
    digests[tail] = ledger._expected_np[tail]
    sends[tail] += 1
    return {
        "status": status.tolist(),
        "digests": digests.tolist(),
        "sends": sends.tolist(),
        "order": list(ledger._order),
        "order_set": ledger._ordered_ids() == set(ledger._order),
        "pending": list(ledger._pending),
        "pend_cum": list(ledger._pend_cum),
        "pend_dig": list(ledger._pend_dig),
        "scalars": (
            ledger._head,
            ledger._partial,
            ledger._consumed,
            ledger._synced_bytes,
            ledger.bytes_applied_total,
            ledger._clock,
            ledger._torn_pending,
        ),
    }


def call(fn, *args, **kwargs):
    """``fn``'s result, or the (type, message) of the IntegrityError it raised."""
    try:
        return fn(*args, **kwargs)
    except IntegrityError as exc:
        return (IntegrityError, str(exc))


class Twin:
    """A batched ledger and an oracle ledger driven in lockstep."""

    def __init__(self, manifest, events, seed, tmp: Path, flush_every: int) -> None:
        self.manifest = manifest
        self.new = DestinationLedger(manifest, FaultSchedule(list(events)), seed=seed)
        self.old = OracleLedger(manifest, FaultSchedule(list(events)), seed=seed)
        self.paths = (tmp / "new.jsonl", tmp / "old.jsonl")
        self.journals = [
            ChunkJournal(path, flush_every=flush_every, expected=manifest.chunk_digests)
            for path in self.paths
        ]

    def check(self) -> None:
        assert ledger_state(self.new) == ledger_state(self.old)

    def begin_pass(self, ids, start_bytes: float, *, demote: bool) -> None:
        for ledger in (self.new, self.old):
            if demote:
                ledger.demote(list(ids))
            ledger.begin_pass(ids, start_bytes=start_bytes)
        self.check()

    def sync(self, bytes_total: float, t: float, journaled: bool) -> None:
        new_journal, old_journal = self.journals if journaled else (None, None)
        got = call(self.new.sync, bytes_total, t, new_journal)
        want = call(self.old.sync, bytes_total, t, old_journal)
        assert got == want
        self.check()

    def close(self) -> None:
        for journal in self.journals:
            journal.close()
        new_bytes, old_bytes = (
            path.read_bytes() if path.exists() else None for path in self.paths
        )
        assert new_bytes == old_bytes


# ---------------------------------------------------------------- strategies
HORIZON = 20.0
file_sizes = st.one_of(
    st.integers(1, 50_000).map(float), st.floats(1.0, 50_000.0, allow_nan=False)
)
chunk_sizes = st.one_of(
    st.sampled_from([1000.0, 1024.0, 4000.0]), st.floats(50.0, 3000.0, allow_nan=False)
)
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
instants = st.floats(0.0, HORIZON)
events = st.lists(
    st.one_of(
        st.builds(DataCorruption, start=instants, duration=st.floats(0.1, HORIZON),
                  rate=rates, site=st.just("network")),
        st.builds(DataCorruption, start=instants, duration=st.just(1.0),
                  rate=rates, site=st.just("storage")),
        st.builds(TornWrite, at=instants),
        st.builds(SilentTruncation, at=instants, chunks=st.integers(1, 4)),
    ),
    max_size=6,
)
seeds = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


def draw_target(data, cum: list[float], base: float, last: float) -> float:
    """The next engine byte count of a pass: mostly forward, to a ±0.5-byte
    edge around one of the next chunk boundaries or by a sub-chunk or
    few-chunk step; sometimes a stale repeat or an overshoot."""
    total = cum[-1] if cum else 0.0
    kind = data.draw(st.sampled_from(
        ["edge", "edge", "edge", "step", "step", "small", "stale", "over"]
    ))
    if kind == "edge" and cum:
        first = min(bisect_left(cum, last - base), len(cum) - 1)
        boundary = cum[data.draw(st.integers(first, min(first + 3, len(cum) - 1)))]
        offset = data.draw(st.sampled_from(
            [-0.5, 0.5, -0.51, -0.49, 0.49, 0.51, 0.0, -math.ulp(boundary) - 0.5]
        ))
        return base + boundary + offset
    if kind == "step":
        return last + data.draw(st.floats(0.0, 3.0)) * total / max(len(cum), 1)
    if kind == "small":
        return last + data.draw(st.floats(0.0, 300.0))
    if kind == "stale":
        return last - data.draw(st.floats(0.0, 100.0))
    return base + total + data.draw(st.floats(0.0, 2000.0))


def drive(twin: Twin, data, passes: int) -> None:
    """A first pass then ``passes - 1`` repair/re-send passes, syncing each."""
    manifest = twin.manifest
    n = len(manifest)
    t = 0.0
    for round_ in range(passes):
        if round_ == 0:
            ids = data.draw(st.sampled_from(["range", "list", "subset"]))
            ids = {
                "range": range(n),
                "list": list(range(n)),
                "subset": sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=48))),
            }[ids]
            demote = False
        elif data.draw(st.booleans()):
            ids = twin.new.verify()  # a repair pass over the bad chunks
            assert ids == twin.old.verify()
            demote = True
        else:  # re-send a subset, durable chunks included
            ids = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=48))
            demote = data.draw(st.booleans())
        order = sorted(ids)
        cum = list(accumulate(manifest.chunk_sizes[c] for c in order))
        base = manifest.total_bytes - (cum[-1] if cum else 0.0)
        twin.begin_pass(ids, base, demote=demote)
        last = base
        for _ in range(data.draw(st.integers(1, 30))):
            t += data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]))
            last = draw_target(data, cum, base, last)
            twin.sync(last, t, data.draw(st.booleans()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    files=st.lists(file_sizes, min_size=1, max_size=5),
    chunk_size=chunk_sizes,
    algorithm=st.sampled_from(["crc32c", "xxh32"]),
    schedule=events,
    seed=seeds,
    flush_every=st.sampled_from([1, 7, 512]),
    data=st.data(),
)
def test_faulted_sync_matches_per_chunk_oracle(
    files, chunk_size, algorithm, schedule, seed, flush_every, data
):
    manifest = TransferManifest(
        "ds", tuple((f"f{i}", size) for i, size in enumerate(files)), chunk_size,
        algorithm=algorithm, content_seed=data.draw(st.integers(0, 99)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        twin = Twin(manifest, schedule, seed, Path(tmp), flush_every)
        drive(twin, data, data.draw(st.integers(1, 4)))
        twin.close()


def test_heavy_overlap_every_fault_kind():
    """A fixed schedule with every fault kind live at once, repair to clean."""
    manifest = TransferManifest(
        "mixed", (("a", 123_456.789), ("b", 4_000.0), ("c", 77_777.25)), 997.3
    )
    schedule = [
        DataCorruption(start=0.0, duration=30.0, rate=0.3),
        DataCorruption(start=5.0, duration=10.0, rate=0.5),
        DataCorruption(start=8.0, duration=1.0, rate=1.0),
        DataCorruption(start=12.0, duration=1.0, rate=0.4, site="storage"),
        TornWrite(at=3.0),
        TornWrite(at=3.5),
        SilentTruncation(at=9.0, chunks=3),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        twin = Twin(manifest, schedule, 7, Path(tmp), 16)
        n = len(manifest)
        twin.begin_pass(range(n), 0.0, demote=False)
        step = manifest.total_bytes / 20
        for i in range(1, 21):
            twin.sync(i * step + 0.25, float(i), i % 3 != 0)
        for round_ in range(4):
            bad = twin.new.verify()
            if not bad:
                break
            twin.begin_pass(bad, manifest.total_bytes - manifest.bytes_of(bad), demote=True)
            twin.sync(manifest.total_bytes, 21.0 + round_, True)
        twin.close()
        statuses = set(twin.new.status.values())
    assert statuses == {"ok"}


# -------------------------------------------------------------- verified resume
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    files=st.lists(file_sizes, min_size=1, max_size=4),
    chunk_size=chunk_sizes,
    schedule=events,
    data=st.data(),
)
def test_verified_resume_matches_per_claim_oracle(files, chunk_size, schedule, data):
    """Crash mid-run (buffer lost, maybe a torn tail), tamper with claims,
    then resume: verified count, re-sent ids, start offset and the queued
    pass must equal the per-claim oracle's."""
    manifest = TransferManifest(
        "ds", tuple((f"f{i}", size) for i, size in enumerate(files)), chunk_size
    )
    n = len(manifest)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        twin = Twin(manifest, schedule, data.draw(seeds), tmp, data.draw(st.integers(1, 40)))
        drive(twin, data, data.draw(st.integers(1, 3)))
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, n + 3), st.integers(0, 2**32 - 1)), max_size=5
        ))
        torn_tail = data.draw(st.booleans())
        for journal in twin.journals:
            for cid, digest in extra:  # bogus or foreign claims, some flushed
                journal.record(cid, digest, 99.0)
            journal.crash(torn_tail=torn_tail)
        results = []
        for ledger, path in ((twin.new, twin.paths[0]), (twin.old, twin.paths[1])):
            journal = ChunkJournal(path, expected=manifest.chunk_digests)
            transfer = VerifiedTransfer(None, manifest, ledger, journal)
            resume = (
                VerifiedTransfer._verified_resume
                if ledger is twin.new
                else oracle_verified_resume
            )
            results.append(resume(transfer))
            journal.close()
        assert results[0] == results[1]
        assert type(results[0][0]) is float
        twin.check()


def fractional_manifest() -> TransferManifest:
    """Chunk sizes whose left fold, exact sum and sorted-order fold all
    round differently (checked by the tests that use it)."""
    rng = np.random.default_rng(11)
    files = tuple((f"f{i}", float(s)) for i, s in enumerate(rng.uniform(1.0, 9.0, 200)))
    return TransferManifest("frac", files, 0.7)


def test_resume_offset_is_left_fold_in_claim_order():
    manifest = fractional_manifest()
    n = len(manifest)
    claim_order = np.random.default_rng(3).permutation(n)[: n // 2].tolist()
    sizes = [manifest.chunk_sizes[c] for c in claim_order]
    want = left_fold(sizes)
    assert want != math.fsum(sizes)  # the data tell the sums apart
    assert want != left_fold(sorted(sizes))
    with tempfile.TemporaryDirectory() as tmp:
        ledger = DestinationLedger(manifest)
        ledger.begin_pass(range(n), start_bytes=0.0)
        ledger.sync(manifest.total_bytes, 1.0)
        journal = ChunkJournal(Path(tmp) / "j.jsonl", expected=manifest.chunk_digests)
        for cid in claim_order:
            journal.record(cid, manifest.chunk_digests[cid], 1.0)
        journal.flush()
        start, verified, resent = VerifiedTransfer(
            None, manifest, ledger, journal
        )._verified_resume()
        journal.close()
    assert (verified, resent) == (len(claim_order), [])
    assert start == want
    assert ledger._synced_bytes == want


def test_bytes_of_is_left_fold_in_given_order():
    manifest = fractional_manifest()
    ids = np.random.default_rng(5).permutation(len(manifest))[:300].tolist()
    sizes = [manifest.chunk_sizes[c] for c in ids]
    assert manifest.bytes_of(ids) == left_fold(sizes) != math.fsum(sizes)
    assert manifest.bytes_of([]) == 0.0


def test_repair_rewind_is_left_fold_of_bad_chunks(tmp_path):
    """Every repair pass resumes at ``total - left_fold(bad sizes)``."""
    testbed = Testbed(
        TestbedConfig(
            source=StorageConfig(tpt=80, bandwidth=1000),
            destination=StorageConfig(tpt=200, bandwidth=1000),
            network=NetworkConfig(tpt=160, capacity=1000, ramp_time=0.0),
            sender_buffer_capacity=1.0 * GiB,
            receiver_buffer_capacity=1.0 * GiB,
            max_threads=30,
        ),
        rng=0,
        faults=FaultSchedule([DataCorruption(start=0.0, duration=1e6, rate=0.5)]),
    )
    dataset = Dataset(
        [FileSpec(f"f{i}", 0.2e9 + 1234.567 * (i + 1) + 0.1 * i) for i in range(6)],
        name="frac",
    )
    engine = ModularTransferEngine(
        testbed, dataset, StaticController((13, 7, 5)), EngineConfig(max_seconds=600.0, seed=0)
    )
    verified = VerifiedTransfer.for_supervisor(
        TransferSupervisor(engine, SupervisorConfig(seed=0)),
        tmp_path,
        IntegrityConfig(chunk_size=0.0123e9, max_repair_rounds=6),
    )
    manifest, ledger = verified.manifest, verified.ledger
    passes = []
    begin_pass = ledger.begin_pass

    def recording(chunk_ids, *, start_bytes):
        passes.append((list(chunk_ids), start_bytes))
        begin_pass(chunk_ids, start_bytes=start_bytes)

    ledger.begin_pass = recording
    result = verified.run()
    verified.journal.close()
    assert result.repair_rounds >= 2
    for ids, start in passes[1:]:
        assert start == manifest.total_bytes - left_fold(manifest.chunk_sizes[c] for c in ids)


def test_truncation_without_progress():
    """A silent truncation that fires in a sync moving no bytes leaves the
    columns readable (the per-chunk ledger raised IndexError here)."""
    manifest = TransferManifest("ds", (("f", 1e9),), 0.25e9)
    ledger = DestinationLedger(manifest, FaultSchedule([SilentTruncation(at=5.0, chunks=1)]))
    ledger.begin_pass(range(len(manifest)), start_bytes=0.0)
    ledger.sync(0.5e9, 1.0)
    ledger.sync(0.5e9, 6.0)  # no new bytes; the truncation fires
    assert ledger.verify() == [1, 2, 3]
    assert ledger.status_counts() == {"ok": 1, "missing": 3}


@pytest.mark.parametrize("algorithm", ["crc32c", "xxh32"])
def test_manifest_arena_matches_per_chunk_tags(algorithm):
    """The join-built arena holds exactly the per-chunk payload tags."""
    manifest = TransferManifest(
        "dsé", (("a", 10.5), ("bé", 3.0), ("c", 1e4 + 0.25)), 0.75,
        algorithm=algorithm, content_seed=42,
    )
    tags = [manifest.payload(c.file, c.index) for c in manifest.chunks]
    assert b"".join(tags) == manifest._arena
    assert [bytes(manifest.payload_of(c)) for c in range(len(manifest))] == tags
    digest = manifest.digest_fn()
    assert manifest.chunk_digests == tuple(digest(tag) for tag in tags)
    offsets = list(accumulate((c.size for c in manifest.chunks), initial=0.0))[:-1]
    assert [c.offset for c in manifest.chunks] == offsets
