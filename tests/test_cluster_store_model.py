"""A model of one ``ShardStore`` (ROADMAP 4c, the single-store half).

A hypothesis state machine drives one store -- puts, overwrites,
deletes, kills at every ``PUT_STAGES`` entry, compactions and kills at
every ``COMPACT_STAGES`` entry, crash + recover, bit rot in payloads
and in record headers, truncation at an arbitrary byte, scrubs, reads
-- beside a dict that says what a reader is owed:

- an acked value comes back bit-exact, or a typed ``StoreError`` is
  raised -- and a typed error, a missing key or an *older* acked value
  only ever for a key that injected damage could have reached;
- a put killed before its ack point is wholly absent after recovery,
  one killed after it wholly present;
- ``recover()`` is idempotent;
- ``max_version()`` never goes backwards without a truncation, not
  even over a key deleted before a compaction dropped its records.

Seeded and derandomised: the same rule sequences run on every machine.
The directed half of the store's tests is ``test_cluster_store.py``.
"""

import hashlib
import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.store import (
    COMPACT_STAGES,
    PUT_STAGES,
    NotFound,
    Quarantined,
    ShardStore,
)
from repro.resilience.faults import FaultInjector

KEYS = [f"k{index}" for index in range(5)]
FILE_HEADER = 5  # b"LVJ1" + version byte
ABSENT = object()
QUARANTINED = object()

keys = st.sampled_from(KEYS)
payloads = st.binary(max_size=300)
seeds = st.integers(min_value=0, max_value=2**16)


class Killed(Exception):
    """The process died at a put stage."""


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="llm265-store-model-")
        self.store = ShardStore(self.directory, fsync=False)
        self.version = 0
        #: key -> (version, payload) of the acked, undeleted value.
        self.current = {}
        #: key -> every payload ever acked under it.
        self.history = {key: [] for key in KEYS}
        #: Keys injected damage may have reached: all a reader is owed
        #: for these is "some acked value of this key, or typed".
        self.suspect = set()
        #: Damage outside a payload span since the last recovery: the
        #: next replay stops there, so later acks are suspect too.
        self.poisoned = False
        #: (end offset, key) of every acked record still in the log.
        self.records = []
        self.version_floor = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- bookkeeping ----------------------------------------------------

    def _size(self):
        return os.path.getsize(self.store.journal_path)

    def _ack(self, key, payload):
        """The store acked ``payload`` (``ABSENT``: a delete) for ``key``."""
        if payload is ABSENT:
            self.current.pop(key, None)
        else:
            self.current[key] = (self.version, payload)
            self.history[key].append(payload)
        self.records.append((self._size(), key))
        if self.poisoned:
            self.suspect.add(key)
        else:
            self.suspect.discard(key)

    def _read(self, key):
        try:
            return self.store.get(key)
        except NotFound:
            return ABSENT
        except Quarantined:
            return QUARANTINED

    def _check_read(self, key):
        got = self._read(key)
        if key in self.suspect:
            assert (
                got is ABSENT or got is QUARANTINED
                or got in self.history[key]
            ), f"{key}: bytes that were never acked"
        else:
            owed = self.current.get(key, (0, ABSENT))[1]
            assert got is owed or got == owed, f"{key}: undamaged, not exact"
        return got

    def _damaged_from(self, offset):
        """Bytes at ``offset`` and after can no longer be trusted."""
        self.suspect.update(key for end, key in self.records if end > offset)
        self.poisoned = True

    def _follow_compaction(self):
        """The log now holds one record per indexed key, in a new place;
        superseded records and tombstones are gone (a deleted key has no
        record left for damage to reach)."""
        self.records = sorted(
            (offset + length, key)
            for key in self.store.keys()
            for offset, length in [self.store.payload_span(key)]
        )

    def _restart(self):
        self.store.crash()
        report = self.store.recover()
        # An unfinished compaction's copy never outlives recovery.
        assert not os.path.exists(self.store.compact_path)
        size = self._size()
        self.records = [(end, key) for end, key in self.records if end <= size]
        if report.truncated_bytes or self.poisoned:
            self.version_floor = self.store.max_version()
        self.poisoned = False
        # The log is clean again; what survived is what is owed now.
        for key in sorted(self.suspect):
            got = self._check_read(key)
            if got is QUARANTINED:
                continue
            if got is ABSENT:
                self.current.pop(key, None)
            else:
                self.current[key] = (self.store.digest()[key][0], got)
            self.suspect.discard(key)
        return report

    # -- rules ------------------------------------------------------------

    @rule(key=keys, payload=payloads)
    def put(self, key, payload):
        self.version += 1
        self.store.put(key, payload, self.version)
        self._ack(key, payload)

    @precondition(lambda self: set(self.current) - self.suspect)
    @rule(data=st.data(), payload=payloads)
    def stale_put(self, data, payload):
        """A repair loser: acked, journaled, and never to be served."""
        key = data.draw(
            st.sampled_from(sorted(set(self.current) - self.suspect))
        )
        self.store.put(key, payload + b"stale", self.current[key][0] - 1)
        self.records.append((self._size(), key))

    @rule(key=keys)
    def delete(self, key):
        self.version += 1
        self.store.delete(key, self.version)
        self._ack(key, ABSENT)

    @rule(key=keys, payload=payloads, stage=st.sampled_from(PUT_STAGES))
    def killed_put(self, key, payload, stage):
        def gate(reached):
            if reached == stage:
                raise Killed()

        self.version += 1
        try:
            self.store.put(key, payload, self.version, gate=gate)
        except Killed:
            pass
        else:
            raise AssertionError(f"gate never reached {stage}")
        # Whole on disk at the kill: past the ack point -- or an empty
        # payload, whose "half" is all of it.  Wholly present then,
        # wholly absent (the old value) otherwise; never in between.
        whole = stage == "journal_synced" or (
            stage == "payload_partial" and not payload
        )
        if whole:
            self._ack(key, payload)
        self._restart()
        self._check_read(key)

    @rule()
    def compact(self):
        outcome = self.store.compact()
        # Only damage the model injected can fail the copy's CRC check.
        assert set(outcome["quarantined"]) <= self.suspect
        self._follow_compaction()

    @rule(stage=st.sampled_from(COMPACT_STAGES))
    def killed_compaction(self, stage):
        def gate(reached):
            if reached == stage:
                raise Killed()

        try:
            self.store.compact(gate=gate)
        except Killed:
            pass
        else:
            raise AssertionError(f"gate never reached {stage}")
        # Before the rename the old journal is the store; from it on,
        # the compacted one.  Either way every acked write is owed.
        self._restart()
        if stage == "compact_renamed":
            self._follow_compaction()

    @rule()
    def crash_and_recover(self):
        self._restart()
        before = (self.store.digest(), self.store.keys(), self._size())
        again = self.store.recover()
        assert not again.truncated_bytes and not again.torn_tail
        assert not again.corrupt_records
        assert (self.store.digest(), self.store.keys(), self._size()) == before

    @precondition(lambda self: self.current)
    @rule(data=st.data(), seed=seeds)
    def rot_payload(self, data, seed):
        key = data.draw(st.sampled_from(sorted(self.current)))
        if key not in self.store.keys():
            return  # already lost to earlier damage
        offset, length = self.store.payload_span(key)
        FaultInjector(seed=seed).damage_span(
            self.store.journal_path, offset, length, "bit_flip"
        )
        self.suspect.add(key)

    @precondition(lambda self: self.records)
    @rule(data=st.data(), byte=st.integers(0, 18), bit=st.integers(0, 7))
    def rot_header(self, data, byte, bit):
        index = data.draw(st.integers(0, len(self.records) - 1))
        # A record starts where the one before it ended; its first 19
        # bytes (frame + op/version/key_len) are header whatever the key.
        start = self.records[index - 1][0] if index else FILE_HEADER
        if start + byte >= self._size():
            return
        with open(self.store.journal_path, "r+b") as handle:
            handle.seek(start + byte)
            value = handle.read(1)[0]
            handle.seek(start + byte)
            handle.write(bytes([value ^ (1 << bit)]))
        self._damaged_from(start)

    @rule(fraction=st.floats(0.0, 1.0, exclude_max=True))
    def truncate(self, fraction):
        # Anywhere behind the 5-byte file header: that is fsynced before
        # the first record exists, and a live store appending behind a
        # cut-off magic would forge a "version" byte (typed refusal to
        # open -- test_cluster_store.py has that case).
        cut = FILE_HEADER + int(fraction * (self._size() - FILE_HEADER))
        FaultInjector().file_truncate(self.store.journal_path, at=cut)
        self._damaged_from(cut)

    @rule(budget=st.sampled_from([1, 3, None]))
    def scrub(self, budget):
        outcome = self.store.scrub(budget)
        assert set(outcome["corrupt"]) <= self.suspect

    @rule(key=keys)
    def get(self, key):
        self._check_read(key)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def version_clock_never_runs_backwards(self):
        assert self.store.open
        assert self.store.max_version() >= self.version_floor
        self.version_floor = self.store.max_version()

    @invariant()
    def digest_matches_every_undamaged_key(self):
        digest = self.store.digest()
        for key in KEYS:
            if key in self.suspect:
                continue
            owed = self.current.get(key)
            assert digest.get(key) == (owed and (
                owed[0],
                hashlib.blake2b(owed[1], digest_size=16).hexdigest(),
            ))


TestStoreModel = StoreMachine.TestCase
TestStoreModel.settings = settings(
    max_examples=200,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
)
