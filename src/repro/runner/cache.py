"""Content-addressed on-disk result cache for sweep jobs.

A campaign re-solves nothing it has already solved: every job is keyed
by a stable hash of *everything that determines its answer* -- the
serialized topology, demands, paths, the analysis parameters, and a
code-version salt -- and successful results are written to a cache
directory under that key.  Overlapping sweeps (e.g. Figure 5's grid and
Figure 6's CE variant share their baseline rows) and verbatim re-runs
then skip straight to the cached numbers.

Key stability rules:

* The hash is computed over *canonical JSON* (sorted keys, fixed
  separators), so dict ordering and process identity never matter --
  the same payload hashes identically across processes and machines.
* Any change to the topology document, the demand volumes, the path
  set, or any analysis parameter changes the key.
* ``CODE_SALT`` names the semantic version of the job *executor*; bump
  it whenever a change to the analysis code could alter results, and
  every existing cache entry is invalidated at once.

Durability rules (serving a wrong cached number is worse than a miss):

* Writes are atomic (temp file + ``os.replace``) and carry a **sha256
  footer** over the document line, so a torn write, a bit flip, or a
  hand-edited entry is *detectable*, not just unlikely.
* Reads verify the footer.  An unreadable, truncated, checksum-
  mismatched, or otherwise invalid entry is **quarantined** -- renamed
  to ``<key>.corrupt`` for post-mortem inspection -- logged once, and
  treated as a miss, so the job simply re-runs and the fresh result
  overwrites the key.  A corrupt entry can never poison a key forever.
* Footer-less entries written by older versions are still served when
  their JSON parses (they predate the checksum, not the format).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import CacheKeyError
from repro.resilience.faults import maybe_fire

logger = logging.getLogger(__name__)

#: Semantic version of the job execution code.  Part of every cache key:
#: bump on any change that can alter job results so stale entries are
#: never served.
CODE_SALT = "raha-runner-v1"

#: Prefix of the integrity footer line appended to every cache entry.
FOOTER_PREFIX = "sha256:"

#: How long an orphaned ``*.tmp`` write may sit before :meth:`prune`
#: sweeps it.  ``put`` stages entries as ``*.tmp`` files (one name per
#: key, process and thread) and atomically renames them into place; a
#: process killed between the two steps leaves a ``.tmp`` file that no
#: glob of ``*.json`` ever sees, so
#: without the sweep the debris is invisible to ``stats()`` and
#: unreclaimable forever.  The grace period keeps a *live* concurrent
#: ``put`` (created moments ago, rename imminent) safe from the sweep.
TMP_SWEEP_GRACE_SECONDS = 3600.0


def _offending_field(payload, path: str = "$") -> str | None:
    """The path of the first value that breaks canonical JSON, if any.

    Walks the payload in deterministic (sorted-key) order looking for
    non-finite floats and non-JSON types, returning a dotted path like
    ``$.params.threshold`` or ``$.instance.demands[3]``.
    """
    if isinstance(payload, float):
        if math.isnan(payload) or math.isinf(payload):
            return path
        return None
    if isinstance(payload, dict):
        for key in sorted(payload, key=str):
            if not isinstance(key, (str, int, float, bool, type(None))):
                return f"{path}.{key!r}"
            found = _offending_field(payload[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(payload, (list, tuple)):
        for index, item in enumerate(payload):
            found = _offending_field(item, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if isinstance(payload, (str, int, bool, type(None))):
        return None
    return path


def canonical_json(payload, path: str = "$") -> str:
    """Serialize a payload to its canonical (hashable) JSON form.

    Sorted keys and fixed separators make the encoding independent of
    insertion order; ``allow_nan=False`` rejects values that do not
    round-trip through JSON deterministically.  ``path`` names the
    payload's place in a larger document, for the error message.

    Raises:
        CacheKeyError: The payload contains a NaN/Inf float or a
            non-JSON value; the message names the offending field path
            (instead of the bare ``ValueError`` ``json.dumps`` raises,
            which is useless surfacing from deep inside a worker pool).
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (ValueError, TypeError) as exc:
        field = _offending_field(payload, path)
        raise CacheKeyError(
            f"payload cannot be content-addressed: non-canonical value "
            f"at {field or path} ({exc})"
        ) from exc


def canonical_object(fields: dict[str, str]) -> str:
    """The canonical JSON of a dict whose values are canonical JSON.

    ``canonical_object({k: canonical_json(v) for k, v in d.items()})``
    equals ``canonical_json(d)`` byte for byte for string keys: sorted
    keys, the same separators.  A large value many payloads share -- a
    sweep's instance -- is encoded once and spliced into each.
    """
    return "{" + ",".join(f"{canonical_json(key)}:{value}"
                          for key, value in sorted(fields.items())) + "}"


def canonical_key(text: str, salt: str = CODE_SALT) -> str:
    """The :func:`job_key` of the payload whose canonical JSON is ``text``."""
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\0")
    digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def job_key(payload, salt: str = CODE_SALT) -> str:
    """The content address of a job: sha256 over salt + canonical JSON."""
    return canonical_key(canonical_json(payload), salt)


def _footer_for(document_line: str) -> str:
    """The integrity footer of a serialized document line."""
    return FOOTER_PREFIX + hashlib.sha256(
        document_line.encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache entry, as the lifecycle tooling sees it."""

    key: str
    path: Path
    bytes: int
    mtime: float


class ResultCache:
    """A directory of checksummed ``<job key>.json`` result documents.

    Each entry is two lines: the JSON document, then a sha256 footer
    over it.  Writes are atomic (temp file + :func:`os.replace`) so a
    campaign killed mid-write never leaves a torn entry under the key
    -- and if anything *does* corrupt an entry (torn ``put`` from a
    killed process, disk trouble, manual edits), :meth:`get` quarantines
    it to ``<key>.corrupt`` and reports a miss instead of serving or
    raising.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # get/put build entry paths by string concatenation: a warm
        # campaign reads thousands of entries, and pathlib's joins cost
        # more than the read itself.
        self._prefix = os.path.join(os.fspath(self.root), "")

    def path_for(self, key: str) -> Path:
        """Where a key's result document lives."""
        return self.root / f"{key}.json"

    def quarantine_path_for(self, key: str) -> Path:
        """Where a key's corrupt entry is moved for inspection."""
        return self.root / f"{key}.corrupt"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def quarantined(self) -> list[Path]:
        """Quarantined corrupt entries awaiting inspection (or deletion)."""
        return sorted(self.root.glob("*.corrupt"))

    def get(self, key: str):
        """The cached result for ``key``, or ``None``.

        A torn/corrupt/checksum-mismatched entry is quarantined to
        ``<key>.corrupt`` and treated as a miss: the job re-runs and
        its fresh result overwrites the key.  Entries written before
        the footer existed (single-line valid JSON) are still served.

        The served document must also *claim* the key it is being
        served under (``document["key"] == key``): the checksum footer
        only proves the bytes are intact, so a copied or renamed entry
        -- an operator ``cp``, a botched sync, a filename collision --
        would otherwise silently return the wrong job's result.  A
        mismatch quarantines the entry like any other corruption.
        """
        path = f"{self._prefix}{key}.json"
        try:
            with open(path) as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(key, path, f"unreadable ({exc})")
            return None
        document_line, _, footer = text.rstrip("\n").partition("\n")
        if footer:
            if footer.strip() != _footer_for(document_line):
                self._quarantine(key, path, "checksum mismatch")
                return None
        try:
            document = json.loads(document_line)
            stored_key = document.get("key") \
                if isinstance(document, dict) else None
            if stored_key is not None and stored_key != key:
                self._quarantine(
                    key, path,
                    f"key mismatch (entry claims {stored_key!r})")
                return None
            return document["result"]
        except (ValueError, KeyError, TypeError, AttributeError):
            self._quarantine(key, path, "invalid document")
            return None

    def put(self, key: str, result) -> None:
        """Atomically store a successful job result under ``key``."""
        document = {"key": key, "salt": CODE_SALT, "result": result}
        line = json.dumps(document, sort_keys=True)
        body = line + "\n" + _footer_for(line) + "\n"
        if maybe_fire("cache.torn_write", key=key):
            # Chaos: simulate a process killed mid-write that somehow
            # left a partial entry under the final name (the scenario
            # atomic replace exists to prevent; injected to prove get()
            # survives it anyway).
            body = line[: max(1, len(line) // 2)]
        # Staged under a name no other process or thread writes, with
        # the mode mkstemp would give it, then renamed into place.
        tmp = f"{self._prefix}{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            try:
                data = memoryview(body.encode("utf-8"))
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, f"{self._prefix}{key}.json")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def writer(self) -> WriteBehind:
        """A write-behind for a batch of :meth:`put` calls.

        ``with cache.writer() as write:`` yields ``write``:
        ``write(key, result)`` hands one put to one writer thread and
        ``write.extend(pairs)`` hands it a batch of ``(key, result)``
        pairs at once; both return at once, so the caller's next
        computation overlaps the file work.  See :class:`WriteBehind`.
        """
        return WriteBehind(self)

    def entries(self) -> list[CacheEntry]:
        """Every entry, oldest mtime first (the eviction order).

        Ties on mtime break by key so the order is deterministic;
        entries that vanish mid-scan (concurrent prune) are skipped.
        """
        out = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append(CacheEntry(key=path.stem, path=path,
                                  bytes=stat.st_size, mtime=stat.st_mtime))
        return sorted(out, key=lambda e: (e.mtime, e.key))

    def total_bytes(self) -> int:
        """Sum of entry sizes (quarantined files not counted)."""
        return sum(entry.bytes for entry in self.entries())

    def tmp_files(self) -> list[Path]:
        """Staged ``*.tmp`` writes currently on disk.

        Normally transient (a live ``put`` between creating the file and
        the atomic rename); anything old is debris from a crashed writer.
        """
        return sorted(self.root.glob("*.tmp"))

    def stats(self) -> dict:
        """Operator-facing summary for ``repro cache stats``."""
        entries = self.entries()
        tmp_bytes = 0
        tmp_count = 0
        for path in self.tmp_files():
            try:
                tmp_bytes += path.stat().st_size
            except OSError:
                continue
            tmp_count += 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(e.bytes for e in entries),
            "quarantined": len(self.quarantined()),
            "tmp_files": tmp_count,
            "tmp_bytes": tmp_bytes,
            "oldest_mtime": entries[0].mtime if entries else None,
            "newest_mtime": entries[-1].mtime if entries else None,
        }

    def prune(self, max_bytes: int | None = None,
              ttl_seconds: float | None = None,
              protected=(), now: float | None = None,
              tmp_grace_seconds: float = TMP_SWEEP_GRACE_SECONDS) -> dict:
        """Evict entries by age then size; never touch protected keys.

        Policy (``repro cache prune`` and the service's result store):

        1. *Stale-temp sweep*: orphaned ``*.tmp`` staging files older
           than ``tmp_grace_seconds`` are deleted -- debris from a
           writer killed between creating one and the atomic rename,
           which no ``*.json`` glob would ever reclaim.  Younger temp
           files are left alone (they may belong to a live ``put``).
        2. *TTL*: entries whose mtime is older than ``now -
           ttl_seconds`` are removed (``None`` disables).
        3. *Size cap*: while the remaining total exceeds ``max_bytes``,
           the oldest-mtime entry is removed (``None`` disables).

        Keys in ``protected`` (e.g. jobs currently queued or running in
        a live analysis service) are never evicted by either rule, even
        if the size cap cannot be met without them.

        Returns:
            ``{"removed", "removed_bytes", "kept", "kept_bytes",
            "protected_kept", "tmp_removed", "tmp_removed_bytes"}``.
        """
        now = time.time() if now is None else now
        protected = set(protected)
        removed = removed_bytes = 0
        tmp_removed = tmp_removed_bytes = 0
        for path in self.tmp_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            if stat.st_mtime >= now - tmp_grace_seconds:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            tmp_removed += 1
            tmp_removed_bytes += stat.st_size
        spared: set[str] = set()  # protected keys a rule would have hit
        survivors = []
        for entry in self.entries():
            expired = (ttl_seconds is not None
                       and entry.mtime < now - ttl_seconds)
            if expired and entry.key not in protected:
                if self._remove(entry):
                    removed += 1
                    removed_bytes += entry.bytes
                continue
            if expired:
                spared.add(entry.key)
            survivors.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(e.bytes for e in survivors)
            remaining = []
            for index, entry in enumerate(survivors):
                if kept_bytes <= max_bytes:
                    remaining.extend(survivors[index:])
                    break
                if entry.key in protected:
                    spared.add(entry.key)
                    remaining.append(entry)
                    continue
                if self._remove(entry):
                    removed += 1
                    removed_bytes += entry.bytes
                    kept_bytes -= entry.bytes
                else:
                    remaining.append(entry)
            survivors = remaining
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept": len(survivors),
            "kept_bytes": sum(e.bytes for e in survivors),
            "protected_kept": len(spared),
            "tmp_removed": tmp_removed,
            "tmp_removed_bytes": tmp_removed_bytes,
        }

    def _remove(self, entry: CacheEntry) -> bool:
        try:
            os.unlink(entry.path)
            return True
        except OSError:
            return False

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Move a corrupt entry aside so it cannot poison the key again."""
        target = self.quarantine_path_for(key)
        try:
            os.replace(path, target)
        except OSError:
            # Last resort: a corrupt entry we cannot even rename is
            # deleted rather than left to fail every future get().
            try:
                os.unlink(path)
            except OSError:
                pass
            target = None
        logger.warning(
            "cache entry %s is corrupt (%s); quarantined to %s and "
            "treated as a miss", os.path.basename(path), reason,
            target.name if target is not None else "nowhere (deleted)",
        )


class WriteBehind:
    """Puts into one :class:`ResultCache`, made on one writer thread.

    Entered, it yields itself.  ``write(key, result)`` hands the thread
    one put and ``write.extend(pairs)`` a batch of ``(key, result)``
    pairs; either returns at once.  A caller that has several results
    ready hands them over as one batch: each hand-off wakes the thread,
    and a woken thread competes with the caller for the interpreter, so
    one wake-up per batch costs the caller less than one per entry.
    The thread starts at the first hand-off, so a block that hands over
    nothing starts none.  Puts run one :meth:`ResultCache.put` per
    entry, in the order they were handed over, with every rule of that
    method.  The thread stays because it overlaps those puts with the
    caller's next solves: synchronous puts after each chunk left the
    perfbench ``mc-cold`` workload flat but raised ``mc-warm``'s
    ``setup_s`` (three cold 300-sample campaigns) from 1.70 to 2.21 s
    over 8 alternating pairs.

    Leaving the block waits for every queued put and joins the thread,
    so all entries are on disk and no thread outlives the block.  The
    first failed put is re-raised there, also when the block itself
    raised; once a put has failed, the rest are dropped and a hand-off
    raises that failure, so the caller stops early.
    """

    def __init__(self, cache: ResultCache):
        self._cache = cache
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    def __enter__(self):
        return self

    def __call__(self, key: str, result) -> None:
        """Queue ``cache.put(key, result)``."""
        self.extend([(key, result)])

    def extend(self, pairs) -> None:
        """Queue ``cache.put(key, result)`` for every pair, as one
        hand-off (none for no pairs)."""
        if self._failure is not None:
            raise self._failure
        batch = list(pairs)
        if not batch:
            return
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._drain, name="cache-writer", daemon=True)
            self._thread.start()
        self._queue.put(batch)

    def _drain(self) -> None:
        while (batch := self._queue.get()) is not None:
            if self._failure is not None:
                continue
            try:
                for key, result in batch:
                    self._cache.put(key, result)
            except BaseException as exc:
                self._failure = exc

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
        if self._failure is not None and self._failure is not exc:
            raise self._failure
