"""Columnar binary trace format: packed, checksummed, memory-mappable.

JSON-lines traces pay a per-record parse on every read -- fine for
debugging, hostile to throughput. This module stores one run as five
packed numpy columns so a reader attaches the whole trace with one
``mmap`` and never touches a parser:

.. code-block:: text

    offset 0    magic          b"RPRCOL01" (8 bytes)
    offset 8    header length  u32 little-endian
    offset 12   header JSON    run metadata + column spec + checksum
    ...         zero padding   to the next 64-byte boundary
    aligned     columns        tid <i4 | pc <i8 | kind u1 | addr <i8
                               | flags u1  (each column starts on its
                               own 64-byte boundary, n_events entries)

``kind`` holds one code per :class:`~repro.trace.events.EventKind`
(LOAD=0, STORE=1, BRANCH=2, ALU=3); 255 marks a record poisoned by
fault injection. ``flags`` packs ``is_stack`` (bit 0) and the branch
``taken`` outcome (bit 1). ``addr`` is 0 for non-memory events.

Compatibility rules:

- the format is versioned in the header; a reader refuses versions it
  does not know (same policy as the JSON-lines header);
- the header's ``columns`` entry records each column's name, dtype and
  payload offset, so a future version can append columns without
  breaking old readers (unknown columns are ignorable by position);
- the ``checksum`` (blake2b of the column payload) is computed *after*
  fault application -- it protects against storage damage, not against
  the deliberately-injected faults it faithfully records. A checksum
  mismatch is file-level damage of unknown extent and is never
  recoverable, like a damaged JSON-lines header.

Round-tripping is lossless with respect to :func:`read_trace` on a
JSON-lines file: both decode to identical :class:`TraceRun` events
(including the quirk that an unset branch ``taken`` comes back as
``False``). Fault injection reuses the format-agnostic
:func:`repro.trace.trace_io.fault_decisions`, so the PR 3 differential
suite holds under either format: the same plan drops/corrupts/reorders
the same records; corruption here poisons the kind byte (always
detectable, modelling a torn write).
"""

import hashlib
import json

import numpy as np

from repro import faults as _faults
from repro import telemetry
from repro.common.errors import TraceError
from repro.trace.events import EventKind, TraceEvent, TraceRun
from repro.trace.trace_io import fault_decisions

MAGIC = b"RPRCOL01"
FORMAT_VERSION = 1
ALIGNMENT = 64

#: Column name -> little-endian dtype, in payload order.
COLUMNS = (("tid", "<i4"), ("pc", "<i8"), ("kind", "u1"),
           ("addr", "<i8"), ("flags", "u1"))

KIND_CODES = {EventKind.LOAD: 0, EventKind.STORE: 1,
              EventKind.BRANCH: 2, EventKind.ALU: 3}
CODE_KINDS = {code: kind for kind, code in KIND_CODES.items()}
#: Kind code written over records corrupted by fault injection. Never a
#: valid code, so the damage is always *detectable* (torn write, not a
#: bit flip that happens to decode).
POISONED_KIND = 255
FLAG_STACK = 0x1
FLAG_TAKEN = 0x2
#: Set on records an active sampling policy would trace (see
#: :mod:`repro.core.policy`). Readers that predate the bit ignore it
#: (decoding masks only the bits it knows), so a sampled trace stays
#: readable everywhere; with no policy the bit is never written and the
#: output is byte-identical to the pre-policy format.
FLAG_SAMPLED = 0x4


def is_columnar(path):
    """Sniff whether ``path`` starts with the columnar magic string."""
    try:
        with open(path, "rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def pack_events(events):
    """Pack events into the five column arrays (fault-free)."""
    n = len(events)
    tid = np.empty(n, dtype="<i4")
    pc = np.empty(n, dtype="<i8")
    kind = np.empty(n, dtype="u1")
    addr = np.zeros(n, dtype="<i8")
    flags = np.zeros(n, dtype="u1")
    for i, e in enumerate(events):
        tid[i] = e.tid
        pc[i] = e.pc
        kind[i] = KIND_CODES[e.kind]
        if e.kind.is_memory():
            addr[i] = e.addr
            if e.is_stack:
                flags[i] = FLAG_STACK
        elif e.taken:
            flags[i] = FLAG_TAKEN
    return {"tid": tid, "pc": pc, "kind": kind, "addr": addr, "flags": flags}


def _decode_events(cols, n, path, recover, tele):
    """Column arrays -> event list; returns ``(events, n_skipped)``.

    Decoding matches the JSON-lines reader record for record: memory
    events carry ``addr``/``is_stack``, branches carry ``taken``, and a
    record whose kind code is unknown (poisoned or damaged) raises --
    or, under ``recover``, is skipped and counted.
    """
    tids = cols["tid"].tolist()
    pcs = cols["pc"].tolist()
    codes = cols["kind"].tolist()
    addrs = cols["addr"].tolist()
    flags = cols["flags"].tolist()
    events = []
    skipped = 0
    for i in range(n):
        kind = CODE_KINDS.get(codes[i])
        if kind is None:
            if not recover:
                raise TraceError(f"{path}: record {i}: bad trace record "
                                 f"(kind code {codes[i]})")
            skipped += 1
            if tele is not None and tele.enabled:
                tele.inc("faults.trace_records_skipped")
            continue
        fl = flags[i]
        if kind.is_memory():
            events.append(TraceEvent(tids[i], pcs[i], kind, addr=addrs[i],
                                     is_stack=bool(fl & FLAG_STACK)))
        elif kind is EventKind.BRANCH:
            events.append(TraceEvent(tids[i], pcs[i], kind,
                                     taken=bool(fl & FLAG_TAKEN)))
        else:
            events.append(TraceEvent(tids[i], pcs[i], kind))
    return events, skipped


def _sampled_mask(events, policy):
    """Per-event sampling decisions, aligned with ``events``.

    The hash key is ``(tid, per-tid record ordinal)`` over the original
    stream, so the mask is a pure function of the run and the policy --
    independent of fault reordering, worker count, or write order.
    """
    counters = {}
    mask = np.zeros(len(events), dtype=bool)
    for i, e in enumerate(events):
        ordinal = counters.get(e.tid, 0) + 1
        counters[e.tid] = ordinal
        if policy.samples_record(e.tid, ordinal, pc=e.pc):
            mask[i] = True
    return mask


def _faulted_columns(events, plan, tele, sampled=None):
    """Column arrays with the plan's trace faults applied.

    Decisions come from the shared :func:`fault_decisions`, so the
    damaged record set is identical to the JSON-lines writer's;
    corruption poisons the kind byte instead of truncating a line.
    ``sampled`` (a boolean mask over the *original* events) marks the
    surviving records' FLAG_SAMPLED bits before reordering.
    """
    kept, corrupt, order = fault_decisions(len(events), plan, tele)
    cols = pack_events([events[i] for i in kept])
    if sampled is not None:
        for pos, index in enumerate(kept):
            if sampled[index]:
                cols["flags"][pos] |= FLAG_SAMPLED
    if corrupt:
        position = {index: pos for pos, index in enumerate(kept)}
        for index in corrupt:
            cols["kind"][position[index]] = POISONED_KIND
    if order != list(range(len(kept))):
        perm = np.asarray(order, dtype=np.intp)
        cols = {name: arr[perm] for name, arr in cols.items()}
    return cols


def write_trace_columnar(run, path, faults=None, policy=None):
    """Write a :class:`TraceRun` to ``path`` in the columnar format.

    Honours the active :class:`~repro.faults.FaultPlan` exactly like
    the JSON-lines writer (same decisions, format-native damage); with
    a zero plan the output is byte-identical across reruns. An enabled
    :class:`~repro.core.policy.PolicySpec` (``policy`` argument,
    falling back to the ambient policy) stamps FLAG_SAMPLED on the
    records its rate/suspicion decision would trace -- backoff is a
    runtime signal and does not apply at write time. A disabled policy
    writes byte-identical output to the pre-policy format.
    """
    from repro.core import policy as _policy
    plan = faults if faults is not None else _faults.get_plan()
    pol = policy if policy is not None else _policy.get_policy()
    sampled = _sampled_mask(run.events, pol) if pol.enabled else None
    if plan.enabled:
        cols = _faulted_columns(run.events, plan, telemetry.get_registry(),
                                sampled=sampled)
    else:
        cols = pack_events(run.events)
        if sampled is not None:
            cols["flags"][sampled] |= FLAG_SAMPLED
    n_events = int(cols["tid"].size)
    chunks = []
    column_spec = []
    pos = 0
    for name, dtype in COLUMNS:
        pad = (-pos) % ALIGNMENT
        if pad:
            chunks.append(b"\0" * pad)
            pos += pad
        column_spec.append([name, dtype, pos])
        raw = cols[name].tobytes()
        chunks.append(raw)
        pos += len(raw)
    payload = b"".join(chunks)
    header = {
        "version": FORMAT_VERSION,
        "failed": run.failed,
        "n_threads": run.n_threads,
        "seed": run.seed,
        "failure": str(run.failure) if run.failure else None,
        "n_events": n_events,
        "columns": column_spec,
        "checksum": hashlib.blake2b(payload, digest_size=16).hexdigest(),
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    pad = (-(len(MAGIC) + 4 + len(head))) % ALIGNMENT
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(head).to_bytes(4, "little"))
        f.write(head)
        f.write(b"\0" * pad)
        f.write(payload)


def read_columns(path, verify_checksum=True):
    """Attach a columnar trace: ``(header, columns)`` with zero copies.

    The column arrays are read-only numpy views over one memory map of
    the file -- no parsing, no allocation proportional to the trace.
    Header damage (bad magic, truncation, unknown version, checksum
    mismatch) always raises :class:`TraceError`.
    """
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceError(f"{path}: not a columnar trace")
        raw_len = f.read(4)
        if len(raw_len) < 4:
            raise TraceError(f"{path}: truncated columnar header")
        hlen = int.from_bytes(raw_len, "little")
        head = f.read(hlen)
        if len(head) < hlen:
            raise TraceError(f"{path}: truncated columnar header")
        try:
            header = json.loads(head.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as e:
            raise TraceError(f"{path}: corrupt trace header ({e})")
        if not isinstance(header, dict):
            raise TraceError(f"{path}: corrupt trace header")
        if header.get("version") != FORMAT_VERSION:
            raise TraceError(f"{path}: unsupported trace version")
    payload_start = -(-(len(MAGIC) + 4 + hlen) // ALIGNMENT) * ALIGNMENT
    n = int(header["n_events"])
    try:
        spec = [(str(name), str(dtype), int(offset))
                for name, dtype, offset in header["columns"]]
        payload_len = max((off + n * np.dtype(dt).itemsize
                           for _nm, dt, off in spec), default=0)
    except (KeyError, TypeError, ValueError) as e:
        raise TraceError(f"{path}: corrupt trace header ({e})")
    data = np.memmap(path, dtype="u1", mode="r")
    if data.size < payload_start + payload_len:
        raise TraceError(f"{path}: truncated columnar payload")
    if verify_checksum:
        payload = data[payload_start:payload_start + payload_len]
        digest = hashlib.blake2b(payload.tobytes(),
                                 digest_size=16).hexdigest()
        if digest != header.get("checksum"):
            raise TraceError(f"{path}: columnar payload checksum mismatch")
    cols = {}
    for name, dtype, offset in spec:
        cols[name] = np.frombuffer(data, dtype=dtype, count=n,
                                   offset=payload_start + offset)
    return header, cols


def read_trace_columnar(path, recover=False, quarantine=None):
    """Read a columnar trace into a :class:`TraceRun`.

    Same recovery contract as the JSON-lines reader: per-record damage
    (a poisoned kind byte) raises unless ``recover``/``quarantine`` is
    given, in which case damaged records are skipped, counted in
    telemetry (``faults.trace_records_skipped``) and reported via
    ``run.meta["skipped_records"]`` plus one quarantine record per
    damaged file. Header/checksum damage always raises.
    """
    recover = recover or quarantine is not None
    tele = telemetry.get_registry()
    header, cols = read_columns(path)
    events, skipped = _decode_events(cols, int(header["n_events"]),
                                     path=str(path), recover=recover,
                                     tele=tele)
    run = TraceRun(events=events, failed=header["failed"],
                   n_threads=header["n_threads"], seed=header["seed"])
    if skipped:
        run.meta["skipped_records"] = skipped
        if quarantine is not None:
            quarantine.admit(
                "trace.read", str(path),
                TraceError(f"{skipped} corrupt record(s) skipped"),
                attempts=1)
    return run

