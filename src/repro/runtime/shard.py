"""Process-sharded raw-COT production: escape the GIL.

One :class:`~repro.runtime.service.CorrelationService` worker thread
interleaves every interactive protocol, so COT production is bounded
by a single interpreter no matter how many cores the host has.  This
module shards the *raw* COT streams (``cot/fwd``, ``cot/rev``) across
``ServiceTuning.shards`` producer **process pairs**: shard i of party
0 speaks to shard i of party 1 over its own socket and turns Ferret
extends around independently of every other shard -- true multi-core
scaling, since each worker is a separate interpreter.  Derived
production (bit/ring/matrix triples, truncation pairs, ROTs) stays in
the parent service worker and consumes the merged pools exactly as
before.

Start-up is PKC-free in the workers: the two parent managers mint
``shards x base_cots_needed`` base COTs per direction in ONE
``base_cot_*`` run over the ``shard/hs`` sub-channel (128 public-key
OTs whatever the shard count) and hand every worker its slice, which
it loads with ``seed_base_cots``.  Cold start therefore does not grow
with the number of shards.

Correlation survives sharding because offsets are assigned by ONE
authority: the party-0 leader.  Shards return finished extend batches
to their parent over a result queue; the leader's merger appends each
batch at its pool's produced frontier (arrival order) and announces
``(seq, direction, lo, n)`` to the follower *in-band* on the
``shard/ctl`` mux sub-channel -- the same way :class:`MuxChannel`
multiplexes tags, so no new wire assumptions are introduced.  The
follower merger pairs each announcement with its local copy of that
batch (shard i's sequence of extends is identical on both parties, so
seq identifies the batch) and lands batches in announced order per
direction: a batch whose turn has not come, or whose local result is
still outstanding, waits in the manager -- nothing parks in the pool,
every landing is at its produced frontier, and the announced ``lo`` is
checked against it.  Both parties therefore materialize the *same*
absolute-index stream under any interleaving of shard completions.

Delta consistency: the parent mints under the pool's Delta, and every
sender-side shard endpoint overwrites its locally derived Delta with it
before loading its slice, so all shards of one direction produce
correlations against the single pool Delta.

Limits: sharded services assume a healthy transport -- the degraded-
mode resync barrier cannot roll back raw-COT pools (there is no
single-endpoint snapshot to restore), so chaos hardening applies to
the unsharded path only.  ``shards=1`` never constructs any of this
machinery: the service is byte-identical to the single-worker stream.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue
import struct
import threading
import time

from repro.errors import ServiceError
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot.channel import ChannelClosed, ChannelError, ChannelTimeout, SocketChannel
from repro.ot.cot import CotSenderBatch

#: In-band shard control frames on the ``shard/ctl`` sub-channel
#: (leader -> follower only).  SCMD dispatches extend ``seq`` to shard
#: ``shard``; SOFF announces the merged pool offset of ``seq``'s batch.
OP_SHARD_CMD = b"SCMD"
OP_SHARD_OFF = b"SOFF"
_SHARD_CMD = struct.Struct("<4sQQQ")  # op, seq, shard, direction
_SHARD_OFF = struct.Struct("<4sQQQQ")  # op, seq, direction, lo, n

_DIR_CODE = {"fwd": 0, "rev": 1}
_DIR_NAME = {0: "fwd", 1: "rev"}

#: Rendezvous budget for one start-up step: a spawned worker booting,
#: the per-shard socket handshake, the hand-over of its base COTs.  No
#: public-key work happens inside it.
_SETUP_TIMEOUT_S = 30.0
#: Slice of any wait on the workers between looks at their exit codes.
_POLL_S = 0.2


def _shard_seed(seed: int, shard: int) -> int:
    """Base seed for shard ``shard``'s Ferret endpoints (the four
    per-role offsets mirror :func:`repro.ferret.protocol.ferret_pair`)."""
    return seed + 0x51AD + ((shard + 1) << 4)


def _mint_base_cots(endpoint, channel, shards: int) -> list:
    """One base-COT run covering every shard's first iteration.

    ``endpoint`` is the parent's (otherwise idle) Ferret endpoint of one
    direction: it contributes Delta or the choice bits, and its rng.
    Returns, per shard, the columns its worker endpoint of the same role
    takes in ``seed_base_cots``.
    """
    need = endpoint.config.base_cots_needed
    columns = endpoint.mint_base_cots(channel, copies=shards)
    return [
        tuple(column[i * need : (i + 1) * need] for column in columns)
        for i in range(shards)
    ]


def _worker_main(
    party: int,
    shard: int,
    config,
    seed: int,
    sender_delta,
    enable_reverse: bool,
    cmd_q,
    res_q,
) -> None:
    """Entry point of one shard worker process (spawn-safe: module level,
    all arguments picklable).

    Party 0 listens on an ephemeral port and reports it to its parent
    (who forwards it in-band to the peer parent); party 1 waits for a
    ``("connect", host, port)`` command.  Both then take their base COTs
    from a ``("seed", fwd_columns, rev_columns)`` command -- no PKC runs
    here -- and serve ``("ext", seq, direction)`` until ``("stop",)``.
    """
    channel = None
    t0 = time.monotonic()
    try:
        if party == 0:
            listener = SocketChannel.listen("127.0.0.1", 0)
            res_q.put(("port", shard, listener.port))
            channel = listener.accept(accept_timeout=_SETUP_TIMEOUT_S)
        else:
            msg = cmd_q.get(timeout=_SETUP_TIMEOUT_S)
            if msg[0] != "connect":
                raise ServiceError(f"shard {shard}: expected connect, got {msg[0]!r}")
            channel = SocketChannel.connect(
                msg[1], msg[2], connect_timeout=_SETUP_TIMEOUT_S
            )
        base = _shard_seed(seed, shard)
        if party == 0:
            fwd = FerretSender(config, seed=base)
            fwd.delta = sender_delta.copy()
            rev = FerretReceiver(config, seed=base + 2) if enable_reverse else None
        else:
            fwd = FerretReceiver(config, seed=base + 1)
            rev = FerretSender(config, seed=base + 3) if enable_reverse else None
            if rev is not None:
                rev.delta = sender_delta.copy()
        msg = cmd_q.get(timeout=_SETUP_TIMEOUT_S)
        if msg[0] != "seed":
            raise ServiceError(f"shard {shard}: expected seed, got {msg[0]!r}")
        fwd.seed_base_cots(*msg[1])
        if rev is not None:
            rev.seed_base_cots(*msg[2])
        res_q.put(("ready", shard, time.monotonic() - t0))
        endpoints = {"fwd": fwd, "rev": rev}
        while True:
            msg = cmd_q.get()
            if msg[0] == "stop":
                break
            _, seq, direction = msg
            endpoint = endpoints[direction]
            if endpoint is None:
                raise ServiceError(f"shard {shard}: direction {direction} disabled")
            t0 = time.monotonic()
            batch = endpoint.extend(channel)
            elapsed = time.monotonic() - t0
            if isinstance(batch, CotSenderBatch):
                payload = (batch.z,)
            else:
                payload = (batch.x, batch.y)
            res_q.put(("ext", shard, seq, direction, payload, elapsed))
    except BaseException as exc:  # noqa: BLE001 - crossing a process
        try:
            res_q.put(("error", shard, repr(exc)))
        except Exception:  # noqa: BLE001 - parent may be gone
            pass
    finally:
        if channel is not None:
            try:
                channel.close()
            except Exception:  # noqa: BLE001
                pass


class ShardManager:
    """Owns one party's shard worker processes and the merge thread.

    The leader side dispatches (``request_refills`` is called from the
    scheduling loop in place of OP_EXTEND commands) and merges results
    in arrival order; the follower side replays the leader's dispatch
    stream and merges in announced order.  All shard bookkeeping is
    surfaced through :meth:`collect` (the ``shard/...`` telemetry
    namespace) and ``shard.extend`` tracer spans, so a pool stall is
    attributable to the shard that was still busy when it happened.
    """

    def __init__(self, service, shards: int, seed: int):
        if shards < 2:
            raise ServiceError("ShardManager requires shards >= 2")
        self.service = service
        self.shards = shards
        self.seed = seed
        self.party = service.party
        self._hs = service.mux.sub("shard/hs")
        self._ctl = service.mux.sub("shard/ctl")
        self._ctx = multiprocessing.get_context("spawn")
        self._res_q = self._ctx.Queue()
        self._cmd_qs = [self._ctx.Queue() for _ in range(shards)]
        self._procs: list = []
        self._stop = threading.Event()
        self._merge_thread = None
        self.error = None
        self._next_seq = 0
        #: Leader: shard -> (seq, direction, dispatch tracer-ts) or None.
        self._busy = [None] * shards
        #: Leader: nominal in-flight items per direction (dispatched,
        #: not yet merged) so refill decisions don't over-dispatch.
        self._inflight = {"fwd": 0, "rev": 0}
        #: Follower: seq -> (shard, direction) for dispatched commands;
        #: per direction, the FIFO of announced (seq, lo, n) not yet
        #: landed; seq -> local result not yet landed.
        self._expected: dict = {}
        self._announced = {d: collections.deque() for d in _DIR_CODE}
        self._results: dict = {}
        #: Per shard.  ``setup_s`` is the worker's time-to-ready from its
        #: entry point: interpreter boot, socket rendezvous and loading
        #: its base COTs (the parents' mint is over before it starts).
        self.stats = [
            {"extends": 0, "items": 0, "busy_s": 0.0, "last_s": 0.0, "setup_s": 0.0}
            for _ in range(shards)
        ]

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Mint every shard's base COTs (the two parents meet here, under
        the link's own timeout), spawn the workers, run the port
        handshake in-band, hand the COTs over, wait for every shard to
        be ready, then start the merge thread."""
        service = self.service
        sender_delta = (
            service.ferret_fwd.delta if self.party == 0
            else service.ferret_rev.delta if service.ferret_rev is not None
            else None
        )
        enable_reverse = service.tuning.enable_reverse
        fwd_seeds = _mint_base_cots(service.ferret_fwd, self._hs, self.shards)
        rev_seeds = (
            _mint_base_cots(service.ferret_rev, self._hs, self.shards)
            if enable_reverse
            else [None] * self.shards
        )
        # Workers start only now, so their rendezvous clocks never run
        # while a parent is still waiting for a late peer above.
        for i in range(self.shards):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    self.party, i, service.config, self.seed,
                    sender_delta, enable_reverse,
                    self._cmd_qs[i], self._res_q,
                ),
                name=f"corr-shard-p{self.party}-{i}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        if self.party == 0:
            ports = [None] * self.shards
            for _ in range(self.shards):
                msg = self._get_result(_SETUP_TIMEOUT_S)
                if msg[0] != "port":
                    raise ServiceError(f"shard handshake: unexpected {msg[0]!r}")
                ports[msg[1]] = msg[2]
            self._hs.send_bytes(struct.pack(f"<{self.shards}Q", *ports))
        else:
            deadline = time.monotonic() + _SETUP_TIMEOUT_S
            frame = None
            while frame is None:
                try:
                    frame = self._hs.recv_bytes(timeout=_POLL_S)
                except ChannelTimeout:
                    if (dead := self._exited_worker()) is not None:
                        raise dead from None
                    if time.monotonic() >= deadline:
                        raise
            ports = struct.unpack(f"<{self.shards}Q", frame)
            for i, port in enumerate(ports):
                self._cmd_qs[i].put(("connect", "127.0.0.1", port))
        for i in range(self.shards):
            self._cmd_qs[i].put(("seed", fwd_seeds[i], rev_seeds[i]))
        for _ in range(self.shards):
            msg = self._get_result(_SETUP_TIMEOUT_S)
            if msg[0] != "ready":
                raise ServiceError(f"shard setup: unexpected {msg[0]!r}")
            self.stats[msg[1]]["setup_s"] = msg[2]
        loop = self._leader_merge_loop if self.party == 0 else self._follower_merge_loop
        self._merge_thread = threading.Thread(
            target=self._merge_guard, args=(loop,),
            name=f"corr-shard-merge-p{self.party}", daemon=True,
        )
        self._merge_thread.start()

    def _exited_worker(self):
        """A ``ServiceError`` naming a worker process that exited while
        it should be serving, else None: one that dies without posting
        ``("error", ...)`` -- killed, or failing before its entry point
        runs -- would otherwise be a silent timeout."""
        for i, proc in enumerate(self._procs):
            # Code first, flag second: stop() sets the flag before it
            # tells the workers to exit.
            code = proc.exitcode
            if code is not None and not self._stop.is_set():
                return ServiceError(f"shard {i} exited with code {code}")
        return None

    def _poll_result(self, timeout: float):
        """One result-queue message, or None after ``timeout`` idle
        seconds; worker errors and worker deaths are fatal.  Exit codes
        are read before the queue, so what a dying worker managed to
        post is reported in preference to its death."""
        dead = self._exited_worker()
        try:
            msg = self._res_q.get(timeout=timeout)
        except queue.Empty:
            if dead is not None:
                raise dead from None
            return None
        if msg[0] == "error":
            raise ServiceError(f"shard {msg[1]} failed: {msg[2]}")
        return msg

    def _get_result(self, timeout: float):
        """The next result-queue message of a start-up step."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (msg := self._poll_result(_POLL_S)) is not None:
                return msg
        raise ServiceError("shard worker did not respond in time")

    def stop(self, timeout: float = 10.0) -> None:
        """Drain in-flight extends, stop workers, join the merge thread."""
        deadline = time.monotonic() + timeout
        if self.party == 0:
            while (
                any(self._busy) and self.error is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        else:
            while (
                any(seq not in self._results for seq in list(self._expected))
                and self.error is None and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        self._stop.set()
        for cq in self._cmd_qs:
            try:
                cq.put(("stop",))
            except Exception:  # noqa: BLE001 - queue may be broken
                pass
        if self._merge_thread is not None:
            self._merge_thread.join(5.0)
        for proc in self._procs:
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
        self._res_q.cancel_join_thread()
        for cq in self._cmd_qs:
            cq.cancel_join_thread()

    def _fail(self, exc: Exception) -> None:
        """A shard or merge failure poisons the whole service: record it
        and close every pool so blocked consumers surface the error."""
        if self.error is None:
            self.error = exc
        for pool in self.service.pools.values():
            pool.close()

    def check_failed(self) -> None:
        if self.error is not None:
            raise ServiceError(f"shard production failed: {self.error}") from self.error

    # -- leader: dispatch ----------------------------------------------------
    def request_refills(self) -> None:
        """Dispatch extends to idle shards for every direction whose
        pool is below target net of what is already in flight.  Called
        from the leader's scheduling loop in place of OP_EXTEND."""
        self.check_failed()
        pools = self.service.pools
        self._dispatch_deficit("fwd", pools["cot/fwd"])
        if self.service.tuning.enable_reverse:
            self._dispatch_deficit("rev", pools["cot/rev"])

    def request_extend(self, direction: str) -> None:
        """Derived production starved on raw COTs: make sure at least
        one extend is in flight for ``direction``."""
        self.check_failed()
        if self._inflight[direction] > 0:
            return
        shard = self._idle_shard()
        if shard is not None:
            self._dispatch(shard, direction)

    def _dispatch_deficit(self, direction: str, pool) -> None:
        deficit = pool.deficit - self._inflight[direction]
        per_extend = self.service.config.net_output
        while deficit > 0:
            shard = self._idle_shard()
            if shard is None:
                return
            self._dispatch(shard, direction)
            deficit -= per_extend
        # A refill is also warranted when below the low watermark even
        # if the high-watermark deficit is already covered in flight.
        if pool.needs_refill() and self._inflight[direction] == 0:
            shard = self._idle_shard()
            if shard is not None:
                self._dispatch(shard, direction)

    def _idle_shard(self):
        for i in range(self.shards):
            if self._busy[i] is None:
                return i
        return None

    def _dispatch(self, shard: int, direction: str) -> None:
        seq = self._next_seq
        self._next_seq += 1
        # The SCMD frame goes out BEFORE the local command so the
        # follower's replay order per shard always matches ours.
        self._ctl.send_bytes(
            _SHARD_CMD.pack(OP_SHARD_CMD, seq, shard, _DIR_CODE[direction])
        )
        self._cmd_qs[shard].put(("ext", seq, direction))
        self._busy[shard] = (seq, direction, self.service.tracer.now())
        self._inflight[direction] += self.service.config.net_output

    # -- merge loops ---------------------------------------------------------
    def _merge_guard(self, loop) -> None:
        try:
            loop()
        except BaseException as exc:  # noqa: BLE001 - crossing a thread
            self._fail(exc)

    def _leader_merge_loop(self) -> None:
        """Append shard batches in arrival order; announce offsets."""
        service = self.service
        while not self._stop.is_set():
            msg = self._poll_result(0.1)
            if msg is None or msg[0] != "ext":
                continue
            _, shard, seq, direction, payload, elapsed = msg
            pool = service.pools[f"cot/{direction}"]
            n = payload[0].shape[0]
            try:
                lo = pool.append_columns(payload)
            except ServiceError:
                if self._stop.is_set():
                    return  # pool closed during shutdown: benign
                raise
            self._ctl.send_bytes(
                _SHARD_OFF.pack(OP_SHARD_OFF, seq, _DIR_CODE[direction], lo, n)
            )
            self._record(shard, direction, n, elapsed)
            busy = self._busy[shard]
            if busy is not None and service.tracer.enabled:
                service.tracer.complete(
                    "shard.extend", busy[2], service.tracer.now(), cat="shard",
                    shard=shard, direction=direction, n=n, lo=lo,
                )
            self._busy[shard] = None
            self._inflight[direction] -= service.config.net_output
            service.extends[direction] += 1
            service._wake.set()

    def _follower_merge_loop(self) -> None:
        """Replay leader dispatches; land batches in announced order."""
        while not self._stop.is_set():
            try:
                frame = self._ctl.recv_bytes(timeout=0.05)
            except ChannelTimeout:
                frame = None
            except (ChannelClosed, ChannelError):
                if self._stop.is_set():
                    return
                raise
            if frame is not None:
                self._on_ctl(frame)
            # Drain local results without blocking.
            while (msg := self._poll_result(0)) is not None:
                if msg[0] == "ext":
                    _, shard, seq, direction, payload, elapsed = msg
                    self._results[seq] = (shard, direction, payload, elapsed)
            self._merge_ready()

    def _on_ctl(self, frame) -> None:
        """Follower: replay one leader frame -- dispatch the commanded
        extend, or queue the announced offset behind its direction's
        earlier ones."""
        op = bytes(frame[:4])
        if op == OP_SHARD_CMD:
            _, seq, shard, code = _SHARD_CMD.unpack(frame)
            direction = _DIR_NAME[code]
            self._expected[seq] = (shard, direction)
            self._cmd_qs[shard].put(("ext", seq, direction))
        elif op == OP_SHARD_OFF:
            _, seq, code, lo, n = _SHARD_OFF.unpack(frame)
            self._announced[_DIR_NAME[code]].append((seq, lo, n))

    def _merge_ready(self) -> None:
        """Land, per direction and in announced order, every batch whose
        local result has arrived.  The leader announced in its own
        landing order, so each landing is at the pool's frontier (the
        peer's ``lo`` is checked against it), and a missing ``fwd``
        result never holds back ``rev``."""
        service = self.service
        for direction, announced in self._announced.items():
            while announced and announced[0][0] in self._results:
                seq, lo, n = announced.popleft()
                shard, local_dir, payload, elapsed = self._results.pop(seq)
                self._expected.pop(seq, None)
                pool = service.pools[f"cot/{local_dir}"]
                local = (local_dir, pool.produced, payload[0].shape[0])
                if local != (direction, lo, n):
                    raise ServiceError(
                        f"shard merge mismatch at seq {seq}: announced "
                        f"(direction, lo, n) = {(direction, lo, n)}, local {local}"
                    )
                t0 = service.tracer.now()
                try:
                    pool.append_columns(payload)
                except ServiceError:
                    if self._stop.is_set():
                        return  # pool closed during shutdown: benign
                    raise
                self._record(shard, direction, n, elapsed)
                if service.tracer.enabled:
                    service.tracer.complete(
                        "shard.merge", t0, service.tracer.now(), cat="shard",
                        shard=shard, direction=direction, n=n, lo=lo,
                    )
                service.extends[direction] += 1

    def _record(self, shard: int, direction: str, n: int, elapsed: float) -> None:
        s = self.stats[shard]
        s["extends"] += 1
        s["items"] += n
        s["busy_s"] += elapsed
        s["last_s"] = elapsed

    # -- telemetry -----------------------------------------------------------
    def collect(self) -> dict:
        """The ``shard/...`` telemetry namespace: per-shard counters plus
        in-flight accounting, so a ``pool/stall_ms`` observation can be
        attributed to whichever shard was still busy."""
        out = {"shards": self.shards}
        for i, s in enumerate(self.stats):
            for key, value in s.items():
                out[f"{i}/{key}"] = value
            if self.party == 0:
                out[f"{i}/busy"] = int(self._busy[i] is not None)
        if self.party == 0:
            out["inflight/fwd"] = self._inflight["fwd"]
            out["inflight/rev"] = self._inflight["rev"]
        else:
            out["pending_merge"] = len(self._results) + sum(
                map(len, self._announced.values())
            )
        return out
