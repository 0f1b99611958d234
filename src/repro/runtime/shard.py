"""Process-sharded raw-COT production: escape the GIL.

One :class:`~repro.runtime.service.CorrelationService` worker thread
interleaves every interactive protocol, so COT production is bounded
by a single interpreter no matter how many cores the host has.  This
module shards the *raw* COT streams (``cot/fwd``, ``cot/rev``) across
``ServiceTuning.shards`` producer **process pairs**: shard i of party
0 speaks to shard i of party 1 over its own socket and turns Ferret
extends around independently of every other shard -- true multi-core
scaling, since each worker is a separate interpreter.  Derived
production (bit and matrix triples) stays in
the parent service worker and consumes the merged pools exactly as
before.

Start-up is PKC-free in the workers: the two parent managers mint
``shards x base_cots_needed`` base COTs per direction over the
``shard/hs`` sub-channel with the service's one cold-start helper
(:meth:`~repro.runtime.service.CorrelationService.mint_base_cots`: 128
public-key OTs per service pair whatever the shard count, the reverse
direction seeded from 128 spare forward COTs) and hand every worker its
slice, which it loads with ``seed_base_cots``.  Cold start therefore
does not grow with the number of shards.

Correlation survives sharding because offsets are assigned by ONE
authority: the party-0 leader.  Shards return finished extend batches
to their parent over a result queue; the leader's merger appends each
batch at its pool's produced frontier (arrival order) and announces
``(seq, direction, lo, n)`` to the follower *in-band* as
:data:`SHARD_CTL` messages on the ``shard/ctl`` mux sub-channel -- the
same way :class:`MuxChannel` multiplexes tags, so no new wire assumptions are introduced.  The
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
import threading
import time

from repro.errors import ProtocolError, ServiceError
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot.channel import ChannelClosed, ChannelError, ChannelTimeout, SocketChannel, decode_msg
from repro.ot.cot import CotSenderBatch

#: In-band shard control messages on the ``shard/ctl`` sub-channel
#: (leader -> follower only; :func:`repro.ot.channel.decode_msg`).
#: SCMD dispatches extend ``seq`` to shard ``shard``; SOFF announces
#: the merged pool offset of ``seq``'s batch.
SHARD_CTL = {
    "SCMD": {"seq": int, "shard": int, "direction": str},
    "SOFF": {"seq": int, "direction": str, "lo": int, "n": int},
}
DIRECTIONS = ("fwd", "rev")

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


def _shard_slices(columns, need: int, shards: int) -> list:
    """Cut base-COT columns minted for ``shards`` first iterations into
    the per-shard columns a worker endpoint takes in ``seed_base_cots``."""
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
            rev = FerretReceiver(config, seed=base + 2)
            fwd.delta = sender_delta.copy()
        else:
            fwd = FerretReceiver(config, seed=base + 1)
            rev = FerretSender(config, seed=base + 3)
            rev.delta = sender_delta.copy()
        msg = cmd_q.get(timeout=_SETUP_TIMEOUT_S)
        if msg[0] != "seed":
            raise ServiceError(f"shard {shard}: expected seed, got {msg[0]!r}")
        fwd.seed_base_cots(*msg[1])
        rev.seed_base_cots(*msg[2])
        res_q.put(("ready", shard, time.monotonic() - t0))
        endpoints = {"fwd": fwd, "rev": rev}
        while True:
            msg = cmd_q.get()
            if msg[0] == "stop":
                break
            _, seq, direction = msg
            t0 = time.monotonic()
            batch = endpoints[direction].extend(channel)
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
        self._announced = {d: collections.deque() for d in DIRECTIONS}
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
        sender_delta = (service.ferret_fwd if self.party == 0 else service.ferret_rev).delta
        need = service.config.base_cots_needed
        fwd_cols, rev_cols = service.mint_base_cots(self._hs, self._hs, copies=self.shards)
        fwd_seeds = _shard_slices(fwd_cols, need, self.shards)
        rev_seeds = _shard_slices(rev_cols, need, self.shards)
        # Workers start only now, so their rendezvous clocks never run
        # while a parent is still waiting for a late peer above.
        for i in range(self.shards):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    self.party, i, service.config, self.seed,
                    sender_delta, self._cmd_qs[i], self._res_q,
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
            self._hs.send_lanes(ports, 64)
        else:
            deadline = time.monotonic() + _SETUP_TIMEOUT_S
            ports = None
            while ports is None:
                try:
                    ports = self._hs.recv_lanes(self.shards, 64, timeout=_POLL_S)
                except ChannelTimeout:
                    if (dead := self._exited_worker()) is not None:
                        raise dead from None
                    if time.monotonic() >= deadline:
                        raise
            for i, port in enumerate(ports):
                self._cmd_qs[i].put(("connect", "127.0.0.1", int(port)))
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
        from the leader's scheduling loop in place of OP_EXTEND.  A
        direction nothing has drawn yet has no pool, so no refill."""
        self.check_failed()
        for direction in DIRECTIONS:
            pool = self.service.pools.get(f"cot/{direction}")
            if pool is not None:
                self._dispatch_deficit(direction, pool)

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
        self._ctl.send_msg("SCMD", seq=seq, shard=shard, direction=direction)
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
            pool = service.pool(f"cot/{direction}")
            n = payload[0].shape[0]
            try:
                lo = pool.append_columns(payload)
            except ServiceError:
                if self._stop.is_set():
                    return  # pool closed during shutdown: benign
                raise
            self._ctl.send_msg("SOFF", seq=seq, direction=direction, lo=lo, n=n)
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
        """Follower: replay one leader message -- dispatch the commanded
        extend, or queue the announced offset behind its direction's
        earlier ones."""
        msg = decode_msg(frame, SHARD_CTL)
        direction = msg["direction"]
        if direction not in DIRECTIONS:
            raise ProtocolError(f"shard/ctl {msg['op']}: unknown direction {direction!r}")
        if msg["op"] == "SCMD":
            if msg["shard"] >= self.shards:
                raise ProtocolError(f"shard/ctl SCMD names shard {msg['shard']} of {self.shards}")
            self._expected[msg["seq"]] = (msg["shard"], direction)
            self._cmd_qs[msg["shard"]].put(("ext", msg["seq"], direction))
        else:
            self._announced[direction].append((msg["seq"], msg["lo"], msg["n"]))

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
                # The first batch of a direction this party has not
                # drawn yet makes its pool.
                pool = service.pool(f"cot/{local_dir}")
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
