//! The batched-window shard engine: the only stepping path, shared by
//! every [`KernelMode`].
//!
//! **Ownership.** A window splits the network into shards of whole grid
//! rows ([`shard_range`]). Each shard gets a [`ShardMut`]: `&mut` slices
//! of its own routers, endpoints, activity flags and counter mirror, cut
//! with `split_at_mut`, plus its own [`ShardDelta`]. Everything else a
//! shard reads comes from the [`WindowCtx`] it shares by `&`: the
//! configuration, route tables, epochs, fault injector, profiler and
//! window flags. State crosses a shard boundary only through the two
//! [`Channels`] of a multi-shard window:
//!
//! - a per-router **fullness mask** of the input buffers, published by
//!   the owner in the local sub-phase and read by a neighbour's decide;
//! - one **mailbox** per (source, destination) shard pair, carrying the
//!   flits that cross the boundary.
//!
//! The only code outside the borrow checker's reach is the worker pool,
//! which hands each worker its shard's view for one window and takes it
//! back at the window's join; a single shard runs on the stepping thread
//! with plain borrows.
//!
//! A cycle is three sub-phases, each reading only state the previous
//! sub-phase left behind:
//!
//! 1. **local** — inject, routing/arbitration and drop-sink work that
//!    touches exactly one router and its endpoint;
//! 2. **decide** — collect the flit transfers every established
//!    connection would make, reading neighbour buffer fullness but
//!    mutating nothing;
//! 3. **apply** — each source router pops the decided flits from its own
//!    buffers, runs corruption rolls and delivers: locally to its
//!    endpoint, directly into a same-shard neighbour's buffer (staged in
//!    `inbox_local` so every pop of the cycle precedes every push), or
//!    into the mailbox of a foreign neighbour's shard.
//!
//! Cross-shard flits are *mailbox-deferred*: the destination shard drains
//! its mailboxes at the start of its next cycle, before any state of that
//! cycle is read. Because a flit that arrives in cycle `c` is not
//! routable before `c + 1` (`Flit::arrived` gates the header scan) and
//! nothing reads the destination buffer between the end of `c` and the
//! start of `c + 1`, draining at the next cycle's start is observably
//! identical to the sequential push at the end of `c`.
//!
//! **Windows.** The engine batches `W` cycles per dispatch: one
//! gate release, `3W + 1` barriers and one serial merge instead of
//! per-cycle dispatch and merge. This is sound whenever every merge-time
//! feedback path into the phases is quiet — link-health failures, epoch
//! announcements, deadlock recovery and scheduled stalls all require an
//! installed fault plan or a non-empty epoch list, so
//! [`Noc`](crate::Noc) collapses the window to 1 whenever either exists.
//! Side effects that cross router ownership — statistics, packet-record
//! updates (cycle-tagged), link-health observations, traces — are
//! accumulated in per-shard [`ShardDelta`]s across the whole window and
//! merged serially (in shard order, which is ascending router order; and
//! in cycle order for the cycle-tagged streams) after the window's join,
//! so the merged observables are independent of how routers were
//! scheduled. Combined with the counter-based fault RNG (keyed by fault
//! site and cycle, not draw order — see [`crate::fault`]), this makes
//! every window size and thread count bit-identical.
//!
//! **Active-set walk.** Each shard walks only the routers whose activity
//! flag is set and retires a node once its router and source queue are
//! quiescent. The flags live in the shard's own slice: retire and
//! same-shard wake happen in apply, foreign wake while draining the
//! shard's mailboxes. [`KernelMode::Reference`] sets `full_scan`, which
//! walks every router of the shard instead — the differential-testing
//! oracle for the walk — while still maintaining the flags.
//!
//! **One shard.** With a single shard there is no barrier and no channel:
//! [`run_shard`] gets no [`SpinBarrier`], publishes no fullness, stages
//! every transfer in `inbox_local` and charges no profiler time to
//! barriers or mailboxes.
//!
//! [`KernelMode`]: crate::KernelMode
//! [`KernelMode::Reference`]: crate::KernelMode::Reference

use std::any::Any;
use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::addr::{Port, RouterAddr};
use crate::config::NocConfig;
use crate::endpoint::{LocalEndpoint, PacketId, RxEvent};
use crate::fault::FaultInjector;
use crate::flit::Flit;
use crate::metrics::PhaseProfile;
use crate::noc::{decide_route, DropKind, Epoch, RouteDecision};
use crate::router::{Router, RouterCounters};
use crate::routing::RouteTable;
use crate::stats::LinkId;
use crate::trace::{SpanEvent, SpanKind};

/// Routers owned by `shard` of `n_shards`: a contiguous row-major range
/// covering whole grid rows, so most neighbour reads stay shard-local
/// (torus wraparound and chiplet-boundary links ride the same cross-shard
/// channels as any other remote neighbour). Shards beyond the row count
/// come out empty.
pub(crate) fn shard_range(
    width: usize,
    height: usize,
    n_shards: usize,
    shard: usize,
) -> Range<usize> {
    let base = height / n_shards;
    let extra = height % n_shards;
    let start_row = shard * base + shard.min(extra);
    let rows = base + usize::from(shard < extra);
    (start_row * width)..((start_row + rows) * width)
}

/// A deferred update to one packet's statistics record, applied at the
/// merge with the cycle it was observed in (events are stored
/// cycle-tagged so a whole window can merge at once). At most one event
/// per packet per cycle can occur (flits move one hop per cycle), so
/// application order within a cycle is irrelevant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordEvent {
    /// A flit of the packet entered the network (sets `injected` once).
    Injected(PacketId),
    /// The header flit reached the destination IP.
    Header(PacketId),
    /// The final flit reached the destination IP.
    Delivered(PacketId),
}

/// A deferred link-health observation. Each directed link sees at most
/// one handshake outcome per cycle (a single input owns each output and
/// the handshake cadence admits one transfer), so per-link state is
/// independent of application order; only the order newly-dead links are
/// *discovered* in matters, and the merge replays decide-phase events
/// before apply-phase events in shard (= ascending router) order, exactly
/// like the sequential scan. Failures require an installed fault plan,
/// which collapses the window to one cycle, so they never straddle a
/// window; successes are pure streak resets and commute.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HealthEvent {
    /// A timed-out (outage-blocked) or garbled hop handshake.
    Failure {
        /// The failed link.
        link: LinkId,
        /// Upstream router index (for wedged-worm flushing).
        idx: usize,
        /// Upstream output port index.
        out: usize,
        /// Whether a worm is wedged across the link (outage timeout) or
        /// still moving (garbled transfer).
        wedged: bool,
    },
    /// A clean hop handshake (resets the link's consecutive-failure run).
    Success(LinkId),
}

/// Everything one shard defers to the serial merge: statistics counters,
/// record/health events and flits staged for other shards' routers. With
/// a window larger than one cycle the delta accumulates the whole window
/// before merging; streams whose application is cycle-sensitive
/// (`record_events`, the trace spans via `SpanEvent::cycle`) carry their
/// cycle explicitly.
#[derive(Debug, Default)]
pub(crate) struct ShardDelta {
    pub flit_hops: u64,
    pub flits_delivered: u64,
    pub packets_delivered: u64,
    pub flits_dropped: u64,
    pub packets_dropped: u64,
    pub flits_corrupted: u64,
    pub router_stall_cycles: u64,
    pub link_down_blocks: u64,
    pub unreachable_drops: u64,
    pub misaddressed_drops: u64,
    pub rerouted_grants: u64,
    /// Packets discarded from a dead IP core's source queue before any
    /// of their flits entered the network.
    pub source_queue_drops: u64,
    /// One entry per flit injected by a local IP this window.
    pub local_ingress: Vec<RouterAddr>,
    /// One entry per flit transferred over a link this window.
    pub link_flits: Vec<LinkId>,
    /// Record events tagged with the cycle they occurred in, in
    /// ascending cycle order (cycles are walked in order).
    pub record_events: Vec<(u64, RecordEvent)>,
    /// Health events observed in the local sub-phase (local ingress
    /// handshakes timing out against a dead router).
    pub health_local: Vec<HealthEvent>,
    /// Health events observed while deciding transfers (outage blocks).
    pub health_decide: Vec<HealthEvent>,
    /// Health events observed while applying transfers (garbles/successes).
    pub health_apply: Vec<HealthEvent>,
    /// Packet-trace spans recorded in the local sub-phase (inject, route
    /// decision, drop). Empty unless tracing is enabled; each span
    /// carries its cycle, so the merge can interleave shards per cycle.
    pub trace_local: Vec<(PacketId, SpanEvent)>,
    /// Packet-trace spans recorded in the apply sub-phase (header hop,
    /// sink, delivery). Empty unless tracing is enabled.
    pub trace_apply: Vec<(PacketId, SpanEvent)>,
    /// Transfers decided for this shard's routers this cycle:
    /// `(router, input, output)`. Consumed and cleared every cycle.
    pub transfers: Vec<(usize, usize, usize)>,
    /// Connections with a flit ready but the downstream buffer full this
    /// cycle: `(router, input)`. Consumed every cycle into the routers'
    /// own `blocked_cycles` counters.
    pub blocked_conns: Vec<(usize, usize)>,
    /// Connections whose zero-progress run crossed the deadlock-recovery
    /// timeout; flushed at the merge. Only populated while recovery is
    /// armed, which requires a non-empty epoch list and therefore a
    /// one-cycle window.
    pub stuck: Vec<(usize, usize)>,
    /// Flits moving between this shard's own routers this cycle, staged
    /// so every pop of the apply sub-phase precedes every push.
    pub inbox_local: Vec<(usize, usize, Flit)>,
    /// Scratch: the walk of the current cycle (kept across cycles to
    /// avoid re-allocating).
    pub walk: Vec<usize>,
    /// Last cycle of the window in which this shard's walk was
    /// non-empty; 0 if it never was. Lets `run_until_idle` rewind the
    /// idle tail of a window to the exact sequential stopping cycle.
    pub last_busy: u64,
}

impl ShardDelta {
    /// Resets the delta for the next window, keeping allocations.
    pub fn clear(&mut self) {
        self.flit_hops = 0;
        self.flits_delivered = 0;
        self.packets_delivered = 0;
        self.flits_dropped = 0;
        self.packets_dropped = 0;
        self.flits_corrupted = 0;
        self.router_stall_cycles = 0;
        self.link_down_blocks = 0;
        self.unreachable_drops = 0;
        self.misaddressed_drops = 0;
        self.rerouted_grants = 0;
        self.source_queue_drops = 0;
        self.local_ingress.clear();
        self.link_flits.clear();
        self.record_events.clear();
        self.health_local.clear();
        self.health_decide.clear();
        self.health_apply.clear();
        self.trace_local.clear();
        self.trace_apply.clear();
        self.transfers.clear();
        self.blocked_conns.clear();
        self.stuck.clear();
        self.inbox_local.clear();
        self.walk.clear();
        self.last_busy = 0;
    }
}

/// The read-only per-window context every shard shares by `&`: the
/// immutable inputs of the window plus, with two or more shards, the
/// cross-shard [`Channels`].
#[derive(Debug)]
pub(crate) struct WindowCtx<'a> {
    pub config: &'a NocConfig,
    /// `None` unless the topology routes by a precomputed healthy table
    /// (the torus — see
    /// [`Topology::requires_route_table`](crate::Topology::requires_route_table)).
    pub base_table: Option<&'a RouteTable>,
    pub epochs: &'a [Epoch],
    /// `None` when no fault plan is installed.
    pub injector: Option<&'a FaultInjector>,
    /// `None` unless the kernel phase profiler is enabled.
    pub profiler: Option<&'a PhaseProfiler>,
    /// `None` for a single shard, which owns every router and needs no
    /// channel. The worker pool attaches its own.
    pub channels: Option<&'a Channels>,
    /// First cycle of the window.
    pub now: u64,
    /// Number of cycles in this window (≥ 1). Anything that feeds merge
    /// output back into the phases forces a window of 1.
    pub window: u32,
    /// Whether the deadlock-recovery timeout is armed this window
    /// (fault-tolerant routing, a positive timeout and at least one
    /// epoch — which also forces `window == 1`).
    pub recovery_armed: bool,
    /// Whether the health monitor was pristine at the start of the
    /// window; success observations are skipped while it is (they would
    /// be no-ops: only links with a prior failure entry are tracked).
    /// Failures cannot occur without a fault plan, and a fault plan
    /// forces a one-cycle window, so the flag cannot go stale mid-window.
    pub pristine: bool,
    /// Whether packet-lifecycle tracing is on; when false the trace hooks
    /// reduce to one predictable branch per site.
    pub trace_enabled: bool,
    /// Walk every router of the shard each cycle instead of only the
    /// flagged ones ([`KernelMode::Reference`](crate::KernelMode::Reference)).
    pub full_scan: bool,
}

/// A mailbox slot: `(destination router, input port index, flit)`.
type Mail = Vec<(usize, usize, Flit)>;

/// The only two ways state crosses a shard boundary. Both are written by
/// one shard and read by another only across a barrier, so every lock is
/// uncontended and the relaxed atomics need no ordering of their own: the
/// barrier's release/acquire pair orders them.
#[derive(Debug)]
pub(crate) struct Channels {
    /// Per-router input fullness, bit `p` set while input port `p`'s
    /// buffer is full. The owning shard stores it at the end of its local
    /// sub-phase for every walked router (sink pops in local free space
    /// that decide sees the same cycle) and clears it when the router
    /// retires (a retired router is empty). Decide reads it for a
    /// neighbour in another shard — the only foreign router state any
    /// phase reads.
    full: Vec<AtomicU8>,
    /// One slot per `(source, destination)` shard pair, at
    /// `source * n_shards + destination`: flits leaving the source's
    /// routers for the destination's input buffers. Filled in the
    /// source's apply sub-phase and emptied by the destination at the
    /// start of its next cycle.
    mail: Vec<Mutex<Mail>>,
    /// The first router of each shard, ascending.
    starts: Vec<usize>,
}

impl Channels {
    pub fn new(width: usize, height: usize, n_shards: usize) -> Self {
        Self {
            full: (0..width * height).map(|_| AtomicU8::new(0)).collect(),
            mail: (0..n_shards * n_shards).map(|_| Mutex::default()).collect(),
            starts: (0..n_shards)
                .map(|shard| shard_range(width, height, n_shards, shard).start)
                .collect(),
        }
    }

    fn n_shards(&self) -> usize {
        self.starts.len()
    }

    /// The shard owning router `idx`.
    fn shard_of(&self, idx: usize) -> usize {
        self.starts.partition_point(|&start| start <= idx) - 1
    }

    fn publish_full(&self, idx: usize, router: &Router) {
        let mut mask = 0;
        for (p, input) in router.inputs.iter().enumerate() {
            mask |= u8::from(input.buffer.is_full()) << p;
        }
        self.full[idx].store(mask, Ordering::Relaxed);
    }

    fn is_full(&self, idx: usize, port: usize) -> bool {
        self.full[idx].load(Ordering::Relaxed) & (1 << port) != 0
    }

    fn mailbox(&self, src: usize, dst: usize) -> MutexGuard<'_, Mail> {
        self.mail[src * self.n_shards() + dst]
            .lock()
            .expect("mailbox poisoned by a panicking shard")
    }
}

/// One shard's exclusive view of the network for a window: its routers,
/// endpoints, activity flags and counter mirror — contiguous slices cut
/// along [`shard_range`] — and its own [`ShardDelta`]. Router indices stay
/// global; `base` is the first one owned.
#[derive(Debug)]
pub(crate) struct ShardMut<'a> {
    shard: usize,
    base: usize,
    routers: &'a mut [Router],
    endpoints: &'a mut [LocalEndpoint],
    active: &'a mut [bool],
    /// The statistics' mirror of the per-router hardware counters; the
    /// shard copies the counters of the routers it walked, when they
    /// retire and at the end of the window (only walked routers ever
    /// change theirs).
    counters: &'a mut [RouterCounters],
    delta: &'a mut ShardDelta,
}

/// Splits `len` elements off the front of `slice`.
fn cut<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(slice).split_at_mut(len);
    *slice = tail;
    head
}

impl<'a> ShardMut<'a> {
    /// Cuts the node arrays of a `width × height` network into one view
    /// per delta (one shard per delta), in shard order.
    pub fn split(
        mut routers: &'a mut [Router],
        mut endpoints: &'a mut [LocalEndpoint],
        mut active: &'a mut [bool],
        mut counters: &'a mut [RouterCounters],
        deltas: &'a mut [ShardDelta],
        width: usize,
        height: usize,
    ) -> impl Iterator<Item = ShardMut<'a>> {
        let n_shards = deltas.len();
        deltas.iter_mut().enumerate().map(move |(shard, delta)| {
            let range = shard_range(width, height, n_shards, shard);
            let len = range.len();
            ShardMut {
                shard,
                base: range.start,
                routers: cut(&mut routers, len),
                endpoints: cut(&mut endpoints, len),
                active: cut(&mut active, len),
                counters: cut(&mut counters, len),
                delta,
            }
        })
    }
}

/// Test hook: shard 1 panics in a window starting at this cycle, which
/// only a test that jumps the clock there ever reaches.
#[cfg(test)]
pub(crate) const PANIC_IN_SHARD_1_AT: u64 = 1 << 62;

/// A packet-trace span at `router`'s `port`, with `len` flits buffered
/// (clamped into the `u8` occupancy field).
fn span(cycle: u64, kind: SpanKind, router: RouterAddr, port: Port, len: usize) -> SpanEvent {
    SpanEvent {
        cycle,
        kind,
        router,
        port,
        occupancy: len.min(usize::from(u8::MAX)) as u8,
    }
}

/// Sub-phase 1: router-local work — source injection, routing/arbitration
/// and paced discarding of dropped packets — for every node in `nodes`
/// (all owned by `me`), publishing each one's input fullness to the
/// neighbour shards.
fn phase_local(ctx: &WindowCtx<'_>, now: u64, me: &mut ShardMut<'_>, nodes: &[usize]) {
    let config = ctx.config;
    let injector = ctx.injector;
    let delta = &mut *me.delta;
    let cadence = u64::from(config.cycles_per_flit);
    // From header arrival to header forwarded is `routing_cycles ×
    // cycles_per_flit` (the paper's latency formula charges R_i flit
    // periods per router). One cycle is consumed by the grant itself.
    let decision_delay = u64::from(config.routing_cycles) * cadence - 1;
    for &idx in nodes {
        let router = &mut me.routers[idx - me.base];
        let endpoint = &mut me.endpoints[idx - me.base];
        let here = router.addr;

        // --- buffer high-water mark, sampled at the cycle boundary
        // (before any of this cycle's pushes or pops). A router skipped
        // by the active-set walk holds no flits, so the skip cannot
        // miss a peak and the counter stays kernel-identical. ---
        let deepest = router
            .inputs
            .iter()
            .map(|p| p.buffer.len())
            .max()
            .unwrap_or(0) as u64;
        if deepest > router.counters.buffer_peak {
            router.counters.buffer_peak = deepest;
        }

        // --- node death: a dead IP core starts no new packets, so its
        // not-yet-started queue is discarded (it would otherwise pin the
        // node active forever). A packet already mid-injection finishes:
        // truncating it would wedge healthy links downstream with nothing
        // for diagnosis to condemn. A dead *router* additionally stops
        // acknowledging the local ingress handshake, so a mid-injection
        // worm stalls there and each timed-out attempt feeds the health
        // monitor — that is how a dead router carrying only its own
        // traffic still gets diagnosed. ---
        let router_dead = injector.is_some_and(|inj| inj.router_down(here, now));
        if injector.is_some_and(|inj| inj.endpoint_down(here, now)) {
            let keep = usize::from(endpoint.outgoing.front().is_some_and(|p| p.started));
            while endpoint.outgoing.len() > keep {
                endpoint.outgoing.pop_back();
                delta.source_queue_drops += 1;
            }
        }

        // --- inject: the source interface pushes its next flit into the
        // local input buffer at the handshake cadence. ---
        if now >= endpoint.next_inject_ok {
            if router_dead {
                if endpoint.peek_inject().is_some() {
                    endpoint.next_inject_ok = now + cadence;
                    delta.health_local.push(HealthEvent::Failure {
                        link: (here, Port::Local),
                        idx,
                        out: Port::Local.index(),
                        wedged: true,
                    });
                }
            } else if let Some((id, value)) = endpoint.peek_inject() {
                let local_in = &mut router.inputs[Port::Local.index()];
                if !local_in.buffer.is_full() {
                    let pushed = local_in.buffer.push(Flit::new(value, id, here, now));
                    debug_assert!(pushed);
                    endpoint.pop_inject();
                    endpoint.next_inject_ok = now + cadence;
                    delta.record_events.push((now, RecordEvent::Injected(id)));
                    delta.local_ingress.push(here);
                    delta.flit_hops += 1;
                    if ctx.trace_enabled {
                        // Fires once per flit; the tracer keeps only the
                        // first occurrence (the header) per packet.
                        let queued = local_in.buffer.len();
                        let span = span(now, SpanKind::Inject, here, Port::Local, queued);
                        delta.trace_local.push((id, span));
                    }
                }
            }
        }

        // --- routing: the control logic runs arbitration and the routing
        // algorithm for at most one pending header. A dead router's
        // control logic grants nothing and counts nothing: upstream
        // handshakes time out instead, and the health monitor's
        // escalation eventually purges the node. ---
        let stalled = !router_dead && injector.is_some_and(|inj| inj.router_stalled(here, now));
        if router_dead {
            // no grants, no stall bookkeeping, no sink progress
        } else if stalled {
            if now >= router.control_busy_until {
                delta.router_stall_cycles += 1;
            }
        } else if now >= router.control_busy_until {
            let mut granted = None;
            let mut dropped = None;
            let mut blocked = false;
            for in_idx in router.arbiter.scan_order() {
                let input = &router.inputs[in_idx];
                if !input.has_pending_header(now) {
                    continue;
                }
                let Some(head) = input.buffer.peek() else {
                    continue;
                };
                let dest = RouterAddr::from_flit(head.value, config.flit_bits);
                let wid = head.packet;
                match decide_route(
                    config,
                    ctx.base_table,
                    ctx.epochs,
                    here,
                    Port::from_index(in_idx),
                    dest,
                    now,
                ) {
                    RouteDecision::Forward(out_port, rerouted) => {
                        debug_assert!(
                            router.has_port(out_port, &config.topology),
                            "routing picked a port off the grid edge"
                        );
                        let out = out_port.index();
                        if router.outputs[out].owner.is_none() {
                            if injector.is_some_and(|inj| inj.roll_drop(here, now)) {
                                dropped = Some((in_idx, DropKind::Fault, wid));
                            } else {
                                granted = Some((in_idx, out, rerouted, wid));
                            }
                            break;
                        }
                        blocked = true;
                    }
                    RouteDecision::Misaddressed => {
                        dropped = Some((in_idx, DropKind::Misaddressed, wid));
                        break;
                    }
                    RouteDecision::Unreachable => {
                        dropped = Some((in_idx, DropKind::Unreachable, wid));
                        break;
                    }
                }
            }
            if let Some((in_idx, out, rerouted, wid)) = granted {
                router.inputs[in_idx].conn = Some(out);
                router.inputs[in_idx].conn_active_at = now + decision_delay;
                router.inputs[in_idx].cur_packet = Some(wid);
                router.outputs[out].owner = Some(in_idx);
                router.control_busy_until = now + decision_delay;
                router.arbiter.grant(in_idx);
                router.counters.grants += 1;
                if rerouted {
                    delta.rerouted_grants += 1;
                }
                if ctx.trace_enabled {
                    let queued = router.inputs[in_idx].buffer.len();
                    let span = span(now, SpanKind::Route, here, Port::from_index(out), queued);
                    delta.trace_local.push((wid, span));
                }
            } else if let Some((in_idx, kind, wid)) = dropped {
                // The control logic discards the packet instead of routing
                // it: it occupies the control for the same charge and
                // advances the arbiter, but opens no connection.
                router.inputs[in_idx].cur_packet = Some(wid);
                router.inputs[in_idx].start_sink(now);
                router.control_busy_until = now + decision_delay;
                router.arbiter.grant(in_idx);
                match kind {
                    DropKind::Fault => delta.packets_dropped += 1,
                    DropKind::Unreachable => delta.unreachable_drops += 1,
                    DropKind::Misaddressed => delta.misaddressed_drops += 1,
                }
                if ctx.trace_enabled {
                    let queued = router.inputs[in_idx].buffer.len();
                    let span = span(now, SpanKind::Drop, here, Port::from_index(in_idx), queued);
                    delta.trace_local.push((wid, span));
                }
            } else if blocked {
                router.counters.blocked_cycles += 1;
            }
        }

        // --- sink: input ports discarding a dropped packet consume one
        // flit per handshake period, so the upstream wormhole keeps
        // moving and the drop never wedges the path. A dead router's
        // sinks freeze with the rest of its control logic. ---
        for in_idx in 0..router.inputs.len() {
            if router_dead {
                break;
            }
            let input = &mut router.inputs[in_idx];
            if !input.sinking || now < input.sink_ready_at {
                continue;
            }
            let Some(head) = input.buffer.peek() else {
                continue;
            };
            if head.arrived >= now {
                continue;
            }
            let Some(flit) = input.buffer.pop() else {
                continue;
            };
            input.sink_ready_at = now + cadence;
            input.fwd_count += 1;
            if input.fwd_count == 2 {
                input.fwd_expected = Some(usize::from(flit.value) + 2);
            }
            if input.fwd_expected == Some(input.fwd_count) {
                input.close();
            }
            delta.flits_dropped += 1;
        }

        if let Some(channels) = ctx.channels {
            channels.publish_full(idx, router);
        }
    }
}

/// Sub-phase 2: collect the flit transfer every established connection of
/// `nodes` would make this cycle. Mutates nothing but the delta; reads
/// downstream buffer fullness from the shard's own routers or, across a
/// shard boundary, from the fullness masks published in local.
fn phase_decide(ctx: &WindowCtx<'_>, now: u64, me: &mut ShardMut<'_>, nodes: &[usize]) {
    let config = ctx.config;
    let injector = ctx.injector;
    let delta = &mut *me.delta;
    for &idx in nodes {
        let router = &me.routers[idx - me.base];
        for (in_idx, input) in router.inputs.iter().enumerate() {
            let Some(out) = input.conn else { continue };
            if now < input.conn_active_at {
                continue;
            }
            if now < router.outputs[out].next_free {
                continue;
            }
            let Some(flit) = input.buffer.peek() else {
                continue;
            };
            if flit.arrived >= now {
                continue;
            }
            let out_port = Port::from_index(out);
            if injector.is_some_and(|inj| inj.link_down(router.addr, out_port, now)) {
                delta.link_down_blocks += 1;
                // A ready transfer blocked by the outage is one failed
                // hop handshake; each link sees at most one per cycle
                // (a single input owns each output).
                delta.health_decide.push(HealthEvent::Failure {
                    link: (router.addr, out_port),
                    idx,
                    out,
                    wedged: true,
                });
                continue;
            }
            let has_space = match out_port {
                Port::Local => true,
                _ => {
                    let Some(next) = config.topology.neighbour(router.addr, out_port) else {
                        continue;
                    };
                    let next_idx = config.topology.index(next);
                    let Some(in_port) = out_port.opposite() else {
                        continue;
                    };
                    // (An index below `base` wraps past the slice too.)
                    let full = match me.routers.get(next_idx.wrapping_sub(me.base)) {
                        Some(next) => next.inputs[in_port.index()].buffer.is_full(),
                        None => ctx
                            .channels
                            .expect("only a multi-shard window has foreign neighbours")
                            .is_full(next_idx, in_port.index()),
                    };
                    !full
                }
            };
            if has_space {
                delta.transfers.push((idx, in_idx, out));
            } else {
                // A flit is ready but the downstream buffer is full: zero
                // forward progress this cycle. The apply sub-phase counts
                // consecutive runs; the merge flushes the worm once they
                // exceed the deadlock-recovery timeout.
                delta.blocked_conns.push((idx, in_idx));
            }
        }
    }
}

/// Sub-phase 3: apply the decided transfers on their source routers —
/// pop, corruption roll, then local delivery, a staged same-shard push
/// or the mailbox of the neighbour's shard. Also folds the cycle's
/// zero-progress bookkeeping into the routers' own counters and finally
/// lands every staged same-shard flit (so all pops of the cycle precede
/// all pushes, exactly like the sequential engine).
fn phase_apply_src(ctx: &WindowCtx<'_>, now: u64, me: &mut ShardMut<'_>) {
    let config = ctx.config;
    let injector = ctx.injector;
    let cadence = u64::from(config.cycles_per_flit);
    let (base, owned) = (me.base, me.base..me.base + me.routers.len());
    let delta = &mut *me.delta;

    // Zero-progress bookkeeping lives on the input ports themselves, so
    // it must fold in cycle by cycle (the reset below races it only in
    // the trivial sense that a connection is either blocked or
    // transferring in a given cycle, never both).
    let mut blocked = std::mem::take(&mut delta.blocked_conns);
    for &(idx, in_idx) in &blocked {
        let input = &mut me.routers[idx - base].inputs[in_idx];
        input.blocked_cycles = input.blocked_cycles.saturating_add(1);
        if ctx.recovery_armed && input.blocked_cycles >= config.deadlock_timeout {
            delta.stuck.push((idx, in_idx));
        }
    }
    blocked.clear();
    delta.blocked_conns = blocked;

    let transfers = std::mem::take(&mut delta.transfers);
    for &(idx, in_idx, out) in &transfers {
        let router = &mut me.routers[idx - base];
        let here = router.addr;
        let out_port = Port::from_index(out);
        let link: LinkId = (here, out_port);
        // The transfer was decided on a peeked flit this same cycle,
        // so the pop cannot miss; skipping keeps the phase total even
        // if that invariant were ever broken.
        let Some(mut flit) = router.inputs[in_idx].buffer.pop() else {
            continue;
        };
        // Off-chip links (chiplet boundaries) pace slower than the on-chip
        // handshake; on-chip links keep the multiplier at 1 so the mesh is
        // byte-identical to the pre-topology kernel.
        router.outputs[out].next_free =
            now + cadence * u64::from(config.topology.link_cadence_mult(here, out_port));
        router.counters.flits_forwarded += 1;
        delta.flit_hops += 1;
        delta.link_flits.push(link);

        // Track packet boundaries on the forwarding side.
        let input = &mut router.inputs[in_idx];
        input.blocked_cycles = 0;
        input.fwd_count += 1;
        if input.fwd_count == 2 {
            input.fwd_expected = Some(usize::from(flit.value) + 2);
        }
        let flit_index = input.fwd_count;
        let close = input.fwd_expected == Some(input.fwd_count);
        if close {
            input.close();
            router.outputs[out].owner = None;
        }

        // Payload flits (3rd wire flit onward) may be corrupted while
        // crossing the link; header and size flits are exempt so the
        // wormhole bookkeeping itself stays sound (see `fault`).
        let mut garbled = false;
        if flit_index >= 3 {
            if let Some(inj) = injector {
                if inj.roll_corrupt(link, now) {
                    flit.value = inj.corrupt_value(link, now, flit.value, config.flit_bits);
                    delta.flits_corrupted += 1;
                    garbled = true;
                }
            }
        }
        if garbled {
            delta.health_apply.push(HealthEvent::Failure {
                link,
                idx,
                out,
                wedged: false,
            });
        } else if !ctx.pristine {
            delta.health_apply.push(HealthEvent::Success(link));
        }

        // On-chip hops land this cycle (readable next cycle, as before);
        // off-chip hops stamp a future arrival, and the `arrived < now`
        // gates keep the flit untouchable until the channel delay elapses
        // — sound under any batch window.
        flit.arrived = now + config.topology.link_latency(here, out_port);
        let queued = router.inputs[in_idx].buffer.len();
        match out_port {
            Port::Local => {
                delta.flits_delivered += 1;
                match me.endpoints[idx - base].receive(flit) {
                    RxEvent::HeaderArrived(id) => {
                        delta.record_events.push((now, RecordEvent::Header(id)));
                        if ctx.trace_enabled {
                            let span = span(now, SpanKind::Sink, here, Port::Local, queued);
                            delta.trace_apply.push((id, span));
                        }
                    }
                    RxEvent::Completed(id) => {
                        delta.record_events.push((now, RecordEvent::Delivered(id)));
                        delta.packets_delivered += 1;
                        if ctx.trace_enabled {
                            let span = span(now, SpanKind::Delivered, here, Port::Local, queued);
                            delta.trace_apply.push((id, span));
                        }
                    }
                    RxEvent::Progress => {}
                }
            }
            _ => {
                // Decide already resolved these lookups; a miss here
                // cannot happen for a transfer it emitted.
                let Some(next) = config.topology.neighbour(here, out_port) else {
                    continue;
                };
                let next_idx = config.topology.index(next);
                let Some(in_port) = out_port.opposite() else {
                    continue;
                };
                if ctx.trace_enabled && flit_index == 1 {
                    let span = span(now, SpanKind::Hop, here, out_port, queued);
                    delta.trace_apply.push((flit.packet, span));
                }
                let staged = (next_idx, in_port.index(), flit);
                match ctx.channels {
                    Some(channels) if !owned.contains(&next_idx) => {
                        let dst = channels.shard_of(next_idx);
                        channels.mailbox(me.shard, dst).push(staged);
                    }
                    _ => delta.inbox_local.push(staged),
                }
            }
        }
    }
    let mut transfers = transfers;
    transfers.clear();
    delta.transfers = transfers;

    // Land the same-shard flits: every pop above is done, so pushing now
    // reproduces the sequential pops-then-pushes order exactly. The
    // arrival also wakes the destination for the next cycle's walk.
    let mut inbox = std::mem::take(&mut delta.inbox_local);
    for &(dst_idx, in_idx, flit) in &inbox {
        let pushed = me.routers[dst_idx - base].inputs[in_idx].buffer.push(flit);
        debug_assert!(pushed, "downstream buffer checked for space");
        me.active[dst_idx - base] = true;
    }
    inbox.clear();
    delta.inbox_local = inbox;
}

/// Lands the flits other shards mailed to `me` into its routers' input
/// buffers, waking each destination node. Runs at the start of a shard's
/// cycle (and once after the window's last cycle), so a flit sent in
/// cycle `c` is visible from cycle `c + 1` on — exactly when the
/// sequential engine first lets it be observed. Each downstream buffer is
/// fed by exactly one upstream output, so at most one mailed flit targets
/// any buffer per cycle and the drain order is irrelevant.
fn drain_mailboxes(channels: &Channels, me: &mut ShardMut<'_>) {
    for src in (0..channels.n_shards()).filter(|&src| src != me.shard) {
        for (dst_idx, in_idx, flit) in channels.mailbox(src, me.shard).drain(..) {
            let pushed = me.routers[dst_idx - me.base].inputs[in_idx]
                .buffer
                .push(flit);
            debug_assert!(pushed, "downstream buffer checked for space");
            me.active[dst_idx - me.base] = true;
        }
    }
}

/// One timed bucket of the kernel phase profiler. `Mailbox` times the
/// mailbox drains, which land cross-shard flits (reported as
/// [`PhaseProfile::apply_dst_nanos`]).
#[derive(Debug, Clone, Copy)]
enum ProfiledPhase {
    Local,
    Decide,
    ApplySrc,
    Mailbox,
    Barrier,
}

/// Wall-clock nanoseconds accumulated per kernel sub-phase — and per
/// barrier wait, summed across every shard — plus the number of profiled
/// cycles. Purely an observer: it reads the monotonic clock and touches
/// no simulation state, so enabling it cannot change any observable
/// (fingerprints stay bit-identical; only wall-clock throughput pays the
/// few `Instant::now` calls per shard per cycle).
#[derive(Debug, Default)]
pub(crate) struct PhaseProfiler {
    /// Nanoseconds per [`ProfiledPhase`], indexed by its discriminant.
    nanos: [AtomicU64; 5],
    cycles: AtomicU64,
}

impl PhaseProfiler {
    fn add(&self, phase: ProfiledPhase, nanos: u64) {
        self.nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Counts `n` profiled cycles (one step, or one whole window).
    pub fn bump_cycles(&self, n: u64) {
        self.cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (the simulation is quiescent whenever
    /// this is called, so relaxed loads observe every preceding cycle).
    pub fn snapshot(&self) -> PhaseProfile {
        let nanos = |phase: ProfiledPhase| self.nanos[phase as usize].load(Ordering::Relaxed);
        PhaseProfile {
            cycles: self.cycles.load(Ordering::Relaxed),
            local_nanos: nanos(ProfiledPhase::Local),
            decide_nanos: nanos(ProfiledPhase::Decide),
            apply_src_nanos: nanos(ProfiledPhase::ApplySrc),
            apply_dst_nanos: nanos(ProfiledPhase::Mailbox),
            barrier_nanos: nanos(ProfiledPhase::Barrier),
        }
    }
}

/// A stopwatch over the profiler: `mark` charges the time since the last
/// mark to one bucket. Compiles to nothing when the profiler is off.
#[derive(Debug)]
struct Lap<'a> {
    profiler: Option<&'a PhaseProfiler>,
    last: Option<Instant>,
}

impl<'a> Lap<'a> {
    fn start(profiler: Option<&'a PhaseProfiler>) -> Self {
        Self {
            profiler,
            last: profiler.map(|_| Instant::now()),
        }
    }

    fn mark(&mut self, phase: ProfiledPhase) {
        if let (Some(profiler), Some(last)) = (self.profiler, self.last.as_mut()) {
            let now = Instant::now();
            profiler.add(phase, now.duration_since(*last).as_nanos() as u64);
            *last = now;
        }
    }
}

/// Runs `ctx.window` cycles of the fused engine on shard `me`: each cycle
/// drains the shard's mailboxes (from the second cycle on), walks the
/// shard's active nodes (every node under `full_scan`) through local →
/// decide → apply and retires nodes that went quiescent, mirroring the
/// counters of every walked router by the end of the window. A final
/// drain after the last cycle lands the window's trailing cross-shard
/// flits, so the merged state matches the sequential end-of-cycle state
/// exactly. Every shard of the window runs this once with the same `ctx`
/// and the same `barrier`, which has as many participants as shards; a
/// single shard passes no `barrier` (and `ctx` has no channels): it has
/// nobody to wait for and no mailbox to drain.
///
/// The function returns as soon as its own final drain is done; the
/// caller rendezvouses with the other shards afterwards (see
/// [`WorkerPool::run_window`]), so no shard still holds its view when the
/// stepping thread resumes.
pub(crate) fn run_shard(ctx: &WindowCtx<'_>, me: &mut ShardMut<'_>, barrier: Option<&SpinBarrier>) {
    #[cfg(test)]
    if me.shard == 1 && ctx.now == PANIC_IN_SHARD_1_AT {
        panic!("injected panic in shard {}", me.shard);
    }
    debug_assert!(ctx.window >= 1, "a window is at least one cycle");
    debug_assert_eq!(barrier.is_none(), ctx.channels.is_none());
    let mut lap = Lap::start(ctx.profiler);
    let sync = |lap: &mut Lap| {
        if let Some(barrier) = barrier {
            barrier.wait();
            lap.mark(ProfiledPhase::Barrier);
        }
    };
    for step in 0..u64::from(ctx.window) {
        let now = ctx.now + step;
        if let Some(channels) = ctx.channels.filter(|_| step > 0) {
            // Cross-shard flits sent in the previous cycle land before
            // anything of this cycle reads the buffers.
            drain_mailboxes(channels, me);
            lap.mark(ProfiledPhase::Mailbox);
        }
        let mut walk = std::mem::take(&mut me.delta.walk);
        walk.clear();
        if ctx.full_scan {
            walk.extend(me.base..me.base + me.routers.len());
        } else {
            let flagged = (me.base..).zip(&*me.active);
            walk.extend(flagged.filter_map(|(idx, &on)| on.then_some(idx)));
        }
        if !walk.is_empty() {
            me.delta.last_busy = now;
        }
        phase_local(ctx, now, me, &walk);
        lap.mark(ProfiledPhase::Local);
        sync(&mut lap);
        phase_decide(ctx, now, me, &walk);
        lap.mark(ProfiledPhase::Decide);
        sync(&mut lap);
        phase_apply_src(ctx, now, me);
        // Retire nodes that went quiescent this cycle, mirroring their
        // counters as they leave the walk. A node that stays active is
        // walked again next cycle, so the last cycle of the window mirrors
        // every walked node and no change escapes the mirror. A node
        // retired here that a foreign shard just sent a flit to is
        // re-woken by the next drain, before anyone observes the flags.
        let last = step + 1 == u64::from(ctx.window);
        for &idx in &walk {
            let i = idx - me.base;
            let router = &me.routers[i];
            let retire = router.is_idle() && me.endpoints[i].outgoing.is_empty();
            if retire || last {
                me.counters[i] = router.counters;
            }
            if retire {
                me.active[i] = false;
                if let Some(channels) = ctx.channels {
                    channels.full[idx].store(0, Ordering::Relaxed);
                }
            }
        }
        lap.mark(ProfiledPhase::ApplySrc);
        me.delta.walk = walk;
        sync(&mut lap);
    }
    if let Some(channels) = ctx.channels {
        // Land the last cycle's cross-shard flits before the merge reads
        // or snapshots any router state.
        drain_mailboxes(channels, me);
        lap.mark(ProfiledPhase::Mailbox);
    }
}

/// How long a waiter busy-spins on the barrier before yielding the CPU.
const SPIN_BUDGET: u32 = 256;

/// How many `yield_now` rounds follow the spin budget before the waiter
/// parks on the barrier's condvar. Short enough that an oversubscribed
/// or single-CPU host stops burning timeslices; long enough that a
/// healthy rendezvous never pays a syscall.
const YIELD_BUDGET: u32 = 64;

/// The unwind payload of a shard that found its barrier poisoned: a peer
/// panicked, and that peer's own panic is the one worth re-raising.
/// Raised with `resume_unwind`, which skips the panic hook — the peer's
/// panic already reported itself.
#[derive(Debug)]
struct PeerPanicked;

/// A sense-counting barrier that spins briefly, yields briefly, and then
/// blocks. `wait` releases everyone once `total` participants have
/// arrived. A participant that panics [`poison`](Self::poison)s it with
/// its panic, and every waiter unwinds instead of waiting for an arrival
/// that will never come.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    poisoned: AtomicBool,
    /// Waiters parked (or about to park) on the condvar; the releaser
    /// only takes the lock when this is non-zero, so the fast path stays
    /// lock-free.
    sleepers: AtomicUsize,
    /// The condvar's lock, which also keeps the first genuine panic the
    /// barrier was poisoned with.
    lock: Mutex<Option<Box<dyn Any + Send>>>,
    cv: Condvar,
}

impl SpinBarrier {
    pub fn new(total: usize) -> Self {
        Self {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total: total.max(1),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            // SeqCst orders this store against the sleeper-count load
            // below and the sleeper's own (count-increment, generation
            // re-check) pair: either we observe the sleeper and notify,
            // or the sleeper's re-check under the lock observes the new
            // generation and never blocks.
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                drop(self.lock.lock().expect("barrier lock poisoned"));
                self.cv.notify_all();
            }
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    panic::resume_unwind(Box::new(PeerPanicked));
                }
                if spins < SPIN_BUDGET {
                    std::hint::spin_loop();
                } else if spins < SPIN_BUDGET + YIELD_BUDGET {
                    std::thread::yield_now();
                } else {
                    self.sleep(gen);
                    return;
                }
                spins += 1;
            }
        }
    }

    /// Blocks until the generation moves past `gen`. Both budgets are
    /// exhausted: the host is oversubscribed (or single-CPU), so a
    /// syscall beats burning the timeslice the releaser needs.
    #[cold]
    fn sleep(&self, gen: usize) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().expect("barrier lock poisoned");
        while self.generation.load(Ordering::SeqCst) == gen && !self.poisoned.load(Ordering::SeqCst)
        {
            guard = self.cv.wait(guard).expect("barrier lock poisoned");
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) == gen {
            panic::resume_unwind(Box::new(PeerPanicked));
        }
    }

    /// Marks the barrier dead after a participant panicked with
    /// `payload`, keeping the first genuine panic for
    /// [`take_panic`](Self::take_panic), and wakes every waiter, spinning
    /// or parked, so it unwinds. The flag is set under the lock, so a
    /// waiter either re-checks it there or is already parked and receives
    /// the notification.
    #[cold]
    pub fn poison(&self, payload: Box<dyn Any + Send>) {
        let mut first = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if first.is_none() && !payload.is::<PeerPanicked>() {
            *first = Some(payload);
        }
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// The panic that poisoned the barrier. Only genuine panics poison it
    /// first (a [`PeerPanicked`] unwind needs an already poisoned
    /// barrier), so after any `poison` there is one to take.
    #[cold]
    pub fn take_panic(&self) -> Box<dyn Any + Send> {
        let mut first = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        first.take().expect("a poisoned barrier keeps its panic")
    }
}

pub(crate) use pool::WorkerPool;

/// The worker pool: the one place where a shard's view crosses a thread
/// boundary, and so the one place the crate opts out of its
/// `deny(unsafe_code)`. Everything a worker touches during a window is
/// published here and released again at the window's join.
#[allow(unsafe_code)]
mod pool {
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::JoinHandle;

    use super::{run_shard, Channels, Lap, ProfiledPhase, ShardMut, SpinBarrier, WindowCtx};

    /// A window's context and the views of shards `1..n` (at
    /// `views[shard - 1]`), published to the workers with their
    /// lifetimes erased.
    #[derive(Debug, Clone, Copy)]
    struct Published {
        ctx: *const WindowCtx<'static>,
        views: *mut ShardMut<'static>,
    }

    // SAFETY: `ctx` points to a `WindowCtx`, which is `Sync` (checked in
    // `run_window`), and `views` to `ShardMut`s, which are `Send`; each
    // worker reborrows only the view of its own shard. Both pointers are
    // dereferenced only between the gate release of a window and that
    // window's join, while `run_window` keeps the borrows they came from
    // alive.
    unsafe impl Send for Published {}

    /// Blocks workers between windows and publishes the next window to
    /// run, or `None` to shut down, under a new generation number.
    /// Workers park on a condvar, so an idle pool costs nothing — important
    /// both between windows and across long idle fast-forward gaps.
    #[derive(Debug, Default)]
    struct Gate {
        state: Mutex<(u64, Option<Published>)>,
        cv: Condvar,
    }

    impl Gate {
        fn release(&self, job: Option<Published>) {
            let mut st = self.state.lock().expect("worker gate poisoned");
            st.0 += 1;
            st.1 = job;
            self.cv.notify_all();
        }

        fn await_change(&self, last_seen: u64) -> (u64, Option<Published>) {
            let mut st = self.state.lock().expect("worker gate poisoned");
            while st.0 == last_seen {
                st = self.cv.wait(st).expect("worker gate poisoned");
            }
            *st
        }
    }

    /// The persistent worker pool of [`KernelMode::Parallel`] with two or
    /// more shards: `shards - 1` plain `std::thread` workers (the stepping
    /// thread itself runs shard 0) released window by window through the
    /// gate and synchronised by the in-window barrier, plus the
    /// cross-shard [`Channels`] they talk through. Dropping the pool shuts
    /// the workers down and joins them.
    ///
    /// A shard that panics poisons the barrier, so its peers unwind instead
    /// of waiting forever; the worker then exits, and [`run_window`]
    /// re-raises the original panic on the stepping thread.
    ///
    /// [`KernelMode::Parallel`]: crate::KernelMode::Parallel
    /// [`run_window`]: Self::run_window
    #[derive(Debug)]
    pub(crate) struct WorkerPool {
        barrier: Arc<SpinBarrier>,
        gate: Arc<Gate>,
        workers: Vec<JoinHandle<()>>,
        channels: Channels,
    }

    impl WorkerPool {
        /// Spawns workers for shards `1..shards` of a `width × height`
        /// network.
        pub fn new(width: usize, height: usize, shards: usize) -> Self {
            debug_assert!(shards >= 2, "a 1-shard pool has no workers");
            let barrier = Arc::new(SpinBarrier::new(shards));
            let gate = Arc::new(Gate::default());
            let workers = (1..shards)
                .map(|shard| {
                    let barrier = Arc::clone(&barrier);
                    let gate = Arc::clone(&gate);
                    std::thread::Builder::new()
                        .name(format!("hermes-shard-{shard}"))
                        .spawn(move || worker(shard, &barrier, &gate))
                        .expect("failed to spawn kernel worker thread")
                })
                .collect();
            Self {
                barrier,
                gate,
                workers,
                channels: Channels::new(width, height, shards),
            }
        }

        /// Number of shards this pool synchronises (workers + the caller).
        pub fn shards(&self) -> usize {
            self.channels.n_shards()
        }

        /// Runs one window over `views` (one per shard, in shard order):
        /// attaches the pool's channels to `ctx`, publishes both to the
        /// workers on shards `1..n`, runs shard 0 on the calling thread,
        /// and returns once every shard has returned from [`run_shard`]
        /// and passed the join barrier — no view is in use any more.
        ///
        /// # Panics
        ///
        /// Re-raises the first panic of any shard (after poisoning the
        /// barrier, so no peer is left waiting). The workers are joined
        /// first, so none of them still holds a view when the panic
        /// leaves this call. The pool is unusable afterwards, and so is
        /// the network the window was stepping (see
        /// [`Noc::step`](crate::Noc::step)).
        pub fn run_window(&mut self, ctx: WindowCtx<'_>, views: &mut [ShardMut<'_>]) {
            fn assert_thread_safe<C: Sync, V: Send>(_: &C, _: &V) {}
            // Each worker indexes `views` through the published pointer.
            assert_eq!(views.len(), self.workers.len() + 1, "one view per shard");
            let ctx = WindowCtx {
                channels: Some(&self.channels),
                ..ctx
            };
            let (own, rest) = views.split_first_mut().expect("one view per shard");
            assert_thread_safe(&ctx, own);
            self.gate.release(Some(Published {
                ctx: std::ptr::from_ref(&ctx).cast(),
                views: rest.as_mut_ptr().cast(),
            }));
            let barrier = &*self.barrier;
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                run_shard(&ctx, own, Some(barrier));
                // The join: every worker has returned from `run_shard`,
                // so its reborrow of `ctx` and of its view has ended.
                let mut lap = Lap::start(ctx.profiler);
                barrier.wait();
                lap.mark(ProfiledPhase::Barrier);
            }));
            if let Err(payload) = outcome {
                barrier.poison(payload);
                // Every worker leaves `run_shard` at the poisoned barrier
                // and exits; joining them ends their reborrows before the
                // views go out of scope.
                shut_down(&self.gate, &mut self.workers);
                panic::resume_unwind(barrier.take_panic());
            }
        }
    }

    /// The loop of the worker running `shard`: one [`run_shard`] per
    /// published window, then the join barrier.
    fn worker(shard: usize, barrier: &SpinBarrier, gate: &Gate) {
        let mut last_seen = 0u64;
        loop {
            let (gen, job) = gate.await_change(last_seen);
            last_seen = gen;
            let Some(job) = job else { return };
            let run = AssertUnwindSafe(|| {
                // SAFETY: the stepping thread published `job` for this
                // window and, in `run_window`, neither returns nor unwinds
                // before this worker has passed the join barrier below or
                // exited (it joins the workers on a panic), so both
                // pointees outlive these reborrows, which end when
                // `run_shard` returns. Shard `shard` is this worker's
                // alone, and the stepping thread holds only shard 0's
                // view, so the `&mut` aliases nothing.
                let (ctx, view) = unsafe { (&*job.ctx, &mut *job.views.add(shard - 1)) };
                run_shard(ctx, view, Some(barrier));
            });
            if let Err(payload) = panic::catch_unwind(run) {
                barrier.poison(payload);
                return;
            }
            // The join. A poisoned barrier unwinds out of the thread,
            // which is all that is left to do.
            barrier.wait();
        }
    }

    /// Releases the workers into shutdown and joins them.
    fn shut_down(gate: &Gate, workers: &mut Vec<JoinHandle<()>>) {
        gate.release(None);
        for handle in workers.drain(..) {
            // A worker that panicked already poisoned the run; don't
            // double-panic during drop.
            let _ = handle.join();
        }
    }

    impl Drop for WorkerPool {
        fn drop(&mut self) {
            shut_down(&self.gate, &mut self.workers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shard_ranges_are_row_aligned_and_cover_the_mesh() {
        for (width, height, shards) in [(4, 4, 2), (4, 4, 3), (16, 16, 8), (3, 5, 4), (2, 2, 8)] {
            let mut covered = Vec::new();
            let channels = Channels::new(width, height, shards);
            for s in 0..shards {
                let r = shard_range(width, height, shards, s);
                assert_eq!(r.start % width, 0, "shard {s} does not start on a row");
                assert_eq!(r.end % width, 0, "shard {s} does not end on a row");
                assert!(r.clone().all(|idx| channels.shard_of(idx) == s));
                covered.extend(r);
            }
            assert_eq!(
                covered,
                (0..width * height).collect::<Vec<_>>(),
                "{width}x{height} over {shards} shards"
            );
        }
    }

    #[test]
    fn spin_barrier_synchronises_threads() {
        let barrier = Arc::new(SpinBarrier::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    // After the barrier everyone has incremented.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        counter.fetch_add(1, Ordering::SeqCst);
        barrier.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        for h in handles {
            h.join().expect("barrier thread");
        }
    }

    #[test]
    fn spin_barrier_parks_and_is_woken_after_the_yield_budget() {
        // The waiter exhausts its spin and yield budgets long before the
        // releaser arrives, so it must park on the condvar and still be
        // released — on a loaded host this used to busy-yield forever.
        let barrier = Arc::new(SpinBarrier::new(2));
        for _ in 0..3 {
            let waiter = {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || barrier.wait())
            };
            std::thread::sleep(std::time::Duration::from_millis(30));
            barrier.wait();
            waiter.join().expect("parked waiter must be woken");
        }
    }

    #[test]
    fn poisoned_barrier_unwinds_its_waiters_and_keeps_the_cause() {
        let barrier = Arc::new(SpinBarrier::new(3));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || barrier.wait())
            })
            .collect();
        // Usually long enough for both waiters to exhaust their budgets
        // and park; a waiter still spinning must unwind just the same.
        std::thread::sleep(std::time::Duration::from_millis(30));
        barrier.poison(Box::new("boom"));
        for waiter in waiters {
            let payload = waiter.join().expect_err("a poisoned wait unwinds");
            barrier.poison(payload); // a peer's unwind never displaces the cause
        }
        assert_eq!(barrier.take_panic().downcast_ref(), Some(&"boom"));
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    #[test]
    fn pool_shuts_down_cleanly_without_running_a_cycle() {
        let pool = WorkerPool::new(4, 4, 4);
        assert_eq!(pool.shards(), 4);
        drop(pool);
    }

    #[test]
    fn topology_helpers_agree_with_geometry() {
        let topo = crate::topology::Topology::Mesh {
            width: 2,
            height: 2,
        };
        assert_eq!(topo.index(RouterAddr::new(1, 1)), 3);
        assert!(!topo.contains(RouterAddr::new(2, 0)));
        assert_eq!(
            topo.neighbour(RouterAddr::new(0, 0), Port::East),
            Some(RouterAddr::new(1, 0))
        );
        assert_eq!(topo.neighbour(RouterAddr::new(0, 0), Port::West), None);
        assert_eq!(topo.neighbour(RouterAddr::new(0, 0), Port::Local), None);
    }
}
