//! Flow-control state: the per-run allocations of the engine, owned by a
//! reusable [`SimWorkspace`].
//!
//! Since the engine was partitioned into group-sharded workers, the
//! workspace is a container of per-shard slabs ([`ShardState`]): shard `k`
//! of `N` owns `groups / N` consecutive dragonfly groups — their switches,
//! input buffers, credits, calendar rings and the send side of every
//! channel leaving an owned switch.  All arrays stay **globally indexed**
//! (channel/switch/node ids are the dense topology ids); a shard simply
//! never touches indices it does not own, so the sequential `N = 1` layout
//! is the same code with one shard owning everything.  The per-channel
//! ownership tables (`owns_send`/`owns_recv`, `src_shard`/`dst_shard`)
//! form the boundary index the workers consult when a flit or credit must
//! cross into another shard's slab via a mailbox.
//!
//! All per-channel state lives in flat vectors indexed by
//! [`tugal_topology::ChannelId`]:
//!
//! * *staging* — flits that won switch allocation and wait for their 1
//!   flit/cycle slot on the wire (they already hold a downstream credit,
//!   so backpressure is preserved),
//! * *input buffers* — the downstream router's input buffer, one FIFO per
//!   VC,
//! * `credits` — sender-side credit counters per VC; credit return takes
//!   the channel latency, modelled with a calendar ring.
//!
//! The two FIFO families are *intrusive* linked lists threaded through one
//! shared [`ShardState::next_pkt`] array: a packet sits in at most one
//! queue at a time (staging of its current channel, or one input-buffer
//! FIFO downstream), so a single next-pointer per packet replaces a
//! `VecDeque` per queue — no per-queue capacity management, no wraparound
//! arithmetic, and pushes/pops are two or three word-sized stores on the
//! switch-allocation hot path.
//!
//! In-flight flits sit in an arrival calendar ring rather than per-channel
//! pipelines, so per-cycle cost is proportional to the number of flits in
//! flight, not to topology size.  Each router keeps a *ready list* of
//! non-empty input-buffer FIFOs; switch allocation visits only those.
//!
//! A workspace survives across runs: [`SimWorkspace`]'s crate-internal
//! `reset` clears every structure *in place* (keeping the backing
//! capacity) when the engine shape — channel count × VC count × switch
//! count × calendar ring size × shard count — matches the previous run,
//! and rebuilds from scratch only when it changes.  A reset workspace is
//! indistinguishable from a fresh one, so reuse cannot perturb determinism
//! (asserted by the golden fixtures and the workspace-reuse tests).

use crate::config::Config;
use std::sync::Mutex;
use tugal_routing::Path;
use tugal_topology::{ChannelKind, Dragonfly, Endpoint};

/// A packet in flight (single-flit, as the paper uses).  `Copy`, so a
/// boundary handoff to another shard's mailbox is a plain 40-byte move.
#[derive(Clone, Copy)]
pub(crate) struct Packet {
    pub(crate) dst_node: u32,
    /// Source node (reported to the observer when a fault drops the
    /// packet mid-network).
    pub(crate) src_node: u32,
    pub(crate) birth: u64,
    /// The packet's source route, by reference: either a
    /// [`tugal_routing::PathId`] into the provider's interned arena, or —
    /// when the `EPH_BIT` tag is set —
    /// the packet's slot in [`ShardState::eph_paths`], holding a path
    /// that was composed per draw (rule-based providers, fault-reroute
    /// sentinels, the pre-routing placeholder).  Resolved through
    /// `Engine::packet_path`.
    pub(crate) path_id: u32,
    /// Index of the next hop to take on the packet's path.
    pub(crate) hop: u8,
    /// VC the packet occupies on its current channel.
    pub(crate) cur_vc: u8,
    /// Channel currently carrying/buffering the packet.
    pub(crate) cur_chan: u32,
    /// Local hops taken before `path` started (PAR or fault reroute).
    pub(crate) pre_local: u8,
    /// Global hops taken before `path` started (fault reroute only; PAR
    /// revises before the first global hop).
    pub(crate) pre_global: u8,
    /// Network hops taken so far (for statistics).
    pub(crate) hops_taken: u8,
    pub(crate) flags: u8,
    /// Memoized `next_hop` output channel (`u32::MAX` = not computed).
    /// A blocked head-of-buffer packet is re-examined by switch allocation
    /// every round of every cycle; its next hop is a pure function of the
    /// route state, so it is computed once and invalidated only when
    /// `hop` or the path changes.
    pub(crate) out_chan: u32,
    /// Memoized `next_hop` VC, paired with `out_chan` (`u8::MAX` encodes
    /// the credit-untracked ejection hop).
    pub(crate) out_vc: u8,
}

/// The engine shape a workspace is currently sized for.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    n_chan: usize,
    v: usize,
    n_switches: usize,
    ring_size: usize,
    buf_size: u16,
    shards: usize,
}

/// One shard worker's slab: the complete flow-control state for the
/// contiguous group range the shard owns, plus the boundary index that
/// tells it which channels cross into other shards.
///
/// Every array is globally indexed (dense topology ids); entries outside
/// the owned range stay in their reset state and are never read or
/// written, except for the replicated read-only geometry (`latency`,
/// `dst_switch`, `is_global`, the dead masks) which every shard keeps in
/// full so the hot paths need no index translation.
#[derive(Default)]
pub(crate) struct ShardState {
    // ---- Shard identity / ownership (rebuilt on every reset) ----
    /// This shard's index in `0..n_shards`.
    pub(crate) id: u32,
    /// Total shard count of the run.
    pub(crate) n_shards: u32,
    /// First dragonfly group this shard owns (owns `groups / n_shards`
    /// consecutive groups from here).
    pub(crate) group_lo: u32,
    /// Owned switch range `[switch_lo, switch_hi)`.
    pub(crate) switch_lo: u32,
    pub(crate) switch_hi: u32,
    /// Owned node range `[node_lo, node_hi)`.
    pub(crate) node_lo: u32,
    pub(crate) node_hi: u32,
    /// Nodes per group (`p * a`), for node → group arithmetic.
    pub(crate) nodes_per_group: u32,
    /// Per channel: this shard owns the *send* side (staging, credits,
    /// `cred_used`, `next_free`, `chan_flits`) — true iff the source
    /// endpoint lives in the owned range.
    pub(crate) owns_send: Vec<bool>,
    /// Per channel: this shard owns the *receive* side (input-buffer
    /// FIFOs, `buf_occ`, ready lists) — true iff the destination endpoint
    /// lives in the owned range.
    pub(crate) owns_recv: Vec<bool>,
    /// Per channel: shard owning the send side (for boundary credit
    /// returns).
    pub(crate) src_shard: Vec<u32>,
    /// Per channel: shard owning the receive side (for boundary flit
    /// handoff).
    pub(crate) dst_shard: Vec<u32>,

    // ---- Packet pool ----
    pub(crate) packets: Vec<Packet>,
    pub(crate) free: Vec<u32>,
    /// Ephemeral path storage, parallel to `packets`: slot `i` holds the
    /// path of packet `i` whenever its `path_id` carries the ephemeral
    /// tag (paths not interned in the provider's arena).  Slots of
    /// interned-path packets are stale and never read.
    pub(crate) eph_paths: Vec<Path>,
    /// Intrusive FIFO links, parallel to `packets`: the next packet in
    /// whichever queue (staging or input buffer) packet `i` currently
    /// waits in; `u32::MAX` terminates a list.  Stale for packets not in
    /// any queue.
    pub(crate) next_pkt: Vec<u32>,

    // ---- Per channel ----
    pub(crate) latency: Vec<u32>,
    /// Staging FIFO head per channel (`u32::MAX` = empty).
    pub(crate) stg_head: Vec<u32>,
    /// Staging FIFO tail per channel (`u32::MAX` = empty).
    pub(crate) stg_tail: Vec<u32>,
    /// Staging FIFO length per channel, maintained explicitly: the UGAL
    /// queue metrics and the source-queue cap read it per routing
    /// decision.
    pub(crate) stg_len: Vec<u32>,
    pub(crate) next_free: Vec<u64>,
    pub(crate) in_busy: Vec<bool>,
    pub(crate) busy_list: Vec<u32>,
    /// Credits available, per (channel * V + vc).
    pub(crate) credits: Vec<u16>,
    /// Input-buffer FIFO head per (channel * V + vc) (`u32::MAX` = empty).
    pub(crate) inb_head: Vec<u32>,
    /// Input-buffer FIFO tail per (channel * V + vc) (`u32::MAX` = empty).
    pub(crate) inb_tail: Vec<u32>,
    /// Sum of in_buf occupancy over VCs, per channel (UGAL-G metric).
    pub(crate) buf_occ: Vec<u32>,
    /// Credits consumed, per channel (UGAL-L metric).
    pub(crate) cred_used: Vec<u32>,
    /// Destination switch of each network/injection channel (u32::MAX for
    /// ejection).
    pub(crate) dst_switch: Vec<u32>,
    /// Channel of each buffer index (`idx / V`, precomputed: the engine
    /// needs it once per credit return and once per dequeue, and `V` is
    /// not a power of two for every scheme).
    pub(crate) chan_of_buf: Vec<u32>,
    /// True for global channels (for utilization aggregation).
    pub(crate) is_global: Vec<bool>,

    // ---- Per switch ----
    pub(crate) ready: Vec<Vec<u32>>, // buffer indices (chan * V + vc)
    pub(crate) in_ready: Vec<bool>,  // per buffer index
    /// Per buffer index: the `(channel * V + vc)` credit counter the head
    /// packet found empty, or `u32::MAX` when not blocked.  Switch
    /// allocation skips a waiting buffer with two loads instead of the
    /// full head inspection until that counter is replenished — a pure
    /// fast path, since a credit-starved head cannot win and credits
    /// never increase within a cycle.  Maintained only on the pristine
    /// (fault-free) path, where heads have no other per-round side
    /// effects; fault runs take the full scan so `fault_check` still
    /// sees every head.
    pub(crate) wait: Vec<u32>,
    pub(crate) rr: Vec<usize>,
    pub(crate) out_stamp: Vec<u64>, // per channel: SA round stamp

    // ---- Calendars ----
    pub(crate) arrivals: Vec<Vec<u32>>, // ring by cycle: packet indices
    pub(crate) credit_ring: Vec<Vec<u32>>, // ring by cycle: buffer indices
    /// Drained-slot scratch buffers: each cycle swaps the due calendar
    /// slot with one of these, iterates it and swaps back cleared, so ring
    /// capacity circulates instead of being dropped and reallocated.
    pub(crate) arrival_scratch: Vec<u32>,
    pub(crate) credit_scratch: Vec<u32>,

    /// Flits sent per channel during the run (utilization statistic; only
    /// send-owned channels count, so the per-shard vectors sum disjointly
    /// into the global view).
    pub(crate) chan_flits: Vec<u32>,

    // ---- Fault state (all false unless a fault schedule is configured).
    // Replicated in full on every shard: fault events are broadcast, each
    // shard computes the same degraded view and drains only the buffers it
    // owns (the others are empty in its slab). ----
    /// Channels killed by applied fault events, per channel.
    pub(crate) chan_dead: Vec<bool>,
    /// Switches killed by applied fault events, per switch.
    pub(crate) switch_dead: Vec<bool>,
}

impl ShardState {
    /// Occupancy (in flits) of the downstream input buffer of channel
    /// `chan`, VC `vc`, for an engine with `v` VCs per channel — the
    /// quantity the observer seam samples through
    /// [`super::SimObserver::on_vc_occupancy_sample`].
    /// (Observer-only: walks the FIFO, so cost is its length — the hot
    /// engine paths never need an input-buffer length.)
    #[inline]
    pub(crate) fn vc_occupancy(&self, chan: usize, v: usize, vc: usize) -> u32 {
        let mut n = 0;
        let mut p = self.inb_head[chan * v + vc];
        while p != u32::MAX {
            n += 1;
            p = self.next_pkt[p as usize];
        }
        n
    }

    /// Appends `pi` to the staging FIFO of channel `ch`.
    #[inline]
    pub(crate) fn stg_push(&mut self, ch: usize, pi: u32) {
        self.next_pkt[pi as usize] = u32::MAX;
        let t = self.stg_tail[ch];
        if t == u32::MAX {
            self.stg_head[ch] = pi;
        } else {
            self.next_pkt[t as usize] = pi;
        }
        self.stg_tail[ch] = pi;
        self.stg_len[ch] += 1;
    }

    /// Pops the head of the staging FIFO of channel `ch`.
    #[inline]
    pub(crate) fn stg_pop(&mut self, ch: usize) -> Option<u32> {
        let h = self.stg_head[ch];
        if h == u32::MAX {
            return None;
        }
        let n = self.next_pkt[h as usize];
        self.stg_head[ch] = n;
        if n == u32::MAX {
            self.stg_tail[ch] = u32::MAX;
        }
        self.stg_len[ch] -= 1;
        Some(h)
    }

    /// Appends `pi` to the input-buffer FIFO `idx` (= channel * V + vc).
    #[inline]
    pub(crate) fn inb_push(&mut self, idx: usize, pi: u32) {
        self.next_pkt[pi as usize] = u32::MAX;
        let t = self.inb_tail[idx];
        if t == u32::MAX {
            self.inb_head[idx] = pi;
        } else {
            self.next_pkt[t as usize] = pi;
        }
        self.inb_tail[idx] = pi;
    }

    /// Pops the head of input-buffer FIFO `idx`.
    #[inline]
    pub(crate) fn inb_pop(&mut self, idx: usize) -> Option<u32> {
        let h = self.inb_head[idx];
        if h == u32::MAX {
            return None;
        }
        let n = self.next_pkt[h as usize];
        self.inb_head[idx] = n;
        if n == u32::MAX {
            self.inb_tail[idx] = u32::MAX;
        }
        Some(h)
    }

    /// Clears the slab in place and rebuilds the shard's ownership index
    /// and channel geometry for shard `id` of `n_shards` over `topo`.
    fn reset(&mut self, topo: &Dragonfly, cfg: &Config, id: usize, n_shards: usize) {
        self.packets.clear();
        self.free.clear();
        self.eph_paths.clear();
        self.next_pkt.clear();
        self.busy_list.clear();
        self.stg_head.fill(u32::MAX);
        self.stg_tail.fill(u32::MAX);
        self.stg_len.fill(0);
        self.next_free.fill(0);
        self.in_busy.fill(false);
        self.credits.fill(cfg.buf_size);
        self.inb_head.fill(u32::MAX);
        self.inb_tail.fill(u32::MAX);
        self.buf_occ.fill(0);
        self.cred_used.fill(0);
        for r in &mut self.ready {
            r.clear();
        }
        self.in_ready.fill(false);
        self.wait.fill(u32::MAX);
        self.rr.fill(0);
        self.out_stamp.fill(0);
        for a in &mut self.arrivals {
            a.clear();
        }
        for c in &mut self.credit_ring {
            c.clear();
        }
        self.arrival_scratch.clear();
        self.credit_scratch.clear();
        self.chan_flits.fill(0);
        self.chan_dead.fill(false);
        self.switch_dead.fill(false);

        // Ownership: shard `id` owns `groups / n_shards` consecutive
        // groups and everything inside them.
        let groups = topo.num_groups() as u32;
        let gps = groups / n_shards as u32; // validated divisible upstream
        let a = (topo.num_switches() / topo.num_groups()) as u32;
        let npg = (topo.num_nodes() / topo.num_groups()) as u32;
        self.id = id as u32;
        self.n_shards = n_shards as u32;
        self.group_lo = id as u32 * gps;
        self.switch_lo = self.group_lo * a;
        self.switch_hi = (self.group_lo + gps) * a;
        self.node_lo = self.group_lo * npg;
        self.node_hi = (self.group_lo + gps) * npg;
        self.nodes_per_group = npg;

        // Channel geometry is cheap to rederive and may differ between
        // configs of the same shape (e.g. latencies), so refill it on every
        // reset; the buffers above keep their capacity either way.
        self.latency.clear();
        self.dst_switch.clear();
        self.is_global.clear();
        self.owns_send.clear();
        self.owns_recv.clear();
        self.src_shard.clear();
        self.dst_shard.clear();
        let shard_of = |e: Endpoint| -> u32 {
            match e {
                Endpoint::Switch(s) => topo.group_of(s).0 / gps,
                Endpoint::Node(n) => topo.group_of_node(n).0 / gps,
            }
        };
        for ch in topo.channels() {
            self.latency.push(match ch.kind {
                ChannelKind::Local => cfg.local_latency,
                ChannelKind::Global => cfg.global_latency,
                _ => cfg.terminal_latency,
            });
            self.dst_switch.push(match ch.dst {
                Endpoint::Switch(s) => s.0,
                Endpoint::Node(_) => u32::MAX,
            });
            self.is_global.push(ch.kind == ChannelKind::Global);
            let (ss, ds) = (shard_of(ch.src), shard_of(ch.dst));
            self.owns_send.push(ss == self.id);
            self.owns_recv.push(ds == self.id);
            self.src_shard.push(ss);
            self.dst_shard.push(ds);
        }
    }

    fn resize(&mut self, s: &Shape) {
        self.packets = Vec::new();
        self.free = Vec::new();
        self.eph_paths = Vec::new();
        self.next_pkt = Vec::new();
        self.latency = Vec::with_capacity(s.n_chan);
        self.stg_head = vec![u32::MAX; s.n_chan];
        self.stg_tail = vec![u32::MAX; s.n_chan];
        self.stg_len = vec![0; s.n_chan];
        self.next_free = vec![0; s.n_chan];
        self.in_busy = vec![false; s.n_chan];
        self.busy_list = Vec::new();
        self.credits = vec![s.buf_size; s.n_chan * s.v];
        self.inb_head = vec![u32::MAX; s.n_chan * s.v];
        self.inb_tail = vec![u32::MAX; s.n_chan * s.v];
        self.chan_of_buf = (0..s.n_chan * s.v).map(|i| (i / s.v) as u32).collect();
        self.buf_occ = vec![0; s.n_chan];
        self.cred_used = vec![0; s.n_chan];
        self.dst_switch = Vec::with_capacity(s.n_chan);
        self.is_global = Vec::with_capacity(s.n_chan);
        self.owns_send = Vec::with_capacity(s.n_chan);
        self.owns_recv = Vec::with_capacity(s.n_chan);
        self.src_shard = Vec::with_capacity(s.n_chan);
        self.dst_shard = Vec::with_capacity(s.n_chan);
        self.ready = vec![Vec::new(); s.n_switches];
        self.in_ready = vec![false; s.n_chan * s.v];
        self.wait = vec![u32::MAX; s.n_chan * s.v];
        self.rr = vec![0; s.n_switches];
        self.out_stamp = vec![0; s.n_chan];
        self.arrivals = vec![Vec::new(); s.ring_size];
        self.credit_ring = vec![Vec::new(); s.ring_size];
        self.arrival_scratch = Vec::new();
        self.credit_scratch = Vec::new();
        self.chan_flits = vec![0; s.n_chan];
        self.chan_dead = vec![false; s.n_chan];
        self.switch_dead = vec![false; s.n_switches];
    }
}

/// Owns every per-run allocation of the engine — one `ShardState` slab
/// per shard worker — so consecutive runs can reuse the backing memory
/// instead of reallocating it.
///
/// Create one with [`SimWorkspace::new`] and pass it to
/// [`crate::Simulator::run_job`]; the sweep layer keeps one workspace per
/// worker through a [`WorkspacePool`].
#[derive(Default)]
pub struct SimWorkspace {
    shape: Option<Shape>,
    /// One slab per shard worker; `shards.len() == 1` on the sequential
    /// path.
    pub(crate) shards: Vec<ShardState>,
}

impl SimWorkspace {
    /// An empty workspace; the first (crate-internal) `reset` sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calendar ring size for a configuration: enough slots to cover the
    /// largest latency, rounded up to a power of two so the per-event
    /// slot computation is a mask instead of a division (the engine
    /// pushes to a calendar ring for every grant and every wire
    /// transmission).
    pub(crate) fn ring_size_for(cfg: &Config) -> usize {
        let max_lat = cfg
            .local_latency
            .max(cfg.global_latency)
            .max(cfg.terminal_latency) as usize;
        (max_lat + 2).next_power_of_two()
    }

    /// Prepares the workspace for a run of `topo` under `cfg` with
    /// `n_shards` workers: same-shape resets clear in place (keeping
    /// capacity), shape changes rebuild.  `n_shards` is the *executed*
    /// shard count (the orchestrator may fall back to 1 when an observer
    /// cannot fork), already validated against the topology.
    pub(crate) fn reset(&mut self, topo: &Dragonfly, cfg: &Config, n_shards: usize) {
        let shape = Shape {
            n_chan: topo.num_channels(),
            v: cfg.num_vcs as usize,
            n_switches: topo.num_switches(),
            ring_size: Self::ring_size_for(cfg),
            buf_size: cfg.buf_size,
            shards: n_shards,
        };
        if self.shape != Some(shape) {
            self.shards.clear();
            self.shards.resize_with(n_shards, ShardState::default);
            for st in &mut self.shards {
                st.resize(&shape);
            }
        }
        self.shape = Some(shape);
        for (id, st) in self.shards.iter_mut().enumerate() {
            st.reset(topo, cfg, id, n_shards);
        }
    }
}

/// A shared bag of [`SimWorkspace`]s for parallel sweeps: each job checks
/// one out (creating it on first use), runs, and returns it, so a sweep
/// allocates at most one workspace per concurrently running worker no
/// matter how many (rate, seed) jobs it schedules.
#[derive(Default)]
pub struct WorkspacePool {
    inner: Mutex<Vec<SimWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a pooled workspace (a fresh one when the pool is
    /// empty), returning the workspace to the pool afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut SimWorkspace) -> R) -> R {
        let mut ws = self
            .inner
            .lock()
            .map(|mut v| v.pop())
            .unwrap_or_default()
            .unwrap_or_default();
        let r = f(&mut ws);
        if let Ok(mut v) = self.inner.lock() {
            v.push(ws);
        }
        r
    }

    /// Number of workspaces currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.inner.lock().map(|v| v.len()).unwrap_or(0)
    }
}
