//! The Tmk runtime: the TreadMarks API over a [`Substrate`].
//!
//! One `Tmk` lives in each node body. The API mirrors TreadMarks':
//! `malloc`/`distribute`, `barrier`, lock `acquire`/`release`, plus the
//! byte/typed accessors that stand in for direct loads and stores (they
//! drive the page-fault state machine an mprotect build would).
//!
//! All protocol work is costed through the node's virtual clock; handler
//! work triggered by peers' asynchronous requests goes through
//! [`tm_sim::NodeClock::service_window`], whether the request found this
//! node blocked or computing ([`Tmk::compute_ns`] is a wait too).
//!
//! # Layering
//!
//! The runtime is an explicit layer stack, one module per layer, mirroring
//! the paper's Figure 1 (TreadMarks protocol over a thin substrate over
//! GM). Each layer calls only downward, through `pub(super)` seams:
//!
//! * `shmem` — the application-facing shared-memory API: regions,
//!   `read_bytes`/`write_bytes`, the typed accessors. Calls into
//!   coherence for fault transitions.
//! * `sync` — distributed locks (manager forwarding, token migration)
//!   and the barrier tree. Calls into coherence for interval
//!   flush/apply and into rpc to move messages.
//! * `coherence` — lazy release consistency proper: the page table,
//!   twins, diff fetch/apply, interval records, write notices, epoch GC.
//!   Calls into rpc to fetch pages and diffs.
//! * `rpc` — request/response plumbing: rid allocation, the blocking
//!   `rpc` discipline (serve-while-waiting, [`Tmk::compute`] included),
//!   the `serve` dispatcher, the reply path every handler's frame leaves
//!   through, shutdown linger. With `reliable`, the only layer that talks
//!   to the [`Substrate`].
//! * `reliable` — built only on a lossy transport: per-rid retransmission
//!   timers and the replay records (a slot per requester per class: its
//!   open acquire, its open barrier arrival, its open fetch),
//!   and what tells the node a peer has left: its `Gone`, or silence.
//!
//! This module holds what the layers share: the [`Tmk`] struct itself,
//! its configuration, and the [`TmkEvent`] observability seam.

use tm_sim::{SharedClock, SimParams};

use crate::interval::{IntervalLog, IntervalRecord};
use crate::page::{PageId, PageTable, MAX_PAGE};
use crate::substrate::Substrate;
use crate::vc::VectorClock;

mod coherence;
mod reliable;
mod rpc;
mod shmem;
mod sync;

use coherence::FetchScratch;
use reliable::Reliable;
use rpc::{OutstandingRpc, QueuedRequest};
use shmem::RegionInfo;
use sync::{BarrierEpisode, LockState};

/// Handle to a shared allocation (returned by [`Tmk::malloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedId(pub usize);

/// The barrier's combining tree (the E7 scaling knob). There is one
/// algorithm — gather arrivals up a tree rooted at node 0, fan the release
/// back down — in one message vocabulary, and this names its radix and
/// nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAlgo {
    /// Radix n−1: every node sends its arrival to node 0, which serializes
    /// all merge + release work (the paper's implementation; O(n) cost at
    /// the manager). The same bytes as `Tree { radix: n − 1 }`.
    Centralized,
    /// Radix-`radix` combining tree: each interior node merges its
    /// children's arrivals and forwards one combined arrival upward; the
    /// root fans the release back down. O(log_k n) tree depth, at most
    /// `radix` serialized arrivals per node. Combining is charged at host
    /// handler cost (interrupt + dispatch), like any other request.
    Tree { radix: u16 },
}

/// How the coherence layer moves pending diffs at a page fault — the
/// overlapped-RPC-engine knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffFetch {
    /// One blocking rpc per last-writer, strictly in order — the
    /// TreadMarks specification baseline. A k-writer fault costs the sum
    /// of the k round trips.
    Serial,
    /// Issue one request per last-writer up front — all pages owed by
    /// that writer merged into a single `MultiDiff` message — then
    /// collect the responses: the fault costs ~max(RTT) instead of the
    /// sum, in the fewest messages, which is where FAST/GM's fixed
    /// per-message costs bite.
    Coalesced,
}

/// Which runtime a node runs: the TreadMarks specification or the tuned
/// default. They differ in three rules — what an acquire fetches, whom it
/// asks, and what a first touch fetches — and in how a whole page and an
/// interval record travel; barriers and every other message are the same
/// messages under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The TreadMarks specification baseline, message for message, and
    /// what the experiment tables run: an acquire fetches what its grant
    /// invalidates lazily, one fault at a time inside the critical
    /// section, each writer asked for its diffs; a first touch fetches the
    /// whole page from its manager; a whole page travels as its bytes, an
    /// interval record with its whole vector timestamp.
    Spec,
    /// The default.
    ///
    /// 1. An acquire fetches what its grant invalidates at the grant, as
    ///    one overlapped batch through the RPC engine (acquire+read cost ≈
    ///    grant + max fetch instead of grant + Σ per-page round trips); it
    ///    loses when a grant invalidates mapped pages the critical section
    ///    never reads (`bench_overlap`'s `cold_grant`).
    /// 2. That fetch asks the granter for a page whole, instead of each
    ///    writer for its diffs, when the page owes the granter, the
    ///    grant's clock covers what the page owes and (but on our axis)
    ///    what it applied, and that takes at least two requests out of the
    ///    fetch's first round; a page behind our copy on another axis is
    ///    dropped and the writers asked after all.
    /// 3. A first touch maps the zero page it holds and asks the page's
    ///    manager for nothing: the writers' diffs its notices name are laid
    ///    over the zeroes, and a page no notice names sends nothing.
    ///
    /// A whole page travels as its diff against the zero page, so a page
    /// a few words wide costs the copy of those words.
    ///
    /// 4. An interval record carries its vector time's sum `Σvc` — all a
    ///    receiver reads of it, to order diffs — instead of the clock, with
    ///    its page runs in varints ([`IntervalRecord`]): a 64-node barrier
    ///    release of 63 one-page records is a sixth of the spec's bytes.
    Tuned,
}

/// Runtime tunables.
#[derive(Debug, Clone)]
pub struct TmkConfig {
    /// How barrier arrivals are combined and releases fanned out.
    pub barrier_algo: BarrierAlgo,
    /// How pending diffs are fetched at a page fault.
    pub diff_fetch: DiffFetch,
    /// What an acquire and a first touch fetch.
    pub profile: Profile,
}

impl Default for TmkConfig {
    fn default() -> Self {
        TmkConfig {
            barrier_algo: BarrierAlgo::Centralized,
            diff_fetch: DiffFetch::Coalesced,
            profile: Profile::Tuned,
        }
    }
}

/// Layer-boundary events, only those something reads. An event with a
/// [`tm_sim::stats::NodeStats`] counter is emitted where it ticks, and
/// their cluster sums agree (`tests/event_seam.rs`). Emission is one
/// branch when no hook is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmkEvent {
    /// The rpc layer dispatched one request to a handler (plus
    /// `dup_requests_suppressed`, `requests_served`). Read by `tree_barrier`.
    RequestServed { from: usize, rid: u32 },
    /// The sync layer handed a lock token to `to` (`remote_acquires`).
    /// Read by the benchmark's `tmk.sync.locks_granted` and the sync tests.
    LockGranted { lock: u32, to: u16 },
    /// The rpc layer's retransmission timer fired, attempt 1-based
    /// (`retransmits`). Read by `fault_injection`'s watchdog.
    RetransmitFired { rid: u32, attempt: u32 },
    /// The rpc layer registered an outstanding request; `depth` counts the
    /// rids in flight with it. Read by the benchmark (`tmk.rpc.issued`,
    /// [`GAUGE_RPC_DEPTH`](crate::metrics::GAUGE_RPC_DEPTH)) and `tree_barrier`.
    RpcIssued { rid: u32, depth: u32 },
}

impl TmkEvent {
    /// Stable per-variant name, the key a metrics sink tallies under.
    pub fn kind(&self) -> &'static str {
        match self {
            TmkEvent::RequestServed { .. } => "request_served",
            TmkEvent::LockGranted { .. } => "lock_granted",
            TmkEvent::RetransmitFired { .. } => "retransmit_fired",
            TmkEvent::RpcIssued { .. } => "rpc_issued",
        }
    }
}

/// Installed observer for [`TmkEvent`]s.
type EventHook = Box<dyn FnMut(&TmkEvent)>;

/// The per-node DSM runtime.
pub struct Tmk<S: Substrate> {
    // rpc layer --------------------------------------------------------
    sub: S,
    next_rid: u32,
    /// Retransmission and duplicate suppression: `Some` only on a
    /// transport that can lose a message.
    rel: Option<Reliable>,
    /// Issued-but-uncollected rpcs: the overlapped engine's pending-
    /// response table. Responses are matched against the whole set, so
    /// any number of rids can be in flight at once.
    outstanding: Vec<OutstandingRpc>,
    /// Requests received while collecting responses, deferred to the
    /// async serve queue and dispatched in virtual-arrival order instead
    /// of re-entrantly mid-collect.
    serve_q: Vec<QueuedRequest>,
    /// Clocks the node is done with, for the next request it decodes or
    /// the next barrier's: as many as the node held at once. An acquire's
    /// come back when it is granted or forwarded, a served barrier
    /// arrival's when its release goes out, our own arrival's once sent,
    /// the last barrier's when the next one ends; a suppressed duplicate's
    /// (only a lossy transport has them) are dropped.
    clocks: Vec<VectorClock>,
    // coherence layer --------------------------------------------------
    vc: VectorClock,
    log: IntervalLog,
    pages: PageTable,
    /// Pages twinned in the current (open) interval.
    dirty: Vec<PageId>,
    /// A fault's diff fetch: its rounds' lists, kept for the next fault.
    fetch: FetchScratch,
    last_barrier_vc: VectorClock,
    // sync layer -------------------------------------------------------
    /// A grant's records, decoded against the log: the list is kept for
    /// the next grant.
    granted: Vec<IntervalRecord>,
    locks: Vec<LockState>,
    barrier: BarrierEpisode,
    // shmem layer ------------------------------------------------------
    /// Pages handed out by collective `malloc`s so far (the page table in
    /// `pages` may extend further: peers can race ahead of our own malloc
    /// and fault pages we haven't formally allocated yet — the layout is
    /// deterministic, so we materialize them on demand).
    allocated_pages: usize,
    regions: Vec<RegionInfo>,
    // cross-layer ------------------------------------------------------
    me: u16,
    n: usize,
    cfg: TmkConfig,
    page_size: usize,
    event_hook: Option<EventHook>,
}

impl<S: Substrate> Tmk<S> {
    pub fn new(sub: S, cfg: TmkConfig) -> Self {
        let n = sub.nprocs();
        let me = sub.my_id() as u16;
        let page_size = sub.params().dsm.page_size;
        let rel = sub
            .retransmit_timeout()
            .map(|rto0| Reliable::new(rto0, sub.params().udp.rto_retries, n));
        assert!(
            page_size.is_multiple_of(8) && page_size <= MAX_PAGE,
            "page size {page_size}: typed accessors need whole f64s per page, a page's units one u64"
        );
        let mut tmk = Tmk {
            sub,
            me,
            n,
            vc: VectorClock::new(n),
            log: IntervalLog::new(n),
            pages: PageTable::new(n),
            allocated_pages: 0,
            regions: Vec::new(),
            dirty: Vec::new(),
            fetch: FetchScratch::default(),
            locks: Vec::new(),
            barrier: BarrierEpisode::default(),
            last_barrier_vc: VectorClock::new(n),
            next_rid: 1,
            cfg,
            page_size,
            rel,
            outstanding: Vec::new(),
            serve_q: Vec::new(),
            clocks: Vec::new(),
            granted: Vec::new(),
            event_hook: None,
        };
        tmk.barrier = BarrierEpisode::new(tmk.tree_children().len());
        tmk
    }

    pub fn proc_id(&self) -> usize {
        self.me as usize
    }

    pub fn nprocs(&self) -> usize {
        self.n
    }

    pub fn clock(&self) -> &SharedClock {
        self.sub.clock()
    }

    pub fn params(&self) -> &std::sync::Arc<SimParams> {
        self.sub.params()
    }

    /// Install an observer for layer-boundary [`TmkEvent`]s, replacing any
    /// previous one. The hook runs synchronously inside protocol code and
    /// must not call back into the runtime; it charges no virtual time.
    pub fn set_event_hook(&mut self, hook: impl FnMut(&TmkEvent) + 'static) {
        self.event_hook = Some(Box::new(hook));
    }

    /// Remove the installed event hook, if any.
    pub fn clear_event_hook(&mut self) {
        self.event_hook = None;
    }

    /// Emit one layer-boundary event to the installed hook (no-op — one
    /// branch — without one).
    fn emit(&mut self, ev: TmkEvent) {
        if let Some(h) = self.event_hook.as_mut() {
            h(&ev);
        }
    }
}
