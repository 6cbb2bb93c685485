//! A small ROBDD package with complement edges.
//!
//! Reduced Ordered Binary Decision Diagrams give a *canonical* DAG
//! representation of Boolean functions: under a fixed variable order,
//! structurally equal functions are represented by equal handles.
//! That canonicity is what turns the certification question "does any
//! reachable state and input assignment let this fault escape?" into a
//! constant-time emptiness test on the escape function's root.
//!
//! The package is deliberately minimal — exactly the surface the symbolic
//! netlist evaluator and the reachability fixpoint need:
//!
//! * a *unique table* hash-consing every `(var, lo, hi)` triple, so node
//!   identity is function identity,
//! * the Shannon-expansion `ite` operator with a computed table, from
//!   which all binary connectives derive,
//! * existential quantification over a variable set (image computation),
//! * an order-preserving variable renaming (primed → unprimed after the
//!   image step),
//! * satisfying-assignment extraction (counterexample witnesses) and model
//!   counting (reachable-state reporting).
//!
//! Nodes are arena-allocated and never freed; the engine's workloads
//! (netlists with tens of symbolic variables) stay far below any size
//! where garbage collection would pay for itself.
//!
//! # Representation
//!
//! The package follows Brace, Rudell & Bryant (DAC 1990):
//!
//! * **Complement edges.** Bit 0 of a [`BddRef`] marks a complemented
//!   edge. Node 0 is the only terminal: it is `FALSE`, and `TRUE` is its
//!   complement. A stored node's `lo` edge is never complemented, which
//!   keeps the representation canonical, so `f` and `¬f` share every
//!   node and [`Bdd::not`] allocates nothing.
//! * **Nodes are the unique table.** Each 16-byte node chains through
//!   its `next` field into a power-of-two array of `u32` bucket heads,
//!   which doubles when the nodes outnumber its buckets. A node costs 16
//!   bytes plus 4–8 bytes of bucket array, and the arena never grows
//!   past the node budget.
//! * **A bounded, lossy `ite` computed table.** It is direct-mapped with
//!   16-byte `(f, g, h, r)` entries; a colliding result overwrites the
//!   slot, and an evicted call is recomputed on its next miss. Keys are
//!   standard triples: `f` is regular, `g` is regular (the result is
//!   complemented instead), and AND/OR operands are ordered by node id.
//!   The table grows with the bucket array up to `CACHE_CAP` entries
//!   (512 KB), small enough to stay in a core's L2 cache.
//!
//! Table indices hash to `u64` and are masked before narrowing, so they,
//! and therefore every step and hit count, do not depend on the pointer
//! width. The per-call memos of quantification, renaming and
//! witness/model counting are `std` [`HashMap`]s over `FxHasher`, a
//! multiply-rotate word hash in the style of rustc's Fx hash. Every key
//! is a node id or variable index this manager allocated, never client
//! bytes, so a chosen-key flooding attack has nothing to choose.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// A multiply-rotate word hasher in the style of rustc's Fx hash: each
/// word is folded in with one rotate, xor and multiply. Fast for the
/// small integer keys of the BDD tables; not flooding-resistant, which
/// those manager-allocated keys do not need.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The table hash of a `(var, lo, hi)` node or an `(f, g, h)` call: the
/// Fx fold of the three words, with the well-mixed high half folded into
/// the low bits that the table masks keep.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let mut h = FxHasher::default();
    h.add(u64::from(a));
    h.add(u64::from(b));
    h.add(u64::from(c));
    h.0 ^ (h.0 >> 32)
}

/// Why a budgeted BDD operation stopped early.
///
/// Raised by the `try_*` operations of a [`Bdd`] whose node budget, step
/// limit or deadline (see [`Bdd::set_node_budget`], [`Bdd::set_step_limit`],
/// [`Bdd::set_deadline`]) was exhausted mid-operation. An unbudgeted
/// manager never raises it. The certifier maps every variant to
/// [`Verdict::Unknown`](crate::Verdict::Unknown) — a budget overflow is
/// *never* turned into a fabricated proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BddOverflow {
    /// The node arena reached the configured cap; the operation would have
    /// allocated past it.
    Nodes {
        /// The configured node budget.
        limit: usize,
    },
    /// The operation-step counter passed the configured cap.
    Steps {
        /// The configured step limit.
        limit: u64,
    },
    /// The wall-clock deadline expired mid-operation.
    Deadline,
    /// The installed cancellation probe (see [`Bdd::set_cancel_probe`])
    /// fired mid-operation.
    Cancelled,
}

impl fmt::Display for BddOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddOverflow::Nodes { limit } => {
                write!(f, "BDD node budget exhausted (limit {limit} nodes)")
            }
            BddOverflow::Steps { limit } => {
                write!(
                    f,
                    "BDD operation-step limit exhausted (limit {limit} steps)"
                )
            }
            BddOverflow::Deadline => write!(f, "BDD deadline expired"),
            BddOverflow::Cancelled => write!(f, "BDD operation cancelled"),
        }
    }
}

impl std::error::Error for BddOverflow {}

/// A handle to a BDD edge — and, by canonicity, to a Boolean function.
///
/// Handles are only meaningful relative to the [`Bdd`] manager that
/// created them. Two handles from the same manager are equal **iff** the
/// functions they denote are equal. Bit 0 marks a complemented edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false function: the regular edge to the terminal.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true function: the complemented edge to the terminal.
    pub const TRUE: BddRef = BddRef(1);
}

/// The complement bit of an edge.
const NEG: u32 = 1;
/// Raw edges of the two constants.
const FALSE: u32 = BddRef::FALSE.0;
const TRUE: u32 = BddRef::TRUE.0;

/// The node an edge points to.
#[inline]
fn index(edge: u32) -> usize {
    (edge >> 1) as usize
}

/// Stored node: branch variable, low/high edges and the next node of its
/// unique-table bucket (0 ends the chain; node 0 is never chained).
///
/// The terminal uses `var == u32::MAX`, which compares greater than
/// every real variable — convenient for the top-variable computation in
/// `ite`.
#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
    next: u32,
}

/// One computed-table slot: `ite(f, g, h) = r` for a standard triple.
/// `f == 0` marks an empty slot, since a standard triple's `f` is never
/// a constant.
#[derive(Clone, Copy, Default)]
struct CacheEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

/// Most entries the `ite` computed table grows to: 2^15 entries, 512 KB,
/// which stays in a core's L2 cache. Caps of 2^16 and 2^18 measured the
/// same `certify` benchmark speed with more peak RSS.
const CACHE_CAP: usize = 1 << 15;

/// The BDD manager: node arena (which is also the unique table) and the
/// `ite` computed table.
///
/// Variables are plain `u32` indices; smaller indices sit closer to the
/// root. The variable order is fixed at creation time by whoever assigns
/// the indices (the symbolic evaluator derives it from the netlist's
/// levelization, see [`VarMap`](crate::VarMap)).
///
/// # Example
///
/// ```
/// use scfi_symbolic::{Bdd, BddRef};
///
/// let mut b = Bdd::new();
/// let x = b.var(0);
/// let y = b.var(1);
/// let f = b.and(x, y);
/// let g = b.not(f);
/// let (nx, ny) = (b.not(x), b.not(y));
/// let h = b.or(nx, ny); // De Morgan
/// assert_eq!(g, h); // canonicity: equal functions are equal handles
/// assert!(b.eval(f, &[true, true]));
/// assert_eq!(b.and(x, nx), BddRef::FALSE);
/// ```
pub struct Bdd {
    /// Node arena; node 0 is the terminal.
    nodes: Vec<Node>,
    /// Unique-table bucket heads (power-of-two length).
    buckets: Vec<u32>,
    /// Direct-mapped `ite` computed table (power-of-two length).
    cache: Vec<CacheEntry>,
    /// Node-arena cap; allocations past it raise [`BddOverflow::Nodes`].
    max_nodes: Option<usize>,
    /// Operation-step cap (`ite` computed-table misses and recursive
    /// `exists`/`rename` invocations since the last
    /// [`Bdd::reset_steps`]).
    max_steps: Option<u64>,
    /// Wall-clock deadline, checked every 4096 lifetime steps.
    deadline: Option<Instant>,
    /// External cancellation probe, polled at the same cadence as the
    /// deadline; a `true` return raises [`BddOverflow::Cancelled`].
    cancel: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Steps since the last [`Bdd::reset_steps`] (the step-limit counter).
    steps: u64,
    /// Steps since construction, never reset: the deadline and
    /// cancellation cadence runs on it, so units of work shorter than the
    /// check interval still poll.
    lifetime_steps: u64,
    /// Computed-table lookups that hit (cumulative; see
    /// [`Bdd::ite_cache_hits`]).
    ite_hits: u64,
    /// Computed-table lookups that missed and recursed.
    ite_misses: u64,
}

/// How many operation steps pass between wall-clock deadline checks and
/// cancellation-probe polls: `Instant::now` (or an atomic load through a
/// probe closure) is far too expensive per recursive `ite` call, and a few
/// thousand steps complete in microseconds, so the deadline overshoot and
/// cancellation latency are negligible.
const DEADLINE_CHECK_INTERVAL: u64 = 4096;

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// Creates a manager holding only the terminal.
    pub fn new() -> Self {
        Bdd {
            nodes: vec![Node {
                var: u32::MAX,
                lo: FALSE,
                hi: FALSE,
                next: 0,
            }],
            buckets: vec![0],
            cache: vec![CacheEntry::default()],
            max_nodes: None,
            max_steps: None,
            deadline: None,
            cancel: None,
            steps: 0,
            lifetime_steps: 0,
            ite_hits: 0,
            ite_misses: 0,
        }
    }

    /// Total nodes allocated (including the terminal) — a coarse
    /// memory/health metric for benches and reports.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Caps the node arena at `limit` nodes: any `try_*` operation that
    /// would allocate past it raises [`BddOverflow::Nodes`]. The budget is
    /// cumulative over the manager's lifetime (nodes are never freed).
    /// It is also a memory bound: the arena never reserves past `limit`
    /// nodes of 16 bytes, the bucket array adds 4–8 bytes per node, and
    /// the computed table stops at 2^15 16-byte entries (512 KB).
    pub fn set_node_budget(&mut self, limit: usize) {
        self.max_nodes = Some(limit);
    }

    /// Caps the operation-step counter: once more than `limit` recursive
    /// operation steps have run since the last
    /// [`reset_steps`](Self::reset_steps), `try_*` operations raise
    /// [`BddOverflow::Steps`]. Reset the counter per unit of work to make
    /// the limit per-unit rather than cumulative.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.max_steps = Some(limit);
    }

    /// Sets an absolute wall-clock deadline, checked every few thousand
    /// operation steps over the manager's lifetime (and before each
    /// certified unit of work); `try_*` operations past it raise
    /// [`BddOverflow::Deadline`].
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Installs an external cancellation probe, polled every few thousand
    /// operation steps (the same cadence as the deadline check); once it
    /// returns `true`, `try_*` operations raise [`BddOverflow::Cancelled`].
    /// This is how a certify job's `DELETE` (or a CLI Ctrl-C handler)
    /// reaches into a long-running symbolic step: the probe is typically
    /// a closure over [`RunControl::is_cancelled`](scfi_faultsim::RunControl::is_cancelled).
    pub fn set_cancel_probe(&mut self, probe: Arc<dyn Fn() -> bool + Send + Sync>) {
        self.cancel = Some(probe);
    }

    /// Computed-table hits since construction (each avoided a full
    /// Shannon recursion). Together with
    /// [`ite_cache_misses`](Self::ite_cache_misses) this gives the cache
    /// hit rate the observability layer exports.
    pub fn ite_cache_hits(&self) -> u64 {
        self.ite_hits
    }

    /// Computed-table misses since construction: lookups of a call never
    /// computed, or computed and since evicted, that went on to recurse.
    pub fn ite_cache_misses(&self) -> u64 {
        self.ite_misses
    }

    /// Operation steps executed since construction or the last
    /// [`reset_steps`](Self::reset_steps).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Zeroes the operation-step counter. The node budget, the deadline
    /// and the polling cadence (which runs on a lifetime counter) are
    /// unaffected. Called by the certifier before each site so the step
    /// limit bounds one site's work, not the whole report's.
    pub fn reset_steps(&mut self) {
        self.steps = 0;
    }

    /// Runs `f` with the step limit lifted. Its steps still advance the
    /// deadline and cancellation cadence, and its nodes still count
    /// against the node budget. The certifier's one-time work after setup
    /// runs this way, so no site's step allowance pays for it.
    pub(crate) fn without_step_limit<T>(&mut self, f: impl FnOnce(&mut Bdd) -> T) -> T {
        let limit = self.max_steps.take();
        let out = f(self);
        self.max_steps = limit;
        out
    }

    /// Counts one operation step against the step limit and (periodically)
    /// the deadline and cancellation probe.
    fn step(&mut self) -> Result<(), BddOverflow> {
        self.steps += 1;
        self.lifetime_steps += 1;
        if let Some(limit) = self.max_steps {
            if self.steps > limit {
                return Err(BddOverflow::Steps { limit });
            }
        }
        if self.lifetime_steps.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
            self.poll()?;
        }
        Ok(())
    }

    /// Checks the deadline and the cancellation probe now, outside the
    /// step cadence. The certifier polls once before each unit of work,
    /// so an expired deadline or a cancel request stops every later site
    /// however few steps each one takes.
    pub(crate) fn poll(&self) -> Result<(), BddOverflow> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BddOverflow::Deadline);
            }
        }
        if let Some(probe) = &self.cancel {
            if probe() {
                return Err(BddOverflow::Cancelled);
            }
        }
        Ok(())
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> BddRef {
        if value {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }

    /// The single-variable function `v`.
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if a configured budget
    /// is exhausted; use [`try_var`](Self::try_var) under budgets.
    pub fn var(&mut self, v: u32) -> BddRef {
        self.try_var(v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`var`](Self::var), surfacing budget exhaustion as [`BddOverflow`].
    pub fn try_var(&mut self, v: u32) -> Result<BddRef, BddOverflow> {
        Ok(BddRef(self.mk(v, FALSE, TRUE)?))
    }

    /// The negated single-variable function `!v`.
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if a configured budget
    /// is exhausted; use [`try_nvar`](Self::try_nvar) under budgets.
    pub fn nvar(&mut self, v: u32) -> BddRef {
        self.try_nvar(v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`nvar`](Self::nvar), surfacing budget exhaustion as
    /// [`BddOverflow`]. It shares the node of [`var`](Self::var).
    pub fn try_nvar(&mut self, v: u32) -> Result<BddRef, BddOverflow> {
        let x = self.try_var(v)?;
        Ok(self.not(x))
    }

    /// Hash-consed node constructor; collapses redundant tests and moves
    /// a complemented `lo` edge onto the returned edge. A lookup hit is
    /// always free; only a genuinely new node is charged against the
    /// node budget.
    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> Result<u32, BddOverflow> {
        if lo == hi {
            return Ok(lo);
        }
        let neg = lo & NEG;
        let (lo, hi) = (lo ^ neg, hi ^ neg);
        debug_assert!(
            var < self.nodes[index(lo)].var && var < self.nodes[index(hi)].var,
            "mk would violate the variable order"
        );
        let slot = (hash3(var, lo, hi) & (self.buckets.len() as u64 - 1)) as usize;
        let mut i = self.buckets[slot];
        while i != 0 {
            let n = &self.nodes[i as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(i << 1 | neg);
            }
            i = n.next;
        }
        let len = self.nodes.len();
        assert!(len < 1 << 31, "a BddRef addresses at most 2^31 nodes");
        let room = match self.max_nodes {
            Some(limit) if len >= limit => return Err(BddOverflow::Nodes { limit }),
            Some(limit) => limit - len,
            None => usize::MAX,
        };
        if len == self.nodes.capacity() {
            // Double, as `push` would, but never reserve past the budget.
            self.nodes.reserve_exact(len.min(room));
        }
        let i = len as u32;
        self.nodes.push(Node {
            var,
            lo,
            hi,
            next: self.buckets[slot],
        });
        self.buckets[slot] = i;
        if self.nodes.len() > self.buckets.len() {
            self.grow();
        }
        Ok(i << 1 | neg)
    }

    /// Doubles the bucket array and rechains every node into it, and
    /// grows the computed table with it up to `CACHE_CAP`. Each old
    /// cache slot maps to one of two new slots, so no entry is lost.
    fn grow(&mut self) {
        let len = self.buckets.len() * 2;
        let mask = len as u64 - 1;
        self.buckets = vec![0; len];
        for i in 1..self.nodes.len() {
            let n = &mut self.nodes[i];
            let slot = (hash3(n.var, n.lo, n.hi) & mask) as usize;
            n.next = self.buckets[slot];
            self.buckets[slot] = i as u32;
        }
        let cache_len = len.min(CACHE_CAP);
        if cache_len > self.cache.len() {
            let old = std::mem::replace(&mut self.cache, vec![CacheEntry::default(); cache_len]);
            let mask = cache_len as u64 - 1;
            for e in old.into_iter().filter(|e| e.f != 0) {
                self.cache[(hash3(e.f, e.g, e.h) & mask) as usize] = e;
            }
        }
    }

    /// Cofactors of the edge `e` with respect to `var` when its node
    /// tests `var`; the edge's complement bit passes to both.
    #[inline]
    fn cofactors(&self, e: u32, var: u32) -> (u32, u32) {
        let n = &self.nodes[index(e)];
        if n.var == var {
            let c = e & NEG;
            (n.lo ^ c, n.hi ^ c)
        } else {
            (e, e)
        }
    }

    /// If-then-else: the function `if f then g else h`, computed by
    /// Shannon expansion on the topmost variable through the computed
    /// table.
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if a configured budget
    /// is exhausted; use [`try_ite`](Self::try_ite) under budgets.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        self.try_ite(f, g, h).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ite`](Self::ite), surfacing budget exhaustion as [`BddOverflow`]
    /// instead of panicking. On an unbudgeted manager this never fails.
    /// A failed operation leaves the manager consistent (every node and
    /// computed-table entry it created is a valid, fully reduced
    /// function); the caller may keep using the manager or retry with a
    /// larger budget.
    pub fn try_ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddOverflow> {
        Ok(BddRef(self.ite_raw(f.0, g.0, h.0)?))
    }

    fn ite_raw(&mut self, f: u32, g: u32, h: u32) -> Result<u32, BddOverflow> {
        // Terminal short-circuits.
        if f == TRUE {
            return Ok(g);
        }
        if f == FALSE {
            return Ok(h);
        }
        let (mut f, mut g, mut h) = (f, g, h);
        // An operand equal to f or ¬f is a constant in both branches.
        if g == f {
            g = TRUE;
        } else if g == f ^ NEG {
            g = FALSE;
        }
        if h == f {
            h = FALSE;
        } else if h == f ^ NEG {
            h = TRUE;
        }
        if g == h {
            return Ok(g);
        }
        if g == TRUE && h == FALSE {
            return Ok(f);
        }
        if g == FALSE && h == TRUE {
            return Ok(f ^ NEG);
        }
        // Standard triples: AND and OR take the smaller node id first,
        if h == FALSE && index(g) < index(f) {
            std::mem::swap(&mut f, &mut g);
        } else if g == TRUE && index(h) < index(f) {
            std::mem::swap(&mut f, &mut h);
        }
        // f is regular,
        if f & NEG != 0 {
            f ^= NEG;
            std::mem::swap(&mut g, &mut h);
        }
        // and so is g, with the result complemented instead.
        let neg = g & NEG;
        g ^= neg;
        h ^= neg;
        let hash = hash3(f, g, h);
        let e = self.cache[(hash & (self.cache.len() as u64 - 1)) as usize];
        if e.f == f && e.g == g && e.h == h {
            self.ite_hits += 1;
            return Ok(e.r ^ neg);
        }
        self.ite_misses += 1;
        self.step()?;
        let top = self.nodes[index(f)]
            .var
            .min(self.nodes[index(g)].var)
            .min(self.nodes[index(h)].var);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite_raw(f0, g0, h0)?;
        let hi = self.ite_raw(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        // The recursion may have grown the table: mask again.
        let slot = (hash & (self.cache.len() as u64 - 1)) as usize;
        self.cache[slot] = CacheEntry { f, g, h, r };
        Ok(r ^ neg)
    }

    /// Logical negation: flips the complement bit, allocating nothing.
    pub fn not(&self, f: BddRef) -> BddRef {
        BddRef(f.0 ^ NEG)
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Fallible [`and`](Self::and).
    pub fn try_and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.try_ite(f, g, BddRef::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Fallible [`or`](Self::or).
    pub fn try_or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.try_ite(f, BddRef::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.try_xor(f, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`xor`](Self::xor).
    pub fn try_xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.try_ite(f, self.not(g), g)
    }

    /// Equivalence (`!(f ^ g)`).
    pub fn xnor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.try_xnor(f, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`xnor`](Self::xnor).
    pub fn try_xnor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.try_ite(f, g, self.not(g))
    }

    /// Negated conjunction.
    pub fn nand(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.try_nand(f, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`nand`](Self::nand).
    pub fn try_nand(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        let and = self.try_and(f, g)?;
        Ok(self.not(and))
    }

    /// Negated disjunction.
    pub fn nor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.try_nor(f, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`nor`](Self::nor).
    pub fn try_nor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        let or = self.try_or(f, g)?;
        Ok(self.not(or))
    }

    /// 2:1 multiplexer with the netlist's pin convention:
    /// `sel ? b : a`.
    pub fn mux(&mut self, sel: BddRef, a: BddRef, b: BddRef) -> BddRef {
        self.ite(sel, b, a)
    }

    /// Fallible [`mux`](Self::mux).
    pub fn try_mux(&mut self, sel: BddRef, a: BddRef, b: BddRef) -> Result<BddRef, BddOverflow> {
        self.try_ite(sel, b, a)
    }

    /// Evaluates `f` under a total assignment (`assignment[v]` is the value
    /// of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than a variable tested by `f`.
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut e = f.0;
        while index(e) != 0 {
            let node = self.nodes[index(e)];
            let next = if assignment[node.var as usize] {
                node.hi
            } else {
                node.lo
            };
            e = next ^ (e & NEG);
        }
        e == TRUE
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// `vars` must be sorted ascending (asserted in debug builds); the
    /// per-call memo keys on the edge alone, which is sound because the
    /// variable set is fixed for the whole call.
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if a configured budget
    /// is exhausted; use [`try_exists`](Self::try_exists) under budgets.
    pub fn exists(&mut self, f: BddRef, vars: &[u32]) -> BddRef {
        self.try_exists(f, vars).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`exists`](Self::exists), surfacing budget exhaustion as
    /// [`BddOverflow`].
    pub fn try_exists(&mut self, f: BddRef, vars: &[u32]) -> Result<BddRef, BddOverflow> {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        let mut memo = FxHashMap::default();
        let last = match vars.last() {
            Some(&v) => v,
            None => return Ok(f),
        };
        Ok(BddRef(self.exists_raw(f.0, vars, last, &mut memo)?))
    }

    fn exists_raw(
        &mut self,
        f: u32,
        vars: &[u32],
        last: u32,
        memo: &mut FxHashMap<u32, u32>,
    ) -> Result<u32, BddOverflow> {
        if index(f) == 0 {
            return Ok(f);
        }
        let Node { var, lo, hi, .. } = self.nodes[index(f)];
        if var > last {
            // Every quantified variable lies above this node.
            return Ok(f);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        self.step()?;
        // ∃ distributes over ∨, not ¬: the complement bit passes to the
        // cofactors, and the memo keys on the whole edge.
        let c = f & NEG;
        let lo_q = self.exists_raw(lo ^ c, vars, last, memo)?;
        let hi_q = self.exists_raw(hi ^ c, vars, last, memo)?;
        let r = if vars.binary_search(&var).is_ok() {
            self.ite_raw(lo_q, TRUE, hi_q)? // or
        } else {
            self.mk(var, lo_q, hi_q)?
        };
        memo.insert(f, r);
        Ok(r)
    }

    /// Renames every variable `v` tested by `f` to `map(v)`.
    ///
    /// The mapping must preserve the variable order on the variables `f`
    /// actually tests (strictly monotone along every path); this is what
    /// keeps the renamed DAG reduced and ordered without a reordering
    /// pass. The image step satisfies it by construction: primed
    /// variables sit directly below their unprimed partners, so the
    /// primed→unprimed shift is order-preserving. Violations are caught
    /// by the `mk` order assertion in debug builds.
    ///
    /// # Panics
    ///
    /// Panics with the [`BddOverflow`] description if a configured budget
    /// is exhausted; use [`try_rename`](Self::try_rename) under budgets.
    pub fn rename(&mut self, f: BddRef, map: &impl Fn(u32) -> u32) -> BddRef {
        self.try_rename(f, map).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`rename`](Self::rename), surfacing budget exhaustion as
    /// [`BddOverflow`].
    pub fn try_rename(
        &mut self,
        f: BddRef,
        map: &impl Fn(u32) -> u32,
    ) -> Result<BddRef, BddOverflow> {
        let mut memo = FxHashMap::default();
        Ok(BddRef(self.rename_raw(f.0, map, &mut memo)?))
    }

    fn rename_raw(
        &mut self,
        f: u32,
        map: &impl Fn(u32) -> u32,
        memo: &mut FxHashMap<u32, u32>,
    ) -> Result<u32, BddOverflow> {
        if index(f) == 0 {
            return Ok(f);
        }
        // Renaming commutes with negation: memoize the regular edge.
        let neg = f & NEG;
        let f = f ^ neg;
        if let Some(&r) = memo.get(&f) {
            return Ok(r ^ neg);
        }
        self.step()?;
        let Node { var, lo, hi, .. } = self.nodes[index(f)];
        let lo_r = self.rename_raw(lo, map, memo)?;
        let hi_r = self.rename_raw(hi, map, memo)?;
        let r = self.mk(map(var), lo_r, hi_r)?;
        memo.insert(f, r);
        Ok(r ^ neg)
    }

    /// One satisfying assignment of `f` as `(variable, value)` pairs for
    /// the variables on the chosen path, or `None` if `f` is
    /// unsatisfiable. Variables absent from the result are don't-cares:
    /// any completion satisfies `f`.
    pub fn sat_one(&self, f: BddRef) -> Option<Vec<(u32, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut e = f.0;
        while index(e) != 0 {
            let Node { var, lo, hi, .. } = self.nodes[index(e)];
            let c = e & NEG;
            if lo ^ c != FALSE {
                path.push((var, false));
                e = lo ^ c;
            } else {
                path.push((var, true));
                e = hi ^ c;
            }
        }
        debug_assert_eq!(e, TRUE, "non-false BDDs always reach TRUE");
        Some(path)
    }

    /// A *fewest-care* satisfying assignment of `f`: among all root→`TRUE`
    /// paths, one constraining the fewest variables (ties broken toward
    /// the low branch, so tied variables are pinned `false`). Same shape
    /// and `None` contract as [`sat_one`](Self::sat_one).
    ///
    /// Every variable absent from the result is a don't-care, and
    /// maximizing don't-cares minimizes what the witness *commits to* —
    /// downstream decoders default don't-cares to `false`, so a joint
    /// certification witness keeps every fault selector the escape does
    /// not actually need switched off, and a k-step witness pins only the
    /// state and input bits that matter.
    pub fn sat_one_minimal(&self, f: BddRef) -> Option<Vec<(u32, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut memo = FxHashMap::default();
        let mut path = Vec::new();
        let mut e = f.0;
        while index(e) != 0 {
            let Node { var, lo, hi, .. } = self.nodes[index(e)];
            let (lo, hi) = (lo ^ (e & NEG), hi ^ (e & NEG));
            let (cl, ch) = (self.min_care(lo, &mut memo), self.min_care(hi, &mut memo));
            if cl <= ch {
                path.push((var, false));
                e = lo;
            } else {
                path.push((var, true));
                e = hi;
            }
        }
        Some(path)
    }

    /// Fewest variables constrained on any path from the edge `e` to
    /// `TRUE` (`u32::MAX` for `FALSE`). The memo keys on the whole edge:
    /// `f` and `¬f` have different paths to `TRUE`.
    fn min_care(&self, e: u32, memo: &mut FxHashMap<u32, u32>) -> u32 {
        if e == FALSE {
            return u32::MAX;
        }
        if e == TRUE {
            return 0;
        }
        if let Some(&c) = memo.get(&e) {
            return c;
        }
        let Node { lo, hi, .. } = self.nodes[index(e)];
        let lo_c = self.min_care(lo ^ (e & NEG), memo);
        let hi_c = self.min_care(hi ^ (e & NEG), memo);
        let c = lo_c.min(hi_c).saturating_add(1);
        memo.insert(e, c);
        c
    }

    /// Number of satisfying assignments of `f` over the variable universe
    /// `vars` (sorted ascending). Returned as `f64`: exact for the sizes
    /// the engine reports, and overflow-free for pathological ones.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `f` only tests variables from `vars`.
    pub fn sat_count(&self, f: BddRef, vars: &[u32]) -> f64 {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        let mut memo = FxHashMap::default();
        // Level of a variable within `vars`; vars not in the universe are
        // rejected below.
        let level = |v: u32| vars.binary_search(&v);
        let total = vars.len();
        self.count_raw(f.0, 0, total, &level, &mut memo)
    }

    /// Models of the edge `f` over the universe levels from `from_level`
    /// down. The memo keys on the whole edge, and the complement bit
    /// passes to the cofactors.
    fn count_raw(
        &self,
        f: u32,
        from_level: usize,
        total: usize,
        level: &impl Fn(u32) -> Result<usize, usize>,
        memo: &mut FxHashMap<u32, f64>,
    ) -> f64 {
        if f == FALSE {
            return 0.0;
        }
        if f == TRUE {
            return 2f64.powi((total - from_level) as i32);
        }
        let Node { var, lo, hi, .. } = self.nodes[index(f)];
        let l = level(var).unwrap_or_else(|_| {
            panic!("sat_count: function tests variable {var} outside the universe")
        });
        let below = if let Some(&c) = memo.get(&f) {
            c
        } else {
            let c = self.count_raw(lo ^ (f & NEG), l + 1, total, level, memo)
                + self.count_raw(hi ^ (f & NEG), l + 1, total, level, memo);
            memo.insert(f, c);
            c
        };
        below * 2f64.powi((l - from_level) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut b = Bdd::new();
        assert_eq!(b.constant(true), BddRef::TRUE);
        assert_eq!(b.constant(false), BddRef::FALSE);
        let x = b.var(3);
        assert!(b.eval(x, &[false, false, false, true]));
        assert!(!b.eval(x, &[true, true, true, false]));
        let nx = b.nvar(3);
        assert_eq!(b.not(x), nx);
    }

    #[test]
    fn connectives_match_truth_tables() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let table = |b: &Bdd, f: BddRef| {
            (0..4)
                .map(|i| b.eval(f, &[i & 1 == 1, i & 2 == 2]))
                .collect::<Vec<_>>()
        };
        let and = b.and(x, y);
        assert_eq!(table(&b, and), [false, false, false, true]);
        let or = b.or(x, y);
        assert_eq!(table(&b, or), [false, true, true, true]);
        let xor = b.xor(x, y);
        assert_eq!(table(&b, xor), [false, true, true, false]);
        let xnor = b.xnor(x, y);
        assert_eq!(table(&b, xnor), [true, false, false, true]);
        let nand = b.nand(x, y);
        assert_eq!(table(&b, nand), [true, true, true, false]);
        let nor = b.nor(x, y);
        assert_eq!(table(&b, nor), [true, false, false, false]);
    }

    #[test]
    fn mux_follows_netlist_pin_convention() {
        let mut b = Bdd::new();
        let sel = b.var(0);
        let a = b.var(1);
        let c = b.var(2);
        let m = b.mux(sel, a, c);
        // sel=0 → a, sel=1 → c.
        assert!(b.eval(m, &[false, true, false]));
        assert!(!b.eval(m, &[false, false, true]));
        assert!(b.eval(m, &[true, false, true]));
        assert!(!b.eval(m, &[true, true, false]));
    }

    #[test]
    fn canonicity_collapses_equal_functions() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let z = b.var(2);
        // (x & y) | (x & z)  ==  x & (y | z)
        let xy = b.and(x, y);
        let xz = b.and(x, z);
        let lhs = b.or(xy, xz);
        let yz = b.or(y, z);
        let rhs = b.and(x, yz);
        assert_eq!(lhs, rhs);
        // Tautology and contradiction collapse to terminals.
        let nx = b.not(x);
        assert_eq!(b.or(x, nx), BddRef::TRUE);
        assert_eq!(b.and(x, nx), BddRef::FALSE);
    }

    #[test]
    fn exists_quantifies() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        // ∃x. x&y == y; ∃x,y. x&y == true.
        assert_eq!(b.exists(f, &[0]), y);
        assert_eq!(b.exists(f, &[0, 1]), BddRef::TRUE);
        assert_eq!(b.exists(f, &[]), f);
        let contradiction = {
            let nx = b.not(x);
            b.and(x, nx)
        };
        assert_eq!(b.exists(contradiction, &[0, 1]), BddRef::FALSE);
    }

    #[test]
    fn rename_shifts_variables() {
        let mut b = Bdd::new();
        let x1 = b.var(1);
        let x3 = b.var(3);
        let f = b.xor(x1, x3);
        let g = b.rename(f, &|v| v - 1);
        let x0 = b.var(0);
        let x2 = b.var(2);
        assert_eq!(g, b.xor(x0, x2));
    }

    #[test]
    fn sat_one_returns_a_model() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let ny = b.nvar(1);
        let f = b.and(x, ny);
        let model = b.sat_one(f).expect("satisfiable");
        let mut assignment = vec![false; 2];
        for (v, val) in model {
            assignment[v as usize] = val;
        }
        assert!(b.eval(f, &assignment));
        let nx = b.not(x);
        let unsat = b.and(f, nx);
        assert_eq!(b.sat_one(unsat), None);
        assert_eq!(b.sat_one(BddRef::TRUE), Some(vec![]));
    }

    #[test]
    fn sat_one_minimal_constrains_the_fewest_variables() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let z = b.var(2);
        // (!x & !y & z) | x: plain sat_one walks the lo-first path and
        // pins all three variables; the minimal witness needs only
        // x = true.
        let f = {
            let nx = b.not(x);
            let ny = b.not(y);
            let cube = b.and(nx, ny);
            let cube = b.and(cube, z);
            b.or(cube, x)
        };
        assert_eq!(
            b.sat_one(f).expect("satisfiable"),
            vec![(0, false), (1, false), (2, true)]
        );
        let minimal = b.sat_one_minimal(f).expect("satisfiable");
        assert_eq!(minimal, vec![(0, true)]);
        // The minimal model still satisfies f under the default-false
        // completion of its don't-cares.
        let mut assignment = vec![false; 3];
        for &(v, val) in &minimal {
            assignment[v as usize] = val;
        }
        assert!(b.eval(f, &assignment));
        // Ties break toward the low branch: xor needs one care either
        // way, and the witness pins the tested variable false.
        let g = b.xor(x, y);
        let minimal = b.sat_one_minimal(g).expect("satisfiable");
        assert_eq!(minimal, vec![(0, false), (1, true)]);
        // Terminal contracts match sat_one.
        assert_eq!(b.sat_one_minimal(BddRef::FALSE), None);
        assert_eq!(b.sat_one_minimal(BddRef::TRUE), Some(vec![]));
    }

    #[test]
    fn sat_count_counts_models() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(2);
        let f = b.or(x, y); // 3 of 4 over {0, 2}; 6 of 8 over {0, 1, 2}
        assert_eq!(b.sat_count(f, &[0, 2]), 3.0);
        assert_eq!(b.sat_count(f, &[0, 1, 2]), 6.0);
        assert_eq!(b.sat_count(BddRef::TRUE, &[0, 1, 2]), 8.0);
        assert_eq!(b.sat_count(BddRef::FALSE, &[0, 1]), 0.0);
    }

    #[test]
    fn a_node_costs_16_bytes_plus_its_bucket_and_the_cache_stops_at_its_cap() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
        assert_eq!(std::mem::size_of::<CacheEntry>(), 16);
        let mut b = Bdd::new();
        let mut acc = BddRef::FALSE;
        // One new node per variable, and a few computed-table entries per
        // step of the xor chain: past the cap on both counts.
        for v in 0..(2 * CACHE_CAP) as u32 {
            let x = b.var(v);
            if v % 64 == 0 {
                acc = b.xor(acc, x);
            }
            assert!(
                b.buckets.len() <= 2 * b.node_count(),
                "{} buckets for {} nodes",
                b.buckets.len(),
                b.node_count()
            );
            assert!(b.cache.len() <= CACHE_CAP);
        }
        assert!(b.node_count() > 2 * CACHE_CAP);
        assert_eq!(b.cache.len(), CACHE_CAP);
        // The xor of an even number of variables: false when all are set,
        // true when one is.
        let mut assignment = vec![true; 2 * CACHE_CAP];
        assert!(!b.eval(acc, &assignment));
        assignment[64] = false;
        assert!(b.eval(acc, &assignment));
    }

    #[test]
    fn a_node_budget_caps_the_reserved_arena() {
        let mut b = Bdd::new();
        b.set_node_budget(1000);
        for v in 0.. {
            if b.try_var(v).is_err() {
                break;
            }
        }
        assert_eq!(b.node_count(), 1000);
        assert!(b.nodes.capacity() <= 1000, "{}", b.nodes.capacity());
    }

    #[test]
    fn node_budget_stops_allocation_but_keeps_the_manager_usable() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let before = b.node_count();
        b.set_node_budget(before); // no headroom at all
                                   // Hash-consed hits stay free under a zero-headroom budget…
        assert_eq!(b.try_var(0), Ok(x));
        // …while a genuinely new node overflows with the configured limit.
        let err = b.try_and(x, y).unwrap_err();
        assert_eq!(err, BddOverflow::Nodes { limit: before });
        assert_eq!(b.node_count(), before, "failed op must not leak nodes");
        // Raising the budget un-wedges the same operation.
        b.set_node_budget(before + 16);
        let f = b.try_and(x, y).expect("fits in the raised budget");
        assert!(b.eval(f, &[true, true]));
    }

    #[test]
    fn step_limit_bounds_one_unit_of_work() {
        let mut b = Bdd::new();
        b.set_step_limit(2);
        // A wide xor chain needs far more than two Shannon expansions.
        let mut acc = b.try_var(0).unwrap();
        let mut overflowed = false;
        for v in 1..12 {
            let x = b.try_var(v).unwrap();
            match b.try_xor(acc, x) {
                Ok(r) => acc = r,
                Err(e) => {
                    assert_eq!(e, BddOverflow::Steps { limit: 2 });
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "2 steps cannot build a 12-variable xor");
        // reset_steps makes the limit per-unit: small ops fit again.
        b.reset_steps();
        assert!(b.steps() == 0);
        let x = b.try_var(20).unwrap();
        let y = b.try_var(21).unwrap();
        b.try_and(x, y).expect("fresh budget for a fresh site");
    }

    #[test]
    fn expired_deadline_fails_after_the_check_interval() {
        let mut b = Bdd::new();
        b.set_deadline(std::time::Instant::now());
        // The deadline is only polled every DEADLINE_CHECK_INTERVAL steps,
        // so grind out enough work to guarantee several polls.
        let mut acc = b.try_var(0).unwrap();
        let mut result = Ok(());
        for v in 1..512 {
            let x = b.try_var(v).unwrap();
            match b.try_xor(acc, x) {
                Ok(r) => acc = r,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert_eq!(result, Err(BddOverflow::Deadline));
    }

    #[test]
    fn overflow_messages_name_the_budget() {
        assert_eq!(
            BddOverflow::Nodes { limit: 7 }.to_string(),
            "BDD node budget exhausted (limit 7 nodes)"
        );
        assert_eq!(
            BddOverflow::Steps { limit: 9 }.to_string(),
            "BDD operation-step limit exhausted (limit 9 steps)"
        );
        assert_eq!(BddOverflow::Deadline.to_string(), "BDD deadline expired");
        assert_eq!(
            BddOverflow::Cancelled.to_string(),
            "BDD operation cancelled"
        );
    }

    #[test]
    fn cancel_probe_fails_after_the_check_interval() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = std::sync::Arc::new(AtomicBool::new(true));
        let mut b = Bdd::new();
        let probe = std::sync::Arc::clone(&flag);
        b.set_cancel_probe(std::sync::Arc::new(move || probe.load(Ordering::Relaxed)));
        // The probe is only polled every DEADLINE_CHECK_INTERVAL steps, so
        // grind out enough work to guarantee several polls.
        let mut acc = b.try_var(0).unwrap();
        let mut result = Ok(());
        for v in 1..512 {
            let x = b.try_var(v).unwrap();
            match b.try_xor(acc, x) {
                Ok(r) => acc = r,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert_eq!(result, Err(BddOverflow::Cancelled));
        // A cleared probe lets the same manager make progress again.
        flag.store(false, Ordering::Relaxed);
        let x = b.try_var(600).unwrap();
        assert!(b.try_xor(acc, x).is_ok());
    }

    #[test]
    fn ite_cache_counters_track_hits_and_misses() {
        let mut b = Bdd::new();
        assert_eq!((b.ite_cache_hits(), b.ite_cache_misses()), (0, 0));
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        let misses = b.ite_cache_misses();
        assert!(misses > 0, "a fresh conjunction must recurse");
        assert_eq!(b.ite_cache_hits(), 0);
        // The identical ite is answered from the memo table.
        let g = b.and(x, y);
        assert_eq!(f, g);
        assert_eq!(b.ite_cache_hits(), 1);
        assert_eq!(b.ite_cache_misses(), misses);
    }

    #[test]
    fn unbudgeted_managers_never_overflow() {
        let mut b = Bdd::new();
        let mut acc = BddRef::FALSE;
        for v in 0..32 {
            let x = b.try_var(v).unwrap();
            acc = b.try_xor(acc, x).expect("no budget, no overflow");
        }
        let vars: Vec<u32> = (0..32).collect();
        assert!(b.try_exists(acc, &vars).is_ok());
        assert!(b.try_rename(acc, &|v| v).is_ok());
    }

    #[test]
    fn ite_is_shannon_complete_on_three_vars() {
        // Exhaustive: ite over every triple of 1-var functions matches the
        // Boolean definition on every assignment.
        let mut b = Bdd::new();
        let funcs: Vec<BddRef> = (0..3)
            .flat_map(|v| {
                let p = b.var(v);
                let n = b.nvar(v);
                [p, n]
            })
            .chain([BddRef::FALSE, BddRef::TRUE])
            .collect();
        for &f in &funcs {
            for &g in &funcs {
                for &h in &funcs {
                    let r = b.ite(f, g, h);
                    for bits in 0..8u32 {
                        let a: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
                        let expect = if b.eval(f, &a) {
                            b.eval(g, &a)
                        } else {
                            b.eval(h, &a)
                        };
                        assert_eq!(b.eval(r, &a), expect);
                    }
                }
            }
        }
    }
}
