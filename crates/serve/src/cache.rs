//! The compiled-model cache: hardening/lowering plus the
//! [`PackedNetlist`] compilation for a given `(FSM, config, N)` is pure
//! and deterministic, so the job server computes it once and shares the
//! result across every job that asks for the same key.
//!
//! The cache is a bounded FIFO guarded by one mutex (preparation itself
//! runs *outside* the lock; two concurrent misses on the same key both
//! compile and one insert wins — wasted work, never wrong results) with
//! atomic hit/miss counters surfaced by `GET /v1/healthz`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use scfi_core::{harden, redundancy, HardenedFsm, RedundantFsm, ScfiConfig};
use scfi_fsm::{lower_unprotected, Fsm, LoweredFsm};
use scfi_netlist::{Module, PackedNetlist};

/// Which protection configuration a job targets — the same three-way
/// choice as `scfi certify --config`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// The paper's SCFI hardening.
    Scfi,
    /// Plain N-way redundancy (the paper's comparison baseline).
    Redundancy,
    /// The unprotected binary-encoded lowering.
    Unprotected,
}

impl ConfigKind {
    /// Parses a config name as accepted by the `"config"` request field.
    pub fn parse(name: &str) -> Option<ConfigKind> {
        match name {
            "scfi" => Some(ConfigKind::Scfi),
            "redundancy" => Some(ConfigKind::Redundancy),
            "unprotected" => Some(ConfigKind::Unprotected),
            _ => None,
        }
    }

    /// The canonical name (`parse`'s inverse).
    pub fn name(self) -> &'static str {
        match self {
            ConfigKind::Scfi => "scfi",
            ConfigKind::Redundancy => "redundancy",
            ConfigKind::Unprotected => "unprotected",
        }
    }
}

/// A prepared (hardened/lowered) model ready for campaign or
/// certification jobs.
pub enum PreparedModel {
    /// SCFI-hardened (boxed: the hardened model is much larger than the
    /// other variants).
    Scfi(Box<HardenedFsm>),
    /// N-way redundant.
    Redundancy(Box<RedundantFsm>),
    /// Unprotected lowering (keeps the source FSM for target
    /// construction).
    Unprotected(Box<UnprotectedModel>),
}

/// The unprotected configuration keeps both the parsed FSM (the fault
/// targets need it to drive representative inputs) and its lowering.
pub struct UnprotectedModel {
    /// The parsed FSM.
    pub fsm: Fsm,
    /// Its binary-encoded lowering.
    pub lowered: LoweredFsm,
}

/// One cache entry: the prepared model plus its packed netlist, compiled
/// once and handed to every campaign run via
/// [`CampaignConfig::precompiled`](scfi_faultsim::CampaignConfig::precompiled).
pub struct Prepared {
    /// The prepared model.
    pub model: PreparedModel,
    /// The compiled wave-engine netlist for [`Self::module`].
    pub packed: Arc<PackedNetlist>,
    /// FNV-1a digest of the canonical DSL (diagnostic identity shown in
    /// job status).
    pub digest: u64,
}

impl Prepared {
    /// The gate-level module the jobs run against.
    pub fn module(&self) -> &Module {
        match &self.model {
            PreparedModel::Scfi(h) => h.module(),
            PreparedModel::Redundancy(r) => r.module(),
            PreparedModel::Unprotected(u) => u.lowered.module(),
        }
    }
}

/// FNV-1a over `bytes` — a stable, dependency-free content digest for
/// cache keys and job-status display.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Prepares a model outside the cache: parse-level inputs in, hardened
/// module plus compiled netlist out. Deterministic, so cached and fresh
/// preparations are interchangeable.
pub fn prepare(fsm: &Fsm, kind: ConfigKind, level: usize) -> Result<Prepared, String> {
    prepare_with(fsm, kind, &ScfiConfig::new(level))
}

/// [`prepare`] under a full hardening configuration, as `scfi harden`,
/// `area`, `analyze` and `certify` take it from their flags: the SCFI
/// model is hardened with `config` and checked on every CFG edge, the
/// redundancy model uses its protection level, the unprotected lowering
/// neither. The error is the failed pass's message.
pub fn prepare_with(fsm: &Fsm, kind: ConfigKind, config: &ScfiConfig) -> Result<Prepared, String> {
    let digest = fnv1a(fsm.to_dsl().as_bytes());
    let model = match kind {
        ConfigKind::Scfi => {
            let hardened = harden(fsm, config).map_err(|e| format!("hardening failed: {e}"))?;
            hardened
                .check_all_edges()
                .map_err(|e| format!("internal verification failed: {e}"))?;
            PreparedModel::Scfi(Box::new(hardened))
        }
        ConfigKind::Redundancy => PreparedModel::Redundancy(Box::new(
            redundancy(fsm, config.protection_level())
                .map_err(|e| format!("redundancy transform failed: {e}"))?,
        )),
        ConfigKind::Unprotected => {
            let lowered = lower_unprotected(fsm).map_err(|e| format!("lowering failed: {e}"))?;
            PreparedModel::Unprotected(Box::new(UnprotectedModel {
                fsm: fsm.clone(),
                lowered,
            }))
        }
    };
    let module = match &model {
        PreparedModel::Scfi(h) => h.module(),
        PreparedModel::Redundancy(r) => r.module(),
        PreparedModel::Unprotected(u) => u.lowered.module(),
    };
    let packed = Arc::new(PackedNetlist::compile(module));
    Ok(Prepared {
        model,
        packed,
        digest,
    })
}

/// The cache key: the *full* canonical DSL (not just its digest —
/// collisions must never alias two FSMs) plus config kind and level.
#[derive(Clone, PartialEq, Eq)]
struct Key {
    dsl: String,
    kind: ConfigKind,
    level: usize,
}

/// A bounded FIFO cache of [`Prepared`] models with hit/miss counters.
pub struct CompileCache {
    entries: Mutex<VecDeque<(Key, Arc<Prepared>)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    /// An empty cache holding at most `capacity` prepared models.
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached model for `(fsm, kind, level)`, preparing and
    /// inserting it on a miss. The boolean is `true` on a cache hit.
    pub fn get_or_prepare(
        &self,
        fsm: &Fsm,
        kind: ConfigKind,
        level: usize,
    ) -> Result<(Arc<Prepared>, bool), String> {
        let key = Key {
            dsl: fsm.to_dsl(),
            kind,
            level,
        };
        if let Some(found) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((found, true));
        }
        // Prepare outside the lock; a concurrent miss on the same key
        // duplicates the compile but both arrive at identical artifacts.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prepared = Arc::new(prepare(fsm, kind, level)?);
        let mut entries = self.entries.lock().expect("cache lock");
        if !entries.iter().any(|(k, _)| *k == key) {
            if entries.len() >= self.capacity {
                entries.pop_front();
            }
            entries.push_back((key, Arc::clone(&prepared)));
        }
        Ok((prepared, false))
    }

    fn lookup(&self, key: &Key) -> Option<Arc<Prepared>> {
        let entries = self.entries.lock().expect("cache lock");
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v))
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Prepared models currently resident.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfi_fsm::parse_fsm;

    fn demo(name: &str) -> Fsm {
        parse_fsm(&format!(
            "fsm {name} {{ inputs go; state A {{ if go -> B; }} state B {{ goto A; }} }}"
        ))
        .expect("demo parses")
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_same_artifacts() {
        let cache = CompileCache::new(4);
        let fsm = demo("demo");
        let (first, hit1) = cache.get_or_prepare(&fsm, ConfigKind::Scfi, 2).unwrap();
        let (second, hit2) = cache.get_or_prepare(&fsm, ConfigKind::Scfi, 2).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(first.digest, fnv1a(fsm.to_dsl().as_bytes()));
    }

    #[test]
    fn distinct_configs_and_levels_get_distinct_entries() {
        let cache = CompileCache::new(8);
        let fsm = demo("demo");
        let (scfi, _) = cache.get_or_prepare(&fsm, ConfigKind::Scfi, 2).unwrap();
        let (red, _) = cache
            .get_or_prepare(&fsm, ConfigKind::Redundancy, 2)
            .unwrap();
        let (lvl3, _) = cache.get_or_prepare(&fsm, ConfigKind::Scfi, 3).unwrap();
        assert!(!Arc::ptr_eq(&scfi, &red));
        assert!(!Arc::ptr_eq(&scfi, &lvl3));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        // The packed netlist matches the model's module shape.
        assert_eq!(scfi.packed.len(), scfi.module().len());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = CompileCache::new(2);
        let a = demo("a");
        let b = demo("b");
        let c = demo("c");
        cache
            .get_or_prepare(&a, ConfigKind::Unprotected, 2)
            .unwrap();
        cache
            .get_or_prepare(&b, ConfigKind::Unprotected, 2)
            .unwrap();
        cache
            .get_or_prepare(&c, ConfigKind::Unprotected, 2)
            .unwrap();
        assert_eq!(cache.len(), 2);
        // `a` was evicted: looking it up again is a miss.
        cache
            .get_or_prepare(&a, ConfigKind::Unprotected, 2)
            .unwrap();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
    }
}
