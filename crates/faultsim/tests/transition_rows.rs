//! Differential tests for the packed engine's shared scenario table and
//! transition rows, on inputs the Table-1 FSMs cannot produce.
//!
//! Exhaustive protocol campaigns let the packed backend decide a lane
//! from a transition row keyed by (fault-free registers before the armed
//! cycle, its input word, its expected state), start waves at their
//! earliest armed cycle and retire lanes once they are back on their
//! fault-free run. Each case here compares the packed outcome vector with
//! the scalar reference slot for slot, at every wave width and at one
//! thread, one thread per CPU and four threads:
//!
//! * an FSM with an unreachable state and a shadowed transition, driven
//!   as raw inputs would drive it: the fault-free walk through the
//!   shadowed edge misses its own target, so a key without the expected
//!   state would merge it with the shadowing edge's row;
//! * unprotected walks, where a hijacked lane never comes back;
//! * depth-16 walks, where rows decide lanes fifteen cycles before the
//!   walk ends;
//! * the vulnerability maps those campaigns print, through the one
//!   exhaustive entry point;
//! * fault lists of 1 to 710 faults, whose runs of same-scenario lanes
//!   start mid-word and straddle row chunks: a wave resolves a run's row
//!   lanes 64 at a time from a bit range of the chunks' masks, and fills
//!   the chunks it reads before it waits on one another worker fills.

use scfi_core::{harden, HardenedFsm, ScfiConfig};
use scfi_faultsim::{
    enumerate_faults, protocol_scenarios, Backend, CampaignBackend, CampaignConfig, Fault,
    FaultEffect, FaultSite, FaultTarget, FaultTiming, Outcome, PackedBackend, ProtocolScenario,
    RunControl, ScalarBackend, ScfiTarget, UnprotectedTarget, VulnerabilityMap, WorkList,
};
use scfi_fsm::{lower_unprotected, parse_fsm, Fsm};
use scfi_netlist::Simulator;
use scfi_telemetry::Telemetry;

/// Four states: `S3` is unreachable, and the second `if a -> S2` of `S0`
/// is shadowed by `if a -> S1`.
fn dirty_fsm() -> Fsm {
    parse_fsm(
        "fsm dirty { inputs a, b;
           state S0 { if a -> S1; if a -> S2; if b -> S2; }
           state S1 { if b -> S2; goto S0; }
           state S2 { if a -> S3; goto S0; }
           state S3 { goto S0; } }",
    )
    .expect("valid DSL")
}

/// One thread, one worker per CPU (at least two, so the shared table is
/// raced) and four, so that workers outnumber CPUs on small hosts.
fn thread_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let mut counts = vec![1, cpus, 4];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Gate-output flips and stuck-ats plus register flips: transient
/// windows on every kind of site.
fn config() -> CampaignConfig {
    CampaignConfig::new()
        .effects(vec![
            FaultEffect::Flip,
            FaultEffect::Stuck0,
            FaultEffect::Stuck1,
        ])
        .with_register_flips()
}

/// The exhaustive scenario-major work list, pushed item by item.
fn exhaustive_work<T: FaultTarget>(target: &T, config: &CampaignConfig) -> WorkList {
    listed_work(target, &enumerate_faults(target.module(), config))
}

/// The exhaustive scenario-major work list of `faults`, pushed item by
/// item.
fn listed_work<T: FaultTarget>(target: &T, faults: &[Fault]) -> WorkList {
    let mut work = WorkList::with_capacity(target.scenario_count() * faults.len());
    for s in 0..target.scenario_count() {
        for fault in faults {
            work.push(s, std::slice::from_ref(fault));
        }
    }
    work
}

/// The packed outcome vector equals the single-threaded scalar one slot
/// for slot at W ∈ {1, 2, 4} × threads ∈ {1, nproc, 4}, and so does the
/// vulnerability map. Returns the scalar outcomes.
fn assert_engines_agree<T: FaultTarget>(target: &T, what: &str) -> Vec<Outcome> {
    let config = config();
    let work = exhaustive_work(target, &config);
    let control = RunControl::unlimited();
    let scalar = ScalarBackend
        .try_execute(target, &work, &config.clone().threads(1), &control)
        .expect("scalar run");
    assert_eq!(scalar.len(), work.len(), "{what}");
    let reference = VulnerabilityMap::analyze(target, &config.clone().backend(Backend::Scalar));
    for lane_words in [1, 2, 4] {
        for threads in thread_counts() {
            let config = config.clone().lane_words(lane_words).threads(threads);
            let packed = PackedBackend
                .try_execute(target, &work, &config, &control)
                .expect("packed run");
            let diverged = (0..work.len()).find(|&i| packed[i] != scalar[i]);
            assert!(
                diverged.is_none(),
                "{what}, W={lane_words}, threads={threads}: slot {diverged:?} diverged"
            );
            let map = VulnerabilityMap::analyze(target, &config);
            assert!(
                map.sites().eq(reference.sites()),
                "{what}, W={lane_words}, threads={threads}: the map differs"
            );
        }
    }
    scalar
}

/// Whether some scenario's fault-free run is classified other than
/// `Masked` on some cycle.
fn some_fault_free_walk_misses<T: FaultTarget>(target: &T) -> bool {
    let mut sim = Simulator::new(target.module());
    (0..target.scenario_count()).any(|s| {
        let sc = target.scenario(s);
        sim.clear_faults();
        sim.reset_to(&sc.regs);
        sc.inputs.iter().enumerate().any(|(c, inputs)| {
            let outputs = sim.step(inputs);
            target.classify(s, c, sim.register_values(), &outputs) != Outcome::Masked
        })
    })
}

fn hardened(fsm: &Fsm, level: usize) -> HardenedFsm {
    harden(fsm, &ScfiConfig::new(level)).expect("hardens")
}

/// Depth-`depth` walks over the dirty FSM, one scenario per injection
/// cycle, whose every step drives the condition word that wins the first
/// match, as raw inputs would: the hardened module takes each edge by its
/// own codeword, so only this makes the shadowed edge's step land on the
/// shadowing edge's target instead of its own.
fn first_match_walks(h: &HardenedFsm, depth: usize, seed: u64) -> Vec<ProtocolScenario> {
    let cfg = h.cfg();
    let (shadowing, shadowed) = (&cfg.edges()[0], &cfg.edges()[1]);
    assert_eq!(
        (shadowing.from, shadowing.local_index(h.fsm())),
        (shadowed.from, 0),
        "edge 1 is the second `if a` of S0"
    );
    let word = |ei: usize| -> Vec<bool> {
        let winner = if ei == 1 { 0 } else { ei };
        let local = cfg.edges()[winner].local_index(h.fsm());
        h.condition_word(local).iter().collect()
    };
    let mut scenarios = Vec::new();
    for walk in cfg.random_walks(depth, seed) {
        let inputs: Vec<Vec<bool>> = walk.iter().map(|&ei| word(ei)).collect();
        for c in 0..depth {
            scenarios.push(
                ProtocolScenario::new(walk.clone(), FaultTiming::Transient(c))
                    .with_inputs(inputs.clone()),
            );
        }
    }
    scenarios
}

#[test]
fn dirty_fsm_walks_match_scalar_at_every_width_and_thread_count() {
    let fsm = dirty_fsm();
    for level in [2, 3] {
        let h = hardened(&fsm, level);
        let first_match = ScfiTarget::with_scenarios(&h, first_match_walks(&h, 4, 0xD1_27));
        assert!(
            some_fault_free_walk_misses(&first_match),
            "N={level}: no fault-free walk takes the shadowed edge"
        );
        for (shape, target) in [
            ("first-match walks", first_match),
            ("walks", ScfiTarget::with_protocol(&h, 4, 0xD1_27)),
            (
                "fuzzed walks",
                ScfiTarget::with_fuzzed_protocol(&h, 4, 0xD1_27),
            ),
        ] {
            assert_engines_agree(&target, &format!("dirty N={level} {shape}"));
        }
    }
}

#[test]
fn unprotected_walks_match_scalar_at_every_width_and_thread_count() {
    for fsm in [
        dirty_fsm(),
        scfi_opentitan::by_name("aes_control").expect("suite").fsm,
    ] {
        let lowered = lower_unprotected(&fsm).expect("lowers");
        for (shape, target) in [
            (
                "walks",
                UnprotectedTarget::with_protocol(&fsm, &lowered, 4, 0xB007),
            ),
            (
                "fuzzed walks",
                UnprotectedTarget::with_fuzzed_protocol(&fsm, &lowered, 4, 0xB007),
            ),
        ] {
            let what = format!("{} unprotected {shape}", fsm.name());
            let scalar = assert_engines_agree(&target, &what);
            assert!(
                scalar.contains(&Outcome::Hijack),
                "{what}: no hijack to keep off its fault-free run"
            );
        }
    }
}

#[test]
fn deep_walks_match_scalar_at_every_width_and_thread_count() {
    let fsm = scfi_opentitan::by_name("aes_control").expect("suite").fsm;
    let h = hardened(&fsm, 2);
    let target = ScfiTarget::with_protocol(&h, 16, 0xB007_5EED);
    assert_engines_agree(&target, "aes_control N=2 depth 16");
}

/// `faults` with its register flips spread evenly among the other faults,
/// so that runs of a permanent scenario mix lanes that read a row (the
/// flips) with lanes the wave schedules.
fn interleave_register_flips(faults: Vec<Fault>) -> Vec<Fault> {
    let (flips, others): (Vec<Fault>, Vec<Fault>) = faults
        .into_iter()
        .partition(|f| matches!(f.site, FaultSite::Register(_)));
    let stride = others.len() / flips.len().max(1) + 1;
    let mut flips = flips.into_iter();
    let mut list = Vec::new();
    for (i, fault) in others.into_iter().enumerate() {
        if i % stride == 0 {
            list.extend(flips.next());
        }
        list.push(fault);
    }
    list.extend(flips);
    list
}

/// Exhaustive lists of F ∈ {1, 63, 65, 199, 257, 710} faults, prefixes of
/// one list, over 32 of the i2c_fsm N = 3 depth-4 walks: F is rarely a multiple
/// of 64 or of a chunk, so runs start mid-word and straddle chunks. Two
/// lists: the gate-output flips of `scfi analyze` on transient walks
/// (every lane reads its row), and the same with register flips spread
/// among them on permanent walks (only the flips read a row). Packed
/// equals scalar slot for slot at W ∈ {1, 2, 4} and every thread count,
/// and the rows and stepped counts do not depend on the thread count.
#[test]
fn runs_that_straddle_words_and_chunks_match_scalar() {
    let fsm = scfi_opentitan::by_name("i2c_fsm").expect("suite").fsm;
    let h = hardened(&fsm, 3);
    // The first 32 walks, one scenario per injection cycle: enough walks
    // revisit edges for rows to decide most lanes.
    let walks = &protocol_scenarios(h.cfg(), 4, 0xB007_5EED)[..128];
    let transient = ScfiTarget::with_scenarios(&h, walks.to_vec());
    let permanent = ScfiTarget::with_scenarios(
        &h,
        walks
            .iter()
            .step_by(4)
            .map(|sc| ProtocolScenario::new(sc.edges.clone(), FaultTiming::Permanent))
            .collect(),
    );
    let gates = enumerate_faults(transient.module(), &CampaignConfig::new());
    assert_eq!(gates.len(), 710, "the i2c_fsm N=3 gate-output flips");
    let mixed = interleave_register_flips(enumerate_faults(
        permanent.module(),
        &CampaignConfig::new().with_register_flips(),
    ));
    let control = RunControl::unlimited();
    for (what, target, list) in [
        ("transient walks", &transient, &gates),
        ("permanent walks", &permanent, &mixed),
    ] {
        // An item's outcome does not depend on the rest of the list, so
        // one scalar run over the whole list is the reference of every
        // prefix: slot `s · F + p` of a prefix is slot `s · |list| + p`.
        let full = listed_work(target, list);
        let scalar = ScalarBackend
            .try_execute(target, &full, &CampaignConfig::new(), &control)
            .expect("scalar run");
        for f in [1, 63, 65, 199, 257, 710] {
            let work = listed_work(target, &list[..f]);
            for lane_words in [1, 2, 4] {
                let mut counts = Vec::new();
                for threads in thread_counts() {
                    let telemetry = Telemetry::recording();
                    let config = CampaignConfig::new()
                        .lane_words(lane_words)
                        .threads(threads)
                        .telemetry(telemetry.clone());
                    let packed = PackedBackend
                        .try_execute(target, &work, &config, &control)
                        .expect("packed run");
                    let diverged =
                        (0..work.len()).find(|&i| packed[i] != scalar[i / f * list.len() + i % f]);
                    assert!(
                        diverged.is_none(),
                        "{what}, F={f}, W={lane_words}, threads={threads}: slot {diverged:?} diverged"
                    );
                    let count = |name: &str| telemetry.counter(name).get();
                    counts.push((
                        threads,
                        count("scfi_campaign_row_lanes_total"),
                        count("scfi_campaign_cycles_stepped_total"),
                    ));
                }
                assert!(
                    counts
                        .iter()
                        .all(|&(_, rows, stepped)| (rows, stepped) == (counts[0].1, counts[0].2)),
                    "{what}, F={f}, W={lane_words}: (threads, rows, stepped) {counts:?}"
                );
            }
        }
    }
}
