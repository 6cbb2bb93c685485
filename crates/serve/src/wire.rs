//! The shared wire formats: every machine-readable rendering of an SCFI
//! result lives here, used identically by `scfi analyze --format csv|json`
//! and by the `scfi serve` HTTP endpoints.
//!
//! [`write_sites_csv`] and [`write_sites_json`] are the CLI's original
//! streaming writers, hoisted verbatim — their byte layout is pinned by
//! the CLI golden tests (`crates/cli/tests/golden/`), so a served analyze
//! result is byte-identical to the `scfi analyze --format json` output
//! for the same FSM and knobs. The certification, joint and partial-result
//! writers are new with the job server and render through the
//! [`json`](crate::json) value model (compact, parseable encoding).

use std::fmt::Write as _;

use scfi_faultsim::{PartialReport, StopReason, VulnerabilityMap};
use scfi_netlist::Module;
use scfi_symbolic::{
    describe_fault, CertificationReport, JointReport, JointVerdict, Verdict, Witness,
};

use crate::json::{obj, Json};

/// Streams the per-site vulnerability map as CSV (one row per fault
/// cell, header first).
pub fn write_sites_csv(out: &mut String, module: &Module, map: &VulnerabilityMap) {
    let _ = writeln!(
        out,
        "cell,kind,name,masked,detected,hijacked,total,hijack_rate"
    );
    for (cell, stats) in map.sites() {
        let c = module.cell(cell);
        let rate = if stats.total() == 0 {
            0.0
        } else {
            stats.hijacked as f64 / stats.total() as f64
        };
        let _ = writeln!(
            out,
            "c{},{},{},{},{},{},{},{:.6}",
            cell.0,
            c.kind.mnemonic(),
            c.name.as_deref().unwrap_or(""),
            stats.masked,
            stats.detected,
            stats.hijacked,
            stats.total(),
            rate
        );
    }
}

/// Streams the per-site vulnerability map as JSON.
pub fn write_sites_json(out: &mut String, module: &Module, map: &VulnerabilityMap) {
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"module\": \"{}\",", module.name());
    let _ = writeln!(out, "  \"injections\": {},", map.total_injections());
    let _ = writeln!(out, "  \"hijacks\": {},", map.total_hijacks());
    let _ = writeln!(out, "  \"sites\": [");
    let sites: Vec<_> = map.sites().collect();
    for (i, (cell, stats)) in sites.iter().enumerate() {
        let c = module.cell(*cell);
        let comma = if i + 1 < sites.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"cell\": {}, \"kind\": \"{}\", \"name\": \"{}\", \
             \"masked\": {}, \"detected\": {}, \"hijacked\": {}}}{comma}",
            cell.0,
            c.kind.mnemonic(),
            c.name.as_deref().unwrap_or(""),
            stats.masked,
            stats.detected,
            stats.hijacked
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
}

/// A register or input word as a `0`/`1` string, bit 0 first — the
/// witness encoding of both the JSON documents and the CLI text reports.
pub fn bits(word: &[bool]) -> String {
    word.iter().map(|&v| if v { '1' } else { '0' }).collect()
}

fn witness_json(w: &Witness) -> Json {
    obj(vec![
        ("state", Json::Str(bits(&w.regs))),
        ("inputs", Json::Str(bits(&w.inputs))),
        ("replay_confirmed", Json::Bool(w.confirmed)),
    ])
}

/// Renders a per-site certification report as one JSON document
/// (a trailing newline after the compact encoding).
pub fn write_certify_json(out: &mut String, module: &Module, report: &CertificationReport) {
    let sites = report
        .sites
        .iter()
        .map(|site| {
            let mut fields = vec![
                ("fault", Json::Str(describe_fault(module, site.fault))),
                ("verdict", Json::Str(verdict_tag(&site.verdict).to_string())),
            ];
            match &site.verdict {
                Verdict::Counterexample(w) => fields.push(("witness", witness_json(w))),
                Verdict::Unknown { reason } => fields.push(("reason", Json::Str(reason.clone()))),
                _ => {}
            }
            obj(fields)
        })
        .collect();
    let doc = obj(vec![
        ("config", Json::Str(report.config.to_string())),
        ("module", Json::Str(report.module.clone())),
        (
            "reachable_states",
            Json::Int(report.reachable_states as i64),
        ),
        ("state_bits", Json::Int(report.state_bits as i64)),
        ("input_bits", Json::Int(report.input_bits as i64)),
        (
            "proven_detected",
            Json::Int(report.proven_detected() as i64),
        ),
        ("proven_masked", Json::Int(report.proven_masked() as i64)),
        (
            "counterexamples",
            Json::Int(report.counterexamples() as i64),
        ),
        ("unknown", Json::Int(report.unknown() as i64)),
        ("all_proven", Json::Bool(report.all_proven())),
        ("sites", Json::Arr(sites)),
    ]);
    let _ = writeln!(out, "{}", doc.encode());
}

fn verdict_tag(v: &Verdict) -> &'static str {
    match v {
        Verdict::ProvenDetected => "proven-detected",
        Verdict::ProvenMasked => "proven-masked",
        Verdict::Counterexample(_) => "counterexample",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Renders a joint multi-fault certification report as one JSON document.
pub fn write_joint_json(out: &mut String, report: &JointReport) {
    let verdict = match &report.verdict {
        JointVerdict::Proved => obj(vec![("kind", Json::Str("proved".into()))]),
        JointVerdict::Counterexample(w) => obj(vec![
            ("kind", Json::Str("counterexample".into())),
            ("state", Json::Str(bits(&w.regs))),
            ("inputs", Json::Str(bits(&w.inputs))),
        ]),
        JointVerdict::Unknown { reason } => obj(vec![
            ("kind", Json::Str("unknown".into())),
            ("reason", Json::Str(reason.clone())),
        ]),
    };
    let doc = obj(vec![
        ("config", Json::Str(report.config.to_string())),
        ("module", Json::Str(report.module.clone())),
        ("sites", Json::Int(report.sites as i64)),
        ("max_active", Json::Int(report.max_active as i64)),
        (
            "reachable_states",
            Json::Int(report.reachable_states as i64),
        ),
        ("verdict", verdict),
    ]);
    let _ = writeln!(out, "{}", doc.encode());
}

/// Renders the completed prefix of an interrupted campaign, clearly
/// marked `"partial": true` with the stop reason — mirroring the CLI's
/// `PARTIAL RESULT (stopped early: …)` banner.
pub fn write_partial_json(out: &mut String, reason: StopReason, partial: &PartialReport) {
    let doc = obj(vec![
        ("partial", Json::Bool(true)),
        ("stopped_early", Json::Str(reason.to_string())),
        ("completed", Json::Int(partial.completed as i64)),
        ("total", Json::Int(partial.total() as i64)),
        ("masked", Json::Int(partial.report.masked as i64)),
        ("detected", Json::Int(partial.report.detected as i64)),
        ("hijacked", Json::Int(partial.report.hijacked as i64)),
    ]);
    let _ = writeln!(out, "{}", doc.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use scfi_core::{harden, ScfiConfig};
    use scfi_faultsim::{CampaignConfig, ScfiTarget};
    use scfi_fsm::parse_fsm;
    use scfi_symbolic::Certifier;

    fn demo_map() -> (scfi_core::HardenedFsm, VulnerabilityMap) {
        let fsm = parse_fsm("fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }")
            .expect("demo parses");
        let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("demo hardens");
        let target = ScfiTarget::new(&hardened);
        let map = VulnerabilityMap::analyze(&target, &CampaignConfig::new());
        (hardened, map)
    }

    /// The hoisted JSON writer's output must parse with the crate's own
    /// parser and agree field-for-field with the map it rendered.
    #[test]
    fn sites_json_round_trips_through_the_parser() {
        let (hardened, map) = demo_map();
        let mut out = String::new();
        write_sites_json(&mut out, hardened.module(), &map);
        let doc = parse(&out).expect("sites JSON parses");
        assert_eq!(doc.get("module").unwrap().as_str(), Some("demo_scfi"));
        assert_eq!(
            doc.get("injections").unwrap().as_u64(),
            Some(map.total_injections() as u64)
        );
        assert_eq!(
            doc.get("hijacks").unwrap().as_u64(),
            Some(map.total_hijacks() as u64)
        );
        let sites = doc.get("sites").unwrap().as_arr().expect("sites array");
        assert_eq!(sites.len(), map.sites().count());
        for (site, (cell, stats)) in sites.iter().zip(map.sites()) {
            assert_eq!(site.get("cell").unwrap().as_u64(), Some(cell.0 as u64));
            assert_eq!(
                site.get("masked").unwrap().as_u64(),
                Some(stats.masked as u64)
            );
            assert_eq!(
                site.get("detected").unwrap().as_u64(),
                Some(stats.detected as u64)
            );
            assert_eq!(
                site.get("hijacked").unwrap().as_u64(),
                Some(stats.hijacked as u64)
            );
        }
    }

    #[test]
    fn sites_csv_has_one_row_per_site_plus_header() {
        let (hardened, map) = demo_map();
        let mut out = String::new();
        write_sites_csv(&mut out, hardened.module(), &map);
        let mut lines = out.lines();
        assert_eq!(
            lines.next(),
            Some("cell,kind,name,masked,detected,hijacked,total,hijack_rate")
        );
        let rows: Vec<_> = lines.collect();
        assert_eq!(rows.len(), map.sites().count());
        assert!(rows.iter().all(|r| r.split(',').count() == 8));
    }

    #[test]
    fn certify_json_counts_agree_with_the_report() {
        let fsm = parse_fsm("fsm demo { inputs go; state A { if go -> B; } state B { goto A; } }")
            .expect("demo parses");
        let hardened = harden(&fsm, &ScfiConfig::new(2)).expect("demo hardens");
        let faults = crate::jobs::certify_fault_set(hardened.module(), false, false, false);
        let mut certifier = Certifier::new(&hardened);
        let report = certifier.certify_all(&faults);
        let mut out = String::new();
        write_certify_json(&mut out, hardened.module(), &report);
        let doc = parse(&out).expect("certify JSON parses");
        assert_eq!(doc.get("config").unwrap().as_str(), Some("scfi"));
        assert_eq!(doc.get("all_proven").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("sites").unwrap().as_arr().unwrap().len(),
            report.sites.len()
        );
        assert_eq!(
            doc.get("proven_detected").unwrap().as_u64(),
            Some(report.proven_detected() as u64)
        );
        assert_eq!(doc.get("counterexamples").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn joint_json_renders_every_verdict_kind() {
        let base = |verdict| JointReport {
            config: "scfi",
            module: "demo_scfi".into(),
            sites: 9,
            max_active: 2,
            reachable_states: 2,
            verdict,
        };
        let mut out = String::new();
        write_joint_json(&mut out, &base(JointVerdict::Proved));
        assert_eq!(
            parse(&out)
                .unwrap()
                .get("verdict")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("proved")
        );
        out.clear();
        write_joint_json(
            &mut out,
            &base(JointVerdict::Unknown {
                reason: "node budget".into(),
            }),
        );
        let doc = parse(&out).unwrap();
        assert_eq!(
            doc.get("verdict").unwrap().get("reason").unwrap().as_str(),
            Some("node budget")
        );
        assert_eq!(doc.get("max_active").unwrap().as_u64(), Some(2));
    }
}
