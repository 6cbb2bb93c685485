//! The expected-output table: one FNV-1a digest per op, over the op's
//! rendered output (wire document, report, HTTP body or stdout). An op
//! whose output digest differs from the table counts as failed.
//!
//! `--gen-digests` rebuilds `digests.tsv` from scratch; the table is
//! compiled into the binary, so a regenerated table takes effect on the
//! next build.

use std::collections::BTreeMap;

pub use scfi_serve::cache::fnv1a;

const COMMITTED: &str = include_str!("../digests.tsv");

pub struct Digests(BTreeMap<String, u64>);

impl Digests {
    /// The committed table.
    pub fn committed() -> Digests {
        Digests::parse(COMMITTED).expect("digests.tsv is well-formed")
    }

    /// Parses `key<TAB>hex-digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .split_once('\t')
                .ok_or_else(|| format!("line {}: expected key<TAB>digest", i + 1))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("line {}: bad digest `{hex}`: {e}", i + 1))?;
            if map.insert(key.to_string(), digest).is_some() {
                return Err(format!("line {}: duplicate key `{key}`", i + 1));
            }
        }
        Ok(Digests(map))
    }

    /// `true` when `output` is the expected output of op `key`.
    pub fn matches(&self, key: &str, output: &[u8]) -> bool {
        self.0.get(key) == Some(&fnv1a(output))
    }

    #[cfg(test)]
    fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// Renders a table in the committed format, sorted by key.
pub fn render(entries: &[(String, u64)]) -> String {
    let sorted: BTreeMap<&str, u64> = entries.iter().map(|(k, d)| (k.as_str(), *d)).collect();
    let mut out = String::from(
        "# Expected FNV-1a digests of every benchmark op's rendered output.\n\
         # Regenerate with `bash perfbench/run.sh --gen-digests`.\n",
    );
    for (key, digest) in sorted {
        out.push_str(&format!("{key}\t{digest:016x}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_has_a_digest_and_every_digest_an_op() {
        let table = Digests::committed();
        let mut keys: Vec<String> = crate::Workload::ALL
            .iter()
            .flat_map(|w| w.op_keys())
            .collect();
        for key in &keys {
            assert!(table.0.contains_key(key), "no digest for op `{key}`");
        }
        keys.sort();
        keys.dedup();
        let stale: Vec<&str> = table
            .keys()
            .filter(|k| keys.binary_search(&k.to_string()).is_err())
            .collect();
        assert!(stale.is_empty(), "digests without an op: {stale:?}");
    }

    #[test]
    fn table_round_trips_and_rejects_malformed_lines() {
        let entries = vec![
            ("b/op".to_string(), fnv1a(b"output")),
            ("a/op".to_string(), 0xabc),
        ];
        let table = Digests::parse(&render(&entries)).unwrap();
        assert_eq!(table.keys().collect::<Vec<_>>(), ["a/op", "b/op"]);
        assert!(table.matches("b/op", b"output"));
        assert!(!table.matches("b/op", b"outpuT"));
        assert!(!table.matches("c/op", b"output"));
        assert!(Digests::parse("no-tab\n").is_err());
        assert!(Digests::parse("k\tzz\n").is_err());
        assert!(Digests::parse("k\t1\nk\t2\n").is_err());
    }
}
