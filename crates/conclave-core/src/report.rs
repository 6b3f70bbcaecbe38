//! Execution reports: results, the two accountings of a run, and the leakage
//! log.
//!
//! A run is accounted twice and the two are never added together: [`Modeled`]
//! is what the cost models say (the struct an analytic
//! [`crate::cardinality::RuntimeEstimate`] fills too, so a run and its
//! estimate compare field by field); [`RunReport::net`] and
//! [`RunReport::dealer_net`] are what the party transports observed.

use crate::passes::leakage::{Disclosure, LeakageReport};
use conclave_engine::{ConversionCounts, Relation};
use conclave_ir::ops::ExecSite;
use conclave_ir::party::PartyId;
use conclave_mpc::backend::MpcStepStats;
use conclave_net::NetStats;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// The cost models' account of a run or an estimate: constants × primitive
/// counts (executed or predicted) — never a wall clock or a byte on a wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Modeled {
    /// Local (cleartext) processing time per party; parties work in
    /// parallel, so the critical path takes the maximum.
    pub local_time: BTreeMap<PartyId, Duration>,
    /// Time spent in MPC steps (sequential across all parties), including
    /// moving data in and out of the MPC.
    pub mpc_time: Duration,
    /// Time spent in the STP's / helper's cleartext steps of hybrid protocols.
    pub stp_time: Duration,
    /// [`conclave_mpc::PrimitiveCounts::bytes`] of the MPC steps priced here.
    /// Steps a party mesh executed are not among them: their traffic was
    /// observed and is [`RunReport::net`].
    pub bytes: u64,
}

impl Modeled {
    /// End-to-end modeled runtime: the slowest party's local work, then the
    /// (sequential) MPC and STP phases.
    pub fn total_time(&self) -> Duration {
        let local_max = self.local_time.values().copied().max().unwrap_or_default();
        local_max + self.mpc_time + self.stp_time
    }

    /// Charges one modeled MPC step: its time and the bytes its counts imply.
    pub fn charge_mpc(&mut self, stats: &MpcStepStats) {
        self.mpc_time += stats.simulated_time;
        self.bytes += stats.counts.bytes();
    }
}

/// Report of one end-to-end query execution.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The query output, per recipient party.
    pub outputs: BTreeMap<PartyId, Relation>,
    /// What the cost model charges for the run.
    pub modeled: Modeled,
    /// Per-link traffic of the MPC steps the party mesh executed: **measured**
    /// byte/message counts and synchronous round totals observed on the party
    /// transports — not cost-model output. Empty when no mesh ran.
    pub net: NetStats,
    /// Traffic on the dedicated per-party dealer links (the offline phase),
    /// present only when the run streamed its material from a dealer. Link
    /// keys use [`crate::party_exec::DEALER_ID`] for the dealer endpoint;
    /// kept separate from [`RunReport::net`] so offline bytes never blur the
    /// online round/byte accounting the paper's cost model is about.
    pub dealer_net: Option<NetStats>,
    /// Aggregated MPC statistics (primitive counts, gates, memory).
    pub mpc_stats: MpcStepStats,
    /// The disclosures of [`RunReport::static_leakage`] this run exercised,
    /// in the order the driver handed the cleartext over. The driver reveals
    /// nothing it cannot find in the certificate, so this is a subset of it
    /// by construction.
    pub leakage: Vec<Disclosure>,
    /// The plan's statically certified leakage report: the linter's output
    /// for the plan as it was run, and the only authorization the driver
    /// consulted.
    pub static_leakage: Option<LeakageReport>,
    /// Per-node modeled runtimes, for detailed breakdowns.
    pub per_node: Vec<(usize, ExecSite, Duration)>,
    /// Row↔columnar conversions the run's data plane performed. With the
    /// unified `Table` representation, a columnar-mode driven query should
    /// convert only at input binding and reveal/collect boundaries — never
    /// between plan operators — and tests assert exactly that on this field.
    pub conversions: ConversionCounts,
}

impl RunReport {
    /// The output delivered to a given party, if it is a recipient.
    pub fn output_for(&self, party: PartyId) -> Option<&Relation> {
        self.outputs.get(&party)
    }

    /// Synchronous protocol rounds the whole query paid on the wire —
    /// the paper's dominant MPC cost. Zero when no mesh ran.
    pub fn rounds_per_query(&self) -> u64 {
        self.net.rounds
    }

    /// How many transport meshes were built for the query. The plan-scoped
    /// party runtime builds exactly one; more indicates a regression to
    /// per-step meshes.
    pub fn mesh_builds(&self) -> u64 {
        self.net.mesh_builds
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Conclave run report ===")?;
        let modeled = &self.modeled;
        writeln!(f, "modeled (cost model × primitive counts):")?;
        writeln!(
            f,
            "  total time: {:.2} s",
            modeled.total_time().as_secs_f64()
        )?;
        for (party, t) in &modeled.local_time {
            writeln!(f, "  local @ P{party}: {:.2} s", t.as_secs_f64())?;
        }
        writeln!(f, "  MPC: {:.2} s", modeled.mpc_time.as_secs_f64())?;
        writeln!(f, "  STP: {:.2} s", modeled.stp_time.as_secs_f64())?;
        writeln!(f, "  bytes: {}", modeled.bytes)?;
        if !self.net.links.is_empty() {
            writeln!(f, "measured (party transports):")?;
            writeln!(
                f,
                "  MPC traffic: {} B over {} messages in {} rounds ({} mesh build(s))",
                self.net.total_bytes(),
                self.net.total_messages(),
                self.net.rounds,
                self.net.mesh_builds
            )?;
            for ((from, to), link) in &self.net.links {
                writeln!(
                    f,
                    "  link P{from} -> P{to}: {} B in {} messages",
                    link.bytes, link.messages
                )?;
            }
            writeln!(
                f,
                "  integrity: {} deferred MAC check(s) at reveal boundaries",
                self.mpc_stats.counts.mac_checks
            )?;
        }
        if let Some(dealer) = &self.dealer_net {
            writeln!(
                f,
                "offline (dealer) traffic: {} B over {} messages",
                dealer.total_bytes(),
                dealer.total_messages()
            )?;
            for ((from, to), link) in &dealer.links {
                let name = |p: &u32| {
                    if *p == crate::party_exec::DEALER_ID {
                        "dealer".to_string()
                    } else {
                        format!("P{p}")
                    }
                };
                writeln!(
                    f,
                    "  link {} -> {}: {} B in {} messages",
                    name(from),
                    name(to),
                    link.bytes,
                    link.messages
                )?;
            }
        }
        writeln!(
            f,
            "data-plane conversions: {} row->columnar, {} columnar->row",
            self.conversions.row_to_columnar, self.conversions.columnar_to_row
        )?;
        writeln!(
            f,
            "MPC primitives: {} non-linear ops, {} AND gates",
            self.mpc_stats.counts.nonlinear_ops(),
            self.mpc_stats.circuit.and_gates
        )?;
        writeln!(f, "leakage events: {}", self.leakage.len())?;
        for d in &self.leakage {
            writeln!(
                f,
                "  node #{} -> P{}: [{}] columns [{}] ({})",
                d.node,
                d.to_party,
                d.kind,
                d.columns.join(", "),
                d.justification
            )?;
        }
        for (party, rel) in &self.outputs {
            writeln!(f, "output for P{party}: {} rows", rel.num_rows())?;
        }
        if let Some(static_report) = &self.static_leakage {
            write!(f, "{static_report}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_is_critical_path() {
        let mut m = Modeled::default();
        m.local_time.insert(1, Duration::from_secs(5));
        m.local_time.insert(2, Duration::from_secs(9));
        m.mpc_time = Duration::from_secs(3);
        m.stp_time = Duration::from_secs(1);
        assert_eq!(m.total_time(), Duration::from_secs(13));
        // With no local work at all, only MPC+STP count.
        let m2 = Modeled {
            mpc_time: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(m2.total_time(), Duration::from_secs(2));
    }

    #[test]
    fn display_keeps_modeled_and_measured_apart() {
        let mut r = RunReport::default();
        r.modeled.bytes = 640;
        let text = r.to_string();
        assert!(text.contains("modeled (cost model × primitive counts):"));
        assert!(text.contains("  bytes: 640"));
        assert!(!text.contains("measured"), "no mesh ran:\n{text}");
        // A mesh run adds its own block; the modeled bytes are not touched.
        r.net
            .record(0, 1, 100, conclave_net::MessageKind::SecretShare);
        let text = r.to_string();
        assert!(text.contains("measured (party transports):"));
        assert!(text.contains("MPC traffic: 100 B over 1 messages"));
        assert!(text.contains("  bytes: 640"));
    }

    #[test]
    fn leakage_and_outputs_render() {
        let mut r = RunReport::default();
        r.leakage.push(Disclosure {
            node: 3,
            at_node: 3,
            to_party: 1,
            columns: vec!["ssn".into()],
            kind: crate::passes::leakage::DisclosureKind::StpKeys,
            justification: "trust annotation names P1 as STP".into(),
        });
        r.outputs.insert(1, Relation::from_ints(&["x"], &[vec![1]]));
        assert!(r.output_for(1).is_some());
        assert!(r.output_for(2).is_none());
        let text = r.to_string();
        assert!(text.contains("leakage events: 1"));
        assert!(text.contains("node #3 -> P1: [stp-keys] columns [ssn]"));
        assert!(text.contains("output for P1: 1 rows"));
    }
}
