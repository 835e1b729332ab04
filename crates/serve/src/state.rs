//! The daemon's in-memory state machine: tenants, quotas, admission
//! control, and the fair wave picker.
//!
//! Everything here is pure bookkeeping — no I/O, no threads — so the
//! admission and fairness rules are unit-testable without a socket or a
//! pool. The daemon holds one [`ServiceState`] behind a mutex; the
//! dispatcher and the connection threads are thin shims over the methods
//! here.
//!
//! # Admission control
//!
//! A `submit` is admitted iff **both** gates pass, checked in this order:
//!
//! 1. **Queue depth** — the count of non-terminal campaigns (queued,
//!    running, or cancelling with cells still in flight) is below
//!    `queue_depth`. Otherwise: `queue-full`.
//! 2. **Tenant quota** — each tenant holds an *evaluation-budget* quota.
//!    A campaign's cost is the sum of its jobs' budgets (the same unit the
//!    search's `EvaluatorBuilder` meters), charged **at admission** and
//!    never refunded — not on cancel, not on failure. The rule is
//!    deliberately blunt: a tenant that submits work pays for the right to
//!    run it, so quota arithmetic stays exact across crashes and restarts
//!    (the journal replays admissions, not completions). Otherwise:
//!    `quota-exceeded`.
//!
//! Resubmitting the same `(tenant, key)` idempotency token returns the
//! existing campaign id without charging again — that is what makes
//! client-side retry after a daemon kill safe.
//!
//! # Fairness
//!
//! The dispatcher drains the queue in *waves* of at most `workers` cells.
//! Cells are picked round-robin across tenants: one cell per tenant per
//! turn, cycling, starting after the tenant served first in the previous
//! wave. Within a tenant, the oldest admitted campaign goes first; within
//! a campaign, cells run in job order. A tenant with one enormous campaign
//! therefore cannot starve a tenant with a small one — the small tenant
//! gets one of every `active_tenants` slots.

use crate::protocol::{RejectKind, SubmitOptions};
use mixp_harness::{Job, JobError, JobResult};
use std::collections::BTreeMap;

/// Static daemon configuration, fixed at startup.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pool parallelism: cells dispatched concurrently per wave.
    pub workers: usize,
    /// Max non-terminal campaigns held at once (admission gate 1).
    pub queue_depth: usize,
    /// Evaluation-budget quota for tenants without an explicit override.
    pub default_quota: usize,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, usize)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            default_quota: 1 << 20,
            quotas: Vec::new(),
        }
    }
}

/// One tenant's quota ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    /// Evaluation-budget units this tenant may admit in total.
    pub quota: usize,
    /// Units charged so far (monotone — never refunded).
    pub used: usize,
}

/// Lifecycle of one cell (one job) of a campaign.
#[derive(Debug, Clone)]
pub enum CellSlot {
    /// Not yet dispatched.
    Pending,
    /// Handed to the pool in the current wave.
    InFlight,
    /// Finished (possibly with a typed error), after `attempts` tries.
    Done {
        /// Attempts consumed (0 when restored from the journal).
        attempts: u32,
        /// The outcome.
        outcome: Result<JobResult, JobError>,
    },
    /// Cancelled before dispatch — never ran, never will.
    Skipped,
}

/// Terminal state of a campaign, if it has reached one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Every cell ran to an outcome.
    Done,
    /// Cancelled; undispatched cells were skipped.
    Cancelled,
}

impl Terminal {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            Terminal::Done => "done",
            Terminal::Cancelled => "cancelled",
        }
    }
}

/// One admitted campaign.
#[derive(Debug)]
pub struct Campaign {
    /// Service-assigned id, dense from 0 in admission order.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Client idempotency token, unique per tenant.
    pub key: Option<String>,
    /// The cells.
    pub jobs: Vec<Job>,
    /// Execution options from the submit.
    pub options: SubmitOptions,
    /// Quota units charged at admission (sum of job budgets).
    pub cost: usize,
    /// Per-cell lifecycle, indexed like `jobs`.
    pub cells: Vec<CellSlot>,
    /// Cancel requested; pending cells are already `Skipped`.
    pub cancelled: bool,
}

impl Campaign {
    /// Terminal state, or `None` while any cell is pending or in flight.
    pub fn terminal(&self) -> Option<Terminal> {
        for cell in &self.cells {
            if matches!(cell, CellSlot::Pending | CellSlot::InFlight) {
                return None;
            }
        }
        if self.cancelled {
            Some(Terminal::Cancelled)
        } else {
            Some(Terminal::Done)
        }
    }

    /// Human-facing state tag (terminal tag, else queued/running).
    pub fn state_tag(&self) -> &'static str {
        match self.terminal() {
            Some(t) => t.tag(),
            None => {
                if self
                    .cells
                    .iter()
                    .any(|c| matches!(c, CellSlot::InFlight | CellSlot::Done { .. }))
                {
                    "running"
                } else {
                    "queued"
                }
            }
        }
    }
}

/// Outcome of an admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// A new campaign was admitted and charged.
    Admitted {
        /// Its id.
        id: u64,
    },
    /// The `(tenant, key)` token matched an existing campaign; nothing
    /// was charged.
    Duplicate {
        /// The existing campaign's id.
        id: u64,
    },
    /// Typed rejection; nothing was charged.
    Rejected {
        /// Which gate refused.
        kind: RejectKind,
        /// Human-readable reason.
        message: String,
    },
}

/// One cell picked for a dispatch wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveCell {
    /// Campaign the cell belongs to.
    pub campaign: u64,
    /// Cell index within the campaign.
    pub index: usize,
}

/// The daemon's entire mutable state.
#[derive(Debug)]
pub struct ServiceState {
    /// Static configuration.
    pub config: ServeConfig,
    campaigns: BTreeMap<u64, Campaign>,
    tenants: BTreeMap<String, Tenant>,
    next_id: u64,
    /// Tenant served first in the last wave; the next wave starts after it.
    rr_last: Option<String>,
    draining: bool,
}

impl ServiceState {
    /// Fresh state for `config`. Tenants with quota overrides exist from
    /// the start; others materialise on first submit.
    pub fn new(config: ServeConfig) -> Self {
        let mut tenants = BTreeMap::new();
        for (name, quota) in &config.quotas {
            tenants.insert(
                name.clone(),
                Tenant {
                    quota: *quota,
                    used: 0,
                },
            );
        }
        ServiceState {
            config,
            campaigns: BTreeMap::new(),
            tenants,
            next_id: 0,
            rr_last: None,
            draining: false,
        }
    }

    /// Campaigns not yet terminal.
    pub fn active_count(&self) -> usize {
        self.campaigns
            .values()
            .filter(|c| c.terminal().is_none())
            .count()
    }

    /// Starts refusing new admissions (graceful shutdown).
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Looks up a campaign.
    pub fn campaign(&self, id: u64) -> Option<&Campaign> {
        self.campaigns.get(&id)
    }

    /// All campaigns in admission order.
    pub fn campaigns(&self) -> impl Iterator<Item = &Campaign> {
        self.campaigns.values()
    }

    /// A tenant's ledger, if it has ever submitted (or has an override).
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.get(name)
    }

    /// All tenant ledgers, by name.
    pub fn tenants(&self) -> impl Iterator<Item = (&String, &Tenant)> {
        self.tenants.iter()
    }

    /// The admission decision for one submit — both gates, the idempotency
    /// check, and (on success) the quota charge, atomically.
    pub fn admit(
        &mut self,
        tenant: &str,
        key: Option<String>,
        jobs: Vec<Job>,
        options: SubmitOptions,
    ) -> Admission {
        if self.draining {
            return Admission::Rejected {
                kind: RejectKind::ShuttingDown,
                message: "daemon is draining; submit refused".to_string(),
            };
        }
        if let Some(token) = &key {
            if let Some(existing) = self
                .campaigns
                .values()
                .find(|c| c.tenant == tenant && c.key.as_deref() == Some(token))
            {
                return Admission::Duplicate { id: existing.id };
            }
        }
        if self.active_count() >= self.config.queue_depth {
            return Admission::Rejected {
                kind: RejectKind::QueueFull,
                message: format!(
                    "queue holds {} non-terminal campaigns (depth {})",
                    self.active_count(),
                    self.config.queue_depth
                ),
            };
        }
        let cost: usize = jobs.iter().map(|j| j.budget).sum();
        let default_quota = self.config.default_quota;
        let ledger = self.tenants.entry(tenant.to_string()).or_insert(Tenant {
            quota: default_quota,
            used: 0,
        });
        if ledger.used.saturating_add(cost) > ledger.quota {
            return Admission::Rejected {
                kind: RejectKind::QuotaExceeded,
                message: format!(
                    "tenant {tenant} has {} of {} budget units left; campaign costs {cost}",
                    ledger.quota - ledger.used,
                    ledger.quota
                ),
            };
        }
        ledger.used += cost;
        let id = self.next_id;
        self.next_id += 1;
        let cells = vec![CellSlot::Pending; jobs.len()];
        self.campaigns.insert(
            id,
            Campaign {
                id,
                tenant: tenant.to_string(),
                key,
                jobs,
                options,
                cost,
                cells,
                cancelled: false,
            },
        );
        Admission::Admitted { id }
    }

    /// Re-seats a campaign restored from the queue journal, bypassing the
    /// admission gates (it was admitted before the restart; refusing it now
    /// would un-charge work the tenant already paid for). Keeps `next_id`
    /// above every restored id.
    pub fn restore(&mut self, campaign: Campaign) {
        let default_quota = self.config.default_quota;
        let ledger = self
            .tenants
            .entry(campaign.tenant.clone())
            .or_insert(Tenant {
                quota: default_quota,
                used: 0,
            });
        ledger.used = ledger.used.saturating_add(campaign.cost);
        self.next_id = self.next_id.max(campaign.id + 1);
        self.campaigns.insert(campaign.id, campaign);
    }

    /// Requests cancellation: pending cells are skipped immediately and
    /// will never dispatch; in-flight cells finish and are recorded. The
    /// campaign turns terminal once nothing is in flight. Returns `false`
    /// for an unknown id, `true` otherwise (cancelling a terminal campaign
    /// is a harmless no-op, reported as success for idempotency).
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return false;
        };
        if campaign.terminal().is_some() {
            return true;
        }
        campaign.cancelled = true;
        for cell in &mut campaign.cells {
            if matches!(cell, CellSlot::Pending) {
                *cell = CellSlot::Skipped;
            }
        }
        true
    }

    /// Picks up to `max` cells for the next wave, round-robin across
    /// tenants, and marks them in flight. Returns an empty wave when
    /// nothing is runnable.
    pub fn pick_wave(&mut self, max: usize) -> Vec<WaveCell> {
        // Tenants with at least one pending cell, in name order.
        let mut runnable: Vec<String> = {
            let mut names: Vec<&String> = self
                .campaigns
                .values()
                .filter(|c| c.cells.iter().any(|s| matches!(s, CellSlot::Pending)))
                .map(|c| &c.tenant)
                .collect();
            names.sort();
            names.dedup();
            names.into_iter().cloned().collect()
        };
        if runnable.is_empty() || max == 0 {
            return Vec::new();
        }
        // Start the cycle after the tenant that led the previous wave.
        if let Some(last) = &self.rr_last {
            let start = match runnable.binary_search(last) {
                Ok(i) => (i + 1) % runnable.len(),
                Err(i) => i % runnable.len(),
            };
            runnable.rotate_left(start);
        }
        self.rr_last = Some(runnable[0].clone());
        let mut wave = Vec::with_capacity(max);
        let mut turn = 0usize;
        while wave.len() < max && !runnable.is_empty() {
            let tenant = &runnable[turn % runnable.len()];
            let picked = self.pick_one(tenant);
            match picked {
                Some(cell) => {
                    wave.push(cell);
                    turn += 1;
                }
                None => {
                    let exhausted = turn % runnable.len();
                    runnable.remove(exhausted);
                    if !runnable.is_empty() {
                        turn = exhausted % runnable.len();
                        continue;
                    }
                }
            }
            if turn >= runnable.len().max(1) {
                turn %= runnable.len().max(1);
            }
        }
        wave
    }

    /// The oldest pending cell of `tenant`'s oldest campaign, marked
    /// in flight.
    fn pick_one(&mut self, tenant: &str) -> Option<WaveCell> {
        for campaign in self.campaigns.values_mut() {
            if campaign.tenant != tenant {
                continue;
            }
            for (index, cell) in campaign.cells.iter_mut().enumerate() {
                if matches!(cell, CellSlot::Pending) {
                    *cell = CellSlot::InFlight;
                    return Some(WaveCell {
                        campaign: campaign.id,
                        index,
                    });
                }
            }
        }
        None
    }

    /// Records a finished cell. Returns the campaign's terminal state if
    /// this record completed it.
    pub fn record(
        &mut self,
        id: u64,
        index: usize,
        attempts: u32,
        outcome: Result<JobResult, JobError>,
    ) -> Option<Terminal> {
        let campaign = self.campaigns.get_mut(&id)?;
        if let Some(cell) = campaign.cells.get_mut(index) {
            *cell = CellSlot::Done { attempts, outcome };
        }
        campaign.terminal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_harness::Scale;

    fn job(budget: usize) -> Job {
        let mut j = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        j.budget = budget;
        j
    }

    fn admit(state: &mut ServiceState, tenant: &str, budgets: &[usize]) -> u64 {
        match state.admit(
            tenant,
            None,
            budgets.iter().map(|b| job(*b)).collect(),
            SubmitOptions::default(),
        ) {
            Admission::Admitted { id } => id,
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn quota_is_charged_at_admission_and_never_refunded() {
        let mut state = ServiceState::new(ServeConfig {
            default_quota: 100,
            ..ServeConfig::default()
        });
        let id = admit(&mut state, "t0", &[40, 40]);
        assert_eq!(state.tenant("t0").unwrap().used, 80);
        // Cancel does not refund.
        assert!(state.cancel(id));
        assert_eq!(state.tenant("t0").unwrap().used, 80);
        // A further 40-unit campaign is over quota.
        match state.admit("t0", None, vec![job(40)], SubmitOptions::default()) {
            Admission::Rejected { kind, .. } => assert_eq!(kind, RejectKind::QuotaExceeded),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // 20 units still fit exactly.
        admit(&mut state, "t0", &[20]);
        assert_eq!(state.tenant("t0").unwrap().used, 100);
    }

    #[test]
    fn quota_overrides_beat_the_default() {
        let mut state = ServiceState::new(ServeConfig {
            default_quota: 10,
            quotas: vec![("vip".to_string(), 1000)],
            ..ServeConfig::default()
        });
        admit(&mut state, "vip", &[500]);
        match state.admit("pleb", None, vec![job(500)], SubmitOptions::default()) {
            Admission::Rejected { kind, .. } => assert_eq!(kind, RejectKind::QuotaExceeded),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queue_depth_bounds_non_terminal_campaigns() {
        let mut state = ServiceState::new(ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        });
        let a = admit(&mut state, "t0", &[1]);
        let _b = admit(&mut state, "t1", &[1]);
        match state.admit("t2", None, vec![job(1)], SubmitOptions::default()) {
            Admission::Rejected { kind, .. } => assert_eq!(kind, RejectKind::QueueFull),
            other => panic!("{other:?}"),
        }
        // Cancelling one (it has no in-flight cells) frees a slot.
        assert!(state.cancel(a));
        assert_eq!(
            state.campaign(a).unwrap().terminal(),
            Some(Terminal::Cancelled)
        );
        admit(&mut state, "t2", &[1]);
    }

    #[test]
    fn idempotency_key_dedupes_without_double_charge() {
        let mut state = ServiceState::new(ServeConfig::default());
        let first = state.admit(
            "t0",
            Some("k1".to_string()),
            vec![job(7)],
            SubmitOptions::default(),
        );
        let Admission::Admitted { id } = first else {
            panic!("{first:?}")
        };
        let used = state.tenant("t0").unwrap().used;
        let second = state.admit(
            "t0",
            Some("k1".to_string()),
            vec![job(7)],
            SubmitOptions::default(),
        );
        match second {
            Admission::Duplicate { id: dup } => assert_eq!(dup, id),
            other => panic!("{other:?}"),
        }
        assert_eq!(state.tenant("t0").unwrap().used, used, "no double charge");
        // Same key under another tenant is a distinct campaign.
        match state.admit(
            "t1",
            Some("k1".to_string()),
            vec![job(7)],
            SubmitOptions::default(),
        ) {
            Admission::Admitted { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn draining_refuses_all_submits() {
        let mut state = ServiceState::new(ServeConfig::default());
        state.drain();
        match state.admit("t0", None, vec![job(1)], SubmitOptions::default()) {
            Admission::Rejected { kind, .. } => assert_eq!(kind, RejectKind::ShuttingDown),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn waves_round_robin_across_tenants() {
        let mut state = ServiceState::new(ServeConfig::default());
        // t0 floods 8 cells; t1 and t2 have 2 each.
        let big = admit(&mut state, "t0", &[1; 8]);
        let b1 = admit(&mut state, "t1", &[1; 2]);
        let b2 = admit(&mut state, "t2", &[1; 2]);
        let wave = state.pick_wave(6);
        assert_eq!(wave.len(), 6);
        let per = |id: u64| wave.iter().filter(|c| c.campaign == id).count();
        assert_eq!(per(big), 2, "flooding tenant gets 1 of every 3 slots");
        assert_eq!(per(b1), 2);
        assert_eq!(per(b2), 2);
        // Next wave: only t0 has pending cells left.
        let wave = state.pick_wave(6);
        assert_eq!(wave.len(), 6);
        assert!(wave.iter().all(|c| c.campaign == big));
        assert!(state.pick_wave(6).is_empty(), "everything is in flight");
    }

    #[test]
    fn wave_start_rotates_between_waves() {
        let mut state = ServiceState::new(ServeConfig::default());
        admit(&mut state, "a", &[1; 4]);
        admit(&mut state, "b", &[1; 4]);
        let w1 = state.pick_wave(1);
        let w2 = state.pick_wave(1);
        assert_ne!(
            w1[0].campaign, w2[0].campaign,
            "a 1-slot wave must not always serve the same tenant"
        );
    }

    #[test]
    fn within_a_tenant_oldest_campaign_first_in_job_order() {
        let mut state = ServiceState::new(ServeConfig::default());
        let old = admit(&mut state, "t0", &[1; 2]);
        let new = admit(&mut state, "t0", &[1; 2]);
        let wave = state.pick_wave(3);
        assert_eq!(
            wave,
            vec![
                WaveCell {
                    campaign: old,
                    index: 0
                },
                WaveCell {
                    campaign: old,
                    index: 1
                },
                WaveCell {
                    campaign: new,
                    index: 0
                },
            ]
        );
    }

    #[test]
    fn cancel_skips_pending_but_not_in_flight() {
        let mut state = ServiceState::new(ServeConfig::default());
        let id = admit(&mut state, "t0", &[1; 3]);
        let wave = state.pick_wave(1);
        assert_eq!(wave.len(), 1);
        assert!(state.cancel(id));
        // Not yet terminal: one cell is still in flight.
        assert_eq!(state.campaign(id).unwrap().terminal(), None);
        assert_eq!(state.campaign(id).unwrap().state_tag(), "running");
        // No further cells dispatch.
        assert!(state.pick_wave(4).is_empty());
        // The in-flight cell completing makes it terminal-cancelled.
        let terminal = state.record(id, wave[0].index, 1, Err(JobError::NonFiniteQuality));
        assert_eq!(terminal, Some(Terminal::Cancelled));
    }

    #[test]
    fn completion_makes_a_campaign_done() {
        let mut state = ServiceState::new(ServeConfig::default());
        let id = admit(&mut state, "t0", &[1; 2]);
        let wave = state.pick_wave(4);
        assert_eq!(wave.len(), 2);
        assert_eq!(
            state.record(id, 0, 1, Err(JobError::NonFiniteQuality)),
            None
        );
        assert_eq!(
            state.record(id, 1, 1, Err(JobError::NonFiniteQuality)),
            Some(Terminal::Done)
        );
        assert_eq!(state.campaign(id).unwrap().state_tag(), "done");
        assert_eq!(state.active_count(), 0);
    }

    #[test]
    fn unknown_campaign_cancel_is_reported() {
        let mut state = ServiceState::new(ServeConfig::default());
        assert!(!state.cancel(99));
    }

    #[test]
    fn restore_recharges_quota_and_advances_ids() {
        let mut state = ServiceState::new(ServeConfig {
            default_quota: 100,
            ..ServeConfig::default()
        });
        let jobs = vec![job(30)];
        state.restore(Campaign {
            id: 5,
            tenant: "t0".to_string(),
            key: Some("k".to_string()),
            cells: vec![CellSlot::Pending; jobs.len()],
            cost: jobs.iter().map(|j| j.budget).sum(),
            jobs,
            options: SubmitOptions::default(),
            cancelled: false,
        });
        assert_eq!(state.tenant("t0").unwrap().used, 30);
        // The idempotency token still dedupes after restore.
        match state.admit(
            "t0",
            Some("k".to_string()),
            vec![job(30)],
            SubmitOptions::default(),
        ) {
            Admission::Duplicate { id } => assert_eq!(id, 5),
            other => panic!("{other:?}"),
        }
        // Fresh ids start above the restored one.
        let next = admit(&mut state, "t0", &[10]);
        assert!(next > 5);
    }
}
