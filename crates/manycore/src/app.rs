use crate::benchmark::Benchmark;

/// Identifier of an application within one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u16);

/// Whether an application is on the attacker's side or a legitimate victim
/// candidate (Section IV: Δ is the set of attacker applications, Γ the set
/// of victims).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppRole {
    /// A well-behaved application; its requests are subject to tampering.
    Legitimate,
    /// The attacker's application. The Trojans never modify its requests
    /// (comparator 3 in Fig. 2a), and — being malicious — it may inflate
    /// its own requests via [`Application::greed`].
    Malicious,
}

/// One multi-threaded application: a benchmark plus a thread count and role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Application {
    /// Application id (index in the workload).
    pub id: AppId,
    /// Which benchmark the threads run.
    pub benchmark: Benchmark,
    /// Number of threads (one core each).
    pub threads: usize,
    /// Attacker or legitimate.
    pub role: AppRole,
    /// Request inflation factor for malicious applications: the app asks
    /// for `greed ×` the power it actually wants. 1.0 = honest. Ignored for
    /// legitimate applications.
    pub greed: f64,
}

impl Application {
    /// Whether this application belongs to the attacker set Δ.
    #[must_use]
    pub fn is_malicious(&self) -> bool {
        self.role == AppRole::Malicious
    }
}

/// The set of applications sharing the chip in one experiment.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    apps: Vec<Application>,
}

impl Workload {
    /// An empty workload.
    #[must_use]
    pub fn new() -> Self {
        Workload::default()
    }

    /// Adds an application with default greed (1.0 for legitimate, 1.5 for
    /// malicious — the attacker over-asks by half).
    #[must_use]
    pub fn app(self, benchmark: Benchmark, threads: usize, role: AppRole) -> Self {
        let greed = match role {
            AppRole::Legitimate => 1.0,
            AppRole::Malicious => 1.5,
        };
        self.app_with_greed(benchmark, threads, role, greed)
    }

    /// Adds an application with an explicit greed factor.
    #[must_use]
    pub(crate) fn app_with_greed(
        mut self,
        benchmark: Benchmark,
        threads: usize,
        role: AppRole,
        greed: f64,
    ) -> Self {
        let id = AppId(self.apps.len() as u16);
        self.apps.push(Application {
            id,
            benchmark,
            threads,
            role,
            greed: greed.max(0.0),
        });
        self
    }

    /// The applications in insertion order.
    #[must_use]
    pub fn apps(&self) -> &[Application] {
        &self.apps
    }

    /// Total threads across all applications.
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.apps.iter().map(|a| a.threads).sum()
    }

    /// Applications in the attacker set Δ.
    pub fn attackers(&self) -> impl Iterator<Item = &Application> {
        self.apps.iter().filter(|a| a.is_malicious())
    }

    /// Applications in the victim set Γ.
    pub fn victims(&self) -> impl Iterator<Item = &Application> {
        self.apps.iter().filter(|a| !a.is_malicious())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builder_assigns_ids_in_order() {
        let w = Workload::new()
            .app(Benchmark::Barnes, 4, AppRole::Malicious)
            .app(Benchmark::Raytrace, 8, AppRole::Legitimate);
        assert_eq!(w.apps().len(), 2);
        assert_eq!(w.apps()[0].id, AppId(0));
        assert_eq!(w.apps()[1].id, AppId(1));
        assert_eq!(w.total_threads(), 12);
    }

    #[test]
    fn default_greed_by_role() {
        let w = Workload::new()
            .app(Benchmark::Barnes, 1, AppRole::Malicious)
            .app(Benchmark::Vips, 1, AppRole::Legitimate);
        assert!((w.apps()[0].greed - 1.5).abs() < 1e-12);
        assert!((w.apps()[1].greed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attacker_victim_partition() {
        let w = Workload::new()
            .app(Benchmark::Barnes, 1, AppRole::Malicious)
            .app(Benchmark::Vips, 1, AppRole::Legitimate)
            .app(Benchmark::Dedup, 1, AppRole::Legitimate);
        assert_eq!(w.attackers().count(), 1);
        assert_eq!(w.victims().count(), 2);
    }

    #[test]
    fn negative_greed_clamped() {
        let w = Workload::new().app_with_greed(Benchmark::Vips, 1, AppRole::Malicious, -2.0);
        assert_eq!(w.apps()[0].greed, 0.0);
    }
}
