use htpb_power::{DvfsTable, FrequencyLevel};

/// The eleven multi-threaded benchmarks of Table II — nine from PARSEC and
/// two from SPLASH-2.
///
/// Each benchmark carries a synthetic [`BenchmarkProfile`] replacing the
/// real binaries (see DESIGN.md §4): the profiles span the compute-bound ↔
/// memory-bound axis that the paper's power-budget-sensitivity analysis
/// (Definitions 4–5, Section IV-B) depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    // PARSEC
    Streamcluster,
    Swaptions,
    Ferret,
    Fluidanimate,
    Blackscholes,
    Freqmine,
    Dedup,
    Canneal,
    Vips,
    // SPLASH-2
    Barnes,
    Raytrace,
}

impl Benchmark {
    /// All benchmarks of Table II.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::Streamcluster,
        Benchmark::Swaptions,
        Benchmark::Ferret,
        Benchmark::Fluidanimate,
        Benchmark::Blackscholes,
        Benchmark::Freqmine,
        Benchmark::Dedup,
        Benchmark::Canneal,
        Benchmark::Vips,
        Benchmark::Barnes,
        Benchmark::Raytrace,
    ];

    /// Canonical lowercase name as it appears in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Streamcluster => "streamcluster",
            Benchmark::Swaptions => "swaptions",
            Benchmark::Ferret => "ferret",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Freqmine => "freqmine",
            Benchmark::Dedup => "dedup",
            Benchmark::Canneal => "canneal",
            Benchmark::Vips => "vips",
            Benchmark::Barnes => "barnes",
            Benchmark::Raytrace => "raytrace",
        }
    }

    /// Parses a benchmark from its canonical name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// The benchmark's synthetic workload profile.
    #[must_use]
    pub fn profile(self) -> BenchmarkProfile {
        // cpi_compute: core cycles per instruction (frequency-scaled part).
        // mem_ns_per_instr: average memory time per instruction in ns
        //   (frequency-independent — DRAM and shared-L2 latency do not scale
        //   with the core's DVFS level).
        // Miss/message rates per 1000 retired instructions drive NoC load.
        match self {
            Benchmark::Blackscholes => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 0.80,
                mem_ns_per_instr: 0.020,
                l2_accesses_per_kinstr: 6.0,
                l2_miss_rate: 0.10,
            },
            Benchmark::Swaptions => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 0.70,
                mem_ns_per_instr: 0.030,
                l2_accesses_per_kinstr: 5.0,
                l2_miss_rate: 0.08,
            },
            Benchmark::Raytrace => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 0.90,
                mem_ns_per_instr: 0.045,
                l2_accesses_per_kinstr: 9.0,
                l2_miss_rate: 0.12,
            },
            Benchmark::Freqmine => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 0.85,
                mem_ns_per_instr: 0.080,
                l2_accesses_per_kinstr: 12.0,
                l2_miss_rate: 0.18,
            },
            Benchmark::Fluidanimate => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 1.00,
                mem_ns_per_instr: 0.100,
                l2_accesses_per_kinstr: 14.0,
                l2_miss_rate: 0.20,
            },
            Benchmark::Barnes => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 1.00,
                mem_ns_per_instr: 0.120,
                l2_accesses_per_kinstr: 16.0,
                l2_miss_rate: 0.22,
            },
            Benchmark::Vips => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 0.95,
                mem_ns_per_instr: 0.130,
                l2_accesses_per_kinstr: 15.0,
                l2_miss_rate: 0.25,
            },
            Benchmark::Ferret => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 0.90,
                mem_ns_per_instr: 0.150,
                l2_accesses_per_kinstr: 18.0,
                l2_miss_rate: 0.28,
            },
            Benchmark::Dedup => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 1.00,
                mem_ns_per_instr: 0.180,
                l2_accesses_per_kinstr: 20.0,
                l2_miss_rate: 0.30,
            },
            Benchmark::Streamcluster => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 1.10,
                mem_ns_per_instr: 0.250,
                l2_accesses_per_kinstr: 26.0,
                l2_miss_rate: 0.35,
            },
            Benchmark::Canneal => BenchmarkProfile {
                benchmark: self,
                cpi_compute: 1.30,
                mem_ns_per_instr: 0.450,
                l2_accesses_per_kinstr: 34.0,
                l2_miss_rate: 0.45,
            },
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Synthetic workload characterisation of one benchmark (the substitution
/// for running the real binary; DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Which benchmark this profiles.
    pub benchmark: Benchmark,
    /// Core cycles per instruction for the compute-bound portion.
    pub cpi_compute: f64,
    /// Memory time per instruction in nanoseconds (frequency-independent).
    pub mem_ns_per_instr: f64,
    /// Shared-L2 accesses per 1000 retired instructions (drives NoC meta
    /// traffic).
    pub l2_accesses_per_kinstr: f64,
    /// Fraction of L2 accesses missing to memory (drives NoC data traffic
    /// to the memory controllers).
    pub l2_miss_rate: f64,
}

impl BenchmarkProfile {
    /// Instructions retired per core cycle at core frequency `f_ghz`
    /// (`IPC(j, z, τ)` in Definition 4): the bottleneck combination of the
    /// frequency-scaled compute time and the fixed memory time.
    ///
    /// `IPC(f) = 1 / (cpi_compute + f · t_mem)` — memory-bound applications
    /// lose IPC as frequency rises (more core cycles spent waiting), which
    /// is what makes their *throughput* saturate.
    #[must_use]
    pub fn ipc(&self, f_ghz: f64) -> f64 {
        1.0 / (self.cpi_compute + f_ghz * self.mem_ns_per_instr)
    }

    /// Instructions retired per nanosecond at `f_ghz` — the paper's
    /// per-core performance term `IPC(j, k, f_j) · f_j` (Definition 1).
    #[must_use]
    pub fn throughput(&self, f_ghz: f64) -> f64 {
        self.ipc(f_ghz) * f_ghz
    }

    /// The throughput ceiling as frequency grows without bound
    /// (`1 / t_mem`); infinite for a perfectly compute-bound profile.
    #[must_use]
    pub fn throughput_ceiling(&self) -> f64 {
        if self.mem_ns_per_instr <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.mem_ns_per_instr
        }
    }

    /// The lowest DVFS level achieving at least `efficiency` (e.g. 0.95) of
    /// the benchmark's throughput at the table's top level. Compute-bound
    /// applications want the top level; heavily memory-bound ones are
    /// nearly as fast several levels down — this is what an honest,
    /// well-behaved runtime would request power for.
    #[must_use]
    pub(crate) fn desired_level(&self, table: &DvfsTable, efficiency: f64) -> FrequencyLevel {
        let top = self.throughput(table.freq_ghz(table.max_level()));
        for level in table.iter_levels() {
            if self.throughput(table.freq_ghz(level)) >= efficiency * top {
                return level;
            }
        }
        table.max_level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("doom"), None);
    }

    #[test]
    fn throughput_increases_with_frequency() {
        for b in Benchmark::ALL {
            let p = b.profile();
            let mut last = 0.0;
            for f in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
                let t = p.throughput(f);
                assert!(t > last, "{b}: throughput not increasing at {f} GHz");
                last = t;
            }
            assert!(last < p.throughput_ceiling());
        }
    }

    #[test]
    fn ipc_decreases_with_frequency_for_memory_bound() {
        let p = Benchmark::Canneal.profile();
        assert!(p.ipc(3.0) < p.ipc(0.5));
    }

    #[test]
    fn compute_bound_gains_more_from_frequency() {
        // blackscholes (compute-bound) speeds up nearly 6x from 0.5->3.0 GHz;
        // canneal (memory-bound) gains much less.
        let bs = Benchmark::Blackscholes.profile();
        let cn = Benchmark::Canneal.profile();
        let bs_gain = bs.throughput(3.0) / bs.throughput(0.5);
        let cn_gain = cn.throughput(3.0) / cn.throughput(0.5);
        assert!(bs_gain > 5.0, "blackscholes gain {bs_gain}");
        assert!(cn_gain < 3.5, "canneal gain {cn_gain}");
        assert!(bs_gain > cn_gain * 1.5);
    }

    #[test]
    fn desired_level_tracks_boundedness() {
        let table = DvfsTable::default_six_level();
        let bs = Benchmark::Blackscholes
            .profile()
            .desired_level(&table, 0.90);
        let cn = Benchmark::Canneal.profile().desired_level(&table, 0.90);
        assert!(
            bs > cn,
            "compute-bound wants higher level: {bs:?} vs {cn:?}"
        );
        assert_eq!(
            Benchmark::Blackscholes.profile().desired_level(&table, 1.0),
            table.max_level()
        );
    }

    #[test]
    fn profiles_are_physically_plausible() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert!(p.cpi_compute > 0.0 && p.cpi_compute < 5.0);
            assert!(p.mem_ns_per_instr >= 0.0 && p.mem_ns_per_instr < 1.0);
            assert!(p.l2_miss_rate >= 0.0 && p.l2_miss_rate <= 1.0);
            assert!(p.l2_accesses_per_kinstr >= 0.0);
            // IPC at any level stays in a sane range.
            for f in [0.5, 3.0] {
                let ipc = p.ipc(f);
                assert!(ipc > 0.1 && ipc < 2.0, "{b}: IPC {ipc} at {f} GHz");
            }
        }
    }
}
