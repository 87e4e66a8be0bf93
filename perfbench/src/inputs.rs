//! Seeded workload inputs: which programs a workload runs, on which
//! worlds, under which specs, and what each verdict must be.
//!
//! The seed changes content only. Record counts, byte sizes and the
//! number of syscalls each program makes stay the same for every seed,
//! so a claim made on one seed can be checked on another.

use ldx::{Mutation, SinkSpec, SourceSpec};
use ldx_vos::VosConfig;
use ldx_workloads::{Suite, Workload};

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    fn letter(&mut self, alphabet: &[u8]) -> char {
        char::from(alphabet[self.below(alphabet.len())])
    }

    /// A decimal number with exactly as many digits as `like`.
    fn same_width(&mut self, like: usize) -> usize {
        let digits = like.to_string().len() as u32;
        if digits == 1 {
            self.below(10)
        } else {
            let low = 10usize.pow(digits - 1);
            low + self.below(9 * low)
        }
    }
}

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CorpusVerdicts,
    SyscallDense,
    ComputeLoops,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "corpus-verdicts" => Some(Kind::CorpusVerdicts),
            "syscall-dense" => Some(Kind::SyscallDense),
            "compute-loops" => Some(Kind::ComputeLoops),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CorpusVerdicts => "corpus-verdicts",
            Kind::SyscallDense => "syscall-dense",
            Kind::ComputeLoops => "compute-loops",
        }
    }
}

/// Which question a spec asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// The corpus' leaking source, checked against `expect_leak`.
    Leak,
    /// The corpus' benign mutation, checked against "no leak".
    Benign,
    /// The leaking source's matcher with no mutation, checked against
    /// invariant I5 (an unmutated slave reports no causality).
    Identity,
}

impl SpecKind {
    pub fn name(self) -> &'static str {
        match self {
            SpecKind::Leak => "leak",
            SpecKind::Benign => "benign",
            SpecKind::Identity => "identity",
        }
    }
}

/// One verdict a case asks for, with its reference answer. The reference
/// comes from the corpus metadata or from I5, never from the engine.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: SpecKind,
    pub source: SourceSpec,
    pub expect_causal: bool,
}

/// One program on one world, with the verdicts asked of it.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: &'static str,
    /// The program spawns threads, so its verdicts depend on the schedule.
    pub threaded: bool,
    pub source: String,
    pub world: VosConfig,
    pub sinks: SinkSpec,
    pub specs: Vec<Spec>,
}

const SYSCALL_DENSE: [&str; 4] = ["minxform", "minhttpd", "minperl", "minh264"];
const COMPUTE_LOOPS: [&str; 4] = ["minhmm", "minflow", "minzip", "minquantum"];

/// The cases of workload `kind`, with inputs drawn from `seed`.
pub fn cases(kind: Kind, seed: u64) -> Vec<Case> {
    let corpus = ldx_workloads::corpus();
    let scaled_names = match kind {
        Kind::CorpusVerdicts => return corpus.iter().map(corpus_case).collect(),
        Kind::SyscallDense => SYSCALL_DENSE,
        Kind::ComputeLoops => COMPUTE_LOOPS,
    };
    let mut rng = Rng::new(seed);
    scaled_names
        .iter()
        .map(|name| {
            let w = corpus
                .iter()
                .find(|w| w.name == *name)
                .expect("scaled program is in the corpus");
            Case {
                name: w.name,
                threaded: false,
                source: w.source.clone(),
                world: seeded_scaled_world(w, &mut rng),
                sinks: w.sinks.clone(),
                specs: vec![identity(w)],
            }
        })
        .collect()
}

fn identity(w: &Workload) -> Spec {
    Spec {
        kind: SpecKind::Identity,
        source: SourceSpec {
            matcher: w.sources[0].matcher.clone(),
            mutation: Mutation::Identity,
        },
        expect_causal: false,
    }
}

/// A corpus program on its default world: the leak spec, the benign spec
/// where one exists, and the identity spec on single-threaded programs.
/// Threaded programs report causality under identity in some runs (a
/// race, paper Table 4), so I5 is not a fixed answer for them.
fn corpus_case(w: &Workload) -> Case {
    assert_eq!(w.sources.len(), 1, "{}: one leaking source", w.name);
    let mut specs = vec![Spec {
        kind: SpecKind::Leak,
        source: w.sources[0].clone(),
        expect_causal: w.expect_leak,
    }];
    if let Some(benign) = &w.benign_sources {
        assert_eq!(benign.len(), 1, "{}: one benign source", w.name);
        specs.push(Spec {
            kind: SpecKind::Benign,
            source: benign[0].clone(),
            expect_causal: false,
        });
    }
    let threaded = w.suite == Suite::Concurrent;
    if !threaded {
        specs.push(identity(w));
    }
    Case {
        name: w.name,
        threaded,
        source: w.source.clone(),
        world: w.world.clone(),
        sinks: w.sinks.clone(),
        specs,
    }
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// The world of `ldx_bench::scaled_world`, with content drawn from `rng`
/// but the same record counts, sizes and syscall counts.
fn seeded_scaled_world(w: &Workload, rng: &mut Rng) -> VosConfig {
    let mut world = w.world.clone();
    match w.name {
        "minzip" => {
            // 200 runs of lengths 1..=17; adjacent runs differ so the run
            // structure is the same for every seed.
            let mut data = String::new();
            let mut prev = ' ';
            for i in 0..200 {
                let c = loop {
                    let c = rng.letter(LOWER);
                    if c != prev {
                        break c;
                    }
                };
                prev = c;
                data.extend(std::iter::repeat_n(c, i % 17 + 1));
            }
            world.set_file("/data/input.txt", data);
        }
        "minhmm" => {
            let mut seq = || (0..160).map(|_| rng.letter(b"ACGT")).collect::<String>();
            let (a, b) = (seq(), seq());
            world.set_file("/data/seqs.txt", format!("{a}\n{b}\n"));
        }
        "minh264" => {
            let mut frames = String::new();
            for _ in 0..60 {
                frames.extend((0..32).map(|_| rng.letter(LOWER)));
                frames.push('\n');
            }
            world.set_file("/data/frames.txt", frames);
        }
        "minflow" => {
            // The scaled edge list with its vertices relabelled by a
            // seeded permutation that keeps the source vertex 0: the
            // relaxation sequence, and so the work, is the same.
            let mut label: Vec<usize> = (0..24).collect();
            rng.shuffle(&mut label[1..]);
            let mut graph = String::from("24\n");
            for i in 0..90 {
                let (u, v) = (label[i % 24], label[(i * 5 + 3) % 24]);
                graph.push_str(&format!("{u} {v} {}\n", i % 11 + 1));
            }
            world.set_file("/data/graph.txt", graph);
        }
        "minxform" => {
            let mut doc = String::new();
            for i in 0..60 {
                let head: String = (0..4).map(|_| rng.letter(LOWER)).collect();
                let tail: String = (0..4).map(|_| rng.letter(LOWER)).collect();
                doc.push_str(&format!("<t{i}>{head} {i} {tail}</t{i}>"));
            }
            world.set_file("/data/doc.xml", doc);
        }
        "minperl" => {
            // Numbers keep their digit counts: the script must still fit
            // the program's one 4096-byte read.
            let mut script = String::new();
            for i in 0..120 {
                let slot = rng.below(9);
                let (set, add) = (rng.same_width(i), rng.same_width(i * 3));
                script.push_str(&format!(
                    "set v{slot} {set}\nadd v{slot} {add}\nprint v{slot}\n"
                ));
            }
            world.set_file("/scripts/job.pl", script);
        }
        "minquantum" => {
            // The same gate multiset in a seeded order, on seeded qubits.
            let mut gates: Vec<&str> = (0..100).map(|i| ["x", "h", "cz"][i % 3]).collect();
            rng.shuffle(&mut gates);
            let text: String = gates
                .iter()
                .map(|g| format!("{g} {}\n", rng.below(8)))
                .collect();
            world.set_file("/data/gates.txt", text);
        }
        "minhttpd" => {
            let mut requests: Vec<String> = (0..60)
                .map(|i| {
                    let page = if i % 3 == 0 { "admin" } else { "index" };
                    format!("GET /{page}.html")
                })
                .collect();
            rng.shuffle(&mut requests);
            world.listen.clear();
            world.listen.push((8080, requests));
        }
        other => panic!("no scaled world for {other}"),
    }
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_runtime::{run_program, ExecConfig, NativeHooks, RunStats};
    use ldx_vos::Vos;
    use std::sync::Arc;

    fn native_stats(case: &Case) -> RunStats {
        let program = ldx_workloads::corpus()
            .into_iter()
            .find(|w| w.name == case.name)
            .expect("corpus program")
            .program_uninstrumented();
        let hooks = Arc::new(NativeHooks::new(Arc::new(Vos::new(&case.world))));
        run_program(program, hooks, ExecConfig::default())
            .unwrap_or_else(|t| panic!("{} traps: {t:?}", case.name))
            .stats
    }

    #[test]
    fn seeds_change_content_but_not_sizes_or_syscalls() {
        for kind in [Kind::SyscallDense, Kind::ComputeLoops] {
            let base = cases(kind, 0);
            let base_stats: Vec<RunStats> = base.iter().map(native_stats).collect();
            for seed in 1..6 {
                for ((case, first), stats) in cases(kind, seed).iter().zip(&base).zip(&base_stats) {
                    assert_ne!(
                        format!("{:?}", case.world),
                        format!("{:?}", first.world),
                        "{}: seed {seed} changes content",
                        case.name
                    );
                    let got = native_stats(case);
                    assert_eq!(got.syscalls, stats.syscalls, "{} seed {seed}", case.name);
                    let drift = got.steps.abs_diff(stats.steps) as f64 / stats.steps as f64;
                    assert!(
                        drift < 0.02,
                        "{} seed {seed}: steps drift {drift}",
                        case.name
                    );
                }
            }
        }
    }
}
