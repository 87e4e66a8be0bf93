//! Source and sink specs resolved against a concrete program.
//!
//! This is the one place that turns a [`SourceSpec`] or [`SinkSpec`] into
//! a runtime decision. The dual-execution engine, the taint trackers and
//! the TightLip and EI-DualEx baselines all ask these types, so every tool
//! judges the same source and sink pairs.

use crate::mutation::Mutation;
use crate::spec::{SinkSpec, SourceMatcher, SourceSpec};
use ldx_ir::{FuncId, IrProgram, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::Value;
use std::collections::HashSet;

/// A call's descriptor: its first argument, when that is an integer.
pub fn fd_arg(args: &[Value]) -> Option<i64> {
    match args.first() {
        Some(Value::Int(fd)) => Some(*fd),
        _ => None,
    }
}

/// What a descriptor refers to, as source matching sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceView<'a> {
    /// A file, as normalised path segments ([`ldx_vos::normalize_path`]).
    File(&'a [String]),
    /// An outbound connection to this peer host.
    Peer(&'a str),
    /// A client accepted on this port.
    Client(i64),
}

/// The owned form of [`ResourceView`], for descriptor tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resource {
    /// See [`ResourceView::File`].
    File(Vec<String>),
    /// See [`ResourceView::Peer`].
    Peer(String),
    /// See [`ResourceView::Client`].
    Client(i64),
}

impl Resource {
    /// Borrows the resource for source matching.
    pub fn view(&self) -> ResourceView<'_> {
        match self {
            Resource::File(segs) => ResourceView::File(segs),
            Resource::Peer(host) => ResourceView::Peer(host),
            Resource::Client(port) => ResourceView::Client(*port),
        }
    }
}

/// A source matcher with names resolved to ids.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Matcher {
    FileRead(Vec<String>),
    NetRecv(String),
    ClientRecv(i64),
    SyscallKind(Syscall),
    Site(FuncId, SiteId),
}

impl Matcher {
    fn hit(
        &self,
        func: FuncId,
        site: SiteId,
        sys: Syscall,
        resource: Option<ResourceView>,
    ) -> bool {
        let recv = matches!(sys, Syscall::Recv | Syscall::Read);
        match self {
            Matcher::FileRead(segs) => {
                sys == Syscall::Read && resource == Some(ResourceView::File(segs))
            }
            Matcher::NetRecv(host) => recv && resource == Some(ResourceView::Peer(host)),
            Matcher::ClientRecv(port) => recv && resource == Some(ResourceView::Client(*port)),
            Matcher::SyscallKind(kind) => sys == *kind,
            Matcher::Site(f, s) => func == *f && site == *s,
        }
    }
}

/// The sources of a spec resolved against a program.
#[derive(Debug, Clone, Default)]
pub struct ResolvedSources {
    /// `(index in the spec, matcher, mutation)`, in spec order.
    sources: Vec<(usize, Matcher, Mutation)>,
}

impl ResolvedSources {
    /// Resolves `spec`. A `Site` source naming a function the program
    /// lacks matches nothing and is dropped; the others keep their index.
    pub fn resolve(spec: &[SourceSpec], program: &IrProgram) -> Self {
        let sources = spec
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let matcher = match &s.matcher {
                    SourceMatcher::FileRead(path) => {
                        Matcher::FileRead(ldx_vos::normalize_path(path))
                    }
                    SourceMatcher::NetRecv(host) => Matcher::NetRecv(host.clone()),
                    SourceMatcher::ClientRecv(port) => Matcher::ClientRecv(*port),
                    SourceMatcher::SyscallKind(sys) => Matcher::SyscallKind(*sys),
                    SourceMatcher::Site(func, site) => {
                        Matcher::Site(program.func_id(func)?, SiteId(*site))
                    }
                };
                Some((i, matcher, s.mutation.clone()))
            })
            .collect();
        ResolvedSources { sources }
    }

    /// The sources a `(func, site, sys)` call matches, as `(index in the
    /// spec, mutation)` in spec order. `resource` is what the call's
    /// descriptor ([`fd_arg`]) refers to, if anything.
    pub fn matching<'a>(
        &'a self,
        func: FuncId,
        site: SiteId,
        sys: Syscall,
        resource: Option<ResourceView<'a>>,
    ) -> impl Iterator<Item = (usize, &'a Mutation)> + 'a {
        self.sources
            .iter()
            .filter(move |(_, m, _)| m.hit(func, site, sys, resource))
            .map(|(i, _, mutation)| (*i, mutation))
    }
}

/// The sinks of a spec resolved against a program.
#[derive(Debug, Clone)]
pub struct ResolvedSinks {
    spec: SinkSpec,
    sites: HashSet<(FuncId, SiteId)>,
}

impl ResolvedSinks {
    /// Resolves `spec`; `Sites` entries naming an unknown function are
    /// dropped.
    pub fn resolve(spec: &SinkSpec, program: &IrProgram) -> Self {
        let sites = match spec {
            SinkSpec::Sites(list) => list
                .iter()
                .filter_map(|(func, site)| program.func_id(func).map(|fid| (fid, SiteId(*site))))
                .collect(),
            _ => HashSet::new(),
        };
        ResolvedSinks {
            spec: spec.clone(),
            sites,
        }
    }

    /// Whether a syscall instance is a sink. `fd` is the call's descriptor
    /// ([`fd_arg`]); a call without one is never a `FileOut` sink.
    pub fn is_sink(&self, func: FuncId, site: SiteId, sys: Syscall, fd: Option<i64>) -> bool {
        match &self.spec {
            SinkSpec::Outputs => sys.is_output(),
            SinkSpec::NetworkOut => sys == Syscall::Send,
            SinkSpec::FileOut => sys == Syscall::Write && fd.is_some_and(|fd| fd >= 3),
            SinkSpec::Sites(_) => self.sites.contains(&(func, site)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_ir::lower;
    use ldx_lang::compile;

    fn program() -> IrProgram {
        lower(
            &compile(
                r#"
                fn helper(x) { write(1, str(x)); return 0; }
                fn main() { helper(1); send(connect("h"), "x"); }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn resolves_site_sinks() {
        let p = program();
        let spec = SinkSpec::Sites(vec![("helper".into(), 0), ("nope".into(), 0)]);
        let sinks = ResolvedSinks::resolve(&spec, &p);
        let helper = p.func_id("helper").unwrap();
        assert!(sinks.is_sink(helper, SiteId(0), Syscall::Write, None));
        assert!(!sinks.is_sink(p.main(), SiteId(0), Syscall::Write, None));
    }

    #[test]
    fn file_out_excludes_stdio() {
        let p = program();
        let sinks = ResolvedSinks::resolve(&SinkSpec::FileOut, &p);
        let main = p.main();
        assert!(!sinks.is_sink(main, SiteId(0), Syscall::Write, Some(1)));
        assert!(sinks.is_sink(main, SiteId(0), Syscall::Write, Some(4)));
        assert!(!sinks.is_sink(main, SiteId(0), Syscall::Send, Some(4)));
        assert!(!sinks.is_sink(main, SiteId(0), Syscall::Write, None));
        let outputs = ResolvedSinks::resolve(&SinkSpec::Outputs, &p);
        assert!(outputs.is_sink(main, SiteId(0), Syscall::Write, Some(1)));
        assert!(outputs.is_sink(main, SiteId(0), Syscall::Send, None));
        assert!(!outputs.is_sink(main, SiteId(0), Syscall::Read, Some(4)));
        let net = ResolvedSinks::resolve(&SinkSpec::NetworkOut, &p);
        assert!(net.is_sink(main, SiteId(0), Syscall::Send, None));
        assert!(!net.is_sink(main, SiteId(0), Syscall::Write, Some(4)));
    }

    #[test]
    fn unknown_function_site_sources_are_dropped() {
        let p = program();
        let sources = ResolvedSources::resolve(
            &[
                SourceSpec {
                    matcher: SourceMatcher::Site("nope".into(), 0),
                    mutation: Mutation::OffByOne,
                },
                SourceSpec {
                    matcher: SourceMatcher::Site("main".into(), 0),
                    mutation: Mutation::Zero,
                },
            ],
            &p,
        );
        let hits: Vec<_> = sources
            .matching(p.main(), SiteId(0), Syscall::Write, None)
            .collect();
        assert_eq!(hits, vec![(1, &Mutation::Zero)], "the index is kept");
    }

    #[test]
    fn file_paths_normalized() {
        let p = program();
        let sources = ResolvedSources::resolve(&[SourceSpec::file("//etc//x/")], &p);
        let segs = ["etc".to_string(), "x".to_string()];
        let file = Some(ResourceView::File(&segs));
        assert_eq!(
            sources
                .matching(p.main(), SiteId(0), Syscall::Read, file)
                .count(),
            1
        );
        assert_eq!(
            sources
                .matching(p.main(), SiteId(0), Syscall::Recv, file)
                .count(),
            0
        );
    }

    #[test]
    fn every_matching_source_is_yielded_in_order() {
        let p = program();
        let sources = ResolvedSources::resolve(
            &[
                SourceSpec::net("h"),
                SourceSpec::client(80),
                SourceSpec {
                    matcher: SourceMatcher::SyscallKind(Syscall::Recv),
                    mutation: Mutation::Zero,
                },
            ],
            &p,
        );
        let indices = |resource| {
            sources
                .matching(p.main(), SiteId(0), Syscall::Recv, resource)
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(indices(Some(ResourceView::Peer("h"))), vec![0, 2]);
        assert_eq!(indices(Some(ResourceView::Client(80))), vec![1, 2]);
        assert_eq!(indices(Some(Resource::Peer("g".into()).view())), vec![2]);
    }
}
