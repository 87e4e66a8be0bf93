//! The slave execution's syscall wrapper.
//!
//! For every syscall the slave checks its alignment against the master's
//! outcome queue using the progress key (paper §4.2):
//!
//! * **behind entries** (master-only syscalls) are skipped and counted as
//!   syscall differences — master-only *sinks* become causality records;
//! * an **equal** entry with the same site and arguments is *shared*: the
//!   slave copies the master's outcome without touching the OS;
//! * an equal entry with different arguments or a different site, or no
//!   entry at all once the master is provably past this key, means the
//!   paths diverged: the slave executes **decoupled** against its private
//!   overlay world (cloning touched resources, paper §7), and sink
//!   instances on either side become causality records;
//! * if the master is **behind**, the slave blocks until it catches up.
//!
//! Source-matched input outcomes are mutated (this is where the
//! counterfactual perturbation enters the slave).

use crate::couple::{Call, Coupling};
use crate::fdmap::{FdInfo, Resource, SlaveFdMap};
use crate::mutation::Mutation;
use crate::recorder::{excerpt, key_scalar, ByteDiff, Decision, FlightEvent, ResourceId};
use crate::report::{CausalityKind, CausalityRecord, Role};
use crate::resolved::{ResolvedMatcher, ResolvedSinks, ResolvedSources};
use ldx_lang::Syscall;
use ldx_runtime::{
    from_sys_ret, to_sys_args, LockTable, ProgressKey, ProgressOrder, StopSignal, SysOutcome,
    SyscallCtx, SyscallHooks, ThreadKey, Trap, Value,
};
use ldx_vos::{SlaveVos, SysArg, SysRet};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::master::MAX_WAIT;

/// Slave-side hooks.
pub(crate) struct SlaveHooks {
    pub coupling: Arc<Coupling>,
    pub overlay: SlaveVos,
    pub locks: LockTable,
    pub sinks: ResolvedSinks,
    pub sources: ResolvedSources,
    pub fdmap: Mutex<SlaveFdMap>,
    pub decoupled_threads: Mutex<HashSet<ThreadKey>>,
    pub spawn_counts: Mutex<HashMap<ThreadKey, u32>>,
}

/// How far the master's published progress is past the slave's key (0
/// when unknown, terminal, or behind).
fn master_delta(master: Option<&ProgressKey>, slave: &ProgressKey) -> u64 {
    match master {
        Some(m) if !m.is_top() => key_scalar(m).saturating_sub(key_scalar(slave)),
        _ => 0,
    }
}

/// Result of the alignment check.
enum Align {
    /// Aligned: use the master's outcome.
    Shared(Value),
    /// No alignment (any sink records were already emitted).
    Decoupled,
}

impl SlaveHooks {
    fn thread_decoupled(&self, t: &ThreadKey) -> bool {
        self.decoupled_threads.lock().contains(t)
    }

    fn record_sink(&self, ctx: &SyscallCtx, kind: CausalityKind) {
        self.coupling.record(CausalityRecord {
            kind,
            thread: ctx.thread.clone(),
            key: ctx.key.clone(),
            func: ctx.func,
            site: ctx.site,
            sys: ctx.sys,
        });
    }

    /// A sink the master provably never reaches at this key.
    fn slave_only_sink(&self, ctx: &SyscallCtx) {
        self.coupling
            .note(Role::Slave, Decision::SlaveOnly, Call::at(ctx, true));
        self.record_sink(ctx, CausalityKind::SlaveOnlySink);
    }

    fn render_args(args: &[Value]) -> String {
        let parts: Vec<String> = args.iter().map(Value::stringify).collect();
        parts.join(", ")
    }

    /// The alignment state machine, instrumented. When observability is
    /// on and the slave actually blocked, the wait is reported to the
    /// stall profiler (keyed by the barrier's static site) together with
    /// the master/slave progress-counter delta observed at release.
    fn align(&self, ctx: &SyscallCtx, args: &[Value], is_sink: bool) -> Align {
        let mut waits: u64 = 0;
        if !ldx_obs::enabled() {
            return self.align_inner(ctx, args, is_sink, &mut waits);
        }
        let t0_ns = ldx_obs::now_ns();
        let out = self.align_inner(ctx, args, is_sink, &mut waits);
        if waits > 0 {
            let ns = ldx_obs::now_ns().saturating_sub(t0_ns);
            let delta = {
                let pair = self.coupling.pair(&ctx.thread);
                let inner = pair.inner.lock();
                master_delta(inner.master_ready.as_ref(), &ctx.key)
            };
            ldx_obs::stall_record(&format!("f{}:s{}", ctx.func.0, ctx.site.0), ns, delta);
            ldx_obs::record_complete(
                ldx_obs::cat::BARRIER_WAIT,
                "align-wait",
                t0_ns,
                ns,
                vec![("delta", delta as i64), ("waits", waits as i64)],
            );
        }
        out
    }

    /// The alignment state machine. Never blocks forever: released by the
    /// master's progress, the master's termination, the stop signal, or
    /// the safety timeout. `waits` counts condvar blocks for the caller's
    /// stall accounting. Every decision the slave witnesses — including
    /// master-only entries it skips — lands in the slave lane, so each
    /// lane has a single writer while both executions run.
    fn align_inner(
        &self,
        ctx: &SyscallCtx,
        args: &[Value],
        is_sink: bool,
        waits: &mut u64,
    ) -> Align {
        let pair = self.coupling.pair(&ctx.thread);
        pair.publish(Role::Slave, ctx.key.clone());

        let start = Instant::now();
        let mut inner = pair.inner.lock();
        loop {
            if let Some(front) = inner.queue.front() {
                match front.key.cmp_progress(&ctx.key) {
                    ProgressOrder::Behind => {
                        // A master-only syscall the slave will never issue.
                        let e = inner.queue.pop_front().expect("front exists");
                        self.coupling.note(
                            Role::Slave,
                            Decision::MasterOnly,
                            Call::entry(&ctx.thread, &e),
                        );
                        if e.is_sink {
                            self.coupling.record(CausalityRecord {
                                kind: CausalityKind::MasterOnlySink,
                                thread: ctx.thread.clone(),
                                key: e.key,
                                func: e.func,
                                site: e.site,
                                sys: e.sys,
                            });
                        }
                    }
                    ProgressOrder::Equal => {
                        if front.site == ctx.site && front.sys == ctx.sys {
                            if front.args == args {
                                let e = inner.queue.pop_front().expect("front exists");
                                let decision = if is_sink {
                                    // Equal payloads: the sink's outcome is
                                    // shared too, which `Compared` alone
                                    // does not imply.
                                    self.coupling.stats.shared.fetch_add(1, Ordering::Relaxed);
                                    Decision::Compared
                                } else {
                                    Decision::Shared
                                };
                                self.coupling
                                    .note(Role::Slave, decision, Call::at(ctx, is_sink));
                                return Align::Shared(e.outcome);
                            }
                            // Same site, different arguments (Alg. 2 case 3).
                            let e = inner.queue.pop_front().expect("front exists");
                            if is_sink {
                                self.coupling.note(
                                    Role::Slave,
                                    Decision::Compared,
                                    Call::at(ctx, true),
                                );
                                self.coupling.flight(Role::Slave, || FlightEvent::SinkDiff {
                                    thread: ctx.thread.clone(),
                                    func: ctx.func,
                                    site: ctx.site,
                                    sys: ctx.sys,
                                    key: ctx.key.clone(),
                                    diff: ByteDiff::compute(
                                        &Self::render_args(&e.args),
                                        &Self::render_args(args),
                                    ),
                                });
                                self.record_sink(
                                    ctx,
                                    CausalityKind::ArgDiff {
                                        master: Self::render_args(&e.args),
                                        slave: Self::render_args(args),
                                    },
                                );
                            } else {
                                // A non-sink argument mismatch has no
                                // flight event of its own.
                                self.coupling.stats.diffs.fetch_add(1, Ordering::Relaxed);
                            }
                            return Align::Decoupled;
                        }
                        // Same key, different site (Alg. 2 case 2).
                        let e = inner.queue.pop_front().expect("front exists");
                        self.coupling.note(
                            Role::Slave,
                            Decision::MasterOnly,
                            Call::entry(&ctx.thread, &e),
                        );
                        if e.is_sink {
                            self.coupling.record(CausalityRecord {
                                kind: CausalityKind::PathDiffAtSink,
                                thread: ctx.thread.clone(),
                                key: e.key,
                                func: e.func,
                                site: e.site,
                                sys: e.sys,
                            });
                        }
                        if is_sink {
                            self.slave_only_sink(ctx);
                        }
                        return Align::Decoupled;
                    }
                    ProgressOrder::Ahead | ProgressOrder::Divergent => {
                        // The master is already past this key: no alignment
                        // will ever exist (Alg. 2 case 1).
                        if is_sink {
                            self.slave_only_sink(ctx);
                        }
                        return Align::Decoupled;
                    }
                }
                continue;
            }
            // Queue empty: decide by the master's published progress.
            let master_past = inner.master_done
                || inner
                    .master_ready
                    .as_ref()
                    .is_some_and(|r| !matches!(r.cmp_progress(&ctx.key), ProgressOrder::Behind));
            if master_past {
                if is_sink {
                    self.slave_only_sink(ctx);
                }
                return Align::Decoupled;
            }
            if ctx.stop.should_stop() || start.elapsed() > MAX_WAIT {
                return Align::Decoupled;
            }
            *waits += 1;
            pair.cv.wait_for(&mut inner, Duration::from_millis(2));
        }
    }

    /// Mutation matching one of the configured sources, if any.
    fn source_mutation(&self, ctx: &SyscallCtx, args: &[Value]) -> Option<Mutation> {
        let fdmap = self.fdmap.lock();
        let fd_resource = args.first().and_then(|a| match a {
            Value::Int(fd) => fdmap.get(*fd).map(|i| i.resource.clone()),
            _ => None,
        });
        for source in &self.sources.sources {
            let hit = match &source.matcher {
                ResolvedMatcher::FileRead(segs) => {
                    ctx.sys == Syscall::Read
                        && matches!(&fd_resource, Some(Resource::File { path, .. })
                            if &ldx_vos::normalize_path(path) == segs)
                }
                ResolvedMatcher::NetRecv(host) => {
                    matches!(ctx.sys, Syscall::Recv | Syscall::Read)
                        && matches!(&fd_resource, Some(Resource::Peer { host: h }) if h == host)
                }
                ResolvedMatcher::ClientRecv(port) => {
                    matches!(ctx.sys, Syscall::Recv | Syscall::Read)
                        && matches!(&fd_resource, Some(Resource::Client { port: p, .. }) if p == port)
                }
                ResolvedMatcher::SyscallKind(sys) => ctx.sys == *sys,
                ResolvedMatcher::Site(fid, site) => ctx.func == *fid && ctx.site == *site,
            };
            if hit {
                return Some(source.mutation.clone());
            }
        }
        None
    }

    /// Whether the syscall references a tainted resource.
    fn touches_tainted(&self, sys: Syscall, args: &[Value]) -> bool {
        for path in Self::paths_in(sys, args) {
            if self.coupling.path_tainted(&path) {
                return true;
            }
        }
        if let Some(Value::Int(fd)) = args.first() {
            if matches!(
                sys,
                Syscall::Read | Syscall::Write | Syscall::Seek | Syscall::Close
            ) {
                if let Some(FdInfo {
                    resource: Resource::File { path, .. },
                    ..
                }) = self.fdmap.lock().get(*fd)
                {
                    return self.coupling.path_tainted(path);
                }
            }
        }
        false
    }

    fn paths_in(sys: Syscall, args: &[Value]) -> Vec<String> {
        let mut out = Vec::new();
        let grab = |i: usize, out: &mut Vec<String>| {
            if let Some(Value::Str(s)) = args.get(i) {
                out.push(s.to_string());
            }
        };
        match sys {
            Syscall::Open | Syscall::Stat | Syscall::Mkdir | Syscall::Unlink | Syscall::Readdir => {
                grab(0, &mut out)
            }
            Syscall::Rename => {
                grab(0, &mut out);
                grab(1, &mut out);
            }
            _ => {}
        }
        out
    }

    /// Reconstructs (or retrieves) the overlay descriptor for a program
    /// descriptor whose resource was created while coupled (paper §4.2:
    /// clone, open, seek).
    fn ensure_overlay_fd(&self, fdmap: &mut SlaveFdMap, fd: i64) -> Option<i64> {
        let info = fdmap.get(fd)?.clone();
        if let Some(ofd) = info.overlay_fd {
            return Some(ofd);
        }
        let ofd = match &info.resource {
            Resource::File { path, flags } => {
                self.coupling.taint_path(path);
                self.coupling.flight(Role::Slave, || FlightEvent::CowClone {
                    resource: ResourceId::Path(ldx_vos::normalize_path(path).join("/")),
                    pos: info.pos as u64,
                });
                let mode = if *flags == 0 { 0 } else { 2 };
                let SysRet::Int(ofd) = self
                    .overlay
                    .syscall(
                        Syscall::Open,
                        &[SysArg::Str(path.clone()), SysArg::Int(mode)],
                    )
                    .ok()?
                else {
                    return None;
                };
                if ofd < 0 {
                    return None;
                }
                if *flags == 0 && info.pos > 0 {
                    let _ = self.overlay.syscall(
                        Syscall::Seek,
                        &[SysArg::Int(ofd), SysArg::Int(info.pos as i64)],
                    );
                }
                ofd
            }
            Resource::Peer { host } => {
                self.coupling.flight(Role::Slave, || FlightEvent::CowClone {
                    resource: ResourceId::Peer(host.clone()),
                    pos: info.pos as u64,
                });
                let SysRet::Int(ofd) = self
                    .overlay
                    .syscall(Syscall::Connect, &[SysArg::Str(host.clone())])
                    .ok()?
                else {
                    return None;
                };
                if ofd < 0 {
                    return None;
                }
                ofd
            }
            Resource::Client { port, index } => {
                self.coupling.flight(Role::Slave, || FlightEvent::CowClone {
                    resource: ResourceId::Client(*port),
                    pos: info.pos as u64,
                });
                // Replay accepts up to this client's index, then skip the
                // characters already consumed while coupled.
                let mut ofd = -1;
                while fdmap.overlay_accepts <= *index {
                    let SysRet::Int(got) = self
                        .overlay
                        .syscall(Syscall::Accept, &[SysArg::Int(*port)])
                        .ok()?
                    else {
                        return None;
                    };
                    fdmap.overlay_accepts += 1;
                    ofd = got;
                }
                if ofd < 0 {
                    return None;
                }
                if info.pos > 0 {
                    let _ = self.overlay.syscall(
                        Syscall::Recv,
                        &[SysArg::Int(ofd), SysArg::Int(info.pos as i64)],
                    );
                }
                ofd
            }
        };
        if let Some(slot) = fdmap.get_mut(fd) {
            slot.overlay_fd = Some(ofd);
        }
        Some(ofd)
    }

    /// Executes a syscall against the private overlay world.
    fn exec_decoupled(
        &self,
        ctx: &SyscallCtx,
        args: &[Value],
        is_sink: bool,
    ) -> Result<Value, Trap> {
        self.coupling
            .note(Role::Slave, Decision::Decoupled, Call::at(ctx, is_sink));
        let mut fdmap = self.fdmap.lock();
        let sys = ctx.sys;
        match sys {
            Syscall::Open => {
                let path = args[0].as_str()?.to_string();
                let flags = args[1].as_int()?;
                self.coupling.taint_path(&path);
                let ret = self.overlay.syscall(sys, &to_sys_args(args)?)?;
                if let SysRet::Int(fd) = &ret {
                    fdmap.on_open(*fd, &path, flags);
                    if let Some(info) = fdmap.get_mut(*fd) {
                        info.overlay_fd = Some(*fd);
                    }
                }
                Ok(from_sys_ret(ret))
            }
            Syscall::Connect => {
                let host = args[0].as_str()?.to_string();
                let ret = self.overlay.syscall(sys, &to_sys_args(args)?)?;
                if let SysRet::Int(fd) = &ret {
                    fdmap.on_connect(*fd, &host);
                    if let Some(info) = fdmap.get_mut(*fd) {
                        info.overlay_fd = Some(*fd);
                    }
                }
                Ok(from_sys_ret(ret))
            }
            Syscall::Accept => {
                let port = args[0].as_int()?;
                // Catch up the overlay backlog to the coupled position.
                while fdmap.overlay_accepts < fdmap.accept_count {
                    let _ = self.overlay.syscall(sys, &to_sys_args(args)?);
                    fdmap.overlay_accepts += 1;
                }
                let ret = self.overlay.syscall(sys, &to_sys_args(args)?)?;
                fdmap.overlay_accepts += 1;
                if let SysRet::Int(fd) = &ret {
                    fdmap.on_accept(*fd, port);
                    if let Some(info) = fdmap.get_mut(*fd) {
                        info.overlay_fd = Some(*fd);
                    }
                }
                Ok(from_sys_ret(ret))
            }
            Syscall::Read | Syscall::Recv => {
                let fd = args[0].as_int()?;
                if (0..=2).contains(&fd) {
                    return Ok(Value::str(""));
                }
                let Some(ofd) = self.ensure_overlay_fd(&mut fdmap, fd) else {
                    return Ok(Value::str(""));
                };
                let n = args[1].as_int()?;
                let ret = self
                    .overlay
                    .syscall(sys, &[SysArg::Int(ofd), SysArg::Int(n)])?;
                if let SysRet::Str(s) = &ret {
                    fdmap.on_read(fd, s.chars().count());
                }
                Ok(from_sys_ret(ret))
            }
            Syscall::Write | Syscall::Send => {
                let fd = args[0].as_int()?;
                let data = args[1].as_str()?;
                if (0..=2).contains(&fd) {
                    let ret = self.overlay.syscall(sys, &to_sys_args(args)?)?;
                    return Ok(from_sys_ret(ret));
                }
                let Some(ofd) = self.ensure_overlay_fd(&mut fdmap, fd) else {
                    return Ok(Value::Int(-1));
                };
                let ret = self
                    .overlay
                    .syscall(sys, &[SysArg::Int(ofd), SysArg::Str(data.to_string())])?;
                Ok(from_sys_ret(ret))
            }
            Syscall::Seek => {
                let fd = args[0].as_int()?;
                let pos = args[1].as_int()?;
                fdmap.on_seek(fd, pos);
                if let Some(ofd) = fdmap.get(fd).and_then(|i| i.overlay_fd) {
                    let _ = self
                        .overlay
                        .syscall(sys, &[SysArg::Int(ofd), SysArg::Int(pos)]);
                }
                Ok(Value::Int(0))
            }
            Syscall::Close => {
                let fd = args[0].as_int()?;
                if let Some(info) = fdmap.on_close(fd) {
                    if let Some(ofd) = info.overlay_fd {
                        let _ = self.overlay.syscall(sys, &[SysArg::Int(ofd)]);
                    }
                    Ok(Value::Int(0))
                } else {
                    Ok(Value::Int(-1))
                }
            }
            Syscall::Stat
            | Syscall::Mkdir
            | Syscall::Unlink
            | Syscall::Readdir
            | Syscall::Rename => {
                for p in Self::paths_in(sys, args) {
                    self.coupling.taint_path(&p);
                }
                Ok(from_sys_ret(
                    self.overlay.syscall(sys, &to_sys_args(args)?)?,
                ))
            }
            Syscall::GetPid | Syscall::Time | Syscall::Random | Syscall::Sleep => Ok(from_sys_ret(
                self.overlay.syscall(sys, &to_sys_args(args)?)?,
            )),
            other => Err(Trap::Aborted {
                reason: format!("decoupled execution of unexpected syscall `{other}`"),
            }),
        }
    }
}

impl SyscallHooks for SlaveHooks {
    fn syscall(&self, ctx: &SyscallCtx, args: &[Value]) -> Result<SysOutcome, Trap> {
        if ctx.stop.should_stop() {
            return Err(Trap::Aborted {
                reason: "slave execution stopping".into(),
            });
        }
        match ctx.sys {
            Syscall::Lock => {
                let id = args[0].as_int()?;
                let tainted = self.coupling.tainted_locks.lock().contains(&id);
                if !tainted && !self.thread_decoupled(&ctx.thread) {
                    // Share the master's grant order: wait for the aligned
                    // lock entry before acquiring our own lock (paper §7).
                    if matches!(self.align(ctx, args, false), Align::Decoupled) {
                        self.coupling.taint_lock(id);
                    }
                } else {
                    // Counted as decoupled, with no flight event of its own.
                    self.coupling
                        .stats
                        .decoupled
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.locks.lock(id, &ctx.thread, &ctx.stop);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                let tainted = self.coupling.tainted_locks.lock().contains(&id);
                if !tainted
                    && !self.thread_decoupled(&ctx.thread)
                    && matches!(self.align(ctx, args, false), Align::Decoupled)
                {
                    self.coupling.taint_lock(id);
                }
                self.locks.unlock(id);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Spawn => {
                let index = {
                    let mut counts = self.spawn_counts.lock();
                    let c = counts.entry(ctx.thread.clone()).or_insert(0);
                    let i = *c;
                    *c += 1;
                    i
                };
                let child = ctx.thread.child(index);
                let decoupled = if self.thread_decoupled(&ctx.thread) {
                    true
                } else {
                    matches!(self.align(ctx, args, false), Align::Decoupled)
                };
                if decoupled {
                    // The spawned thread is unique to the slave: it runs
                    // fully decoupled (paper §7).
                    self.decoupled_threads.lock().insert(child);
                }
                Ok(SysOutcome::DoLocal)
            }
            Syscall::Join | Syscall::Exit | Syscall::Setjmp | Syscall::Longjmp => {
                let is_sink = ctx.sys == Syscall::Longjmp;
                if !self.thread_decoupled(&ctx.thread) {
                    let _ = self.align(ctx, args, is_sink);
                } else if is_sink {
                    self.record_sink(ctx, CausalityKind::SlaveOnlySink);
                }
                Ok(SysOutcome::DoLocal)
            }
            sys => {
                let is_sink = self.sinks.is_sink(ctx.func, ctx.site, sys, args);
                let alignment = if self.thread_decoupled(&ctx.thread) {
                    if is_sink {
                        self.record_sink(ctx, CausalityKind::SlaveOnlySink);
                    }
                    Align::Decoupled
                } else {
                    self.align(ctx, args, is_sink)
                };
                let tainted = self.touches_tainted(sys, args);
                let mut outcome = match alignment {
                    Align::Shared(v) if !tainted => {
                        // Observe shared outcomes so the descriptor shadow
                        // stays accurate.
                        let mut fdmap = self.fdmap.lock();
                        match (sys, args.first(), &v) {
                            (Syscall::Open, Some(Value::Str(p)), Value::Int(fd)) => {
                                let flags = args[1].as_int().unwrap_or(0);
                                fdmap.on_open(*fd, p, flags);
                            }
                            (Syscall::Connect, Some(Value::Str(h)), Value::Int(fd)) => {
                                fdmap.on_connect(*fd, h);
                            }
                            (Syscall::Accept, Some(Value::Int(port)), Value::Int(fd)) => {
                                fdmap.on_accept(*fd, *port);
                            }
                            (
                                Syscall::Read | Syscall::Recv,
                                Some(Value::Int(fd)),
                                Value::Str(s),
                            ) => {
                                fdmap.on_read(*fd, s.chars().count());
                            }
                            (Syscall::Seek, Some(Value::Int(fd)), _) => {
                                if let Ok(p) = args[1].as_int() {
                                    fdmap.on_seek(*fd, p);
                                }
                            }
                            (Syscall::Close, Some(Value::Int(fd)), _) => {
                                if let Some(info) = fdmap.on_close(*fd) {
                                    if let Some(ofd) = info.overlay_fd {
                                        drop(fdmap);
                                        let _ = self
                                            .overlay
                                            .syscall(Syscall::Close, &[SysArg::Int(ofd)]);
                                        fdmap = self.fdmap.lock();
                                    }
                                }
                            }
                            _ => {}
                        }
                        drop(fdmap);
                        v
                    }
                    // Aligned but on a tainted resource: consume the entry
                    // (done in align) yet execute privately (paper §7:
                    // "future syscalls on the resource cannot be coupled").
                    Align::Shared(_) | Align::Decoupled => {
                        self.exec_decoupled(ctx, args, is_sink)?
                    }
                };
                if let Some(mutation) = self.source_mutation(ctx, args) {
                    let mutated = mutation.apply(&outcome);
                    if mutated != outcome {
                        self.coupling.flight(Role::Slave, || FlightEvent::Mutated {
                            thread: ctx.thread.clone(),
                            func: ctx.func,
                            site: ctx.site,
                            sys,
                            key: ctx.key.clone(),
                            original: excerpt(&outcome.stringify()),
                            mutated: excerpt(&mutated.stringify()),
                        });
                    }
                    outcome = mutated;
                }
                Ok(SysOutcome::Value(outcome))
            }
        }
    }

    fn loop_barrier(
        &self,
        thread: &ThreadKey,
        key: &ProgressKey,
        _stop: &StopSignal,
    ) -> Result<(), Trap> {
        if self.thread_decoupled(thread) {
            return Ok(());
        }
        // Like the master side, the slave publishes its barrier progress
        // but does not block: its next syscall's alignment wait provides
        // the ordering (detection mode; see DESIGN.md).
        let _s = ldx_obs::span(ldx_obs::cat::BARRIER_WAIT, "loop-barrier");
        let pair = self.coupling.pair(thread);
        pair.publish(Role::Slave, key.clone());
        self.coupling.flight(Role::Slave, || FlightEvent::Barrier {
            thread: thread.clone(),
            key: key.clone(),
            delta: master_delta(pair.inner.lock().master_ready.as_ref(), key),
        });
        Ok(())
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        self.coupling.pair(thread).finish(Role::Slave);
    }
}
