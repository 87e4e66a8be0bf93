//! The slave execution's syscall wrapper.
//!
//! For every syscall the slave checks its alignment against the master's
//! outcome log using the progress key (paper §4.2):
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

use crate::couple::{master_delta, Call, Coupling, Next};
use crate::mutation::Mutation;
use crate::overlay::Overlay;
use crate::recorder::{excerpt, ByteDiff, Decision, FlightEvent};
use crate::report::{CausalityKind, CausalityRecord, Role};
use crate::resolved::{fd_arg, ResolvedSinks, ResolvedSources};
use ldx_lang::Syscall;
use ldx_runtime::{
    LockTable, ProgressKey, StopSignal, SysOutcome, SyscallCtx, SyscallHooks, ThreadKey, Trap,
    Value,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Slave-side hooks.
pub(crate) struct SlaveHooks {
    pub coupling: Arc<Coupling>,
    pub overlay: Overlay,
    pub locks: LockTable,
    pub sinks: ResolvedSinks,
    pub sources: ResolvedSources,
    pub decoupled_threads: Mutex<HashSet<ThreadKey>>,
    pub spawn_counts: Mutex<HashMap<ThreadKey, u32>>,
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

    /// The alignment state machine (Alg. 2). Never blocks forever: the
    /// pair releases it on the master's progress, the master's
    /// termination, the stop signal, or the safety timeout. Every
    /// decision the slave witnesses — including master-only entries it
    /// skips — lands in the slave lane, so each lane has a single writer
    /// while both executions run.
    fn align(&self, ctx: &SyscallCtx, args: &[Value], is_sink: bool) -> Align {
        // Behind entries: master-only syscalls the slave will never issue.
        let pair = self.coupling.pair(&ctx.thread);
        let next = pair.next_for_slave(ctx, |e| {
            self.coupling
                .master_only(Role::Slave, &ctx.thread, e, CausalityKind::MasterOnlySink)
        });
        match next {
            Next::Aligned(e) if e.site == ctx.site && e.sys == ctx.sys => {
                if e.args == args {
                    if is_sink {
                        // Equal payloads: the sink is compared, then its
                        // outcome is shared like any aligned syscall's.
                        self.coupling
                            .note(Role::Slave, Decision::Compared, Call::at(ctx, true));
                    }
                    self.coupling
                        .note(Role::Slave, Decision::Shared, Call::at(ctx, is_sink));
                    return Align::Shared(e.outcome.clone());
                }
                // Same site, different arguments (Alg. 2 case 3).
                if is_sink {
                    self.coupling
                        .note(Role::Slave, Decision::Compared, Call::at(ctx, true));
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
                    // The slave skips the master's instance: a syscall
                    // difference, like any unmatched master entry.
                    self.coupling
                        .note(Role::Slave, Decision::MasterOnly, Call::at(ctx, false));
                }
                Align::Decoupled
            }
            Next::Aligned(e) => {
                // Same key, different site (Alg. 2 case 2).
                self.coupling.master_only(
                    Role::Slave,
                    &ctx.thread,
                    e,
                    CausalityKind::PathDiffAtSink,
                );
                if is_sink {
                    self.slave_only_sink(ctx);
                }
                Align::Decoupled
            }
            // The master is already past this key: no alignment will
            // ever exist (Alg. 2 case 1).
            Next::MasterPast => {
                if is_sink {
                    self.slave_only_sink(ctx);
                }
                Align::Decoupled
            }
            Next::GaveUp => Align::Decoupled,
        }
    }

    /// Mutation of the first configured source the syscall matches.
    fn source_mutation(&self, ctx: &SyscallCtx, args: &[Value]) -> Option<Mutation> {
        self.overlay
            .with_resource(&ctx.thread, fd_arg(args), |resource| {
                let (_, mutation) = self
                    .sources
                    .matching(ctx.func, ctx.site, ctx.sys, resource)
                    .next()?;
                Some(mutation.clone())
            })
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
        self.overlay
            .exec(&self.coupling, &ctx.thread, ctx.sys, args)
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
                if !self.overlay.lock_tainted(id) && !self.thread_decoupled(&ctx.thread) {
                    // Share the master's grant order: wait for the aligned
                    // lock entry before acquiring our own lock (paper §7).
                    if matches!(self.align(ctx, args, false), Align::Decoupled) {
                        self.overlay.taint_lock(&self.coupling, id);
                    }
                } else {
                    self.coupling
                        .note(Role::Slave, Decision::Decoupled, Call::at(ctx, false));
                }
                self.locks.lock(id, &ctx.thread, &ctx.stop);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                if !self.overlay.lock_tainted(id)
                    && !self.thread_decoupled(&ctx.thread)
                    && matches!(self.align(ctx, args, false), Align::Decoupled)
                {
                    self.overlay.taint_lock(&self.coupling, id);
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
                    self.slave_only_sink(ctx);
                }
                Ok(SysOutcome::DoLocal)
            }
            sys => {
                let is_sink = self.sinks.is_sink(ctx.func, ctx.site, sys, fd_arg(args));
                let alignment = if self.thread_decoupled(&ctx.thread) {
                    if is_sink {
                        self.slave_only_sink(ctx);
                    }
                    Align::Decoupled
                } else {
                    self.align(ctx, args, is_sink)
                };
                let mut outcome = match alignment {
                    Align::Shared(v) if self.overlay.share(&ctx.thread, sys, args, &v) => v,
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
        pair.publish(Role::Slave, key);
        self.coupling.flight(Role::Slave, || FlightEvent::Barrier {
            thread: thread.clone(),
            key: key.clone(),
            delta: pair.with_ready(Role::Master, |r| master_delta(r, key)),
        });
        Ok(())
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        self.coupling.pair(thread).finish(Role::Slave);
    }
}
