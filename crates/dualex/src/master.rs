//! The master execution's syscall wrapper (paper Algorithm 2).
//!
//! The master runs against the real virtual world, records every syscall
//! outcome into its thread pair's queue, and publishes its progress so the
//! slave can align. In the paper the master also blocks at sinks to
//! compare arguments in-line (enforcement mode); this reproduction runs in
//! *detection* mode — sink comparison happens when the slave reaches the
//! aligned sink, or at end-of-run reconciliation for sinks the slave never
//! reaches — which detects exactly the same causality set without the
//! master-side stall (deviation documented in DESIGN.md).

use crate::couple::{wait_until, Call, Coupling, Entry};
use crate::recorder::{key_scalar, Decision, FlightEvent};
use crate::report::Role;
use crate::resolved::ResolvedSinks;
use ldx_lang::Syscall;
use ldx_runtime::{
    from_sys_ret, to_sys_args, LockTable, ProgressKey, ProgressOrder, StopSignal, SysOutcome,
    SyscallCtx, SyscallHooks, ThreadKey, Trap, Value,
};
use ldx_vos::Vos;
use std::sync::Arc;
use std::time::Duration;

/// How long any coupling wait may block before giving up (safety valve;
/// orders of magnitude above any legitimate wait in the test suite).
pub(crate) const MAX_WAIT: Duration = Duration::from_secs(30);

/// Master-side hooks.
pub(crate) struct MasterHooks {
    pub coupling: Arc<Coupling>,
    pub vos: Arc<Vos>,
    pub locks: LockTable,
    pub sinks: ResolvedSinks,
    /// Paper-faithful lockstep: block at sinks and barriers until the
    /// slave catches up (see `DualSpec::enforcement`).
    pub enforcement: bool,
}

impl MasterHooks {
    fn enqueue(&self, ctx: &SyscallCtx, args: &[Value], outcome: Value, is_sink: bool) {
        let pair = self.coupling.pair(&ctx.thread);
        let mut inner = pair.inner.lock();
        inner.queue.push_back(Entry {
            key: ctx.key.clone(),
            func: ctx.func,
            site: ctx.site,
            sys: ctx.sys,
            args: args.to_vec(),
            outcome,
            is_sink,
        });
        inner.master_ready = Some(ctx.key.clone());
        drop(inner);
        pair.cv.notify_all();
        self.coupling
            .note(Role::Master, Decision::Executed, Call::at(ctx, is_sink));
    }
}

impl SyscallHooks for MasterHooks {
    fn syscall(&self, ctx: &SyscallCtx, args: &[Value]) -> Result<SysOutcome, Trap> {
        if ctx.stop.should_stop() {
            return Err(Trap::Aborted {
                reason: "master execution stopping".into(),
            });
        }
        match ctx.sys {
            Syscall::Lock => {
                let id = args[0].as_int()?;
                self.locks.lock(id, &ctx.thread, &ctx.stop);
                self.enqueue(ctx, args, Value::Int(0), false);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                self.locks.unlock(id);
                self.enqueue(ctx, args, Value::Int(0), false);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Spawn | Syscall::Join | Syscall::Exit | Syscall::Setjmp | Syscall::Longjmp => {
                // Control syscalls always execute independently (paper
                // §4.2); a longjmp is preceded by an artificial sink (§6)
                // so a jump difference across the executions is reported.
                let is_sink = ctx.sys == Syscall::Longjmp;
                self.enqueue(ctx, args, Value::Int(0), is_sink);
                Ok(SysOutcome::DoLocal)
            }
            sys => {
                let is_sink = self.sinks.is_sink(ctx.func, ctx.site, sys, args);
                if is_sink && self.enforcement {
                    // Alg. 2 lines 2–6: spin until the slave catches up so
                    // the comparison happens before the output escapes.
                    // Note: the master must NOT publish this key yet — its
                    // published progress asserts every entry up to the key
                    // is enqueued, and the sink entry is not (an early-
                    // arriving slave would decouple spuriously otherwise).
                    let pair = self.coupling.pair(&ctx.thread);
                    let _s = ldx_obs::span(ldx_obs::cat::BARRIER_WAIT, "sink-wait");
                    wait_until(&pair, &ctx.stop, MAX_WAIT, |inner| {
                        inner.slave_done
                            || inner.slave_ready.as_ref().is_some_and(|ready| {
                                !matches!(ready.cmp_progress(&ctx.key), ProgressOrder::Behind)
                            })
                    });
                }
                let sys_args = to_sys_args(args)?;
                let outcome = from_sys_ret(self.vos.syscall(sys, &sys_args)?);
                self.enqueue(ctx, args, outcome.clone(), is_sink);
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
        // Detection mode (default): publishing the barrier progress is
        // sufficient for alignment — the slave's per-syscall wait provides
        // all the ordering the protocol needs — so the master runs
        // unthrottled. Enforcement mode restores the paper's lockstep
        // iteration barrier.
        let pair = self.coupling.pair(thread);
        pair.publish(Role::Master, key.clone());
        self.coupling.flight(Role::Master, || {
            let peer = pair
                .inner
                .lock()
                .slave_ready
                .as_ref()
                .map(key_scalar)
                .unwrap_or(0);
            FlightEvent::Barrier {
                thread: thread.clone(),
                key: key.clone(),
                delta: peer.saturating_sub(key_scalar(key)),
            }
        });
        if self.enforcement {
            let _s = ldx_obs::span(ldx_obs::cat::BARRIER_WAIT, "loop-barrier");
            wait_until(&pair, _stop, MAX_WAIT, |inner| {
                inner.slave_done
                    || inner.slave_ready.as_ref().is_some_and(|ready| {
                        !matches!(ready.cmp_progress(key), ProgressOrder::Behind)
                    })
            });
        }
        Ok(())
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        self.coupling.pair(thread).finish(Role::Master);
    }
}
